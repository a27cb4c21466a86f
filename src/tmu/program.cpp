#include "program.hpp"

#include <map>
#include <set>

#include "common/log.hpp"
#include "sim/addrspace.hpp"

namespace tmu::engine {

const char *
traversalKindName(TraversalKind k)
{
    switch (k) {
      case TraversalKind::Dense:
        return "Dns";
      case TraversalKind::Range:
        return "Rng";
      case TraversalKind::Index:
        return "Idx";
    }
    return "?";
}

const char *
streamKindName(StreamKind k)
{
    switch (k) {
      case StreamKind::Ite:
        return "ite";
      case StreamKind::Mem:
        return "mem";
      case StreamKind::Lin:
        return "lin";
      case StreamKind::Map:
        return "map";
      case StreamKind::Ldr:
        return "ldr";
      case StreamKind::Fwd:
        return "fwd";
    }
    return "?";
}

const char *
groupModeName(GroupMode m)
{
    switch (m) {
      case GroupMode::Single:
        return "Single";
      case GroupMode::BCast:
        return "BCast";
      case GroupMode::Keep:
        return "Keep";
      case GroupMode::DisjMrg:
        return "DisjMrg";
      case GroupMode::ConjMrg:
        return "ConjMrg";
      case GroupMode::LockStep:
        return "LockStep";
    }
    return "?";
}

const char *
callbackEventName(CallbackEvent e)
{
    switch (e) {
      case CallbackEvent::GroupBegin:
        return "GBEG";
      case CallbackEvent::GroupIte:
        return "GITE";
      case CallbackEvent::GroupEnd:
        return "GEND";
    }
    return "?";
}

int
TmuProgram::addLayer(GroupMode mode, int keepLane)
{
    LayerDesc layer;
    layer.mode = mode;
    layer.keepLane = keepLane;
    layers_.push_back(std::move(layer));
    return static_cast<int>(layers_.size()) - 1;
}

TuRef
TmuProgram::addTu(int layer, int lane, TuDesc desc)
{
    TMU_ASSERT(layer >= 0 && layer < numLayers(), "no such layer %d",
               layer);
    TMU_ASSERT(lane >= 0 && lane < kMaxLanes);
    auto &tus = layers_[static_cast<size_t>(layer)].tus;
    if (static_cast<int>(tus.size()) <= lane)
        tus.resize(static_cast<size_t>(lane) + 1);
    TMU_ASSERT(tus[static_cast<size_t>(lane)].streams.empty(),
               "TU (%d,%d) already configured", layer, lane);

    // Slot 0 is always the implicit Ite stream.
    StreamDesc ite;
    ite.kind = StreamKind::Ite;
    ite.elem = ElemType::I64;
    ite.name = "ite";
    desc.streams.insert(desc.streams.begin(), std::move(ite));
    tus[static_cast<size_t>(lane)] = std::move(desc);
    return {layer, lane};
}

TuRef
TmuProgram::dnsFbrT(int layer, int lane, Index beg, Index end,
                    Index stride)
{
    TuDesc d;
    d.kind = TraversalKind::Dense;
    d.beg = beg;
    d.end = end;
    d.stride = stride;
    return addTu(layer, lane, std::move(d));
}

TuRef
TmuProgram::rngFbrT(int layer, int lane, StreamRef beg, StreamRef end,
                    Index offset, Index stride)
{
    TuDesc d;
    d.kind = TraversalKind::Range;
    d.begStream = beg;
    d.endStream = end;
    d.offset = offset;
    d.stride = stride;
    return addTu(layer, lane, std::move(d));
}

TuRef
TmuProgram::idxFbrT(int layer, int lane, StreamRef beg, Index size,
                    Index offset, Index stride)
{
    TuDesc d;
    d.kind = TraversalKind::Index;
    d.begStream = beg;
    d.size = size;
    d.offset = offset;
    d.stride = stride;
    return addTu(layer, lane, std::move(d));
}

StreamRef
TmuProgram::iteStream(TuRef tu) const
{
    TMU_ASSERT(tu.valid());
    return {tu, 0};
}

StreamRef
TmuProgram::addStream(TuRef tu, StreamDesc desc)
{
    TuDesc &d = tuMutable(tu);
    d.streams.push_back(std::move(desc));
    return {tu, static_cast<int>(d.streams.size()) - 1};
}

StreamRef
TmuProgram::addMemStream(TuRef tu, const void *base, ElemType elem,
                         StreamRef index, std::string name,
                         StreamRef index2)
{
    StreamDesc s;
    s.kind = StreamKind::Mem;
    s.elem = elem;
    s.base = sim::canonBase(base);
    s.parent = index.valid() ? index : iteStream(tu);
    s.parent2 = index2;
    s.name = std::move(name);
    return addStream(tu, std::move(s));
}

StreamRef
TmuProgram::addLinStream(TuRef tu, double a, double b, StreamRef index,
                         std::string name, StreamRef index2)
{
    StreamDesc s;
    s.kind = StreamKind::Lin;
    s.elem = ElemType::I64;
    s.linA = a;
    s.linB = b;
    s.parent = index.valid() ? index : iteStream(tu);
    s.parent2 = index2;
    s.name = std::move(name);
    return addStream(tu, std::move(s));
}

StreamRef
TmuProgram::addMapStream(TuRef tu, std::vector<std::int64_t> map,
                         StreamRef index, std::string name)
{
    TMU_ASSERT(!map.empty() && map.size() <= 16,
               "map streams hold at most 16 entries");
    StreamDesc s;
    s.kind = StreamKind::Map;
    s.elem = ElemType::I64;
    s.map = std::move(map);
    s.parent = index.valid() ? index : iteStream(tu);
    s.name = std::move(name);
    return addStream(tu, std::move(s));
}

StreamRef
TmuProgram::addLdrStream(TuRef tu, const void *base, StreamRef index,
                         std::string name, StreamRef index2)
{
    StreamDesc s;
    s.kind = StreamKind::Ldr;
    s.elem = ElemType::I64;
    s.base = sim::canonBase(base);
    s.parent = index.valid() ? index : iteStream(tu);
    s.parent2 = index2;
    s.name = std::move(name);
    return addStream(tu, std::move(s));
}

StreamRef
TmuProgram::addFwdStream(TuRef tu, StreamRef source, std::string name)
{
    TMU_ASSERT(source.valid());
    TMU_ASSERT(source.tu.layer < tu.layer,
               "fwd must forward from a leftward TU");
    StreamDesc s;
    s.kind = StreamKind::Fwd;
    s.elem = stream(source).elem;
    s.fwdSource = source;
    s.name = std::move(name);
    return addStream(tu, std::move(s));
}

void
TmuProgram::setMergeKey(TuRef tu, StreamRef key)
{
    TMU_ASSERT(key.tu == tu, "merge key must belong to the same TU");
    tuMutable(tu).mergeKey = key;
}

void
TmuProgram::setExpectedFiberLen(TuRef tu, Index len)
{
    TMU_ASSERT(len > 0);
    tuMutable(tu).expectedFiberLen = len;
}

void
TmuProgram::setDenseBounds(TuRef ref, Index beg, Index end)
{
    TuDesc &d = tuMutable(ref);
    TMU_ASSERT(d.kind == TraversalKind::Dense,
               "setDenseBounds on a non-dense TU");
    d.beg = beg;
    d.end = end;
}

int
TmuProgram::addVecStream(int layer, std::vector<StreamRef> perLane,
                         ElemType elem, std::string name)
{
    TMU_ASSERT(layer >= 0 && layer < numLayers());
    TMU_ASSERT(!perLane.empty());
    for (const StreamRef &s : perLane)
        TMU_ASSERT(s.tu.layer == layer,
                   "group streams marshal same-layer TUs");
    GroupStreamDesc g;
    g.perLane = std::move(perLane);
    g.elem = elem;
    g.name = std::move(name);
    auto &gs = layers_[static_cast<size_t>(layer)].groupStreams;
    gs.push_back(std::move(g));
    return static_cast<int>(gs.size()) - 1;
}

void
TmuProgram::addCallback(int layer, CallbackEvent event, int callbackId,
                        std::vector<int> operands)
{
    TMU_ASSERT(layer >= 0 && layer < numLayers());
    const auto &gs = layers_[static_cast<size_t>(layer)].groupStreams;
    for (int o : operands) {
        TMU_ASSERT(o == kMskOperand ||
                       (o >= 0 && o < static_cast<int>(gs.size())),
                   "callback operand %d not registered", o);
    }
    CallbackDesc cb;
    cb.event = event;
    cb.callbackId = callbackId;
    cb.operands = std::move(operands);
    layers_[static_cast<size_t>(layer)].callbacks.push_back(std::move(cb));
}

int
TmuProgram::maxLanes() const
{
    int lanes = 0;
    for (const auto &l : layers_)
        lanes = std::max(lanes, l.lanes());
    return lanes;
}

const TuDesc &
TmuProgram::tu(TuRef ref) const
{
    TMU_ASSERT(ref.valid());
    const auto &tus = layers_.at(static_cast<size_t>(ref.layer)).tus;
    TMU_ASSERT(ref.lane < static_cast<int>(tus.size()),
               "no TU at (%d,%d)", ref.layer, ref.lane);
    return tus[static_cast<size_t>(ref.lane)];
}

TuDesc &
TmuProgram::tuMutable(TuRef ref)
{
    return const_cast<TuDesc &>(tu(ref));
}

const StreamDesc &
TmuProgram::stream(StreamRef ref) const
{
    const TuDesc &t = tu(ref.tu);
    TMU_ASSERT(ref.slot >= 0 &&
               ref.slot < static_cast<int>(t.streams.size()));
    return t.streams[static_cast<size_t>(ref.slot)];
}

void
TmuProgram::validate(int engineLanes) const
{
    TMU_ASSERT(numLayers() > 0, "empty TMU program");
    for (int l = 0; l < numLayers(); ++l) {
        const LayerDesc &layer = layers_[static_cast<size_t>(l)];
        if (layer.lanes() > engineLanes) {
            TMU_FATAL("layer %d uses %d lanes but the engine has %d", l,
                      layer.lanes(), engineLanes);
        }
        if (layer.lanes() == 0)
            TMU_FATAL("layer %d has no TUs", l);
        for (int r = 0; r < layer.lanes(); ++r) {
            const TuDesc &t = layer.tus[static_cast<size_t>(r)];
            if (t.streams.empty())
                TMU_FATAL("TU (%d,%d) was never configured", l, r);
            if (t.kind != TraversalKind::Dense) {
                if (!t.begStream.valid() ||
                    t.begStream.tu.layer != l - 1) {
                    TMU_FATAL("TU (%d,%d): bounds must come from "
                              "layer %d", l, r, l - 1);
                }
                if (t.kind == TraversalKind::Range &&
                    (!t.endStream.valid() ||
                     t.endStream.tu.layer != l - 1)) {
                    TMU_FATAL("TU (%d,%d): end bound must come from "
                              "layer %d", l, r, l - 1);
                }
            }
            if (t.stride == 0)
                TMU_FATAL("TU (%d,%d): zero stride", l, r);
            for (const StreamDesc &s : t.streams) {
                if (s.kind == StreamKind::Mem || s.kind == StreamKind::Lin ||
                    s.kind == StreamKind::Map || s.kind == StreamKind::Ldr) {
                    // Index parents live in the same TU or to the left.
                    if (s.parent.tu.layer > l)
                        TMU_FATAL("stream parent is rightward of its TU");
                }
            }
        }
        if ((layer.mode == GroupMode::DisjMrg ||
             layer.mode == GroupMode::ConjMrg) &&
            layer.lanes() < 2) {
            TMU_FATAL("layer %d: merging needs at least 2 lanes", l);
        }
    }
}

std::string
TmuProgram::describe() const
{
    std::string out;
    for (int l = 0; l < numLayers(); ++l) {
        const LayerDesc &layer = layers_[static_cast<size_t>(l)];
        out += detail::format("L%d[%s x%d]:", l,
                              groupModeName(layer.mode), layer.lanes());
        const TuDesc &t = layer.tus[0];
        out += detail::format(" %s", traversalKindName(t.kind));
        for (size_t s = 1; s < t.streams.size(); ++s) {
            out += detail::format(" %s%s",
                                  streamKindName(t.streams[s].kind),
                                  t.streams[s].name.empty()
                                      ? ""
                                      : ("(" + t.streams[s].name + ")")
                                            .c_str());
        }
        for (const CallbackDesc &cb : layer.callbacks) {
            out += detail::format(" %s->cb%d",
                                  callbackEventName(cb.event),
                                  cb.callbackId);
        }
        if (l + 1 < numLayers())
            out += " | ";
    }
    return out;
}

std::string
TmuProgram::summary() const
{
    std::set<std::string> traversals, streams, modes;
    std::map<std::string, int> callbacks;
    for (int l = 0; l < numLayers(); ++l) {
        const LayerDesc &layer = layers_[static_cast<size_t>(l)];
        modes.insert(groupModeName(layer.mode));
        for (const TuDesc &tu : layer.tus) {
            if (tu.streams.empty())
                continue;
            traversals.insert(traversalKindName(tu.kind));
            for (const StreamDesc &s : tu.streams) {
                if (s.kind != StreamKind::Ite)
                    streams.insert(streamKindName(s.kind));
            }
        }
        for (const CallbackDesc &cb : layer.callbacks) {
            ++callbacks[callbackEventName(cb.event)];
            for (int o : cb.operands) {
                if (o == kMskOperand)
                    streams.insert("msk");
            }
        }
    }
    auto join = [](const std::set<std::string> &xs) {
        std::string out;
        for (const auto &x : xs)
            out += (out.empty() ? "" : ",") + x;
        return out;
    };
    std::string cbs;
    for (const auto &[ev, n] : callbacks)
        cbs += (cbs.empty() ? "" : ",") + ev + "x" + std::to_string(n);
    return join(traversals) + " | " + join(streams) + " | " +
           join(modes) + " | " + cbs;
}

} // namespace tmu::engine
