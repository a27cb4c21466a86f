#include "engine.hpp"

#include <algorithm>
#include <cstring>

#include "common/log.hpp"
#include "sim/fault.hpp"
#include "sim/addrspace.hpp"

namespace tmu::engine {

namespace {

std::uint64_t
loadElem(Addr addr)
{
    std::uint64_t v;
    std::memcpy(&v, sim::hostPtr(addr), sizeof(v));
    return v;
}

/**
 * Append the own mem ordinals that gate index source @p parent of a
 * stream in TU @p self: a mem parent gates by its own request; Lin,
 * Map and Ldr parents pass on their sources' gates; the Ite, Fwd and
 * leftward values are ready when the instance starts.
 */
void
collectGates(const TuDesc &desc, TuRef self,
             const std::vector<int> &ordinalOfSlot,
             const StreamRef &parent, std::vector<int> &gates)
{
    if (!parent.valid() || !(parent.tu == self))
        return;
    TMU_ASSERT(parent.slot < static_cast<int>(desc.streams.size()));
    const auto slot = static_cast<size_t>(parent.slot);
    const StreamDesc &sd = desc.streams[slot];
    switch (sd.kind) {
      case StreamKind::Ite:
      case StreamKind::Fwd:
        return;
      case StreamKind::Mem:
        gates.push_back(ordinalOfSlot[slot]);
        return;
      case StreamKind::Lin:
      case StreamKind::Map:
      case StreamKind::Ldr:
        collectGates(desc, self, ordinalOfSlot, sd.parent, gates);
        collectGates(desc, self, ordinalOfSlot, sd.parent2, gates);
        return;
    }
}

} // namespace

TmuEngine::TmuEngine(int coreId, const EngineConfig &cfg,
                     sim::MemorySystem &mem, const TmuProgram &program)
    : coreId_(coreId), cfg_(cfg), mem_(mem), prog_(program),
      plan_(planQueues(program, cfg.perLaneBytes)),
      outqBuf_(2 * cfg.chunkBytes),
      occupancyHist_(0.0, static_cast<double>(2 * cfg.chunkBytes), 16)
{
    prog_.validate(cfg.lanes);
    TMU_ASSERT(prog_.layer(0).tus[0].kind == TraversalKind::Dense,
               "layer 0 must be a dense traversal");

    tus_.resize(static_cast<size_t>(prog_.numLayers()));
    tgs_.resize(static_cast<size_t>(prog_.numLayers()));
    laneRr_.assign(static_cast<size_t>(prog_.numLayers()), 0);

    for (int l = 0; l < prog_.numLayers(); ++l) {
        const LayerDesc &layer = prog_.layer(l);
        tgs_[static_cast<size_t>(l)].layer = l;
        tgs_[static_cast<size_t>(l)].events.reset(cfg.eventQueueDepth);
        for (int r = 0; r < layer.lanes(); ++r) {
            TuState tu;
            tu.ref = {l, r};
            tu.desc = &layer.tus[static_cast<size_t>(r)];
            tu.q.reset(static_cast<size_t>(plan_.depth(l)));
            const TuDesc &desc = *tu.desc;
            std::vector<int> ordinalOfSlot(desc.streams.size(), -1);
            int mems = 0;
            for (size_t s = 0; s < desc.streams.size(); ++s) {
                if (desc.streams[s].kind == StreamKind::Mem)
                    ordinalOfSlot[s] = mems++;
            }
            for (const StreamDesc &sd : desc.streams) {
                if (sd.kind != StreamKind::Mem)
                    continue;
                MemIssue mi;
                mi.base = sd.base;
                mi.index = sd.parent;
                mi.index2 = sd.parent2;
                mi.readsView = !(sd.parent.tu == tu.ref) ||
                               (sd.parent2.valid() &&
                                !(sd.parent2.tu == tu.ref));
                collectGates(desc, tu.ref, ordinalOfSlot, sd.parent,
                             mi.gates);
                collectGates(desc, tu.ref, ordinalOfSlot, sd.parent2,
                             mi.gates);
                tu.issue.push_back(std::move(mi));
            }
            tu.slotPtr.resize(tu.issue.size());
            tus_[static_cast<size_t>(l)].push_back(std::move(tu));
        }
    }
    stack_.push_back(0);
    outstanding_.reserve(static_cast<size_t>(cfg.maxOutstanding));
}

LaneMask
TmuEngine::activeForStep(int layer, LaneMask parentMask) const
{
    const auto lanes = static_cast<unsigned>(prog_.layer(layer).lanes());
    if (layer == 0)
        return LaneMask::firstN(lanes);
    switch (prog_.layer(layer - 1).mode) {
      case GroupMode::BCast:
        return LaneMask::firstN(lanes);
      case GroupMode::Single:
      case GroupMode::Keep: {
        LaneMask m;
        m.set(0);
        return m;
      }
      default:
        return parentMask & LaneMask::firstN(lanes);
    }
}

std::uint64_t
TmuEngine::resolveValue(const TuState &tu, const StreamRef &ref,
                        const std::vector<std::uint64_t> &vals) const
{
    if (ref.tu == tu.ref)
        return vals[static_cast<size_t>(ref.slot)];
    // Leftward reference: read from the instance's parent-step view.
    TMU_ASSERT(tu.hasView);
    TMU_ASSERT(tu.view.mask.test(static_cast<unsigned>(ref.tu.lane)));
    return tu.view.vals[static_cast<size_t>(ref.tu.lane)]
                       [static_cast<size_t>(ref.slot)];
}

bool
TmuEngine::addressReady(const MemIssue &mi, const TimedElem &e,
                        Cycle now)
{
    for (const int g : mi.gates) {
        const MemSlotState &ms = e.mem[static_cast<size_t>(g)];
        if (!ms.requested || ms.ready > now)
            return false;
    }
    return true;
}

bool
TmuEngine::elemReady(const TuState &tu, const TimedElem &e,
                     Cycle now) const
{
    if (e.end)
        return true;
    for (size_t m = 0; m < e.mem.size(); ++m) {
        if (!e.mem[m].requested || e.mem[m].ready > now)
            return false;
    }
    (void)tu;
    return true;
}

Index
TmuEngine::mergeKeyOf(const TuState &tu, const TimedElem &e) const
{
    const TuDesc &desc = *tu.desc;
    const int slot = desc.mergeKey.valid() ? desc.mergeKey.slot : 0;
    return static_cast<Index>(e.vals[static_cast<size_t>(slot)]);
}

void
TmuEngine::pushElement(TuState &tu, Cycle now)
{
    const TuDesc &desc = *tu.desc;
    TimedElem e;
    e.pushed = now;
    e.vals.resize(desc.streams.size(), 0);
    e.mem.resize(tu.issue.size());

    for (size_t s = 0; s < desc.streams.size(); ++s) {
        const StreamDesc &sd = desc.streams[s];
        switch (sd.kind) {
          case StreamKind::Ite:
            e.vals[s] = static_cast<std::uint64_t>(tu.cur);
            break;
          case StreamKind::Mem: {
            auto x = static_cast<Index>(
                resolveValue(tu, sd.parent, e.vals));
            if (sd.parent2.valid())
                x += static_cast<Index>(
                    resolveValue(tu, sd.parent2, e.vals));
            e.vals[s] = loadElem(sd.base + static_cast<Addr>(x) * 8);
            break;
          }
          case StreamKind::Lin: {
            const auto x = static_cast<Index>(
                resolveValue(tu, sd.parent, e.vals));
            auto v = static_cast<Index>(
                sd.linA * static_cast<double>(x) + sd.linB);
            if (sd.parent2.valid())
                v += static_cast<Index>(
                    resolveValue(tu, sd.parent2, e.vals));
            e.vals[s] = static_cast<std::uint64_t>(v);
            break;
          }
          case StreamKind::Map: {
            const auto x = static_cast<Index>(
                resolveValue(tu, sd.parent, e.vals));
            TMU_ASSERT(x >= 0 &&
                       static_cast<size_t>(x) < sd.map.size());
            e.vals[s] = static_cast<std::uint64_t>(
                sd.map[static_cast<size_t>(x)]);
            break;
          }
          case StreamKind::Ldr: {
            auto x = static_cast<Index>(
                resolveValue(tu, sd.parent, e.vals));
            if (sd.parent2.valid())
                x += static_cast<Index>(
                    resolveValue(tu, sd.parent2, e.vals));
            e.vals[s] = sd.base + static_cast<Addr>(x) * 8;
            break;
          }
          case StreamKind::Fwd:
            e.vals[s] = resolveValue(tu, sd.fwdSource, e.vals);
            break;
        }
    }
    tu.q.push(std::move(e));
    ++stats_.elementsPushed;
    tu.cur += desc.stride;
}

bool
TmuEngine::tuDone(const TuState &tu) const
{
    return tu.phase == TuState::Phase::Done;
}

void
TmuEngine::tickTus(Cycle now)
{
    for (int l = 0; l < prog_.numLayers(); ++l) {
        for (TuState &tu : tus_[static_cast<size_t>(l)]) {
            const TuDesc &desc = *tu.desc;
            switch (tu.phase) {
              case TuState::Phase::WaitStep: {
                if (l == 0) {
                    changed_ = true;
                    if (tu.stepCursor > 0) {
                        tu.phase = TuState::Phase::Done;
                        break;
                    }
                    tu.cur = desc.beg;
                    tu.end = desc.end;
                    tu.stepCursor = 1;
                    tu.phase = TuState::Phase::Iter;
                    break;
                }
                TgState &prev = tgs_[static_cast<size_t>(l - 1)];
                bool started = false;
                while (tu.stepCursor < prev.stepsProduced) {
                    changed_ = true;
                    const StepRecord &rec =
                        prev.steps[static_cast<size_t>(
                            tu.stepCursor - prev.stepsBase)];
                    const LaneMask down = activeForStep(l, rec.mask);
                    ++tu.stepCursor;
                    if (!down.test(static_cast<unsigned>(tu.ref.lane)))
                        continue;
                    tu.view = rec;
                    tu.hasView = true;
                    // A refused address that reads the view may
                    // change with it.
                    for (size_t m = 0; m < tu.issue.size(); ++m) {
                        if (tu.issue[m].readsView)
                            tu.slotPtr[m].refused = {};
                    }
                    switch (desc.kind) {
                      case TraversalKind::Dense:
                        tu.cur = desc.beg;
                        tu.end = desc.end;
                        break;
                      case TraversalKind::Range: {
                        const auto beg = static_cast<Index>(
                            resolveValue(tu, desc.begStream, {}));
                        const auto end = static_cast<Index>(
                            resolveValue(tu, desc.endStream, {}));
                        tu.cur = beg + desc.offset;
                        tu.end = end;
                        break;
                      }
                      case TraversalKind::Index: {
                        const auto beg = static_cast<Index>(
                            resolveValue(tu, desc.begStream, {}));
                        tu.cur = beg + desc.offset;
                        tu.end = beg + desc.size;
                        break;
                      }
                    }
                    tu.phase = TuState::Phase::Iter;
                    started = true;
                    break;
                }
                if (!started && prev.doneFlag &&
                    tu.stepCursor >= prev.stepsProduced) {
                    tu.phase = TuState::Phase::Done;
                    changed_ = true;
                }
                break;
              }
              case TuState::Phase::Iter: {
                if (l == 0 && quiesceRequested_ && tu.cur < tu.end) {
                    resumeCur_ = tu.cur;
                    tu.cur = tu.end; // stop at this element boundary
                    changed_ = true;
                }
                if (tu.cur >= tu.end) {
                    tu.phase = TuState::Phase::PushEnd;
                    changed_ = true;
                    // fall through to PushEnd handling next cycle
                    break;
                }
                if (tu.q.full())
                    break;
                pushElement(tu, now);
                changed_ = true;
                if (tu.cur >= tu.end)
                    tu.phase = TuState::Phase::PushEnd;
                break;
              }
              case TuState::Phase::PushEnd: {
                if (tu.q.full())
                    break;
                TimedElem end;
                end.end = true;
                end.pushed = now;
                tu.q.push(std::move(end));
                tu.phase = TuState::Phase::WaitStep;
                changed_ = true;
                break;
              }
              case TuState::Phase::Done:
                break;
            }
        }
    }
}

void
TmuEngine::tickArbiter(Cycle now)
{
    // Retire completed requests (frees outstanding slots).
    for (size_t i = 0; i < outstanding_.size();) {
        if (outstanding_[i] <= now) {
            outstanding_[i] = outstanding_.back();
            outstanding_.pop_back();
        } else {
            ++i;
        }
    }
    if (inflightLines_.size() > 1024) {
        for (auto it = inflightLines_.begin();
             it != inflightLines_.end();) {
            if (it->second < now)
                it = inflightLines_.erase(it);
            else
                ++it;
        }
    }

    int issued = 0;
    const auto budgetSpent = [&] {
        return static_cast<int>(outstanding_.size()) >=
                   cfg_.maxOutstanding ||
               issued >= cfg_.issuePerCycle;
    };
    arbLayersAdvanced_ = prog_.numLayers();
    for (int l = 0; l < prog_.numLayers(); ++l) {
        auto &layerTus = tus_[static_cast<size_t>(l)];
        const int lanes = static_cast<int>(layerTus.size());
        for (int k = 0; k < lanes; ++k) {
            const int r = (laneRr_[static_cast<size_t>(l)] + k) % lanes;
            TuState &tu = layerTus[static_cast<size_t>(r)];
            for (size_t m = 0; m < tu.issue.size(); ++m) {
                const MemIssue &mi = tu.issue[m];
                auto &sp = tu.slotPtr[m];
                while (sp.elem < tu.q.size()) {
                    if (sp.refused.slice >= 0) {
                        // elem's request was refused. If the slice is
                        // unchanged, that line is still in neither its
                        // tags nor its MSHRs: no lane can have put it
                        // in flight, and the path below would reach
                        // the budget check and be refused again.
                        if (mem_.tmuRefusalStands(sp.refused, now)) {
                            if (budgetSpent()) {
                                arbLayersAdvanced_ = l;
                                return;
                            }
                            changed_ = true;
                            mem_.tmuCountRefusal(sp.refused);
                            break;
                        }
                        sp.refused = {};
                    }
                    TimedElem &e = tu.q.peek(sp.elem);
                    if (e.end) {
                        ++sp.elem;
                        continue;
                    }
                    MemSlotState &ms = e.mem[m];
                    if (ms.requested) {
                        ++sp.elem;
                        continue;
                    }
                    // In-order within the queue: wait for the address
                    // dependency of the oldest unrequested element.
                    if (!addressReady(mi, e, now))
                        break;
                    auto x = static_cast<Index>(
                        resolveValue(tu, mi.index, e.vals));
                    if (mi.index2.valid())
                        x += static_cast<Index>(
                            resolveValue(tu, mi.index2, e.vals));
                    const Addr addr =
                        mi.base + static_cast<Addr>(x) * 8;
                    const Addr line = lineAddr(addr);
                    if (line == sp.lastLine) {
                        // Same cacheline as the previous element:
                        // piggyback on that request.
                        changed_ = true;
                        ms.requested = true;
                        ms.ready = std::max(sp.lastReady, now);
                        ++stats_.coalescedLoads;
                        ++sp.elem;
                        continue;
                    }
                    if (const auto it = inflightLines_.find(line);
                        it != inflightLines_.end() &&
                        it->second >= now) {
                        // Another lane/stream already requested this
                        // line: share the in-flight request.
                        changed_ = true;
                        ms.requested = true;
                        ms.ready = it->second;
                        sp.lastLine = line;
                        sp.lastReady = it->second;
                        ++stats_.coalescedLoads;
                        ++sp.elem;
                        continue;
                    }
                    if (budgetSpent()) {
                        // Layers >= l keep their round-robin pointer
                        // frozen this cycle (the back-fill replays
                        // exactly this).
                        arbLayersAdvanced_ = l;
                        return;
                    }
                    // Any access attempt — accepted or MSHR-rejected —
                    // touches cache counters, so the tick is never a
                    // no-op and the retry happens every cycle, exactly
                    // as in the per-cycle loop.
                    changed_ = true;
                    const sim::MemAccess res =
                        mem_.tmuAccess(coreId_, addr, now, &sp.refused);
                    if (!res.accepted)
                        break; // LLC MSHRs full: retry next cycle
                    Cycle ready = res.complete;
                    if (faults_ != nullptr &&
                        faults_->shouldInject(
                            sim::FaultKind::FillDelay)) {
                        ready += faults_->extraCycles(
                            sim::FaultKind::FillDelay);
                    }
                    ms.requested = true;
                    ms.ready = ready;
                    sp.lastLine = line;
                    sp.lastReady = ready;
                    inflightLines_[line] = ready;
                    outstanding_.push_back(ready);
                    ++stats_.requestsIssued;
                    ++issued;
                    ++sp.elem;
                }
            }
        }
        laneRr_[static_cast<size_t>(l)] =
            (laneRr_[static_cast<size_t>(l)] + 1) % std::max(1, lanes);
    }
}

void
TmuEngine::popTuHead(int layer, int lane)
{
    TuState &tu = tus_[static_cast<size_t>(layer)][static_cast<size_t>(
        lane)];
    tu.q.pop();
    for (auto &sp : tu.slotPtr) {
        if (sp.elem > 0)
            --sp.elem;
        else
            sp.refused = {}; // the refused element itself left
    }
}

std::vector<OutqRecord>
TmuEngine::makeRecords(int layer, CallbackEvent ev, LaneMask mask,
                       bool withOperands)
{
    const LayerDesc &desc = prog_.layer(layer);
    auto &layerTus = tus_[static_cast<size_t>(layer)];
    std::vector<OutqRecord> recs;
    for (const CallbackDesc &cb : desc.callbacks) {
        if (cb.event != ev)
            continue;
        OutqRecord rec;
        rec.layer = layer;
        rec.event = ev;
        rec.callbackId = cb.callbackId;
        rec.mask = mask;
        for (int o : cb.operands) {
            std::vector<std::uint64_t> vals;
            if (o == kMskOperand) {
                vals.push_back(mask.bits());
            } else if (withOperands) {
                const GroupStreamDesc &gs =
                    desc.groupStreams[static_cast<size_t>(o)];
                for (unsigned r = 0; r < gs.perLane.size(); ++r) {
                    if (!mask.test(r))
                        continue;
                    const TimedElem &head = layerTus[r].q.peek(0);
                    vals.push_back(head.vals[static_cast<size_t>(
                        gs.perLane[r].slot)]);
                }
            }
            rec.operands.push_back(std::move(vals));
        }
        recs.push_back(std::move(rec));
    }
    return recs;
}

TmuEngine::IterOutcome
TmuEngine::tgIterateOnce(TgState &tg, Cycle now)
{
    const int l = tg.layer;
    const LayerDesc &layer = prog_.layer(l);
    auto &layerTus = tus_[static_cast<size_t>(l)];
    const GroupMode mode = layer.mode;
    const bool singleLane = mode == GroupMode::Single ||
                            mode == GroupMode::BCast ||
                            mode == GroupMode::Keep;

    // Determine the lanes we co-iterate this step.
    LaneMask lanes;
    if (singleLane) {
        const int lane = mode == GroupMode::Keep ? layer.keepLane : 0;
        if (tg.active.test(static_cast<unsigned>(lane)))
            lanes.set(static_cast<unsigned>(lane));
    } else {
        lanes = tg.active;
    }
    if (lanes.empty()) {
        tg.phase = TgState::Phase::Finish;
        return IterOutcome::Transitioned;
    }

    // All co-iterated lanes need a queue head.
    LaneMask have; // lanes with a data (non-END) head
    for (int r = 0; r < layer.lanes(); ++r) {
        if (!lanes.test(static_cast<unsigned>(r)))
            continue;
        TuState &tu = layerTus[static_cast<size_t>(r)];
        if (tu.q.empty())
            return IterOutcome::Blocked;
        if (!tu.q.peek(0).end)
            have.set(static_cast<unsigned>(r));
    }

    if (mode == GroupMode::ConjMrg && have != lanes) {
        // Some lane ran dry: intersection is over; discard the
        // remainder of the other lanes (Flush).
        tg.flushRemaining = lanes;
        tg.phase = TgState::Phase::Flush;
        return IterOutcome::Transitioned;
    }
    if (have.empty()) {
        // All heads are ENDs: consume them and finish.
        for (int r = 0; r < layer.lanes(); ++r) {
            if (lanes.test(static_cast<unsigned>(r)))
                popTuHead(l, r);
        }
        tg.phase = TgState::Phase::Finish;
        return IterOutcome::Transitioned;
    }

    // Data heads we are about to read must be ready.
    for (int r = 0; r < layer.lanes(); ++r) {
        if (!have.test(static_cast<unsigned>(r)))
            continue;
        TuState &tu = layerTus[static_cast<size_t>(r)];
        if (!elemReady(tu, tu.q.peek(0), now))
            return IterOutcome::Blocked;
    }

    // Compute the step predicate.
    LaneMask predicate;
    if (mode == GroupMode::LockStep || singleLane) {
        predicate = have;
    } else {
        Index minKey = 0;
        bool first = true;
        for (int r = 0; r < layer.lanes(); ++r) {
            if (!have.test(static_cast<unsigned>(r)))
                continue;
            const TuState &tu = layerTus[static_cast<size_t>(r)];
            const Index key = mergeKeyOf(tu, tu.q.peek(0));
            if (first || key < minKey) {
                minKey = key;
                first = false;
            }
        }
        for (int r = 0; r < layer.lanes(); ++r) {
            if (!have.test(static_cast<unsigned>(r)))
                continue;
            const TuState &tu = layerTus[static_cast<size_t>(r)];
            if (mergeKeyOf(tu, tu.q.peek(0)) == minKey)
                predicate.set(static_cast<unsigned>(r));
        }
    }

    const bool emit = mode != GroupMode::ConjMrg || predicate == lanes;
    const LaneMask down = l + 1 < prog_.numLayers()
                              ? activeForStep(l + 1, predicate)
                              : LaneMask();
    const bool descend = !down.empty();

    if (emit) {
        std::vector<OutqRecord> recs =
            makeRecords(l, CallbackEvent::GroupIte, predicate, true);
        const bool needToken = descend || !recs.empty();
        if (needToken && tg.events.full())
            return IterOutcome::Blocked; // backpressure
        if (descend && tg.steps.size() >= cfg_.stepQueueDepth)
            return IterOutcome::Blocked; // backpressure
        if (needToken) {
            EventToken tok;
            tok.kind = CallbackEvent::GroupIte;
            tok.descend = descend;
            tok.records = std::move(recs);
            tg.events.push(std::move(tok));
        }
        if (descend) {
            StepRecord step;
            step.mask = predicate;
            step.vals.resize(static_cast<size_t>(layer.lanes()));
            for (int r = 0; r < layer.lanes(); ++r) {
                if (predicate.test(static_cast<unsigned>(r))) {
                    step.vals[static_cast<size_t>(r)] =
                        layerTus[static_cast<size_t>(r)].q.peek(0).vals;
                }
            }
            tg.steps.push_back(std::move(step));
            ++tg.stepsProduced;
        }
    }

    // Consume the stepped lanes.
    for (int r = 0; r < layer.lanes(); ++r) {
        if (predicate.test(static_cast<unsigned>(r)))
            popTuHead(l, r);
    }
    return emit ? IterOutcome::Emitted : IterOutcome::Skipped;
}

void
TmuEngine::tickTgs(Cycle now)
{
    for (int l = 0; l < prog_.numLayers(); ++l) {
        TgState &tg = tgs_[static_cast<size_t>(l)];
        auto &layerTus = tus_[static_cast<size_t>(l)];
        const LayerDesc &layer = prog_.layer(l);

        switch (tg.phase) {
          case TgState::Phase::WaitParent: {
            if (l == 0) {
                changed_ = true;
                if (tg.parentCursor > 0) {
                    tg.doneFlag = true;
                    tg.phase = TgState::Phase::Done;
                    break;
                }
                tg.active = activeForStep(0, LaneMask());
                tg.phase = TgState::Phase::Begin;
                break;
            }
            TgState &prev = tgs_[static_cast<size_t>(l - 1)];
            if (tg.parentCursor < prev.stepsProduced) {
                const StepRecord &rec = prev.steps[static_cast<size_t>(
                    tg.parentCursor - prev.stepsBase)];
                tg.active = activeForStep(l, rec.mask);
                tg.phase = TgState::Phase::Begin;
                changed_ = true;
            } else if (prev.doneFlag) {
                tg.doneFlag = true;
                tg.phase = TgState::Phase::Done;
                changed_ = true;
            }
            break;
          }
          case TgState::Phase::Begin: {
            if (tg.events.full())
                break;
            EventToken tok;
            tok.kind = CallbackEvent::GroupBegin;
            tok.records = makeRecords(l, CallbackEvent::GroupBegin,
                                      tg.active, false);
            tg.events.push(std::move(tok));
            tg.phase = TgState::Phase::Iterate;
            changed_ = true;
            break;
          }
          case TgState::Phase::Iterate: {
            // Conjunctive merges fast-forward through mismatching
            // (non-emitting) steps via a comparator tree over the
            // queue heads; everything else retires one gite per cycle.
            int budget = layer.mode == GroupMode::ConjMrg
                             ? cfg_.conjSkipPerCycle
                             : 1;
            while (budget-- > 0 &&
                   tg.phase == TgState::Phase::Iterate) {
                const IterOutcome out = tgIterateOnce(tg, now);
                if (out != IterOutcome::Blocked)
                    changed_ = true;
                if (out == IterOutcome::Blocked ||
                    out == IterOutcome::Emitted)
                    break;
            }
            break;
          }
          case TgState::Phase::Flush: {
            // Conjunctive early exit: discard until every co-iterated
            // lane's END is consumed. Lanes whose END has already been
            // seen must not be drained further (their queues may hold
            // the next instance).
            for (int r = 0; r < layer.lanes(); ++r) {
                if (!tg.flushRemaining.test(static_cast<unsigned>(r)))
                    continue;
                TuState &tu = layerTus[static_cast<size_t>(r)];
                while (!tu.q.empty()) {
                    const bool isEnd = tu.q.peek(0).end;
                    popTuHead(l, r);
                    changed_ = true;
                    if (isEnd) {
                        tg.flushRemaining.clear(
                            static_cast<unsigned>(r));
                        break;
                    }
                }
            }
            if (tg.flushRemaining.empty())
                tg.phase = TgState::Phase::Finish;
            break;
          }
          case TgState::Phase::Finish: {
            if (tg.events.full())
                break;
            EventToken tok;
            tok.kind = CallbackEvent::GroupEnd;
            tok.records = makeRecords(l, CallbackEvent::GroupEnd,
                                      tg.active, false);
            tg.events.push(std::move(tok));
            ++tg.parentCursor;
            tg.phase = TgState::Phase::WaitParent;
            changed_ = true;
            break;
          }
          case TgState::Phase::Done:
            break;
        }
    }

    // Drop fully-consumed step records.
    for (int l = 0; l + 1 < prog_.numLayers(); ++l)
        popConsumedSteps(l);
}

void
TmuEngine::popConsumedSteps(int layer)
{
    TgState &tg = tgs_[static_cast<size_t>(layer)];
    std::uint64_t minSeq = tgs_[static_cast<size_t>(layer + 1)]
                               .parentCursor;
    for (const TuState &tu : tus_[static_cast<size_t>(layer + 1)])
        minSeq = std::min(minSeq, tu.stepCursor);
    while (!tg.steps.empty() && tg.stepsBase < minSeq) {
        tg.steps.pop_front();
        ++tg.stepsBase;
        changed_ = true;
    }
}

int
TmuEngine::fillingChunk(Cycle now)
{
    if (curChunk_ >= 0)
        return curChunk_;
    // Chunks fill (and are consumed) in strict alternation.
    if (chunks_[nextFill_].state != Chunk::State::Free)
        return -1;
    curChunk_ = nextFill_;
    Chunk &ch = chunks_[curChunk_];
    ch.state = Chunk::State::Filling;
    ch.usedBytes = 0;
    ch.fillStart = now;
    ch.records.clear();
    return curChunk_;
}

void
TmuEngine::sealChunk(int c, Cycle now)
{
    Chunk &ch = chunks_[c];
    TMU_ASSERT(ch.state == Chunk::State::Filling);
    ch.state = Chunk::State::Sealed;
    ch.sealAt = now;
    const Addr base = sim::canonBase(outqBuf_.data()) +
                      static_cast<Addr>(c) * cfg_.chunkBytes;
    for (std::size_t off = 0; off < ch.usedBytes; off += kLineBytes)
        mem_.outqInstall(coreId_, base + off, now);
    ++stats_.chunksSealed;
    if (tracer_ != nullptr) {
        tracer_->complete(tracePid_, 200 + coreId_, "tmu", "chunk_fill",
                          ch.fillStart,
                          std::max<Cycle>(1, now - ch.fillStart));
    }
    curChunk_ = -1;
    nextFill_ = 1 - nextFill_;
    changed_ = true;
    // A parked consumer (supply-starved core) can pull from this chunk
    // now; fired forward in scheduler order, so the core sees the seal
    // on this very cycle — as in the per-cycle loop.
    consumerWake_.wake();
}

void
TmuEngine::tickSerializer(Cycle now)
{
    int processed = 0;
    while (!serializerDone_ && processed < cfg_.recordsPerCycle) {
        if (stack_.empty()) {
            serializerDone_ = true;
            changed_ = true;
            break;
        }
        TgState &tg = tgs_[static_cast<size_t>(stack_.back())];
        if (tg.events.empty())
            break; // ow4p: waiting for the TG to produce
        EventToken &tok = tg.events.peek(0);

        // Write the token's records into the outQ.
        bool blocked = false;
        while (!tok.records.empty()) {
            OutqRecord &rec = tok.records.front();
            const std::size_t bytes = rec.bytes();
            TMU_ASSERT(bytes <= cfg_.chunkBytes,
                       "record larger than an outQ chunk");
            const int c = fillingChunk(now);
            if (c < 0) {
                blocked = true; // both chunks busy: ow4n
                break;
            }
            Chunk &ch = chunks_[c];
            if (ch.usedBytes + bytes > cfg_.chunkBytes) {
                sealChunk(c, now);
                continue;
            }
            const Addr addr =
                sim::canonBase(outqBuf_.data()) +
                static_cast<Addr>(c) * cfg_.chunkBytes + ch.usedBytes;
            ch.usedBytes += bytes;
            stats_.outqBytes += bytes;
            occupancyBytes_ += bytes;
            ++stats_.recordsEmitted;
            ch.records.emplace_back(std::move(rec), addr);
            tok.records.erase(tok.records.begin());
            changed_ = true;
        }
        if (blocked)
            break;

        // Apply the token's structural effect.
        const int layer = stack_.back();
        if (tok.kind == CallbackEvent::GroupIte && tok.descend) {
            stack_.push_back(layer + 1);
        } else if (tok.kind == CallbackEvent::GroupEnd) {
            stack_.pop_back();
            if (stack_.empty())
                serializerDone_ = true;
        }
        tg.events.pop();
        ++processed;
        changed_ = true;
    }

    // Flush the partial last chunk once everything else finished.
    if (serializerDone_ && curChunk_ >= 0) {
        if (chunks_[curChunk_].records.empty()) {
            chunks_[curChunk_].state = Chunk::State::Free;
            curChunk_ = -1;
            changed_ = true;
        } else {
            sealChunk(curChunk_, now);
        }
    }
}

bool
TmuEngine::tick(Cycle now)
{
    // Back-fill the cycles slept since the last tick (sim/sched.hpp):
    // they were provable no-ops, so replay exactly the per-cycle
    // bookkeeping the tick-every-cycle loop would have done. Gated on
    // a bound scheduler so direct-tick unit tests see no change.
    if (selfWake_.bound() && now > lastTicked_ + 1) {
        const Cycle gap = now - lastTicked_ - 1;
        stats_.busyCycles += gap;
        stats_.*sleepAttr_ += gap;
        // Occupancy samples at 32-cycle boundaries inside the window;
        // occupancyBytes_ was frozen (the engine only sleeps with no
        // sealed chunk, so the consumer could not pop while we slept).
        const Cycle samples = (now - 1) / 32 - lastTicked_ / 32;
        for (Cycle s = 0; s < samples; ++s)
            occupancyHist_.add(static_cast<double>(occupancyBytes_));
        // Round-robin pointers advance once per cycle up to the layer
        // where the arbiter stopped (frozen state => same stop layer
        // every slept cycle).
        for (int l = 0; l < arbLayersAdvanced_; ++l) {
            const auto lanes = static_cast<Cycle>(std::max<std::size_t>(
                1, tus_[static_cast<size_t>(l)].size()));
            laneRr_[static_cast<size_t>(l)] = static_cast<int>(
                (static_cast<Cycle>(laneRr_[static_cast<size_t>(l)]) +
                 gap % lanes) %
                lanes);
        }
    }
    if (producerDone())
        return false;
    lastTicked_ = now;
    changed_ = false;
    ++stats_.busyCycles;
    tickTgs(now);
    tickTus(now);
    tickArbiter(now);
    tickSerializer(now);

    // Cycle attribution: a productive cycle is charged to the
    // marshaling phase it advanced; an idle one to whichever resource
    // it waited on. Slept cycles reuse the idle classification — the
    // engine only sleeps after a no-change tick, with this state
    // frozen for the whole window.
    Cycle EngineStats::*idle = outstanding_.empty()
                                   ? &EngineStats::backpressureCycles
                                   : &EngineStats::memsysStallCycles;
    if (changed_) {
        stats_.*(curChunk_ >= 0    ? &EngineStats::fillCycles
                 : serializerDone_ ? &EngineStats::drainCycles
                                   : &EngineStats::traverseCycles) += 1;
    } else {
        stats_.*idle += 1;
    }
    sleepAttr_ = idle;

    if ((now & 31) == 0) {
        occupancyHist_.add(static_cast<double>(occupancyBytes_));
        if (tracer_ != nullptr) {
            tracer_->counter(tracePid_,
                             "tmu" + std::to_string(coreId_) + ".outq",
                             "bytes",
                             static_cast<double>(occupancyBytes_), now);
        }
    }
    if (tracer_ != nullptr) {
        const char *state = curChunk_ >= 0      ? "fill"
                            : serializerDone_   ? "drain"
                                                : "traverse";
        tracer_->phase(tracePid_, 100 + coreId_, state, now);
    }
    if (producerDone()) {
        // Marshaling just finished: a parked consumer must run to
        // observe it (and drain/complete), even though no seal fired.
        consumerWake_.wake();
    }
    return true;
}

Cycle
TmuEngine::wakeHint(Cycle now) const
{
    if (tracer_ != nullptr)
        return now + 1; // phase/counter tracks must stay cycle-dense
    if (changed_ || producerDone())
        return now + 1;
    if (chunks_[0].state == Chunk::State::Sealed ||
        chunks_[1].state == Chunk::State::Sealed)
        return now + 1; // consumer pops could move occupancy any cycle
    // Quiescent and nothing consumable: the next possible change is
    // the earliest in-flight memory completion. None => parked (only
    // a port wake — or the watchdog, if this is a real deadlock —
    // ends the wait).
    Cycle wake = sim::kWakeNever;
    for (const Cycle c : outstanding_) {
        if (c > now && c < wake)
            wake = c;
    }
    return wake;
}

void
TmuEngine::bindScheduler(sim::Scheduler &sched, int handle)
{
    selfWake_.bind(sched, handle);
}

Cycle
TmuEngine::recordAvailableAt(Cycle now) const
{
    const Chunk &ch = chunks_[consumeChunk_];
    if (ch.state == Chunk::State::Sealed) {
        // Polls before the seal/backpressure gate are side-effect
        // free; from the gate on, every poll can draw fault RNG, so
        // the consumer must poll per-cycle from there (never sleep
        // past it).
        const Cycle gate = std::max(ch.sealAt, consumeStallUntil_);
        return gate > now ? gate : now;
    }
    // No sealed chunk: a record can only appear via sealChunk, which
    // fires the consumer-wake port.
    return sim::kWakeNever;
}

bool
TmuEngine::producerDone() const
{
    return serializerDone_ && curChunk_ < 0;
}

void
TmuEngine::setTracer(stats::TraceWriter *tracer, int pid)
{
    tracer_ = tracer;
    tracePid_ = pid;
    if (tracer != nullptr) {
        const std::string label = "tmu" + std::to_string(coreId_);
        tracer->threadName(pid, 100 + coreId_, label);
        tracer->threadName(pid, 200 + coreId_, label + ".outq");
    }
}

void
TmuEngine::registerStats(stats::StatRegistry &reg,
                         const std::string &prefix, bool extended) const
{
    reg.scalar(prefix + "requestsIssued",
               "memory requests issued to the LLC",
               &stats_.requestsIssued);
    reg.scalar(prefix + "coalescedLoads",
               "line requests coalesced across lanes",
               &stats_.coalescedLoads);
    reg.scalar(prefix + "elementsPushed",
               "elements pushed into stream queues",
               &stats_.elementsPushed);
    reg.scalar(prefix + "recordsEmitted", "outQ records emitted",
               &stats_.recordsEmitted);
    reg.scalar(prefix + "chunksSealed", "outQ chunks sealed",
               &stats_.chunksSealed);
    reg.scalar(prefix + "outqBytes", "bytes written to the outQ",
               &stats_.outqBytes);
    reg.scalar(prefix + "busyCycles", "cycles the engine was active",
               &stats_.busyCycles);
    reg.formula(prefix + "readToWriteRatio",
                "mean per-chunk consume/fill time ratio",
                [this] { return stats_.readToWriteRatio(); });
    if (extended) {
        reg.scalar(prefix + "attr.fill",
                   "busy cycles advancing state while filling a chunk",
                   &stats_.fillCycles);
        reg.scalar(prefix + "attr.traverse",
                   "busy cycles advancing state, no chunk filling",
                   &stats_.traverseCycles);
        reg.scalar(prefix + "attr.drain",
                   "busy cycles after the serializer finished",
                   &stats_.drainCycles);
        reg.scalar(prefix + "attr.memsysStall",
                   "no-progress cycles with memory requests in flight",
                   &stats_.memsysStallCycles);
        reg.scalar(prefix + "attr.backpressure",
                   "no-progress cycles waiting on the outQ consumer",
                   &stats_.backpressureCycles);
        reg.scalar(prefix + "rwChunks",
                   "chunks with consume/fill accounting",
                   &stats_.rwChunks);
        reg.histogram(prefix + "outqOccupancy",
                      "outQ resident bytes (sampled every 32 cycles)",
                      &occupancyHist_);
    }
}

std::string
TmuEngine::debugState() const
{
    std::string out;
    for (int l = 0; l < prog_.numLayers(); ++l) {
        const TgState &tg = tgs_[static_cast<size_t>(l)];
        out += detail::format(
            "TG%d phase=%d parent=%llu steps=%llu events=%zu done=%d\n",
            l, static_cast<int>(tg.phase),
            static_cast<unsigned long long>(tg.parentCursor),
            static_cast<unsigned long long>(tg.stepsProduced),
            tg.events.size(), tg.doneFlag);
        for (const TuState &tu : tus_[static_cast<size_t>(l)]) {
            out += detail::format(
                "  TU(%d,%d) phase=%d cur=%lld end=%lld step=%llu "
                "q=%zu/%zu\n",
                tu.ref.layer, tu.ref.lane, static_cast<int>(tu.phase),
                static_cast<long long>(tu.cur),
                static_cast<long long>(tu.end),
                static_cast<unsigned long long>(tu.stepCursor),
                tu.q.size(), tu.q.capacity());
        }
    }
    std::string stack = "stack=[";
    for (int s : stack_)
        stack += detail::format("%d ", s);
    out += stack + detail::format(
        "] serDone=%d curChunk=%d chunk0=%d chunk1=%d outstanding=%zu\n",
        serializerDone_, curChunk_, static_cast<int>(chunks_[0].state),
        static_cast<int>(chunks_[1].state), outstanding_.size());
    return out;
}

bool
TmuEngine::popRecord(Cycle now, OutqRecord &rec, Addr &outqAddr)
{
    Chunk &ch = chunks_[consumeChunk_];
    if (ch.state != Chunk::State::Sealed || ch.sealAt > now)
        return false;
    if (now < consumeStallUntil_)
        return false; // injected backpressure window
    if (faults_ != nullptr &&
        faults_->shouldInject(sim::FaultKind::OutqStall)) {
        Cycle stall = faults_->extraCycles(sim::FaultKind::OutqStall);
        if (stall == 0)
            stall = 16;
        consumeStallUntil_ = now + stall;
        return false;
    }
    if (!ch.consuming) {
        ch.consuming = true;
        ch.consumeStart = now;
    }
    TMU_ASSERT(!ch.records.empty());
    rec = std::move(ch.records.front().first);
    outqAddr = ch.records.front().second;
    ch.records.pop_front();
    occupancyBytes_ -= std::min(occupancyBytes_, rec.bytes());
    if (ch.records.empty()) {
        // Chunk fully consumed: account the read/write ratio and free.
        const double write = static_cast<double>(
            std::max<Cycle>(1, ch.sealAt - ch.fillStart));
        const double read = static_cast<double>(
            std::max<Cycle>(1, now - ch.consumeStart + 1));
        stats_.rwRatioSum += read / write;
        ++stats_.rwChunks;
        if (tracer_ != nullptr) {
            tracer_->complete(
                tracePid_, 200 + coreId_, "tmu", "chunk_drain",
                ch.consumeStart,
                std::max<Cycle>(1, now - ch.consumeStart + 1));
        }
        ch.state = Chunk::State::Free;
        ch.consuming = false;
        consumeChunk_ = 1 - consumeChunk_;
        // If the serializer is waiting for a free chunk, let the
        // engine run again; fired from the consumer core's tick, so
        // the (earlier-ordered) engine sees it next cycle — exactly
        // when the per-cycle loop would have seen the freed chunk.
        selfWake_.wake();
    }
    return true;
}

bool
TmuEngine::allConsumed() const
{
    return producerDone() &&
           chunks_[0].state == Chunk::State::Free &&
           chunks_[1].state == Chunk::State::Free;
}

void
TmuEngine::requestQuiesce()
{
    quiesceRequested_ = true;
    resumeCur_ = prog_.tu({0, 0}).end; // if nothing left, resume at end
}

bool
TmuEngine::quiesced() const
{
    return quiesceRequested_ && producerDone();
}

TmuContext
TmuEngine::saveContext() const
{
    TMU_ASSERT(quiesced(), "saveContext before the engine quiesced");
    TmuContext ctx;
    ctx.outerResumeBeg = resumeCur_;
    return ctx;
}

TmuProgram
TmuEngine::rebaseProgram(TmuProgram program, const TmuContext &ctx)
{
    program.setDenseBounds({0, 0}, ctx.outerResumeBeg,
                           program.tu({0, 0}).end);
    return program;
}

} // namespace tmu::engine
