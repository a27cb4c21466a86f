#include "compare.hpp"

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>

#include "common/log.hpp"

namespace tmu::tensor {

namespace {

/**
 * Map a double onto a monotone signed-magnitude integer line so that
 * adjacent representable doubles differ by exactly 1.
 */
std::int64_t
orderedBits(Value v)
{
    std::int64_t bits;
    static_assert(sizeof(bits) == sizeof(v));
    std::memcpy(&bits, &v, sizeof(bits));
    return bits < 0 ? std::numeric_limits<std::int64_t>::min() - bits
                    : bits;
}

std::string
fmtMismatch(const std::string &what, const std::string &where, Value a,
            Value b)
{
    return detail::format("%s: %s: %.17g vs %.17g (ulp %llu)",
                          what.c_str(), where.c_str(), a, b,
                          static_cast<unsigned long long>(
                              ulpDistance(a, b)));
}

} // namespace

std::uint64_t
ulpDistance(Value a, Value b)
{
    if (a == b)
        return 0;
    if (!std::isfinite(a) || !std::isfinite(b))
        return std::numeric_limits<std::uint64_t>::max();
    const std::int64_t ia = orderedBits(a);
    const std::int64_t ib = orderedBits(b);
    return ia > ib ? static_cast<std::uint64_t>(ia) -
                         static_cast<std::uint64_t>(ib)
                   : static_cast<std::uint64_t>(ib) -
                         static_cast<std::uint64_t>(ia);
}

bool
Compare::close(Value a, Value b) const
{
    if (a == b)
        return true;
    if (std::isnan(a) && std::isnan(b))
        return true;
    if (std::isnan(a) || std::isnan(b))
        return false;
    const double diff = std::abs(a - b);
    if (diff <= absTol)
        return true;
    const double scale = std::max(std::abs(a), std::abs(b));
    if (diff <= relTol * scale)
        return true;
    return maxUlps > 0 &&
           ulpDistance(a, b) <= static_cast<std::uint64_t>(maxUlps);
}

std::string
diffCsr(const std::string &what, const CsrMatrix &a,
        const CsrMatrix &b, const Compare &cmp)
{
    if (a.rows() != b.rows() || a.cols() != b.cols()) {
        return detail::format(
            "%s: shape %lldx%lld vs %lldx%lld", what.c_str(),
            static_cast<long long>(a.rows()),
            static_cast<long long>(a.cols()),
            static_cast<long long>(b.rows()),
            static_cast<long long>(b.cols()));
    }
    if (a.nnz() != b.nnz()) {
        return detail::format("%s: nnz %lld vs %lld", what.c_str(),
                              static_cast<long long>(a.nnz()),
                              static_cast<long long>(b.nnz()));
    }
    for (Index r = 0; r < a.rows(); ++r) {
        if (a.rowBegin(r) != b.rowBegin(r) || a.rowEnd(r) != b.rowEnd(r)) {
            return detail::format(
                "%s: row %lld extent [%lld,%lld) vs [%lld,%lld)",
                what.c_str(), static_cast<long long>(r),
                static_cast<long long>(a.rowBegin(r)),
                static_cast<long long>(a.rowEnd(r)),
                static_cast<long long>(b.rowBegin(r)),
                static_cast<long long>(b.rowEnd(r)));
        }
        for (Index p = a.rowBegin(r); p < a.rowEnd(r); ++p) {
            const auto sp = static_cast<size_t>(p);
            if (a.idxs()[sp] != b.idxs()[sp]) {
                return detail::format(
                    "%s: row %lld pos %lld col %lld vs %lld",
                    what.c_str(), static_cast<long long>(r),
                    static_cast<long long>(p),
                    static_cast<long long>(a.idxs()[sp]),
                    static_cast<long long>(b.idxs()[sp]));
            }
            if (!cmp.close(a.vals()[sp], b.vals()[sp])) {
                return fmtMismatch(
                    what,
                    detail::format("(%lld,%lld)",
                                   static_cast<long long>(r),
                                   static_cast<long long>(a.idxs()[sp])),
                    a.vals()[sp], b.vals()[sp]);
            }
        }
    }
    return {};
}

std::string
diffCoo(const std::string &what, const CooTensor &a,
        const CooTensor &b, const Compare &cmp)
{
    if (a.order() != b.order()) {
        return detail::format("%s: order %d vs %d", what.c_str(),
                              a.order(), b.order());
    }
    for (int m = 0; m < a.order(); ++m) {
        if (a.dim(m) != b.dim(m)) {
            return detail::format("%s: dim(%d) %lld vs %lld",
                                  what.c_str(), m,
                                  static_cast<long long>(a.dim(m)),
                                  static_cast<long long>(b.dim(m)));
        }
    }
    if (a.nnz() != b.nnz()) {
        return detail::format("%s: nnz %lld vs %lld", what.c_str(),
                              static_cast<long long>(a.nnz()),
                              static_cast<long long>(b.nnz()));
    }
    for (Index p = 0; p < a.nnz(); ++p) {
        std::string coord = "(";
        for (int m = 0; m < a.order(); ++m) {
            if (a.idx(m, p) != b.idx(m, p)) {
                return detail::format(
                    "%s: entry %lld mode %d coord %lld vs %lld",
                    what.c_str(), static_cast<long long>(p), m,
                    static_cast<long long>(a.idx(m, p)),
                    static_cast<long long>(b.idx(m, p)));
            }
            coord += detail::format(
                "%s%lld", m ? "," : "",
                static_cast<long long>(a.idx(m, p)));
        }
        coord += ")";
        if (!cmp.close(a.val(p), b.val(p)))
            return fmtMismatch(what, coord, a.val(p), b.val(p));
    }
    return {};
}

std::string
diffVals(const std::string &what, const std::vector<Value> &a,
         const std::vector<Value> &b, const Compare &cmp)
{
    if (a.size() != b.size()) {
        return detail::format("%s: length %zu vs %zu", what.c_str(),
                              a.size(), b.size());
    }
    for (size_t i = 0; i < a.size(); ++i) {
        if (!cmp.close(a[i], b[i])) {
            return fmtMismatch(what, detail::format("[%zu]", i), a[i],
                               b[i]);
        }
    }
    return {};
}

std::string
diffDense(const std::string &what, const DenseVector &a,
          const DenseVector &b, const Compare &cmp)
{
    if (a.size() != b.size()) {
        return detail::format("%s: length %lld vs %lld", what.c_str(),
                              static_cast<long long>(a.size()),
                              static_cast<long long>(b.size()));
    }
    for (Index i = 0; i < a.size(); ++i) {
        if (!cmp.close(a[i], b[i])) {
            return fmtMismatch(
                what,
                detail::format("[%lld]", static_cast<long long>(i)),
                a[i], b[i]);
        }
    }
    return {};
}

std::string
diffDense(const std::string &what, const DenseMatrix &a,
          const DenseMatrix &b, const Compare &cmp)
{
    if (a.rows() != b.rows() || a.cols() != b.cols()) {
        return detail::format(
            "%s: shape %lldx%lld vs %lldx%lld", what.c_str(),
            static_cast<long long>(a.rows()),
            static_cast<long long>(a.cols()),
            static_cast<long long>(b.rows()),
            static_cast<long long>(b.cols()));
    }
    for (Index r = 0; r < a.rows(); ++r) {
        for (Index c = 0; c < a.cols(); ++c) {
            if (!cmp.close(a(r, c), b(r, c))) {
                return fmtMismatch(
                    what,
                    detail::format("(%lld,%lld)",
                                   static_cast<long long>(r),
                                   static_cast<long long>(c)),
                    a(r, c), b(r, c));
            }
        }
    }
    return {};
}

} // namespace tmu::tensor
