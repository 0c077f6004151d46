#include "linalg/distance.hh"

#include <algorithm>
#include <cmath>

#include "util/logging.hh"

namespace quest {

Complex
hsInnerProduct(const Matrix &u, const Matrix &v)
{
    QUEST_ASSERT(u.isSquare() && v.isSquare() && u.rows() == v.rows(),
                 "hsInnerProduct shape mismatch");
    // Tr(U^dagger V) = sum_ij conj(U_ij) V_ij; avoids forming the
    // product matrix.
    Complex sum(0.0, 0.0);
    const auto &ud = u.data();
    const auto &vd = v.data();
    for (size_t i = 0; i < ud.size(); ++i)
        sum += std::conj(ud[i]) * vd[i];
    return sum;
}

namespace {

/**
 * hsDistance(u, vs[k]) into out[k] for k < K, in one pass over u with
 * an accumulator per k. Each product is conj(u_i) * v_i as
 * std::complex's operator* computes it for finite operands,
 * (ac - bd, ad + bc) with separate multiplies, subtract and add,
 * without the operator's recovery branch for non-finite results:
 * that compare and branch per product would keep the K add chains
 * from overlapping.
 */
template <size_t K>
void
distances(const Matrix &u, const Matrix *vs, double *out)
{
    const Complex *v[K];
    double re[K], im[K];
    for (size_t k = 0; k < K; ++k) {
        v[k] = vs[k].data().data();
        re[k] = 0.0;
        im[k] = 0.0;
    }
    const auto &ud = u.data();
    for (size_t i = 0; i < ud.size(); ++i) {
        const double a = ud[i].real(), b = -ud[i].imag();
        for (size_t k = 0; k < K; ++k) {
            const double c = v[k][i].real(), d = v[k][i].imag();
            re[k] += a * c - b * d;
            im[k] += a * d + b * c;
        }
    }
    for (size_t k = 0; k < K; ++k)
        out[k] = hsDistanceFromTrace(Complex(re[k], im[k]), u.rows());
}

} // namespace

void
hsDistances(const Matrix &u, std::span<const Matrix> vs,
            std::span<double> out)
{
    QUEST_ASSERT(u.isSquare() && out.size() == vs.size(),
                 "hsDistances shape mismatch");
    for (const Matrix &v : vs)
        QUEST_ASSERT(v.rows() == u.rows() && v.cols() == u.cols(),
                     "hsDistances shape mismatch");
    // Four pairs a pass keep eight independent add chains in flight.
    size_t k = 0;
    for (; k + 4 <= vs.size(); k += 4)
        distances<4>(u, &vs[k], &out[k]);
    if (k + 2 <= vs.size()) {
        distances<2>(u, &vs[k], &out[k]);
        k += 2;
    }
    if (k < vs.size())
        distances<1>(u, &vs[k], &out[k]);
}

double
hsDistanceFromTrace(Complex trace, size_t dim)
{
    double n2 = static_cast<double>(dim) * static_cast<double>(dim);
    double frac = std::norm(trace) / n2;
    return std::sqrt(std::max(0.0, 1.0 - frac));
}

double
hsDistance(const Matrix &u, const Matrix &v)
{
    return hsDistanceFromTrace(hsInnerProduct(u, v), u.rows());
}

} // namespace quest
