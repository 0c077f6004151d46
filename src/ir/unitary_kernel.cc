#include "ir/unitary_kernel.hh"

#include <algorithm>
#include <array>
#include <utility>

#include "util/logging.hh"

namespace quest {

namespace {

/** (re, im) += g * (x_re, x_im), exactly as std::complex multiplies
 *  and adds finite values. */
inline void
addProduct(double &re, double &im, const Complex &g, double x_re,
           double x_im)
{
    re += g.real() * x_re - g.imag() * x_im;
    im += g.real() * x_im + g.imag() * x_re;
}

/**
 * One-qubit gate on the wire of row bit @p bit: each row pair
 * (r, r | bit) becomes (g00 x0 + g01 x1, g10 x0 + g11 x1), in place.
 * Bit i of @p Nonzero says whether g[i] (row-major 2x2) is nonzero;
 * a zero entry adds no term.
 */
template <unsigned Nonzero>
void
pairRows(Complex *rows, size_t dim, size_t width, size_t bit,
         const std::array<Complex, 4> &g)
{
    for (size_t hi = 0; hi < dim; hi += 2 * bit) {
        for (size_t lo = hi; lo < hi + bit; ++lo) {
            Complex *x0 = rows + lo * width;
            Complex *x1 = rows + (lo + bit) * width;
            for (size_t j = 0; j < width; ++j) {
                const Complex a = x0[j], b = x1[j];
                double re0 = 0.0, im0 = 0.0, re1 = 0.0, im1 = 0.0;
                if constexpr ((Nonzero & 1u) != 0)
                    addProduct(re0, im0, g[0], a.real(), a.imag());
                if constexpr ((Nonzero & 2u) != 0)
                    addProduct(re0, im0, g[1], b.real(), b.imag());
                if constexpr ((Nonzero & 4u) != 0)
                    addProduct(re1, im1, g[2], a.real(), a.imag());
                if constexpr ((Nonzero & 8u) != 0)
                    addProduct(re1, im1, g[3], b.real(), b.imag());
                x0[j] = Complex(re0, im0);
                x1[j] = Complex(re1, im1);
            }
        }
    }
}

using PairRowsFn = void (*)(Complex *, size_t, size_t, size_t,
                            const std::array<Complex, 4> &);

template <unsigned... Nonzero>
constexpr std::array<PairRowsFn, sizeof...(Nonzero)>
pairRowsTable(std::integer_sequence<unsigned, Nonzero...>)
{
    return {&pairRows<Nonzero>...};
}

/** pairRows for every pattern of zero entries, indexed by it. */
constexpr auto kPairRows =
    pairRowsTable(std::make_integer_sequence<unsigned, 16>{});

/** CX: rows with the control bit set swap with their target-flipped
 *  partner; rows with it clear are unchanged (0 + 1 * x == x). */
void
swapRows(Complex *rows, size_t dim, size_t width, size_t control,
         size_t target)
{
    for (size_t r = 0; r < dim; ++r) {
        if ((r & control) != 0 && (r & target) == 0) {
            std::swap_ranges(rows + r * width, rows + (r + 1) * width,
                             rows + (r | target) * width);
        }
    }
}

/** Arity of the widest gate (CCX). */
constexpr size_t kMaxArity = 3;
constexpr size_t kMaxSubDim = size_t{1} << kMaxArity;

/**
 * Any other gate: for each group of rows that differ only in the
 * gate's wire bits, gather the group's elements column by column
 * and recombine them: new row r = sum over nonzero g(r, c), in
 * increasing c, of g(r, c) * old row c.
 */
void
mixRows(Complex *rows, size_t dim, size_t width, const Matrix &g,
        const std::vector<int> &qubits, int n_qubits)
{
    const size_t k = qubits.size();
    QUEST_ASSERT(k <= kMaxArity, "gate on ", k, " wires");
    const size_t sub_dim = size_t{1} << k;

    std::array<size_t, kMaxSubDim> offsets{};
    size_t mask = 0;
    for (size_t i = 0; i < k; ++i) {
        const size_t bit = size_t{1} << (n_qubits - 1 - qubits[i]);
        mask |= bit;
        for (size_t sub = 0; sub < sub_dim; ++sub)
            if ((sub >> (k - 1 - i)) & 1u)
                offsets[sub] |= bit;
    }

    struct Term
    {
        size_t col;
        Complex coef;
    };
    std::array<std::array<Term, kMaxSubDim>, kMaxSubDim> terms{};
    std::array<size_t, kMaxSubDim> n_terms{};
    for (size_t r = 0; r < sub_dim; ++r)
        for (size_t c = 0; c < sub_dim; ++c)
            if (g(r, c) != Complex(0.0, 0.0))
                terms[r][n_terms[r]++] = {c, g(r, c)};

    std::array<Complex *, kMaxSubDim> group{};
    std::array<Complex, kMaxSubDim> x{};
    for (size_t base = 0; base < dim; ++base) {
        if (base & mask)
            continue;
        for (size_t s = 0; s < sub_dim; ++s)
            group[s] = rows + (base | offsets[s]) * width;
        for (size_t j = 0; j < width; ++j) {
            for (size_t s = 0; s < sub_dim; ++s)
                x[s] = group[s][j];
            for (size_t r = 0; r < sub_dim; ++r) {
                double re = 0.0, im = 0.0;
                for (size_t t = 0; t < n_terms[r]; ++t) {
                    const Complex &xc = x[terms[r][t].col];
                    addProduct(re, im, terms[r][t].coef, xc.real(),
                               xc.imag());
                }
                group[r][j] = Complex(re, im);
            }
        }
    }
}

} // namespace

void
unitaryColumns(const Circuit &circuit, size_t col0, size_t width,
               Complex *out)
{
    const int n = circuit.numQubits();
    const size_t dim = size_t{1} << n;
    QUEST_ASSERT(col0 + width <= dim, "columns [", col0, ", ",
                 col0 + width, ") outside a ", dim, "-column unitary");
    std::fill(out, out + dim * width, Complex(0.0, 0.0));
    for (size_t j = 0; j < width; ++j)
        out[(col0 + j) * width + j] = Complex(1.0, 0.0);

    auto row_bit = [n](int q) { return size_t{1} << (n - 1 - q); };
    for (const Gate &g : circuit) {
        if (g.type == GateType::Barrier || g.type == GateType::Measure)
            continue;
        if (g.type == GateType::CX) {
            swapRows(out, dim, width, row_bit(g.qubits[0]),
                     row_bit(g.qubits[1]));
            continue;
        }
        const Matrix m = gateMatrix(g);
        if (g.qubits.size() == 1) {
            const std::array<Complex, 4> coef = {m(0, 0), m(0, 1),
                                                 m(1, 0), m(1, 1)};
            unsigned nonzero = 0;
            for (unsigned i = 0; i < 4; ++i)
                if (coef[i] != Complex(0.0, 0.0))
                    nonzero |= 1u << i;
            kPairRows[nonzero](out, dim, width, row_bit(g.qubits[0]),
                               coef);
            continue;
        }
        mixRows(out, dim, width, m, g.qubits, n);
    }
}

} // namespace quest
