/**
 * @file
 * The slab kernel bodies (unitary_kernel.hh), templated on a
 * vector-ops policy of util/vector_ops.hh. Each ISA translation unit
 * instantiates them with its own policy, so the loops, and with them
 * every element's operation order, are written once. Not part of the
 * public API.
 *
 * Bit-identity contract: a new element starts at +0 and adds each
 * nonzero coefficient's product in increasing column order, each
 * product spelled (ac - bd, ad + bc) with separate mul, add and sub.
 * The including unit must be compiled with -ffp-contract=off.
 */

#ifndef QUEST_IR_UNITARY_KERNEL_IMPL_HH
#define QUEST_IR_UNITARY_KERNEL_IMPL_HH

#include <utility>

#include "ir/unitary_kernel.hh"

namespace quest::slab {

/** The portable table; always available. */
const SlabKernelSet &portableKernels();

/** The AVX2 and AVX-512 tables, or nullptr when compiled out
 *  (QUEST_SIMD=OFF or a non-x86 target). */
const SlabKernelSet *avx2Kernels();
const SlabKernelSet *avx512Kernels();

template <class V>
struct Bodies
{
    using Reg = typename V::Reg;
    static constexpr size_t W = V::width;
    static_assert(8 % W == 0, "a plane row must be whole registers");

    /** (re, im) += (gr, gi) * (xr, xi), as std::complex multiplies
     *  and adds finite values. */
    static void
    addProduct(Reg &re, Reg &im, Reg gr, Reg gi, Reg xr, Reg xi)
    {
        re = V::add(re, V::sub(V::mul(gr, xr), V::mul(gi, xi)));
        im = V::add(im, V::add(V::mul(gr, xi), V::mul(gi, xr)));
    }

    /** Each row pair (r, r | bit) becomes (g00 x0 + g01 x1,
     *  g10 x0 + g11 x1); a zero entry adds no term. */
    template <unsigned Nonzero>
    static void
    pair(size_t dim, size_t stride, double *re, double *im, size_t bit,
         const double *g)
    {
        const Reg g00r = V::set1(g[0]), g00i = V::set1(g[1]);
        const Reg g01r = V::set1(g[2]), g01i = V::set1(g[3]);
        const Reg g10r = V::set1(g[4]), g10i = V::set1(g[5]);
        const Reg g11r = V::set1(g[6]), g11i = V::set1(g[7]);
        for (size_t hi = 0; hi < dim; hi += 2 * bit) {
            for (size_t lo = hi; lo < hi + bit; ++lo) {
                double *ar = re + lo * stride, *ai = im + lo * stride;
                double *br = ar + bit * stride, *bi = ai + bit * stride;
                for (size_t j = 0; j < stride; j += W) {
                    const Reg xr = V::load(ar + j), xi = V::load(ai + j);
                    const Reg yr = V::load(br + j), yi = V::load(bi + j);
                    Reg r0 = V::zero(), i0 = V::zero();
                    Reg r1 = V::zero(), i1 = V::zero();
                    if constexpr ((Nonzero & 1u) != 0)
                        addProduct(r0, i0, g00r, g00i, xr, xi);
                    if constexpr ((Nonzero & 2u) != 0)
                        addProduct(r0, i0, g01r, g01i, yr, yi);
                    if constexpr ((Nonzero & 4u) != 0)
                        addProduct(r1, i1, g10r, g10i, xr, xi);
                    if constexpr ((Nonzero & 8u) != 0)
                        addProduct(r1, i1, g11r, g11i, yr, yi);
                    V::store(ar + j, r0);
                    V::store(ai + j, i0);
                    V::store(br + j, r1);
                    V::store(bi + j, i1);
                }
            }
        }
    }

    static void
    swap(size_t dim, size_t stride, double *re, double *im, size_t control,
         size_t target)
    {
        for (size_t r = 0; r < dim; ++r) {
            if ((r & control) == 0 || (r & target) != 0)
                continue;
            double *ar = re + r * stride, *ai = im + r * stride;
            double *br = ar + target * stride, *bi = ai + target * stride;
            for (size_t j = 0; j < stride; j += W) {
                const Reg xr = V::load(ar + j), xi = V::load(ai + j);
                V::store(ar + j, V::load(br + j));
                V::store(ai + j, V::load(bi + j));
                V::store(br + j, xr);
                V::store(bi + j, xi);
            }
        }
    }

    /** For each group of rows that differ only in the gate's wire
     *  bits: load the group a register at a time, then write each
     *  row's sum of terms. */
    static void
    mix(size_t dim, size_t stride, double *re, double *im, const MixGate &m)
    {
        const size_t sub = m.subDim;
        double *rowRe[kMaxSubDim], *rowIm[kMaxSubDim];
        Reg xr[kMaxSubDim], xi[kMaxSubDim];
        for (size_t base = 0; base < dim; ++base) {
            if (base & m.mask)
                continue;
            for (size_t s = 0; s < sub; ++s) {
                rowRe[s] = re + (base | m.offsets[s]) * stride;
                rowIm[s] = im + (base | m.offsets[s]) * stride;
            }
            for (size_t j = 0; j < stride; j += W) {
                for (size_t s = 0; s < sub; ++s) {
                    xr[s] = V::load(rowRe[s] + j);
                    xi[s] = V::load(rowIm[s] + j);
                }
                for (size_t r = 0; r < sub; ++r) {
                    Reg accr = V::zero(), acci = V::zero();
                    for (size_t t = 0; t < m.termCount[r]; ++t) {
                        const MixGate::Term &term = m.terms[r][t];
                        addProduct(accr, acci, V::set1(term.re),
                                   V::set1(term.im), xr[term.col],
                                   xi[term.col]);
                    }
                    V::store(rowRe[r] + j, accr);
                    V::store(rowIm[r] + j, acci);
                }
            }
        }
    }
};

template <class V, unsigned... Nonzero>
constexpr SlabKernelSet
makeKernels(std::integer_sequence<unsigned, Nonzero...>)
{
    return {{&Bodies<V>::template pair<Nonzero>...},
            &Bodies<V>::swap,
            &Bodies<V>::mix};
}

/** The table for policy V: a pair body for every zero pattern. */
template <class V>
const SlabKernelSet &
kernelsFor()
{
    static constexpr SlabKernelSet kTable =
        makeKernels<V>(std::make_integer_sequence<unsigned, 16>{});
    return kTable;
}

} // namespace quest::slab

#endif // QUEST_IR_UNITARY_KERNEL_IMPL_HH
