/**
 * @file
 * Shared loop bodies for the one-lane kernels, templated on a
 * vector-ops policy. Each ISA translation unit instantiates these
 * with the policies its ISA flags allow (util/vector_ops.hh), so the
 * loop structure — and therefore the per-element operation order —
 * is written exactly once.
 *
 * The policies and their contract (including the addColumns
 * transpose) are in util/vector_ops.hh.
 *
 * Bit-identity contract: every ISA runs these same bodies, so every
 * table performs the portable table's (lane_kernels_scalar.cc) exact
 * per-element operations — same loop order, same operand order,
 * complex arithmetic spelled with separate mul/add/sub (never fused;
 * the including TU must be compiled with -ffp-contract=off). The
 * portable table has no independent bit reference: changing an
 * expression here changes instantiation results on every ISA, which
 * the Determinism pins (tests/determinism_test.cc) and
 * tests/suite_digests.txt are there to catch.
 */

#ifndef QUEST_SYNTH_LANE_LANE_KERNELS_IMPL_HH
#define QUEST_SYNTH_LANE_LANE_KERNELS_IMPL_HH

#include "synth/lane/lane_kernels.hh"

namespace quest::kern::lane::impl {

/**
 * One-lane loop bodies for one (policy, compile-time dim) pair: a
 * single matrix in split planes, every row vectorized across its
 * columns (D == 0 means runtime dimension). Each element sees the
 * same operations under every policy, and every reduction sum takes
 * its terms one at a time in serial loop order. reduceTraceT keeps
 * its eight sums in registers (addColumns, util/vector_ops.hh).
 * traceTarget's two sums are each one chain of dim * dim adds, which
 * no transpose shortens, so it adds its products from a stack buffer.
 */
template <class V, size_t D>
struct LaneBodies
{
    using Reg = typename V::Reg;
    static constexpr size_t W = V::width;
    static_assert(D % W == 0, "a row must be a whole number of registers");

    static void
    leftU3(size_t dimArg, double *dstRe, double *dstIm, const double *srcRe,
           const double *srcIm, const double *g, size_t bit)
    {
        const size_t dim = D ? D : dimArg;
        const size_t lo = bit - 1;
        const Reg g00r = V::set1(g[0]), g00i = V::set1(g[1]);
        const Reg g01r = V::set1(g[2]), g01i = V::set1(g[3]);
        const Reg g10r = V::set1(g[4]), g10i = V::set1(g[5]);
        const Reg g11r = V::set1(g[6]), g11i = V::set1(g[7]);
        for (size_t h = 0; h < dim / 2; ++h) {
            const size_t r0 = ((h & ~lo) << 1) | (h & lo);
            const size_t o0 = r0 * dim;
            const size_t o1 = (r0 | bit) * dim;
            // Both rows' chunks are loaded before either is stored, so
            // dst == src is a correct in-place update.
            for (size_t c = 0; c < dim; c += W) {
                const Reg ar = V::load(srcRe + o0 + c);
                const Reg ai = V::load(srcIm + o0 + c);
                const Reg br = V::load(srcRe + o1 + c);
                const Reg bi = V::load(srcIm + o1 + c);
                // row0 = cmul(g00, a) + cmul(g01, b)
                V::store(dstRe + o0 + c,
                         V::add(V::sub(V::mul(g00r, ar), V::mul(g00i, ai)),
                                V::sub(V::mul(g01r, br), V::mul(g01i, bi))));
                V::store(dstIm + o0 + c,
                         V::add(V::add(V::mul(g00r, ai), V::mul(g00i, ar)),
                                V::add(V::mul(g01r, bi), V::mul(g01i, br))));
                // row1 = cmul(g10, a) + cmul(g11, b)
                V::store(dstRe + o1 + c,
                         V::add(V::sub(V::mul(g10r, ar), V::mul(g10i, ai)),
                                V::sub(V::mul(g11r, br), V::mul(g11i, bi))));
                V::store(dstIm + o1 + c,
                         V::add(V::add(V::mul(g10r, ai), V::mul(g10i, ar)),
                                V::add(V::mul(g11r, bi), V::mul(g11i, br))));
            }
        }
    }

    static void
    leftCx(size_t dimArg, double *mRe, double *mIm, size_t bc, size_t bt)
    {
        const size_t dim = D ? D : dimArg;
        for (size_t r = 0; r < dim; ++r) {
            if ((r & bc) && !(r & bt)) {
                const size_t o0 = r * dim;
                const size_t o1 = (r | bt) * dim;
                for (size_t c = 0; c < dim; c += W) {
                    const Reg tr = V::load(mRe + o0 + c);
                    const Reg ti = V::load(mIm + o0 + c);
                    V::store(mRe + o0 + c, V::load(mRe + o1 + c));
                    V::store(mIm + o0 + c, V::load(mIm + o1 + c));
                    V::store(mRe + o1 + c, tr);
                    V::store(mIm + o1 + c, ti);
                }
            }
        }
    }

    static void
    leftCxOut(size_t dimArg, double *dstRe, double *dstIm,
              const double *srcRe, const double *srcIm, size_t bc,
              size_t bt)
    {
        // Row r of the next slice is row (r ^ bt) of this one when the
        // control bit is set: a gather of pure copies.
        const size_t dim = D ? D : dimArg;
        for (size_t r = 0; r < dim; ++r) {
            const size_t so = ((r & bc) ? (r ^ bt) : r) * dim;
            const size_t o = r * dim;
            for (size_t c = 0; c < dim; c += W) {
                V::store(dstRe + o + c, V::load(srcRe + so + c));
                V::store(dstIm + o + c, V::load(srcIm + so + c));
            }
        }
    }

    static void
    reduceTraceT(size_t dimArg, const double *pRe, const double *pIm,
                 const double *btRe, const double *btIm, size_t bit,
                 double *w2)
    {
        const size_t dim = D ? D : dimArg;
        const size_t lo = bit - 1;
        // Sum k is w2[k]: entry k / 2's real (even k) or imaginary part.
        Reg w[8 / W];
        for (Reg &s : w)
            s = V::zero();
        for (size_t h = 0; h < dim / 2; ++h) {
            const size_t r0 = ((h & ~lo) << 1) | (h & lo);
            const size_t o0 = r0 * dim;
            const size_t o1 = (r0 | bit) * dim;
            for (size_t c = 0; c < dim; c += W) {
                const Reg par = V::load(pRe + o0 + c);
                const Reg pai = V::load(pIm + o0 + c);
                const Reg pbr = V::load(pRe + o1 + c);
                const Reg pbi = V::load(pIm + o1 + c);
                const Reg bar = V::load(btRe + o0 + c);
                const Reg bai = V::load(btIm + o0 + c);
                const Reg bbr = V::load(btRe + o1 + c);
                const Reg bbi = V::load(btIm + o1 + c);
                const Reg t[8] = {
                    // w00 += cmul(pa, ba)
                    V::sub(V::mul(par, bar), V::mul(pai, bai)),
                    V::add(V::mul(par, bai), V::mul(pai, bar)),
                    // w01 += cmul(pa, bb)
                    V::sub(V::mul(par, bbr), V::mul(pai, bbi)),
                    V::add(V::mul(par, bbi), V::mul(pai, bbr)),
                    // w10 += cmul(pb, ba)
                    V::sub(V::mul(pbr, bar), V::mul(pbi, bai)),
                    V::add(V::mul(pbr, bai), V::mul(pbi, bar)),
                    // w11 += cmul(pb, bb)
                    V::sub(V::mul(pbr, bbr), V::mul(pbi, bbi)),
                    V::add(V::mul(pbr, bbi), V::mul(pbi, bbr))};
                V::addColumns(w, t);
            }
        }
        for (size_t i = 0; i < 8 / W; ++i)
            V::store(w2 + i * W, w[i]);
    }

    static void
    traceTarget(size_t dimArg, const double *tcRe, const double *tcIm,
                const double *uRe, const double *uIm, double *tr)
    {
        const size_t dim = D ? D : dimArg;
        const size_t dd = dim * dim;
        double accr = 0.0, acci = 0.0;
        for (size_t e = 0; e < dd; e += W) {
            const Reg tcr = V::load(tcRe + e);
            const Reg tci = V::load(tcIm + e);
            const Reg ur = V::load(uRe + e);
            const Reg ui = V::load(uIm + e);
            // tr += cmul(tc, u)
            alignas(64) double t[2][W];
            V::store(t[0], V::sub(V::mul(tcr, ur), V::mul(tci, ui)));
            V::store(t[1], V::add(V::mul(tcr, ui), V::mul(tci, ur)));
            for (size_t j = 0; j < W; ++j) {
                accr += t[0][j];
                acci += t[1][j];
            }
        }
        tr[0] = accr;
        tr[1] = acci;
    }
};

template <class V, size_t D>
constexpr OneLaneKernelSet
makeLaneSet()
{
    return {&LaneBodies<V, D>::leftU3, &LaneBodies<V, D>::leftCx,
            &LaneBodies<V, D>::leftCxOut, &LaneBodies<V, D>::reduceTraceT,
            &LaneBodies<V, D>::traceTarget};
}

/**
 * The per-dim one-lane dispatch: a row of a dim-2 block fills a
 * 2-wide register, one of a dim-4 block a 4-wide register, and wider
 * rows any register up to 8 wide, so each dim gets the widest policy
 * its rows fill. Specialized tables for dims 2/4/8/16, the
 * generic-loop table (dim >= 32) beyond.
 */
template <class V2, class V4, class V8>
const OneLaneKernelSet &
laneTableForDim(size_t dim)
{
    static constexpr OneLaneKernelSet kGeneric = makeLaneSet<V8, 0>();
    static constexpr OneLaneKernelSet kD2 = makeLaneSet<V2, 2>();
    static constexpr OneLaneKernelSet kD4 = makeLaneSet<V4, 4>();
    static constexpr OneLaneKernelSet kD8 = makeLaneSet<V8, 8>();
    static constexpr OneLaneKernelSet kD16 = makeLaneSet<V8, 16>();
    switch (dim) {
      case 2:
        return kD2;
      case 4:
        return kD4;
      case 8:
        return kD8;
      case 16:
        return kD16;
      default:
        return kGeneric;
    }
}

} // namespace quest::kern::lane::impl

#endif // QUEST_SYNTH_LANE_LANE_KERNELS_IMPL_HH
