/**
 * @file
 * SIMD kernels for the instantiation evaluator (HsCost), on split
 * real/imaginary planes.
 *
 * Interleaved std::complex storage does not vectorize cleanly: a
 * vector of std::complex mixes real and imaginary parts, so every
 * complex multiply needs a shuffle, and GCC's pattern for it
 * contracts into vfmaddsub once FMA is enabled, even under
 * -ffp-contract=off, breaking bit identity. The table below therefore
 * keeps real and imaginary parts in separate planes, element (r, c)
 * at [r * dim + c], vectorizes ACROSS the columns of one matrix, and
 * spells every operation with explicit mul/add/sub. The portable
 * table is the bit reference: every floating-point operation of its
 * scalar loop becomes one vector operation in the SIMD tables, with
 * identical per-element order and associativity, so every element is
 * bit-for-bit the portable table's. The reductions keep each sum's
 * serial order too: reduceTraceT transposes a chunk's eight product
 * vectors in registers, so that one lane-wise add per column feeds
 * all eight of its sums in column order, and traceTarget adds its
 * products one at a time.
 *
 * Three implementations of the table are compiled, from the loop
 * bodies of lane_kernels_impl.hh and the vector-ops policies of
 * util/vector_ops.hh: a portable loop (always available, and the
 * only one in a QUEST_SIMD=OFF build), AVX2 and AVX-512. The memory
 * layout and the per-element arithmetic are ISA-independent;
 * util::activeSimdIsa() picks the table, the same dispatch the
 * dense-unitary kernels use. Bit-identity across ISAs additionally
 * requires that no multiply-add be contracted into an FMA — the
 * x86-64 baseline scalar build has no FMA — so the kernel
 * translation units are compiled with -ffp-contract=off and use
 * separate mul/add/sub intrinsics.
 *
 * Dims 2/4/8/16 get fully specialized variants via constant
 * propagation and wider dims fall back to generic runtime-dimension
 * loops; dispatch happens once per cost object, never per
 * evaluation.
 */

#ifndef QUEST_SYNTH_LANE_LANE_KERNELS_HH
#define QUEST_SYNTH_LANE_LANE_KERNELS_HH

#include <cstddef>

#include "util/cpu.hh"

namespace quest::kern::lane {

/**
 * One dimension's one-lane kernel table: HsCost's kernels for a
 * single matrix.
 *
 * Conventions: every matrix argument is flat row-major dim x dim in
 * separate real/imaginary planes (element (r, c) at [r * dim + c]);
 * the kernels vectorize across the columns of a row. @p g is a
 * row-major 2x2 gate {g00, g01, g10, g11} and @p w2 the four trace
 * entries, each passed as four interleaved (re, im) pairs — the
 * memory layout of a Complex[4]. @p bit is the basis-index bit of
 * the target wire (bit = 1 << (n - 1 - q)); @p bc / @p bt are the
 * CX control and target bits. The leading @p dim argument is the
 * runtime dimension (specialized tables ignore it in favor of their
 * compile-time constant). Every ISA's table does the portable
 * table's per-element arithmetic, so results are bit-identical
 * across ISAs.
 */
struct OneLaneKernelSet
{
    /**
     * dst <- embed(g, wire) * src (row mixing). With dst == src it is
     * the in-place update of the backward accumulator; otherwise it
     * is the forward prefix walk's fused slice copy, and the two must
     * not overlap. Same values either way.
     */
    void (*leftU3)(size_t dim, double *dstRe, double *dstIm,
                   const double *srcRe, const double *srcIm,
                   const double *g, size_t bit);

    /** m <- embed(CX, control, target) * m (row swaps). */
    void (*leftCx)(size_t dim, double *mRe, double *mIm, size_t bc,
                   size_t bt);

    /** dst <- embed(CX, ...) * src (a row gather); src and dst must
     *  not alias. */
    void (*leftCxOut)(size_t dim, double *dstRe, double *dstIm,
                      const double *srcRe, const double *srcIm, size_t bc,
                      size_t bt);

    /**
     * Contract W = P * B down to the wire's 2x2: with bt the
     * TRANSPOSE of B (so B's columns are bt's contiguous rows),
     * w2[a * 2 + c] = sum over rest of
     * <P row (rest | a*bit), bt row (rest | c*bit)>, which satisfies
     * Tr(P * B * embed(d, wire)) = sum_{a,c} w2[a*2+c] * d(c, a).
     * Each of the four sums is taken in its serial (h, c) order;
     * writes w2 as four (re, im) pairs.
     */
    void (*reduceTraceT)(size_t dim, const double *pRe, const double *pIm,
                         const double *btRe, const double *btIm, size_t bit,
                         double *w2);

    /**
     * Tr(target^dagger U) = sum_e tc[e] * u[e], summed serially over
     * e: @p tcRe / @p tcIm hold conj(target); writes the trace to
     * @p tr as one (re, im) pair.
     */
    void (*traceTarget)(size_t dim, const double *tcRe, const double *tcIm,
                        const double *uRe, const double *uIm, double *tr);
};

/** The one-lane table for a dim x dim block under
 *  util::activeSimdIsa(); call once at cost-object construction. */
const OneLaneKernelSet &oneLaneKernelsFor(size_t dim);

/**
 * The table for a specific ISA, or nullptr when that ISA was
 * compiled out or the host CPU lacks it. Test hook: the parity suite
 * runs every available ISA against the portable (SimdIsa::Scalar)
 * table.
 */
const OneLaneKernelSet *oneLaneKernelsForIsa(util::SimdIsa isa,
                                             size_t dim);

} // namespace quest::kern::lane

#endif // QUEST_SYNTH_LANE_LANE_KERNELS_HH
