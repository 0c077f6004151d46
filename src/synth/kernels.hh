/**
 * @file
 * In-place small-dimension kernels behind the instantiation hot path.
 *
 * Numerical instantiation spends essentially all of its time left- and
 * right-multiplying a block-sized matrix by embedded 2x2 gates and
 * contracting prefix/suffix products down to a 2x2 trace. These
 * kernels operate on flat row-major storage with restrict-qualified
 * pointers and are compiled once per block dimension: dims 2, 4, 8
 * and 16 (blocks are at most four qubits wide) get fully specialized,
 * unrolled variants via constant propagation, wider dims fall back to
 * generic runtime-dimension loops. Dispatch happens once per cost
 * object through @ref kernelsForDim, never per evaluation.
 *
 * Complex arithmetic is spelled out on real/imaginary parts (see
 * @ref cmul) so the compiler emits straight mul/add sequences instead
 * of the NaN-recovering __muldc3 libcall.
 *
 * These interleaved kernels are the bit reference, not the hot path:
 * Ansatz::unitary/unitaryAndGradient run on them, and the parity
 * tests pin the instantiation evaluator, which runs on the planar
 * SIMD tables (synth/lane/lane_kernels.hh), against them. They are
 * not left to auto-vectorization because that breaks bit identity:
 * once FMA is enabled (-march=native on a current x86 host, or
 * -mavx512f alone), GCC 12 turns the complex multiply into
 * vfmaddsub, even under -ffp-contract=off (16 of them in
 * leftU3Fixed<16>). So the evaluator uses explicit mul/add/sub
 * intrinsics, which its -mavx512f unit cannot contract, and the
 * rest of src/ must not be built with FMA-enabling flags.
 */

#ifndef QUEST_SYNTH_KERNELS_HH
#define QUEST_SYNTH_KERNELS_HH

#include <cstddef>

#include "linalg/matrix.hh"

#if defined(_MSC_VER)
#define QUEST_RESTRICT __restrict
#else
#define QUEST_RESTRICT __restrict__
#endif

namespace quest::kern {

/** Complex multiply without the NaN-fixup branch of operator*. */
inline Complex
cmul(const Complex &a, const Complex &b)
{
    return Complex(a.real() * b.real() - a.imag() * b.imag(),
                   a.real() * b.imag() + a.imag() * b.real());
}

/**
 * One dimension's kernel dispatch table.
 *
 * Conventions shared by every entry: @p m / @p p / @p bt point at flat
 * row-major dim x dim storage; @p g is a row-major 2x2 gate
 * {g00, g01, g10, g11}; @p bit is the basis-index bit of the target
 * wire (bit = 1 << (n - 1 - q)); @p bc / @p bt_bit are the CX control
 * and target bits. The leading @p dim argument is the runtime
 * dimension — specialized tables ignore it in favor of their
 * compile-time constant.
 */
struct KernelSet
{
    /** m <- embed(g, wire) * m (row mixing). */
    void (*leftU3)(size_t dim, Complex *m, const Complex *g, size_t bit);

    /** m <- m * embed(g, wire) (column mixing). */
    void (*rightU3)(size_t dim, Complex *m, const Complex *g, size_t bit);

    /** m <- embed(CX, control, target) * m (row swaps). */
    void (*leftCx)(size_t dim, Complex *m, size_t bc, size_t bt_bit);

    /** m <- m * embed(CX, control, target) (column swaps). */
    void (*rightCx)(size_t dim, Complex *m, size_t bc, size_t bt_bit);

    /**
     * Contract W = P * B down to the wire's 2x2: with bt the
     * TRANSPOSE of B (so B's columns are bt's contiguous rows),
     * w2[a * 2 + c] = sum over rest of
     * <P row (rest | a*bit), bt row (rest | c*bit)>, which satisfies
     * Tr(P * B * embed(d, wire)) = sum_{a,c} w2[a*2+c] * d(c, a).
     */
    void (*reduceTraceT)(size_t dim, const Complex *p, const Complex *bt,
                         size_t bit, Complex *w2);
};

/**
 * The kernel table for a dim x dim block (dim a power of two >= 2).
 * Returns the unrolled specialization for dim in {2, 4, 8, 16} and
 * the generic-loop table beyond. Call once at cost-object
 * construction and reuse the reference.
 */
const KernelSet &kernelsForDim(size_t dim);

} // namespace quest::kern

#endif // QUEST_SYNTH_KERNELS_HH
