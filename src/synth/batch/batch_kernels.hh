/**
 * @file
 * Lane-batched SIMD kernels for the batched instantiation engine.
 *
 * The scalar kernels (synth/kernels.hh) vectorize poorly inside one
 * evaluation: a block matrix is at most 16x16 and the complex
 * arithmetic serializes on the real/imaginary shuffle. These kernels
 * instead vectorize ACROSS candidates — a fixed batch of kLanes
 * parameter vectors for the same ansatz structure, laid out
 * structure-of-arrays with split real/imaginary planes so element e
 * of lane l lives at [e * kLanes + l]. Every scalar floating-point
 * operation of the reference kernel becomes one vector operation
 * across lanes, with identical per-lane order and associativity, so
 * each lane's result is bit-for-bit the scalar engine's.
 *
 * Three implementations are compiled behind one function-pointer
 * table: a portable scalar-lane loop (always available, and the only
 * one in a QUEST_SIMD=OFF build), AVX2 (two 4-wide vectors per lane
 * group) and AVX-512 (one 8-wide vector). The memory layout and the
 * per-lane arithmetic are ISA-independent; dispatch picks the widest
 * ISA the host supports, subject to the QUEST_SIMD environment
 * override (util/cpu.hh). Bit-identity across ISAs additionally
 * requires that no multiply-add be contracted into an FMA — the
 * x86-64 baseline scalar build has no FMA — so the SIMD translation
 * units are compiled with -ffp-contract=off and use separate
 * mul/add/sub intrinsics.
 *
 * Like the scalar table, dims 2/4/8/16 get fully specialized
 * variants via constant propagation and wider dims fall back to
 * generic runtime-dimension loops; dispatch happens once per cost
 * object, never per evaluation.
 */

#ifndef QUEST_SYNTH_BATCH_BATCH_KERNELS_HH
#define QUEST_SYNTH_BATCH_BATCH_KERNELS_HH

#include <cstddef>

namespace quest::kern::batch {

/**
 * Fixed lane count for every ISA. Eight doubles is one AVX-512
 * vector, two AVX2 vectors, or an 8-iteration scalar loop — keeping
 * it constant makes the SoA layout (and therefore every result)
 * independent of the dispatched ISA.
 */
inline constexpr size_t kLanes = 8;

/** Which kernel implementation the dispatcher selected. */
enum class SimdIsa
{
    Scalar,
    Avx2,
    Avx512,
};

/** Human-readable ISA name ("scalar" / "avx2" / "avx512"). */
const char *simdIsaName(SimdIsa isa);

/**
 * One dimension's batched kernel dispatch table.
 *
 * Conventions: every matrix argument is flat row-major dim x dim
 * with each element expanded to kLanes doubles, split into separate
 * real/imaginary planes (mRe/mIm); @p gRe / @p gIm hold a row-major
 * 2x2 gate per lane in the same SoA layout (4 * kLanes doubles
 * each); @p bit / @p bc / @p bt are wire bits exactly as in
 * kern::KernelSet. The leading @p dim argument is the runtime
 * dimension — specialized tables ignore it in favor of their
 * compile-time constant.
 */
struct BatchKernelSet
{
    /** m <- embed(g, wire) * m, per lane (row mixing). */
    void (*leftU3)(size_t dim, double *mRe, double *mIm,
                   const double *gRe, const double *gIm, size_t bit);

    /**
     * dst <- embed(g, wire) * src, per lane: the in-place kernel
     * fused with the slice copy of the forward prefix walk. Same
     * arithmetic, bit-identical values; src and dst must not alias.
     */
    void (*leftU3Out)(size_t dim, double *dstRe, double *dstIm,
                      const double *srcRe, const double *srcIm,
                      const double *gRe, const double *gIm, size_t bit);

    /** m <- embed(CX, control, target) * m, per lane (row swaps). */
    void (*leftCx)(size_t dim, double *mRe, double *mIm, size_t bc,
                   size_t bt);

    /** dst <- embed(CX, ...) * src, per lane (a row gather); src and
     *  dst must not alias. */
    void (*leftCxOut)(size_t dim, double *dstRe, double *dstIm,
                      const double *srcRe, const double *srcIm, size_t bc,
                      size_t bt);

    /**
     * Per-lane trace contraction, mirroring
     * kern::KernelSet::reduceTraceT: writes the four w2 entries as
     * SoA (4 * kLanes doubles per plane).
     */
    void (*reduceTraceT)(size_t dim, const double *pRe, const double *pIm,
                         const double *btRe, const double *btIm, size_t bit,
                         double *w2Re, double *w2Im);

    /**
     * Per-lane Tr(target^dagger U): @p tcRe / @p tcIm hold
     * conj(target) as plain (non-lane-expanded) dim*dim scalars
     * broadcast across lanes; writes kLanes accumulators per plane.
     */
    void (*traceTarget)(size_t dim, const double *tcRe, const double *tcIm,
                        const double *uRe, const double *uIm, double *trRe,
                        double *trIm);
};

/**
 * The batched kernel table for a dim x dim block under the
 * process-wide dispatched ISA (see activeSimdIsa). Call once at
 * cost-object construction and reuse the reference.
 */
const BatchKernelSet &batchKernelsFor(size_t dim);

/**
 * The table for a specific ISA, or nullptr when that ISA was
 * compiled out or the host CPU lacks it. Test hook: the parity suite
 * runs every available ISA against the scalar reference.
 */
const BatchKernelSet *batchKernelsForIsa(SimdIsa isa, size_t dim);

/**
 * The ISA the process-wide dispatch resolved to: the widest the
 * build and the host support, capped by the QUEST_SIMD override.
 * Cached after the first call.
 */
SimdIsa activeSimdIsa();

} // namespace quest::kern::batch

#endif // QUEST_SYNTH_BATCH_BATCH_KERNELS_HH
