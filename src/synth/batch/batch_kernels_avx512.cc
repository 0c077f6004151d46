/**
 * AVX-512 instantiation of the batched and one-lane kernel bodies:
 * one 8-wide __m512d register is the whole batch, and a one-lane row
 * of a dim >= 8 block is processed 8 columns at a time (narrower
 * rows use the 2- and 4-wide registers). Compiled with
 * -mavx512f -ffp-contract=off (see src/synth/CMakeLists.txt); the
 * QUEST_BATCH_COMPILE_AVX512 macro is only defined when those flags
 * are in effect.
 *
 * Separate mul/add/sub intrinsics, never _mm512_fmadd_pd: each
 * element must round exactly like the scalar kernels' uncontracted
 * arithmetic.
 */

#include "synth/batch/batch_kernels_tables.hh"

#if defined(QUEST_BATCH_COMPILE_AVX512)

#include <immintrin.h>

#include "synth/batch/batch_kernels_impl.hh"
#include "synth/batch/batch_kernels_x86.hh"

namespace quest::kern::batch {

namespace {

struct VAvx512
{
    using Reg = __m512d;
    static constexpr size_t width = 8;
    static Reg load(const double *p) { return _mm512_loadu_pd(p); }
    static void store(double *p, Reg x) { _mm512_storeu_pd(p, x); }
    static Reg set1(double x) { return _mm512_set1_pd(x); }
    static Reg zero() { return _mm512_setzero_pd(); }
    static Reg add(Reg a, Reg b) { return _mm512_add_pd(a, b); }
    static Reg sub(Reg a, Reg b) { return _mm512_sub_pd(a, b); }
    static Reg mul(Reg a, Reg b) { return _mm512_mul_pd(a, b); }
};

} // namespace

const BatchKernelSet *
avx512BatchKernelsFor(size_t dim)
{
    return &impl::tableForDim<VAvx512>(dim);
}

const OneLaneKernelSet *
avx512OneLaneKernelsFor(size_t dim)
{
    return &impl::laneTableForDim<VSse2, VAvx2, VAvx512>(dim);
}

} // namespace quest::kern::batch

#else // !QUEST_BATCH_COMPILE_AVX512

namespace quest::kern::batch {

const BatchKernelSet *
avx512BatchKernelsFor(size_t)
{
    return nullptr;
}

const OneLaneKernelSet *
avx512OneLaneKernelsFor(size_t)
{
    return nullptr;
}

} // namespace quest::kern::batch

#endif
