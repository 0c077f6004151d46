/**
 * AVX2 instantiation of the one-lane kernel bodies: a row is
 * processed 4 columns at a time (2 with __m128d for a dim-2 block).
 * Compiled with -mavx2 -ffp-contract=off (see src/CMakeLists.txt);
 * the QUEST_SIMD_COMPILE_AVX2 macro is only defined when those flags
 * are in effect, so a build without them (QUEST_SIMD=OFF, non-x86)
 * gets the nullptr stub instead of unbuildable intrinsics.
 *
 * Separate mul/add/sub intrinsics, never _mm256_fmadd_pd: each
 * element must round exactly like the portable table's uncontracted
 * arithmetic.
 */

#include "synth/lane/lane_kernels_tables.hh"

#if defined(QUEST_SIMD_COMPILE_AVX2)

#include "synth/lane/lane_kernels_impl.hh"
#include "util/vector_ops.hh"

namespace quest::kern::lane {

const OneLaneKernelSet *
avx2OneLaneKernelsFor(size_t dim)
{
    return &impl::laneTableForDim<simd::VSse2, simd::VAvx2, simd::VAvx2>(
        dim);
}

} // namespace quest::kern::lane

#else // !QUEST_SIMD_COMPILE_AVX2

namespace quest::kern::lane {

const OneLaneKernelSet *
avx2OneLaneKernelsFor(size_t)
{
    return nullptr;
}

} // namespace quest::kern::lane

#endif
