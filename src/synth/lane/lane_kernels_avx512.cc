/**
 * AVX-512 instantiation of the one-lane kernel bodies: a row of a
 * dim >= 8 block is processed 8 columns at a time (narrower rows use
 * the 2- and 4-wide registers). Compiled with
 * -mavx512f -ffp-contract=off (see src/CMakeLists.txt); the
 * QUEST_SIMD_COMPILE_AVX512 macro is only defined when those flags
 * are in effect.
 *
 * Separate mul/add/sub intrinsics, never _mm512_fmadd_pd: each
 * element must round exactly like the portable table's uncontracted
 * arithmetic.
 */

#include "synth/lane/lane_kernels_tables.hh"

#if defined(QUEST_SIMD_COMPILE_AVX512)

#include "synth/lane/lane_kernels_impl.hh"
#include "util/vector_ops.hh"

namespace quest::kern::lane {

const OneLaneKernelSet *
avx512OneLaneKernelsFor(size_t dim)
{
    return &impl::laneTableForDim<simd::VSse2, simd::VAvx2, simd::VAvx512>(
        dim);
}

} // namespace quest::kern::lane

#else // !QUEST_SIMD_COMPILE_AVX512

namespace quest::kern::lane {

const OneLaneKernelSet *
avx512OneLaneKernelsFor(size_t)
{
    return nullptr;
}

} // namespace quest::kern::lane

#endif
