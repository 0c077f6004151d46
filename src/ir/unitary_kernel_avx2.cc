/**
 * AVX2 instantiation of the slab kernel bodies, four columns a step.
 * Compiled with -mavx2 -ffp-contract=off (src/CMakeLists.txt); the
 * QUEST_SIMD_COMPILE_AVX2 macro is only defined when those flags are
 * in effect, so a build without them gets the nullptr stub.
 */

#include "ir/unitary_kernel_impl.hh"

#if defined(QUEST_SIMD_COMPILE_AVX2)

#include "util/vector_ops.hh"

namespace quest::slab {

const SlabKernelSet *
avx2Kernels()
{
    return &kernelsFor<simd::VAvx2>();
}

} // namespace quest::slab

#else // !QUEST_SIMD_COMPILE_AVX2

namespace quest::slab {

const SlabKernelSet *
avx2Kernels()
{
    return nullptr;
}

} // namespace quest::slab

#endif
