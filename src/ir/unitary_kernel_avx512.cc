/**
 * AVX-512 instantiation of the slab kernel bodies, eight columns (one
 * 64-byte line of a plane row) a step. Compiled with
 * -mavx512f -ffp-contract=off (src/CMakeLists.txt); the
 * QUEST_SIMD_COMPILE_AVX512 macro is only defined when those flags
 * are in effect.
 */

#include "ir/unitary_kernel_impl.hh"

#if defined(QUEST_SIMD_COMPILE_AVX512)

#include "util/vector_ops.hh"

namespace quest::slab {

const SlabKernelSet *
avx512Kernels()
{
    return &kernelsFor<simd::VAvx512>();
}

} // namespace quest::slab

#else // !QUEST_SIMD_COMPILE_AVX512

namespace quest::slab {

const SlabKernelSet *
avx512Kernels()
{
    return nullptr;
}

} // namespace quest::slab

#endif
