/**
 * Portable instantiation of the one-lane kernel bodies: the no-SIMD
 * build's only table and the fallback on hosts without AVX2.
 * Compiled with -ffp-contract=off like the SIMD units so a toolchain
 * that enables FMA globally cannot contract the complex mul/add
 * chains and break cross-ISA bit-identity.
 */

#include "synth/lane/lane_kernels_impl.hh"
#include "synth/lane/lane_kernels_tables.hh"
#include "util/vector_ops.hh"

namespace quest::kern::lane {

const OneLaneKernelSet &
scalarOneLaneKernelsFor(size_t dim)
{
    return impl::laneTableForDim<simd::VPair, simd::VPair, simd::VPair>(dim);
}

} // namespace quest::kern::lane
