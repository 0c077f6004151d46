/**
 * Portable instantiation of the batched and one-lane kernel bodies:
 * the no-SIMD build's only tables and the fallback on hosts without
 * AVX2. Compiled with -ffp-contract=off like the SIMD units so a
 * toolchain that enables FMA globally cannot contract the complex
 * mul/add chains and break cross-engine bit-identity.
 */

#include "synth/batch/batch_kernels_impl.hh"
#include "synth/batch/batch_kernels_tables.hh"
#include "util/vector_ops.hh"

namespace quest::kern::batch {

const BatchKernelSet &
scalarBatchKernelsFor(size_t dim)
{
    return impl::tableForDim<simd::VScalar>(dim);
}

const OneLaneKernelSet &
scalarOneLaneKernelsFor(size_t dim)
{
    return impl::laneTableForDim<simd::VPair, simd::VPair, simd::VPair>(dim);
}

} // namespace quest::kern::batch
