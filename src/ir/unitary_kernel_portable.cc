/**
 * Portable instantiation of the slab kernel bodies: the no-SIMD
 * build's only table and the fallback on hosts without AVX2, two
 * columns a step (util/vector_ops.hh VPair). Compiled with
 * -ffp-contract=off like the SIMD units.
 */

#include "ir/unitary_kernel_impl.hh"
#include "util/vector_ops.hh"

namespace quest::slab {

const SlabKernelSet &
portableKernels()
{
    return kernelsFor<simd::VPair>();
}

} // namespace quest::slab
