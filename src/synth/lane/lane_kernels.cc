#include "synth/lane/lane_kernels.hh"

#include "synth/lane/lane_kernels_tables.hh"
#include "util/logging.hh"

namespace quest::kern::lane {

using util::SimdIsa;

const OneLaneKernelSet *
oneLaneKernelsForIsa(SimdIsa isa, size_t dim)
{
    QUEST_ASSERT(dim >= 2 && (dim & (dim - 1)) == 0,
                 "kernel dimension must be a power of two >= 2, got ", dim);
    if (!util::simdIsaAvailable(isa))
        return nullptr;
    switch (isa) {
      case SimdIsa::Avx512:
        return avx512OneLaneKernelsFor(dim);
      case SimdIsa::Avx2:
        return avx2OneLaneKernelsFor(dim);
      case SimdIsa::Scalar:
        break;
    }
    return &scalarOneLaneKernelsFor(dim);
}

const OneLaneKernelSet &
oneLaneKernelsFor(size_t dim)
{
    const OneLaneKernelSet *k =
        oneLaneKernelsForIsa(util::activeSimdIsa(), dim);
    QUEST_ASSERT(k != nullptr, "dispatched kernel table missing");
    return *k;
}

} // namespace quest::kern::lane
