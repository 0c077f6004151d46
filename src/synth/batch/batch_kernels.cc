#include "synth/batch/batch_kernels.hh"

#include "synth/batch/batch_kernels_tables.hh"
#include "util/logging.hh"

namespace quest::kern::batch {

namespace {

using util::SimdIsa;

/** One table kind for @p isa: nullptr when the build or the host
 *  lacks that ISA; the portable table always exists. */
template <class Set>
const Set *
tableForIsa(SimdIsa isa, size_t dim, const Set *(*avx512)(size_t),
            const Set *(*avx2)(size_t), const Set &(*scalar)(size_t))
{
    QUEST_ASSERT(dim >= 2 && (dim & (dim - 1)) == 0,
                 "kernel dimension must be a power of two >= 2, got ", dim);
    if (!util::simdIsaAvailable(isa))
        return nullptr;
    switch (isa) {
      case SimdIsa::Avx512:
        return avx512(dim);
      case SimdIsa::Avx2:
        return avx2(dim);
      case SimdIsa::Scalar:
        break;
    }
    return &scalar(dim);
}

/** The table the process-wide dispatch selected (never missing). */
template <class Set>
const Set &
dispatched(const Set *k)
{
    QUEST_ASSERT(k != nullptr, "dispatched kernel table missing");
    return *k;
}

} // namespace

const BatchKernelSet *
batchKernelsForIsa(SimdIsa isa, size_t dim)
{
    return tableForIsa(isa, dim, avx512BatchKernelsFor, avx2BatchKernelsFor,
                       scalarBatchKernelsFor);
}

const BatchKernelSet &
batchKernelsFor(size_t dim)
{
    return dispatched(batchKernelsForIsa(util::activeSimdIsa(), dim));
}

const OneLaneKernelSet *
oneLaneKernelsForIsa(SimdIsa isa, size_t dim)
{
    return tableForIsa(isa, dim, avx512OneLaneKernelsFor,
                       avx2OneLaneKernelsFor, scalarOneLaneKernelsFor);
}

const OneLaneKernelSet &
oneLaneKernelsFor(size_t dim)
{
    return dispatched(oneLaneKernelsForIsa(util::activeSimdIsa(), dim));
}

} // namespace quest::kern::batch
