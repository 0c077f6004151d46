#include "synth/batch/batch_kernels.hh"

#include "synth/batch/batch_kernels_tables.hh"
#include "util/cpu.hh"
#include "util/logging.hh"

namespace quest::kern::batch {

namespace {

/** Resolve the dispatch once: widest ISA the build and the host both
 *  support, capped by the QUEST_SIMD override. */
SimdIsa
resolveIsa()
{
    const util::CpuFeatures &cpu = util::cpuFeatures();
    const util::SimdOverride ov = util::simdOverride();

    const bool haveAvx512 = cpu.avx512f && avx512BatchKernelsFor(2) != nullptr;
    const bool haveAvx2 = cpu.avx2 && avx2BatchKernelsFor(2) != nullptr;

    switch (ov) {
      case util::SimdOverride::Scalar:
        return SimdIsa::Scalar;
      case util::SimdOverride::Avx2:
        return haveAvx2 ? SimdIsa::Avx2 : SimdIsa::Scalar;
      case util::SimdOverride::Avx512:
      case util::SimdOverride::None:
        break;
    }
    if (haveAvx512)
        return SimdIsa::Avx512;
    if (haveAvx2)
        return SimdIsa::Avx2;
    return SimdIsa::Scalar;
}

/** One table kind for @p isa: nullptr when the build or the host
 *  lacks that ISA; the portable table always exists. */
template <class Set>
const Set *
tableForIsa(SimdIsa isa, size_t dim, const Set *(*avx512)(size_t),
            const Set *(*avx2)(size_t), const Set &(*scalar)(size_t))
{
    QUEST_ASSERT(dim >= 2 && (dim & (dim - 1)) == 0,
                 "kernel dimension must be a power of two >= 2, got ", dim);
    switch (isa) {
      case SimdIsa::Avx512:
        return util::cpuFeatures().avx512f ? avx512(dim) : nullptr;
      case SimdIsa::Avx2:
        return util::cpuFeatures().avx2 ? avx2(dim) : nullptr;
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

const char *
simdIsaName(SimdIsa isa)
{
    switch (isa) {
      case SimdIsa::Avx512:
        return "avx512";
      case SimdIsa::Avx2:
        return "avx2";
      case SimdIsa::Scalar:
        break;
    }
    return "scalar";
}

SimdIsa
activeSimdIsa()
{
    static const SimdIsa isa = resolveIsa();
    return isa;
}

const BatchKernelSet *
batchKernelsForIsa(SimdIsa isa, size_t dim)
{
    return tableForIsa(isa, dim, avx512BatchKernelsFor, avx2BatchKernelsFor,
                       scalarBatchKernelsFor);
}

const BatchKernelSet &
batchKernelsFor(size_t dim)
{
    return dispatched(batchKernelsForIsa(activeSimdIsa(), dim));
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
    return dispatched(oneLaneKernelsForIsa(activeSimdIsa(), dim));
}

} // namespace quest::kern::batch
