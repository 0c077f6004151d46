/**
 * @file
 * The traced benchmark driver: a layered copy of QuestPipeline::run's
 * steps, built only from public library functions, with one
 * benchmark-owned span around each call into a layer.
 *
 * It exists so the benchmark can time each layer from outside without
 * touching src/: the pipeline's own spans nest synthesis, the block
 * unitaries and the candidate filter inside one step, and its cache
 * I/O runs inside the parallel synthesis region. The driver moves the
 * disk cache reads before that region and the writes after it, so each
 * layer is one contiguous span on the calling thread. Its samples must
 * stay byte-identical to QuestPipeline::run's; quest_perf checks that
 * on every traced compile.
 */

#ifndef QUEST_PERF_LAYERED_HH
#define QUEST_PERF_LAYERED_HH

#include <cstdint>

#include "cache/synthesis_cache.hh"
#include "ir/circuit.hh"
#include "quest/config.hh"
#include "quest/result.hh"

namespace quest::perf {

/** Span names of the driver's layer boundaries. Every one is a direct
 *  child of kSpanCompile on the calling thread. */
inline constexpr const char kSpanCompile[] = "perf.compile";
inline constexpr const char kSpanPartition[] = "perf.partition";
inline constexpr const char kSpanBlockUnitary[] = "perf.block_unitary";
inline constexpr const char kSpanCacheLoad[] = "perf.cache_load";
inline constexpr const char kSpanSynth[] = "perf.synth";
inline constexpr const char kSpanFilter[] = "perf.filter";
inline constexpr const char kSpanKeptUnitary[] = "perf.kept_unitary";
inline constexpr const char kSpanCacheStore[] = "perf.cache_store";
inline constexpr const char kSpanSimilarity[] = "perf.similarity";
inline constexpr const char kSpanAnneal[] = "perf.anneal";
inline constexpr const char kSpanAssemble[] = "perf.assemble";
inline constexpr const char kSpanCertify[] = "perf.certify";

/** Work counted at the layer boundaries, summed over compiles. */
struct LayerCounts
{
    uint64_t blocks = 0;
    uint64_t dedupHits = 0;      //!< blocks served by in-run dedup
    uint64_t searches = 0;       //!< blocks actually synthesized
    uint64_t candidates = 0;     //!< synthesized candidates offered
    uint64_t kept = 0;           //!< candidates the filter kept
    uint64_t blockUnitaries = 0; //!< circuitUnitary calls
    uint64_t cacheLoads = 0;
    uint64_t cacheHits = 0;
    uint64_t cacheStores = 0;
    uint64_t cacheBytes = 0;     //!< entry bytes loaded or stored
    uint64_t similarityPairs = 0;
    uint64_t annealRuns = 0;
    uint64_t annealEvaluations = 0;
    uint64_t annealKept = 0;     //!< runs that added a sample
    uint64_t certifyBuilds = 0;  //!< full-circuit buildUnitary calls

    /** Process CPU seconds spent inside the synthesis region. */
    double synthCpuSeconds = 0;
};

/** Process user+sys CPU seconds so far. */
double processCpuSeconds();

/**
 * Compile @p circuit as QuestPipeline(@p cfg).run() would, through
 * the layers one at a time. @p cfg.pool must be set; @p store is the
 * persistent cache (nullptr: none). Throws where the pipeline would
 * have degraded a block, so a degraded block fails the benchmark.
 */
QuestResult compileLayered(const Circuit &circuit, const QuestConfig &cfg,
                           cache::SynthesisCache *store,
                           LayerCounts &counts);

} // namespace quest::perf

#endif // QUEST_PERF_LAYERED_HH
