/**
 * @file
 * End-to-end QUEST pipeline tests (lean synthesis settings).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "algos/algorithms.hh"
#include "ir/lower.hh"
#include "ir/qasm.hh"
#include "linalg/distance.hh"
#include "metrics/output_distance.hh"
#include "obs/metrics.hh"
#include "obs/stats.hh"
#include "obs/trace.hh"
#include "quest/bound.hh"
#include "quest/ensemble.hh"
#include "quest/pipeline.hh"
#include "resilience/error.hh"
#include "resilience/thread_pool.hh"
#include "service/job.hh"
#include "sim/simulator.hh"
#include "synth/synth_cache.hh"
#include "util/names.hh"

namespace quest {
namespace {

QuestConfig
leanConfig()
{
    QuestConfig cfg;
    cfg.thresholdPerBlock = 0.1;  // keep ensemble TVD assertions tight
    cfg.synth.beamWidth = 1;
    cfg.synth.inst.multistarts = 2;
    cfg.synth.inst.lbfgs.maxIterations = 250;
    cfg.synth.maxLayers = 10;
    cfg.synth.candidatesPerLevel = 4;
    cfg.synth.stallLevels = 4;
    cfg.anneal.maxIterations = 300;
    cfg.maxSamples = 6;
    return cfg;
}

/** The pipeline result plus the observability record of its run. */
struct RunArtifacts
{
    QuestResult r;
    std::vector<obs::TraceEvent> events;
    uint64_t cacheHits = 0;
    uint64_t cacheMisses = 0;
};

RunArtifacts
tracedRun(const QuestConfig &cfg, const Circuit &circuit)
{
    auto &registry = obs::MetricsRegistry::global();
    auto &hits = registry.counter("quest.synth.cache_hits");
    auto &misses = registry.counter("quest.synth.cache_misses");
    const uint64_t hits_before = hits.value();
    const uint64_t misses_before = misses.value();

    obs::TraceSession::global().start();
    RunArtifacts out;
    out.r = QuestPipeline(cfg).run(circuit);
    obs::TraceSession::global().stop();
    out.events = obs::TraceSession::global().collect();
    out.cacheHits = hits.value() - hits_before;
    out.cacheMisses = misses.value() - misses_before;
    return out;
}

class PipelineFixture : public ::testing::Test
{
  protected:
    static const RunArtifacts &
    artifacts()
    {
        // Shared across tests: the pipeline run is the expensive part.
        static RunArtifacts a =
            tracedRun(leanConfig(), algos::tfim(4, 5));
        return a;
    }

    static const QuestResult &result() { return artifacts().r; }
};

TEST_F(PipelineFixture, ReducesCnotCount)
{
    const QuestResult &r = result();
    EXPECT_EQ(r.originalCnots, 30u);
    EXPECT_LT(r.minSampleCnots(), r.originalCnots / 2);
}

TEST_F(PipelineFixture, SelectsMultipleDissimilarSamples)
{
    const QuestResult &r = result();
    EXPECT_GE(r.samples.size(), 2u);
    EXPECT_LE(r.samples.size(),
              static_cast<size_t>(leanConfig().maxSamples));
    // All selected choices distinct.
    for (size_t i = 0; i < r.samples.size(); ++i)
        for (size_t j = i + 1; j < r.samples.size(); ++j)
            EXPECT_NE(r.samples[i].choice, r.samples[j].choice);
}

TEST_F(PipelineFixture, SamplesRespectThreshold)
{
    const QuestResult &r = result();
    for (const ApproxSample &s : r.samples) {
        EXPECT_LE(s.distanceBound, r.threshold + 1e-12);
        EXPECT_LE(s.cnotCount, r.originalCnots);
    }
}

TEST_F(PipelineFixture, BoundHoldsForEverySample)
{
    const QuestResult &r = result();
    for (const ApproxSample &s : r.samples) {
        double actual = actualProcessDistance(r.original, s.circuit);
        EXPECT_LE(actual, s.distanceBound + 1e-9);
    }
}

TEST_F(PipelineFixture, SampleMetadataConsistent)
{
    const QuestResult &r = result();
    for (const ApproxSample &s : r.samples) {
        EXPECT_EQ(s.circuit.cnotCount(), s.cnotCount);
        EXPECT_EQ(s.circuit.numQubits(), r.original.numQubits());
        ASSERT_EQ(s.choice.size(), r.blocks.size());
        for (size_t b = 0; b < s.choice.size(); ++b) {
            EXPECT_GE(s.choice[b], 0);
            EXPECT_LT(s.choice[b],
                      static_cast<int>(r.blockApprox[b].size()));
        }
    }
}

TEST_F(PipelineFixture, EnsembleTracksGroundTruth)
{
    const QuestResult &r = result();
    Distribution truth = idealDistribution(r.original);
    Distribution ensemble = ensembleDistribution(r);
    EXPECT_LT(tvd(truth, ensemble), 0.08);
    EXPECT_LT(jsd(truth, ensemble), 0.15);
}

TEST_F(PipelineFixture, QiskitPostPassPreservesSamples)
{
    const QuestResult &r = result();
    EnsembleOptions opts;
    opts.applyQiskit = true;
    Distribution truth = idealDistribution(r.original);
    Distribution ensemble = ensembleDistribution(r, opts);
    EXPECT_LT(tvd(truth, ensemble), 0.08);
    EXPECT_LE(ensembleCnotCount(r, true),
              ensembleCnotCount(r, false) + 1e-9);
}

TEST_F(PipelineFixture, StageTimingsPopulated)
{
    const QuestResult &r = result();
    EXPECT_GT(r.synthesisSeconds, 0.0);
    EXPECT_GE(r.partitionSeconds, 0.0);
    EXPECT_GT(r.annealSeconds, 0.0);
    // Full mode measures every sample, so certify always takes time.
    ASSERT_EQ(r.selectionMode, SelectionMode::Full);
    EXPECT_GT(r.certifySeconds, 0.0);
}

TEST_F(PipelineFixture, BlockApproxIndexZeroIsOriginal)
{
    const QuestResult &r = result();
    for (size_t b = 0; b < r.blocks.size(); ++b) {
        EXPECT_EQ(r.blockApprox[b][0].distance, 0.0);
        EXPECT_EQ(r.blockApprox[b][0].cnotCount,
                  static_cast<int>(r.blocks[b].circuit.cnotCount()));
    }
}

TEST_F(PipelineFixture, PhaseSpansCoverTheRun)
{
    const auto &events = artifacts().events;
    ASSERT_FALSE(events.empty());

    // The three pipeline phases must be present as spans...
    bool partition = false, synthesis = false, anneal = false;
    for (const obs::TraceEvent &e : events) {
        partition |= std::string(e.name) == "quest.partition";
        synthesis |= std::string(e.name) == "quest.synthesis";
        anneal |= std::string(e.name) == "quest.anneal";
    }
    EXPECT_TRUE(partition);
    EXPECT_TRUE(synthesis);
    EXPECT_TRUE(anneal);

    // ...and together attribute >90% of the pipeline wall-clock.
    EXPECT_GT(obs::phaseCoverage(events, "quest.pipeline"), 0.9);
}

TEST(Pipeline, PartitionedCircuitRuns)
{
    // An 8-qubit circuit forces multiple blocks.
    QuestConfig cfg = leanConfig();
    cfg.synth.maxLayers = 6;
    RunArtifacts a = tracedRun(cfg, algos::tfim(8, 2));
    const QuestResult &r = a.r;
    EXPECT_GT(r.blocks.size(), 1u);
    EXPECT_GE(r.samples.size(), 1u);
    EXPECT_LE(r.minSampleCnots(), r.originalCnots);
    // Every block went through the synthesis cache exactly once.
    EXPECT_EQ(a.cacheHits + a.cacheMisses, r.blocks.size());
    // Every sample simulates to a normalized distribution.
    Distribution d = ensembleDistribution(r);
    EXPECT_NEAR(d.total(), 1.0, 1e-9);
}

/** The same 4-qubit evolution on two disjoint wire sets, which
 *  partitions into byte-identical block unitaries. */
Circuit
repeatedBlocksCircuit()
{
    Circuit half = algos::tfim(4, 2);
    Circuit circuit(8);
    circuit.appendCircuit(half, {0, 1, 2, 3});
    circuit.appendCircuit(half, {4, 5, 6, 7});
    return circuit;
}

TEST(Pipeline, RepeatedBlocksHitTheSynthesisCache)
{
    // Repeated block unitaries: the second block must be a cache hit
    // rather than a fresh synthesis.
    QuestConfig cfg = leanConfig();
    cfg.synth.maxLayers = 6;
    RunArtifacts a = tracedRun(cfg, repeatedBlocksCircuit());
    EXPECT_GT(a.r.blocks.size(), 1u);
    EXPECT_EQ(a.cacheHits + a.cacheMisses, a.r.blocks.size());
    EXPECT_GT(a.cacheHits, 0u);
    EXPECT_LT(a.cacheMisses, a.r.blocks.size());
}

TEST(Pipeline, NeverWorseThanBaseline)
{
    QuestConfig cfg = leanConfig();
    cfg.synth.maxLayers = 4;
    cfg.maxSamples = 3;
    // A circuit that is hard to compress at this budget: QUEST must
    // fall back to the original rather than doing worse.
    QuestResult r = QuestPipeline(cfg).run(algos::hlf(4, 3));
    EXPECT_LE(r.minSampleCnots(), r.originalCnots);
    EXPECT_GE(r.samples.size(), 1u);
}

TEST(Pipeline, DeterministicForSeed)
{
    QuestConfig cfg = leanConfig();
    cfg.synth.maxLayers = 5;
    cfg.maxSamples = 3;
    QuestResult a = QuestPipeline(cfg).run(algos::tfim(3, 2));
    QuestResult b = QuestPipeline(cfg).run(algos::tfim(3, 2));
    ASSERT_EQ(a.samples.size(), b.samples.size());
    for (size_t i = 0; i < a.samples.size(); ++i)
        EXPECT_EQ(a.samples[i].choice, b.samples[i].choice);
}

TEST(Ensemble, RequiresSamples)
{
    QuestResult empty;
    EXPECT_DEATH(sampleCircuits(empty, false), "samples");
}

/** Temporary persistent-cache directory, removed on scope exit. */
struct TempCacheDir
{
    std::filesystem::path path;

    TempCacheDir()
    {
        std::string tmpl = (std::filesystem::temp_directory_path() /
                            "quest-pipeline-cache-XXXXXX")
                               .string();
        path = std::filesystem::path(mkdtemp(tmpl.data()));
    }

    ~TempCacheDir()
    {
        std::error_code ec;
        std::filesystem::remove_all(path, ec);
    }
};

/** Bitwise circuit equality — value comparison would hide the exact
 *  double replay the cache guarantees. */
bool
sameCircuitBytes(const Circuit &a, const Circuit &b)
{
    if (a.numQubits() != b.numQubits() || a.size() != b.size())
        return false;
    for (size_t i = 0; i < a.size(); ++i) {
        if (a[i].type != b[i].type || a[i].qubits != b[i].qubits ||
            a[i].params.size() != b[i].params.size()) {
            return false;
        }
        for (size_t p = 0; p < a[i].params.size(); ++p) {
            if (std::memcmp(&a[i].params[p], &b[i].params[p],
                            sizeof(double)) != 0) {
                return false;
            }
        }
    }
    return true;
}

void
expectSameResult(const QuestResult &a, const QuestResult &b)
{
    ASSERT_EQ(a.samples.size(), b.samples.size());
    for (size_t s = 0; s < a.samples.size(); ++s) {
        EXPECT_EQ(a.samples[s].choice, b.samples[s].choice);
        EXPECT_TRUE(sameCircuitBytes(a.samples[s].circuit,
                                     b.samples[s].circuit))
            << "sample " << s << " differs";
    }
    ASSERT_EQ(a.blockApprox.size(), b.blockApprox.size());
    for (size_t blk = 0; blk < a.blockApprox.size(); ++blk) {
        ASSERT_EQ(a.blockApprox[blk].size(), b.blockApprox[blk].size());
        for (size_t k = 0; k < a.blockApprox[blk].size(); ++k) {
            EXPECT_TRUE(
                sameCircuitBytes(a.blockApprox[blk][k].circuit,
                                 b.blockApprox[blk][k].circuit))
                << "approximation " << k << " of block " << blk
                << " differs";
        }
    }
}

TEST(PipelineCache, WarmRunSkipsEverySearchAndReplaysExactly)
{
    TempCacheDir tmp;
    QuestConfig cfg = leanConfig();
    cfg.synth.maxLayers = 6;
    cfg.cacheDir = tmp.path.string();

    const Circuit circuit = algos::tfim(4, 2);
    RunArtifacts cold = tracedRun(cfg, circuit);
    EXPECT_GT(cold.cacheMisses, 0u);
    EXPECT_EQ(cold.cacheHits + cold.cacheMisses, cold.r.blocks.size());

    RunArtifacts warm = tracedRun(cfg, circuit);
    EXPECT_EQ(warm.cacheMisses, 0u)
        << "a warm cache must serve every block";
    EXPECT_EQ(warm.cacheHits, warm.r.blocks.size());
    expectSameResult(cold.r, warm.r);
}

TEST(PipelineCache, CorruptEntriesDegradeToMissesNeverToCrashes)
{
    TempCacheDir tmp;
    QuestConfig cfg = leanConfig();
    cfg.synth.maxLayers = 6;
    cfg.cacheDir = tmp.path.string();

    const Circuit circuit = algos::tfim(4, 2);
    RunArtifacts cold = tracedRun(cfg, circuit);

    // Flip a byte at the end of every published entry.
    size_t damaged = 0;
    // QUEST_ANALYZE_OK(determinism.fs-order): damages every entry, so order is irrelevant
    for (const auto &e : std::filesystem::recursive_directory_iterator(
             tmp.path / "objects")) {
        if (!e.is_regular_file() || e.path().extension() != ".qsc")
            continue;
        std::fstream f(e.path(), std::ios::binary | std::ios::in |
                                     std::ios::out);
        f.seekp(-1, std::ios::end);
        f.put('\xaa');
        ++damaged;
    }
    ASSERT_GT(damaged, 0u);

    auto &corrupt =
        obs::MetricsRegistry::global().counter("quest.cache.corrupt");
    const uint64_t corrupt_before = corrupt.value();

    RunArtifacts rewarm = tracedRun(cfg, circuit);
    EXPECT_EQ(rewarm.cacheMisses, cold.cacheMisses)
        << "corrupt entries must be treated exactly like cold misses";
    EXPECT_EQ(corrupt.value(), corrupt_before + damaged);
    expectSameResult(cold.r, rewarm.r);

    // The damaged entries were replaced; a third run is fully warm.
    RunArtifacts warm = tracedRun(cfg, circuit);
    EXPECT_EQ(warm.cacheMisses, 0u);
}

TEST(Pipeline, SingleSharedPoolBoundsTotalThreads)
{
    // cfg.threads is the whole pipeline's budget. Even with an inner
    // synthesis thread count configured far higher, the shared pool
    // must keep the process at budget - 1 workers (the caller is the
    // budget's last thread) — the old design multiplied the two.
    QuestConfig cfg = leanConfig();
    cfg.synth.maxLayers = 4;
    cfg.maxSamples = 2;
    cfg.threads = 3;
    cfg.synth.threads = 8; // must be ignored in favor of the pool

    const unsigned baseline = ThreadPool::liveWorkers();
    ThreadPool::resetPeakLiveWorkers();
    QuestResult r = QuestPipeline(cfg).run(algos::tfim(5, 2));
    EXPECT_GE(r.samples.size(), 1u);
    EXPECT_LE(ThreadPool::peakLiveWorkers(), baseline + cfg.threads - 1);
}

// ---- Selection modes (quest/mode.hh): Full vs BlockBound ----------

TEST(SelectionModes, PickIdenticalEnsemblesWhereBothRun)
{
    // The annealing objective scores choices purely from the
    // per-block tables, so the mode fork must not perturb selection:
    // both modes pick byte-identical ensembles on a circuit small
    // enough for Full mode.
    QuestConfig cfg = leanConfig();
    cfg.synth.maxLayers = 6;
    const Circuit circuit = algos::tfim(4, 3);

    cfg.selectionMode = SelectionMode::Full;
    QuestResult full = QuestPipeline(cfg).run(circuit);
    cfg.selectionMode = SelectionMode::BlockBound;
    QuestResult large = QuestPipeline(cfg).run(circuit);

    expectSameResult(full, large);
    EXPECT_EQ(full.selectionMode, SelectionMode::Full);
    EXPECT_EQ(large.selectionMode, SelectionMode::BlockBound);

    // Full measured every sample; BlockBound measured none.
    ASSERT_FALSE(full.samples.empty());
    for (const ApproxSample &s : full.samples)
        EXPECT_TRUE(s.measured());
    for (const ApproxSample &s : large.samples)
        EXPECT_FALSE(s.measured());
    EXPECT_EQ(full.certificate.measuredSamples,
              static_cast<int>(full.samples.size()));
    EXPECT_EQ(large.certificate.measuredSamples, 0);
}

TEST_F(PipelineFixture, CertificateBoundsTheMeasuredDistance)
{
    // The default mode is Full: every sample carries a measured
    // distance, and Theorem 1 says the reported bound dominates it.
    const QuestResult &r = result();
    EXPECT_EQ(r.selectionMode, SelectionMode::Full);
    const BoundCertificate &cert = r.certificate;
    EXPECT_EQ(cert.mode, SelectionMode::Full);
    EXPECT_DOUBLE_EQ(cert.threshold, r.threshold);

    double max_bound = 0.0, max_measured = -1.0, bound_sum = 0.0;
    for (const ApproxSample &s : r.samples) {
        ASSERT_TRUE(s.measured());
        EXPECT_LE(s.measuredDistance, s.distanceBound + 1e-9);
        max_bound = std::max(max_bound, s.distanceBound);
        max_measured = std::max(max_measured, s.measuredDistance);
        bound_sum += s.distanceBound;
    }
    EXPECT_DOUBLE_EQ(cert.maxBound, max_bound);
    EXPECT_DOUBLE_EQ(cert.maxMeasured, max_measured);
    EXPECT_NEAR(cert.meanBound,
                bound_sum / static_cast<double>(r.samples.size()),
                1e-12);
    EXPECT_LE(cert.maxMeasured, cert.maxBound + 1e-9);
    EXPECT_GE(cert.outputEstimate, 0.0);
    EXPECT_LE(cert.outputEstimate, 1.0);

    // The sample's measured distance agrees with the reference
    // implementation used by the Fig. 7 harness.
    EXPECT_NEAR(r.samples[0].measuredDistance,
                actualProcessDistance(r.original, r.samples[0].circuit),
                1e-12);
}

/**
 * A thread-safe in-memory synthesis store that keeps every output as
 * stored but serves each loaded candidate with distance 0. Deep
 * validation of a loaded entry does not recompute distances, and the
 * pipeline bounds a sample with the distances it is given, so a warm
 * run through this store selects lossy approximations under a bound
 * of 0.
 */
class ZeroDistanceCache : public SynthCacheHook
{
  public:
    std::optional<SynthOutput>
    load(const std::string &key) override
    {
        std::lock_guard<std::mutex> lock(mu);
        auto it = entries.find(key);
        if (it == entries.end())
            return std::nullopt;
        SynthOutput out = it->second;
        for (SynthCandidate &c : out.candidates)
            c.distance = 0.0;
        return out;
    }

    void
    store(const std::string &key, const SynthOutput &out) override
    {
        std::lock_guard<std::mutex> lock(mu);
        entries.insert_or_assign(key, out);
    }

    void
    invalidate(const std::string &key) override
    {
        std::lock_guard<std::mutex> lock(mu);
        entries.erase(key);
    }

  private:
    std::mutex mu;
    std::map<std::string, SynthOutput> entries;
};

TEST(SelectionModes, FullModeFailsARunWhoseSampleExceedsItsBound)
{
    // A measured distance above its Theorem-1 bound means the
    // certificate is false. The run must fail with an Internal error
    // whatever the build type, rather than ship that certificate.
    ZeroDistanceCache cache;
    QuestConfig cfg = leanConfig();
    cfg.synth.maxLayers = 6;
    cfg.sharedCache = &cache;
    cfg.verify = false;
    const Circuit circuit = algos::tfim(4, 2);

    // Cold: every block is synthesized and stored with its distances.
    QuestPipeline(cfg).run(circuit);

    try {
        QuestPipeline(cfg).run(circuit);
        FAIL() << "expected QuestError(Internal)";
    } catch (const resilience::QuestError &e) {
        EXPECT_EQ(e.category(), resilience::ErrorCategory::Internal);
        EXPECT_EQ(e.exitCode(), 70);
        EXPECT_NE(std::string(e.what()).find("Theorem-1"),
                  std::string::npos)
            << e.what();
    }
}

TEST(SelectionModes, BlockBoundNeverBuildsFullUnitariesOrStates)
{
    // A 16-qubit circuit — beyond Full mode's 14-qubit ceiling — must
    // compile in BlockBound mode without src/sim moving at all.
    auto &registry = obs::MetricsRegistry::global();
    auto &sv = registry.counter("sim.statevector_builds");
    auto &un = registry.counter("sim.unitary_builds");
    const uint64_t sv_before = sv.value();
    const uint64_t un_before = un.value();

    QuestConfig cfg = leanConfig();
    cfg.synth.maxLayers = 4;
    cfg.maxSamples = 3;
    cfg.selectionMode = SelectionMode::BlockBound;
    QuestResult r = QuestPipeline(cfg).run(algos::tfim(16, 2));

    EXPECT_EQ(sv.value(), sv_before);
    EXPECT_EQ(un.value(), un_before);
    EXPECT_GE(r.samples.size(), 1u);
    EXPECT_EQ(r.original.numQubits(), 16);

    // The bound certificate is still reported in full.
    EXPECT_EQ(r.certificate.mode, SelectionMode::BlockBound);
    EXPECT_GT(r.threshold, 0.0);
    EXPECT_LE(r.certificate.maxBound, r.threshold + 1e-12);
    EXPECT_EQ(r.certificate.maxMeasured, -1.0);
}

TEST(SelectionModes, FullModeRejectsCircuitsItCannotMeasure)
{
    QuestConfig cfg = leanConfig();
    try {
        QuestPipeline(cfg).run(algos::tfim(16, 1));
        FAIL() << "expected QuestError(InvalidInput)";
    } catch (const resilience::QuestError &e) {
        EXPECT_EQ(e.category(),
                  resilience::ErrorCategory::InvalidInput);
        EXPECT_NE(std::string(e.what()).find("--large"),
                  std::string::npos)
            << "the error must point at the --large escape hatch";
    }
}

TEST(Pipeline, RejectsInvalidConfigWithTypedError)
{
    // User-reachable knobs fail as InvalidInput (exit 10) at
    // construction, never as an assert that aborts the process.
    auto expect_invalid = [](const QuestConfig &cfg, const char *what) {
        try {
            QuestPipeline pipeline(cfg);
            FAIL() << what << ": expected QuestError(InvalidInput)";
        } catch (const resilience::QuestError &e) {
            EXPECT_EQ(e.category(), resilience::ErrorCategory::InvalidInput)
                << what;
            EXPECT_EQ(e.exitCode(), names::kExitInvalidInput) << what;
        }
    };
    QuestConfig zero_samples = leanConfig();
    zero_samples.maxSamples = 0;
    expect_invalid(zero_samples, "max samples 0");
    QuestConfig one_qubit_blocks = leanConfig();
    one_qubit_blocks.maxBlockSize = 1;
    expect_invalid(one_qubit_blocks, "block size 1");
    QuestConfig nan_threshold = leanConfig();
    nan_threshold.thresholdPerBlock = std::nan("");
    expect_invalid(nan_threshold, "NaN threshold");
    QuestConfig inf_threshold = leanConfig();
    inf_threshold.thresholdPerBlock = HUGE_VAL;
    expect_invalid(inf_threshold, "infinite threshold");
}

TEST(SelectionModes, BlockBoundDeterministicAcrossThreadCounts)
{
    QuestConfig cfg = leanConfig();
    cfg.synth.maxLayers = 4;
    cfg.maxSamples = 3;
    cfg.selectionMode = SelectionMode::BlockBound;
    const Circuit circuit = algos::tfim(12, 2);

    cfg.threads = 1;
    QuestResult one = QuestPipeline(cfg).run(circuit);
    cfg.threads = 4;
    QuestResult four = QuestPipeline(cfg).run(circuit);
    expectSameResult(one, four);
    EXPECT_EQ(one.certificate.maxBound, four.certificate.maxBound);
}

/** Kept-candidate counts of a run's STEP 2: summed over every block,
 *  and over the first block of each (unitary bytes, CNOT count) class. */
struct KeptCounts
{
    size_t perBlock = 0;
    size_t perClass = 0;
};

/**
 * Checks every block's STEP 2 output against a recomputation: entry 0
 * is the block's own circuit at distance 0, the similarity table is
 * hs(A_i, A_j) <= max(d_i, d_j) over the entries' unitaries, and
 * blocks with byte-equal unitaries and equal CNOT counts hold equal
 * entries 1.. and equal tables.
 */
KeptCounts
expectExactBlockTables(const QuestResult &r)
{
    KeptCounts counts;
    EXPECT_EQ(r.blockApprox.size(), r.blocks.size());
    EXPECT_EQ(r.blockSimilar.size(), r.blocks.size());
    std::map<std::pair<std::string, int>, size_t> first;
    for (size_t b = 0; b < r.blocks.size(); ++b) {
        const Circuit &block = r.blocks[b].circuit;
        const auto &list = r.blockApprox[b];
        const int cnots = static_cast<int>(block.cnotCount());
        EXPECT_TRUE(sameCircuitBytes(list.at(0).circuit, block))
            << "block " << b;
        EXPECT_EQ(list[0].distance, 0.0) << "block " << b;
        EXPECT_EQ(list[0].cnotCount, cnots) << "block " << b;

        const size_t count = list.size();
        std::vector<Matrix> mats;
        for (const BlockApprox &a : list)
            mats.push_back(circuitUnitary(a.circuit));
        std::vector<char> expected(count * count, 0);
        for (size_t i = 0; i < count; ++i) {
            expected[i * count + i] = 1;
            for (size_t j = i + 1; j < count; ++j) {
                const char s = hsDistance(mats[i], mats[j]) <=
                                       std::max(list[i].distance,
                                                list[j].distance)
                                   ? 1
                                   : 0;
                expected[i * count + j] = s;
                expected[j * count + i] = s;
            }
        }
        EXPECT_EQ(r.blockSimilar[b], expected) << "block " << b;

        const Matrix &u = mats[0];
        std::string bytes(reinterpret_cast<const char *>(u.data().data()),
                          u.data().size() * sizeof(Complex));
        auto [it, inserted] =
            first.try_emplace({std::move(bytes), cnots}, b);
        counts.perBlock += count - 1;
        if (inserted) {
            counts.perClass += count - 1;
            continue;
        }
        const size_t f = it->second;
        const auto &ref = r.blockApprox[f];
        EXPECT_EQ(count, ref.size()) << "block " << b << " vs " << f;
        for (size_t k = 1; k < std::min(count, ref.size()); ++k) {
            EXPECT_EQ(toQasm(list[k].circuit), toQasm(ref[k].circuit))
                << "entry " << k << " of block " << b << " vs " << f;
            EXPECT_EQ(list[k].distance, ref[k].distance);
            EXPECT_EQ(list[k].cnotCount, ref[k].cnotCount);
        }
        EXPECT_EQ(r.blockSimilar[b], r.blockSimilar[f])
            << "block " << b << " vs " << f;
    }
    return counts;
}

TEST(BlockTables, RepeatedBlocksMatchARecomputation)
{
    QuestConfig cfg = leanConfig();
    cfg.synth.maxLayers = 6;
    const QuestResult r = QuestPipeline(cfg).run(repeatedBlocksCircuit());
    const KeptCounts counts = expectExactBlockTables(r);
    EXPECT_GT(counts.perClass, 0u);
}

TEST(BlockTables, WideBlockBoundRunMatchesARecomputation)
{
    QuestConfig cfg = leanConfig();
    cfg.synth.maxLayers = 4;
    cfg.maxSamples = 3;
    cfg.selectionMode = SelectionMode::BlockBound;
    const QuestResult r = QuestPipeline(cfg).run(algos::tfim(64, 10));
    const KeptCounts counts = expectExactBlockTables(r);
    EXPECT_LT(counts.perClass, counts.perBlock);
}

TEST(BlockTables, KeptUnitariesAreBuiltOncePerClass)
{
    auto &built = obs::MetricsRegistry::global().counter(
        names::kMetricApproxUnitaries);
    const uint64_t before = built.value();
    QuestConfig cfg = leanConfig();
    cfg.synth.maxLayers = 6;
    const QuestResult r = QuestPipeline(cfg).run(repeatedBlocksCircuit());
    const uint64_t delta = built.value() - before;

    const KeptCounts counts = expectExactBlockTables(r);
    EXPECT_EQ(delta, counts.perClass);
    EXPECT_LT(delta, counts.perBlock);
}

TEST(BlockTables, Qft5DistanceRowsMatchHsDistanceBitForBit)
{
    // qft_5 at the shipped settings: every kept list's batched
    // distance rows equal per-pair hsDistance bit for bit, and the
    // pipeline's tables match the per-pair recomputation.
    QuestConfig cfg = service::baseCompileConfig();
    cfg.seed = 99;
    const QuestResult r = QuestPipeline(cfg).run(algos::qft(5));
    expectExactBlockTables(r);
    size_t pairs = 0;
    for (const auto &list : r.blockApprox) {
        std::vector<Matrix> mats;
        for (const BlockApprox &a : list)
            mats.push_back(circuitUnitary(a.circuit));
        for (size_t i = 0; i < mats.size(); ++i) {
            const std::span<const Matrix> later(mats.begin() + i + 1,
                                                mats.end());
            std::vector<double> row(later.size());
            hsDistances(mats[i], later, row);
            for (size_t k = 0; k < later.size(); ++k, ++pairs)
                ASSERT_EQ(std::bit_cast<uint64_t>(row[k]),
                          std::bit_cast<uint64_t>(
                              hsDistance(mats[i], later[k])))
                    << "entries " << i << " and " << i + 1 + k;
        }
    }
    EXPECT_GT(pairs, 100u);
}

} // namespace
} // namespace quest
