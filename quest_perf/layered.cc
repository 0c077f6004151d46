#include "layered.hh"

#include <sys/resource.h>

#include <algorithm>
#include <filesystem>
#include <map>
#include <mutex>
#include <optional>
#include <set>

#include "ir/lower.hh"
#include "linalg/distance.hh"
#include "metrics/output_distance.hh"
#include "obs/trace.hh"
#include "partition/scan_partitioner.hh"
#include "quest/objective.hh"
#include "resilience/thread_pool.hh"
#include "sim/unitary_builder.hh"
#include "synth/synth_cache.hh"
#include "util/logging.hh"

namespace quest::perf {

double
processCpuSeconds()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    auto seconds = [](const timeval &tv) {
        return static_cast<double>(tv.tv_sec) +
               static_cast<double>(tv.tv_usec) * 1e-6;
    };
    return seconds(ru.ru_utime) + seconds(ru.ru_stime);
}

namespace {

/**
 * The synthesizer's cache hook inside the parallel region: it serves
 * the outputs the driver loaded from disk beforehand and collects what
 * the searches produce, so no disk I/O happens inside the region.
 */
class MemoryHook : public SynthCacheHook
{
  public:
    void
    preload(const std::string &key, SynthOutput out)
    {
        loaded.emplace(key, std::move(out));
    }

    std::optional<SynthOutput>
    load(const std::string &key) override
    {
        std::lock_guard<std::mutex> lock(mu);
        auto it = loaded.find(key);
        if (it == loaded.end())
            return std::nullopt;
        return it->second;
    }

    void
    store(const std::string &key, const SynthOutput &out) override
    {
        std::lock_guard<std::mutex> lock(mu);
        stored.emplace_back(key, out);
    }

    void
    invalidate(const std::string &key) override
    {
        std::lock_guard<std::mutex> lock(mu);
        loaded.erase(key);
        invalidated.push_back(key);
    }

    /** Read only after the region has ended. */
    std::map<std::string, SynthOutput> loaded;
    std::vector<std::pair<std::string, SynthOutput>> stored;
    std::vector<std::string> invalidated;

  private:
    std::mutex mu;
};

uint64_t
entryBytes(const cache::SynthesisCache &store, const std::string &key)
{
    std::error_code ec;
    const uintmax_t n =
        std::filesystem::file_size(store.entryPath(key), ec);
    return ec ? 0 : static_cast<uint64_t>(n);
}

/** The body of compileLayered, inside its root span; appends the cache
 *  keys it loaded or stored to @p touched. */
QuestResult
runSteps(const Circuit &circuit, const QuestConfig &cfg,
         cache::SynthesisCache *store, LayerCounts &counts,
         std::vector<std::string> &touched)
{
    QuestResult result;

    // ---- STEP 1: lower and partition. ------------------------------
    {
        QUEST_TRACE_SCOPE(kSpanPartition);
        result.original = lowerToNative(circuit).withoutPseudoOps();
        result.blocks =
            ScanPartitioner(cfg.maxBlockSize).partition(result.original);
    }
    result.originalCnots = result.original.cnotCount();
    const size_t num_blocks = result.blocks.size();
    QUEST_ASSERT(num_blocks > 0, "empty circuit");
    result.threshold = std::min(cfg.thresholdPerBlock *
                                    static_cast<double>(num_blocks),
                                cfg.thresholdCap);
    result.blockOutcomes.resize(num_blocks);
    counts.blocks += num_blocks;

    // ---- STEP 2: block unitaries, in-run dedup, synthesis. ---------
    std::vector<Matrix> targets(num_blocks);
    std::vector<size_t> canonical(num_blocks);
    std::vector<size_t> work;
    {
        QUEST_TRACE_SCOPE(kSpanBlockUnitary);
        for (size_t b = 0; b < num_blocks; ++b)
            targets[b] = circuitUnitary(result.blocks[b].circuit);
        std::map<std::string, size_t> unique;
        for (size_t b = 0; b < num_blocks; ++b) {
            const auto &data = targets[b].data();
            std::string key(reinterpret_cast<const char *>(data.data()),
                            data.size() * sizeof(Complex));
            canonical[b] = unique.try_emplace(std::move(key), b)
                               .first->second;
            if (canonical[b] == b)
                work.push_back(b);
        }
    }
    counts.blockUnitaries += num_blocks;
    counts.dedupHits += num_blocks - work.size();

    std::vector<std::vector<std::pair<int, int>>> skeletons(work.size());
    for (size_t i = 0; i < work.size(); ++i)
        for (const Gate &g : result.blocks[work[i]].circuit)
            if (g.type == GateType::CX)
                skeletons[i].emplace_back(g.qubits[0], g.qubits[1]);

    SynthConfig synth_cfg = cfg.synth;
    if (cfg.verify)
        synth_cfg.verifyCandidates = true;
    synth_cfg.pool = cfg.pool;
    MemoryHook memory;
    synth_cfg.cache = &memory;

    std::vector<std::string> keys(work.size());
    if (store) {
        QUEST_TRACE_SCOPE(kSpanCacheLoad);
        for (size_t i = 0; i < work.size(); ++i) {
            keys[i] = synthesisCacheKey(
                targets[work[i]], static_cast<int>(skeletons[i].size()),
                &skeletons[i], synth_cfg);
            if (auto out = store->load(keys[i]))
                memory.preload(keys[i], *std::move(out));
        }
    }
    if (store) {
        counts.cacheLoads += work.size();
        counts.cacheHits += memory.loaded.size();
        for (const auto &[key, out] : memory.loaded)
            touched.push_back(key);
    }

    std::vector<SynthOutput> outputs(num_blocks);
    {
        QUEST_TRACE_SCOPE(kSpanSynth);
        const double cpu0 = processCpuSeconds();
        cfg.pool->parallelFor(work.size(), [&](size_t i) {
            const size_t b = work[i];
            LeapSynthesizer synth(synth_cfg);
            outputs[b] = synth.synthesize(
                targets[b], static_cast<int>(skeletons[i].size()),
                &skeletons[i]);
        });
        counts.synthCpuSeconds += processCpuSeconds() - cpu0;
    }
    counts.searches += memory.stored.size();

    if (store) {
        QUEST_TRACE_SCOPE(kSpanCacheStore);
        for (const std::string &key : memory.invalidated)
            store->invalidate(key);
        for (const auto &[key, out] : memory.stored)
            store->store(key, out);
    }
    if (store) {
        counts.cacheStores += memory.stored.size();
        for (const auto &[key, out] : memory.stored)
            touched.push_back(key);
    }

    // Keep only candidates that can appear in a feasible sample and
    // do not exceed the original block's CNOT count (index 0 is the
    // original block itself).
    result.blockApprox.resize(num_blocks);
    {
        QUEST_TRACE_SCOPE(kSpanFilter);
        for (size_t b = 0; b < num_blocks; ++b) {
            const SynthOutput &out = outputs[canonical[b]];
            auto &list = result.blockApprox[b];
            const int original_cnots = static_cast<int>(
                result.blocks[b].circuit.cnotCount());
            list.push_back({result.blocks[b].circuit, 0.0,
                            original_cnots});
            for (const SynthCandidate &c : out.candidates) {
                if (static_cast<int>(list.size()) >= cfg.maxApproxPerBlock)
                    break;
                if (c.distance > result.threshold ||
                    c.cnotCount > original_cnots) {
                    continue;
                }
                list.push_back({c.circuit, c.distance, c.cnotCount});
            }
            counts.candidates += out.candidates.size();
            counts.kept += list.size() - 1;
        }
    }

    std::vector<std::vector<Matrix>> mats(num_blocks);
    {
        QUEST_TRACE_SCOPE(kSpanKeptUnitary);
        for (size_t b = 0; b < num_blocks; ++b) {
            const auto &list = result.blockApprox[b];
            mats[b].push_back(targets[b]);
            for (size_t k = 1; k < list.size(); ++k)
                mats[b].push_back(circuitUnitary(list[k].circuit));
            counts.blockUnitaries += list.size() - 1;
        }
    }

    // Pairwise similarity (Alg. 1 line 13).
    {
        QUEST_TRACE_SCOPE(kSpanSimilarity);
        result.blockSimilar.resize(num_blocks);
        for (size_t b = 0; b < num_blocks; ++b) {
            const auto &list = result.blockApprox[b];
            const size_t count = list.size();
            auto &sim = result.blockSimilar[b];
            sim.assign(count * count, 0);
            for (size_t i = 0; i < count; ++i) {
                sim[i * count + i] = 1;
                for (size_t j = i + 1; j < count; ++j) {
                    const double dij = hsDistance(mats[b][i], mats[b][j]);
                    const char s = dij <= std::max(list[i].distance,
                                                   list[j].distance)
                                       ? 1
                                       : 0;
                    sim[i * count + j] = s;
                    sim[j * count + i] = s;
                }
            }
            counts.similarityPairs += count * (count - 1) / 2;
        }
    }

    // ---- STEP 3: dual-annealing selection. ---------------------------
    std::vector<std::vector<int>> selected;
    std::set<std::vector<int>> seen;
    const std::vector<double> lo(num_blocks, 0.0);
    const std::vector<double> hi(num_blocks, 1.0);
    auto accept = [&](std::vector<int> choice) {
        ApproxSample sample;
        {
            QUEST_TRACE_SCOPE(kSpanAnneal);
            SelectionObjective objective(result, selected,
                                         result.threshold, cfg.cnotWeight);
            sample.distanceBound = objective.bound(choice);
            sample.cnotCount = objective.cnots(choice);
        }
        {
            QUEST_TRACE_SCOPE(kSpanAssemble);
            std::vector<Block> chosen = result.blocks;
            for (size_t b = 0; b < num_blocks; ++b)
                chosen[b].circuit =
                    result.blockApprox[b][choice[b]].circuit;
            sample.circuit =
                assembleBlocks(chosen, result.original.numQubits());
        }
        sample.choice = choice;
        selected.push_back(std::move(choice));
        result.samples.push_back(std::move(sample));
    };
    for (int s = 0; s < cfg.maxSamples; ++s) {
        std::vector<int> choice;
        {
            QUEST_TRACE_SCOPE(kSpanAnneal);
            SelectionObjective objective(result, selected,
                                         result.threshold, cfg.cnotWeight);
            AnnealOptions options = cfg.anneal;
            options.seed = cfg.seed + 0x9e3779b9ull * (s + 1);
            options.initial = std::vector<double>(num_blocks, 0.0);
            const AnnealResult r = dualAnnealing(objective, lo, hi, options);
            counts.annealRuns++;
            counts.annealEvaluations += static_cast<uint64_t>(r.evaluations);
            choice = objective.toChoice(r.x);
            if (objective.bound(choice) > result.threshold) {
                if (!selected.empty())
                    break;
                choice.assign(num_blocks, 0);
            }
            if (!seen.insert(choice).second)
                break;
        }
        counts.annealKept++;
        accept(std::move(choice));
    }
    if (result.samples.empty())
        accept(std::vector<int>(num_blocks, 0));

    // ---- Certificate. ------------------------------------------------
    {
        QUEST_TRACE_SCOPE(kSpanCertify);
        result.selectionMode = cfg.selectionMode;
        BoundCertificate &cert = result.certificate;
        cert.mode = cfg.selectionMode;
        cert.threshold = result.threshold;
        double bound_sum = 0.0;
        for (const ApproxSample &s : result.samples) {
            cert.maxBound = std::max(cert.maxBound, s.distanceBound);
            bound_sum += s.distanceBound;
        }
        cert.meanBound =
            bound_sum / static_cast<double>(result.samples.size());
        cert.outputEstimate = outputDistanceEstimate(cert.maxBound);
        if (cfg.selectionMode == SelectionMode::Full) {
            const Matrix original_u = buildUnitary(result.original);
            for (ApproxSample &s : result.samples) {
                s.measuredDistance =
                    hsDistance(original_u, buildUnitary(s.circuit));
                cert.measuredSamples++;
                cert.maxMeasured =
                    std::max(cert.maxMeasured, s.measuredDistance);
            }
            counts.certifyBuilds += 1 + result.samples.size();
        }
    }
    return result;
}

} // namespace

QuestResult
compileLayered(const Circuit &circuit, const QuestConfig &cfg,
               cache::SynthesisCache *store, LayerCounts &counts)
{
    QUEST_ASSERT(cfg.pool, "the layered driver needs cfg.pool");
    std::vector<std::string> touched;
    QuestResult result;
    {
        QUEST_TRACE_SCOPE(kSpanCompile);
        result = runSteps(circuit, cfg, store, counts, touched);
    }
    // Entry sizes are read outside the root span: they are bookkeeping
    // for cache.bytes, not work the compile does.
    for (const std::string &key : touched)
        counts.cacheBytes += entryBytes(*store, key);
    return result;
}

} // namespace quest::perf
