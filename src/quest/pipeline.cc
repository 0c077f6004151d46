#include "quest/pipeline.hh"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <map>
#include <set>
#include <span>

#include "cache/synthesis_cache.hh"
#include "ir/lower.hh"
#include "linalg/distance.hh"
#include "metrics/output_distance.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "quest/checkpoint.hh"
#include "quest/objective.hh"
#include "resilience/error.hh"
#include "resilience/thread_pool.hh"
#include "sim/unitary_builder.hh"
#include "util/logging.hh"
#include "util/timer.hh"
#include "verify/verifier.hh"
#include "util/names.hh"

namespace quest {

namespace {

/** Byte-exact cache key for a block unitary (identical Trotter
 *  blocks repeat across a circuit; synthesize each only once). */
std::string
matrixKey(const Matrix &m)
{
    std::string key(reinterpret_cast<const char *>(m.data().data()),
                    m.data().size() * sizeof(Complex));
    return key;
}

/** Map one failed block synthesis to its structured outcome and
 *  count it (`resilience.*` counters). */
BlockOutcome
outcomeForError(const resilience::QuestError &e)
{
    using resilience::ErrorCategory;
    BlockOutcome outcome;
    switch (e.category()) {
      case ErrorCategory::Timeout:
        outcome.status = BlockStatus::Timeout;
        break;
      case ErrorCategory::Cancelled:
        outcome.status = BlockStatus::Fallback;
        break;
      case ErrorCategory::Diverged:
        outcome.status = BlockStatus::Diverged;
        break;
      default:
        outcome.status = BlockStatus::Faulted;
        break;
    }
    outcome.detail = e.describe();
    return outcome;
}

void
countOutcomes(const std::vector<BlockOutcome> &outcomes)
{
    auto &registry = obs::MetricsRegistry::global();
    static auto &fallbacks = registry.counter(names::kMetricFallbacks);
    static auto &timeouts = registry.counter(names::kMetricTimeouts);
    static auto &divergences =
        registry.counter(names::kMetricDivergences);
    static auto &faults = registry.counter(names::kMetricFaults);
    for (const BlockOutcome &o : outcomes) {
        switch (o.status) {
          case BlockStatus::Ok:
            break;
          case BlockStatus::Timeout:
            fallbacks.increment();
            timeouts.increment();
            break;
          case BlockStatus::Diverged:
            fallbacks.increment();
            divergences.increment();
            break;
          case BlockStatus::Faulted:
            fallbacks.increment();
            faults.increment();
            break;
          case BlockStatus::Fallback:
            fallbacks.increment();
            break;
        }
    }
}

/** Under DeadlinePolicy::Fail, abort at a step boundary once the run
 *  budget fires. */
void
checkRunBudget(const QuestConfig &cfg, const resilience::Budget &budget,
               const char *step)
{
    if (cfg.deadlinePolicy != DeadlinePolicy::Fail)
        return;
    const auto stop = budget.stop();
    if (stop == resilience::StopReason::None)
        return;
    using resilience::ErrorCategory;
    const auto category = stop == resilience::StopReason::Cancelled
                              ? ErrorCategory::Cancelled
                              : ErrorCategory::Timeout;
    throw resilience::QuestError(
        category, std::string("run budget exhausted (") +
                      resilience::stopReasonName(stop) + ")")
        .withContext(step);
}

} // namespace

const char *
blockStatusName(BlockStatus status)
{
    switch (status) {
      case BlockStatus::Ok:
        return "ok";
      case BlockStatus::Timeout:
        return "timeout";
      case BlockStatus::Diverged:
        return "diverged";
      case BlockStatus::Faulted:
        return "faulted";
      case BlockStatus::Fallback:
        return "fallback";
    }
    return "unknown";
}

size_t
QuestResult::okBlocks() const
{
    size_t n = 0;
    for (const BlockOutcome &o : blockOutcomes)
        n += o.ok() ? 1 : 0;
    return n;
}

size_t
QuestResult::fallbackBlocks() const
{
    return blockOutcomes.size() - okBlocks();
}

size_t
QuestResult::minSampleCnots() const
{
    QUEST_ASSERT(!samples.empty(), "no samples selected");
    size_t best = samples.front().cnotCount;
    for (const auto &s : samples)
        best = std::min(best, s.cnotCount);
    return best;
}

double
QuestResult::meanSampleCnots() const
{
    QUEST_ASSERT(!samples.empty(), "no samples selected");
    double sum = 0.0;
    for (const auto &s : samples)
        sum += static_cast<double>(s.cnotCount);
    return sum / static_cast<double>(samples.size());
}

QuestPipeline::QuestPipeline(QuestConfig config)
    : cfg(std::move(config))
{
    // These knobs arrive from CLI flags and QSV1 CompileOptions, so a
    // bad value is the caller's error, not an invariant: fail typed,
    // where an assert would take a serving daemon down with one job.
    auto reject = [](const std::string &message) {
        throw resilience::QuestError(
            resilience::ErrorCategory::InvalidInput, message);
    };
    if (cfg.maxSamples < 1)
        reject(detail::concat("max samples must be at least 1, got ",
                              cfg.maxSamples));
    if (cfg.maxBlockSize < 2)
        reject(detail::concat("block size must be at least 2, got ",
                              cfg.maxBlockSize));
    if (!std::isfinite(cfg.thresholdPerBlock))
        reject(detail::concat("threshold must be finite, got ",
                              cfg.thresholdPerBlock));
    QUEST_ASSERT(cfg.maxApproxPerBlock >= 2,
                 "need at least two approximations per block");
    if (!cfg.cacheDir.empty() && !cfg.sharedCache) {
        cache::CacheConfig cc;
        cc.dir = cfg.cacheDir;
        cc.maxBytes = cfg.cacheMaxBytes;
        synthCache = std::make_unique<cache::SynthesisCache>(cc);
    }
}

QuestPipeline::~QuestPipeline() = default;

QuestResult
QuestPipeline::run(const Circuit &circuit) const
{
    QUEST_TRACE_SCOPE("quest.pipeline");
    static auto &runs_counter =
        obs::MetricsRegistry::global().counter(names::kMetricPipelineRuns);
    runs_counter.increment();

    // Full mode ends with a measured full-circuit certificate, which
    // needs the dense unitary builder; refuse early (before any
    // synthesis is spent) rather than assert-fail hours in. The
    // block-only BlockBound mode has no width ceiling.
    if (cfg.selectionMode == SelectionMode::Full &&
        circuit.numQubits() > kMaxFullCertQubits) {
        throw resilience::QuestError(
            resilience::ErrorCategory::InvalidInput,
            detail::concat(
                "circuit has ", circuit.numQubits(),
                " qubits; SelectionMode::Full measures full-circuit "
                "distances and is limited to ", kMaxFullCertQubits,
                " — use SelectionMode::BlockBound "
                "(quest_compile --large)"));
    }

    QuestResult result;
    Stopwatch partition_watch, synth_watch, anneal_watch, certify_watch;

    // The run-level interruption context: armed only when the caller
    // configured a timeout or a cancel token, in which case every
    // long-running loop below (synthesis levels, L-BFGS iterations,
    // annealing sweeps) polls it at its safe points.
    const resilience::Budget runBudget(
        cfg.runTimeoutSeconds > 0.0
            ? resilience::Deadline::after(cfg.runTimeoutSeconds)
            : resilience::Deadline::never(),
        cfg.cancel);

    // ---- STEP 1: lower and partition. --------------------------------
    {
        QUEST_TRACE_SCOPE("quest.partition");
        {
            ScopedTimer timer(partition_watch);
            result.original = lowerToNative(circuit).withoutPseudoOps();
            ScanPartitioner partitioner(cfg.maxBlockSize);
            result.blocks = partitioner.partition(result.original);
        }
        result.originalCnots = result.original.cnotCount();
        QUEST_ASSERT(!result.blocks.empty(), "empty circuit");
        if (cfg.verify) {
            verifyOrPanic(result.original,
                          {.requireNative = true,
                           .allowPseudoOps = false},
                          "STEP 1 lowered circuit");
            verifyOrPanic(result.original, result.blocks,
                          cfg.maxBlockSize, "STEP 1 partition");
        }
    }
    const size_t num_blocks = result.blocks.size();
    obs::MetricsRegistry::global().gauge(names::kMetricBlocks).set(
        static_cast<int64_t>(num_blocks));
    result.threshold = std::min(cfg.thresholdPerBlock *
                                    static_cast<double>(num_blocks),
                                cfg.thresholdCap);

    // Crash-safe run journal: completed block syntheses and sample
    // selections are recorded as they finish, and a resume run
    // replays them instead of recomputing (quest/checkpoint.hh).
    std::unique_ptr<CheckpointJournal> checkpoint;
    if (!cfg.checkpointDir.empty()) {
        checkpoint = std::make_unique<CheckpointJournal>(
            cfg.checkpointDir, runFingerprint(result.original, cfg),
            cfg.resume);
        if (checkpoint->resumed()) {
            inform("checkpoint: resuming from '",
                   checkpoint->journalPath(), "' (",
                   checkpoint->blockCount(),
                   " block syntheses recorded)");
        }
    }
    checkRunBudget(cfg, runBudget, "after STEP 1");

    // One cooperative pool is the whole pipeline's thread budget, for
    // STEP 2's block synthesis and the Full-mode certify's column
    // slabs: its parallelFor claims indices from a shared cursor and
    // the caller participates, so the nested within-synthesizer
    // parallelFor reuses the same threads instead of oversubscribing
    // (budget - 1 workers + this thread = budget busy threads total).
    // An injected cfg.pool extends the same sharing across concurrent
    // pipeline runs: each run's parallelFor has its own batch cursor,
    // so runs interleave safely on one pool.
    const unsigned budget = std::max(
        1u, cfg.threads == 0 ? ThreadPool::hardwareConcurrency()
                             : cfg.threads);
    std::unique_ptr<ThreadPool> owned;
    if (!cfg.pool)
        owned = std::make_unique<ThreadPool>(budget - 1);
    ThreadPool &pool = cfg.pool ? *cfg.pool : *owned;

    // ---- STEP 2: approximate synthesis per block (parallel, with a
    // cache so identical block unitaries synthesize once). ------------
    {
        QUEST_TRACE_SCOPE("quest.synthesis");
        ScopedTimer timer(synth_watch);

        std::vector<Matrix> targets(num_blocks);
        for (size_t b = 0; b < num_blocks; ++b)
            targets[b] = circuitUnitary(result.blocks[b].circuit);

        std::map<std::string, size_t> unique;  // key -> first block
        std::vector<size_t> canonical(num_blocks);
        for (size_t b = 0; b < num_blocks; ++b) {
            auto [it, inserted] =
                unique.try_emplace(matrixKey(targets[b]), b);
            canonical[b] = it->second;
        }
        // In-memory dedup across the run's blocks: repeats of a block
        // unitary are cache hits (the synthesizer itself counts disk
        // hits and actual searches, so hits + misses == blocks).
        static auto &cache_hits =
            obs::MetricsRegistry::global().counter(
                names::kMetricSynthCacheHits);
        cache_hits.add(num_blocks - unique.size());

        std::vector<SynthOutput> outputs(num_blocks);
        std::vector<BlockOutcome> outcomes(num_blocks);
        {
            std::vector<size_t> work;
            for (size_t b = 0; b < num_blocks; ++b)
                if (canonical[b] == b)
                    work.push_back(b);

            SynthConfig synth_cfg = cfg.synth;
            if (cfg.verify)
                synth_cfg.verifyCandidates = true;
            synth_cfg.pool = &pool;
            ChainedSynthCache chained(checkpoint.get(),
                                      cfg.sharedCache ? cfg.sharedCache
                                                      : synthCache.get());
            synth_cfg.cache = &chained;

            // Blocks the budget never lets us start keep this
            // outcome; every other path overwrites it below.
            for (BlockOutcome &o : outcomes) {
                o.status = BlockStatus::Fallback;
                o.detail = "not attempted: run budget exhausted";
            }

            pool.parallelFor(work.size(), [&](size_t i) {
                QUEST_TRACE_SCOPE("quest.block_synth");
                const size_t b = work[i];
                const Circuit &block = result.blocks[b].circuit;
                std::vector<std::pair<int, int>> skeleton;
                for (const Gate &g : block)
                    if (g.type == GateType::CX)
                        skeleton.emplace_back(g.qubits[0],
                                              g.qubits[1]);

                SynthConfig block_cfg = synth_cfg;
                block_cfg.budget = runBudget;
                if (cfg.blockTimeoutSeconds > 0.0) {
                    block_cfg.budget = block_cfg.budget.withDeadline(
                        resilience::Deadline::after(
                            cfg.blockTimeoutSeconds));
                }
                try {
                    LeapSynthesizer block_synth(block_cfg);
                    outputs[b] = block_synth.synthesize(
                        targets[b], static_cast<int>(skeleton.size()),
                        &skeleton);
                    outcomes[b] = BlockOutcome{};
                } catch (const resilience::QuestError &e) {
                    outcomes[b] = outcomeForError(e);
                    warn("block ", b,
                         " degraded to its original circuit (",
                         blockStatusName(outcomes[b].status),
                         "): ", e.what());
                } catch (const std::exception &e) {
                    outcomes[b] =
                        BlockOutcome{BlockStatus::Faulted, e.what()};
                    warn("block ", b,
                         " degraded to its original circuit "
                         "(faulted): ", e.what());
                }
            }, runBudget.cancel);
        }

        // Duplicate blocks share their canonical block's outcome.
        result.blockOutcomes.resize(num_blocks);
        for (size_t b = 0; b < num_blocks; ++b)
            result.blockOutcomes[b] = outcomes[canonical[b]];
        countOutcomes(result.blockOutcomes);
        checkRunBudget(cfg, runBudget, "during STEP 2");

        // Blocks of one class, keyed by (canonical block, the block's
        // own CNOT count), keep the same candidates and get the same
        // similarity table: the filter reads only the canonical
        // output, the threshold, the cap and that CNOT count, and
        // every table entry is the hsDistance of byte-equal unitaries.
        // So a class's first block builds its kept candidates'
        // unitaries and its table, its later blocks copy both behind
        // their own circuit at index 0, and only one class's
        // unitaries are alive at a time.
        result.blockApprox.resize(num_blocks);
        result.blockSimilar.resize(num_blocks);
        {
            QUEST_TRACE_SCOPE("quest.similarity");
            static auto &approx_unitaries =
                obs::MetricsRegistry::global().counter(
                    names::kMetricApproxUnitaries);
            std::map<std::pair<size_t, int>, size_t> classes;
            std::vector<double> row;  // one row's distances
            for (size_t b = 0; b < num_blocks; ++b) {
                auto &list = result.blockApprox[b];
                auto &sim = result.blockSimilar[b];

                // Index 0: the original block itself (distance zero)
                // so a feasible choice always exists and QUEST can
                // never do worse than the Baseline.
                const int original_cnots = static_cast<int>(
                    result.blocks[b].circuit.cnotCount());
                list.push_back({result.blocks[b].circuit, 0.0,
                                original_cnots});

                const auto [it, inserted] = classes.try_emplace(
                    {canonical[b], original_cnots}, b);
                if (!inserted) {
                    const size_t first = it->second;
                    const auto &kept = result.blockApprox[first];
                    list.insert(list.end(), kept.begin() + 1, kept.end());
                    sim = result.blockSimilar[first];
                    continue;
                }

                // Keep only candidates that can appear in a feasible
                // sample (a single block distance above the
                // full-circuit threshold already violates the bound)
                // and that do not exceed the original block's CNOT
                // count.
                std::vector<Matrix> mats{targets[b]};
                for (const SynthCandidate &c :
                     outputs[canonical[b]].candidates) {
                    if (static_cast<int>(list.size()) >=
                        cfg.maxApproxPerBlock) {
                        break;
                    }
                    if (c.distance > result.threshold ||
                        c.cnotCount > original_cnots) {
                        continue;
                    }
                    list.push_back({c.circuit, c.distance, c.cnotCount});
                    mats.push_back(circuitUnitary(c.circuit));
                }
                approx_unitaries.add(mats.size() - 1);

                // Pairwise block-approximation similarity (Alg. 1 line
                // 13): similar iff hs(A_i, A_j) <= max(dist_i, dist_j).
                // Row i's distances to every later j come from one
                // batched pass.
                const size_t count = list.size();
                sim.assign(count * count, 0);
                row.resize(count);
                for (size_t i = 0; i < count; ++i) {
                    sim[i * count + i] = 1;
                    const std::span<const Matrix> later(
                        mats.begin() + i + 1, mats.end());
                    hsDistances(mats[i], later,
                                std::span(row).first(later.size()));
                    for (size_t j = i + 1; j < count; ++j) {
                        char s = row[j - i - 1] <=
                                         std::max(list[i].distance,
                                                  list[j].distance)
                                     ? 1
                                     : 0;
                        sim[i * count + j] = s;
                        sim[j * count + i] = s;
                    }
                }
            }
        }

        if (cfg.verify) {
            CircuitVerifier verifier({.requireNative = true,
                                      .allowPseudoOps = false});
            for (size_t b = 0; b < num_blocks; ++b) {
                for (size_t k = 0; k < result.blockApprox[b].size();
                     ++k) {
                    const Circuit &c = result.blockApprox[b][k].circuit;
                    QUEST_ASSERT(c.numQubits() ==
                                 result.blocks[b].width(),
                                 "approximation ", k, " of block ", b,
                                 " spans ", c.numQubits(),
                                 " wires; the block has ",
                                 result.blocks[b].width());
                    VerifyReport report = verifier.verify(c);
                    if (!report.ok()) {
                        QUEST_PANIC("STEP 2 approximation ", k,
                                    " of block ", b,
                                    " failed verification:\n",
                                    report.toString());
                    }
                }
            }
        }
    }

    // ---- STEP 3: dual-annealing selection of dissimilar samples. -----
    {
        QUEST_TRACE_SCOPE("quest.anneal");
        ScopedTimer timer(anneal_watch);

        std::vector<std::vector<int>> selected;
        std::set<std::vector<int>> seen;
        const std::vector<double> lo(num_blocks, 0.0);
        const std::vector<double> hi(num_blocks, 1.0);

        // Assemble one sample from a choice vector and record it.
        // bound() and cnots() depend only on the choice itself, so
        // replayed samples score identically to freshly-annealed ones.
        auto acceptChoice = [&](std::vector<int> choice) {
            SelectionObjective objective(result, selected,
                                         result.threshold,
                                         cfg.cnotWeight);
            ApproxSample sample;
            sample.choice = choice;
            sample.distanceBound = objective.bound(choice);
            sample.cnotCount = objective.cnots(choice);

            std::vector<Block> chosen = result.blocks;
            for (size_t b = 0; b < num_blocks; ++b)
                chosen[b].circuit =
                    result.blockApprox[b][choice[b]].circuit;
            sample.circuit = assembleBlocks(
                chosen, result.original.numQubits());

            selected.push_back(std::move(choice));
            result.samples.push_back(std::move(sample));
        };

        // Replay the resumed journal's recorded selections. STEP 3 is
        // deterministic given the block approximations, so annealing
        // onward from the replayed prefix continues the interrupted
        // run's sequence exactly.
        bool replay_ok = true;
        if (checkpoint && checkpoint->resumed()) {
            for (std::vector<int> choice :
                 checkpoint->sampleChoices()) {
                bool valid =
                    choice.size() == num_blocks &&
                    static_cast<int>(result.samples.size()) <
                        cfg.maxSamples;
                for (size_t b = 0; valid && b < num_blocks; ++b) {
                    valid = choice[b] >= 0 &&
                            choice[b] <
                                static_cast<int>(
                                    result.blockApprox[b].size());
                }
                if (valid) {
                    SelectionObjective check(result, selected,
                                             result.threshold,
                                             cfg.cnotWeight);
                    valid = check.bound(choice) <= result.threshold &&
                            seen.insert(choice).second;
                }
                if (!valid) {
                    // The recorded suffix no longer applies (e.g. a
                    // block degraded differently this run): recompute
                    // from here instead of trusting it.
                    warn("checkpoint: recorded sample ",
                         result.samples.size(),
                         " is no longer feasible; re-annealing");
                    replay_ok = false;
                    break;
                }
                acceptChoice(std::move(choice));
            }
        }

        const bool anneal_done = checkpoint && checkpoint->resumed() &&
                                 replay_ok && checkpoint->step3Done();
        bool budget_cut = false;
        for (int s = static_cast<int>(result.samples.size());
             !anneal_done && s < cfg.maxSamples; ++s) {
            if (runBudget.exhausted()) {
                checkRunBudget(cfg, runBudget, "during STEP 3");
                budget_cut = true;
                break;  // Degrade: keep the samples selected so far
            }
            SelectionObjective objective(result, selected,
                                         result.threshold,
                                         cfg.cnotWeight);
            AnnealOptions options = cfg.anneal;
            options.seed = cfg.seed + 0x9e3779b9ull * (s + 1);
            options.budget = runBudget;
            // Start at the always-feasible all-original choice so
            // large-block-count searches are not lost in the
            // infeasible region.
            options.initial =
                std::vector<double>(num_blocks, 0.0);
            AnnealResult r = dualAnnealing(objective, lo, hi, options);
            if (r.stopped != resilience::StopReason::None) {
                // Truncated search: never record its result, so a
                // bounded run stays a prefix of the unbounded one.
                checkRunBudget(cfg, runBudget, "during STEP 3");
                budget_cut = true;
                break;
            }
            std::vector<int> choice = objective.toChoice(r.x);

            if (objective.bound(choice) > result.threshold) {
                // The annealer found nothing feasible; fall back to
                // the always-feasible original choice once.
                if (!selected.empty())
                    break;
                choice.assign(num_blocks, 0);
            }
            if (!seen.insert(choice).second)
                break;  // duplicate: the search space is exhausted

            if (checkpoint)
                checkpoint->appendSample(choice);
            acceptChoice(std::move(choice));
        }
        if (checkpoint && !budget_cut && !checkpoint->step3Done())
            checkpoint->markStep3Done();

        if (result.samples.empty()) {
            // Degrade floor: a valid result always has at least the
            // all-original sample (distance bound zero).
            acceptChoice(std::vector<int>(num_blocks, 0));
        }

        if (cfg.verify) {
            for (size_t s = 0; s < result.samples.size(); ++s) {
                verifyOrPanic(result.samples[s].circuit,
                              {.requireNative = true,
                               .allowPseudoOps = false},
                              detail::concat("STEP 3 sample ", s));
            }
        }
    }

    // ---- Certificate: what this run can promise about the ensemble.
    // Both modes report the Theorem-1 additive bound; Full mode
    // additionally measures the exact full-circuit HS distance of
    // every sample (the expensive part BlockBound exists to skip —
    // nothing below this comment may touch src/sim in that mode).
    {
        QUEST_TRACE_SCOPE("quest.certify");
        ScopedTimer timer(certify_watch);
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
            // Each build fans its column slabs out on the run's pool.
            // Two dense matrices are live, original_u and the
            // sample's, plus one slab buffer per busy thread while a
            // sample builds (32 / 2^n of a matrix each).
            const Matrix original_u = buildUnitary(result.original, &pool);
            for (ApproxSample &s : result.samples) {
                if (runBudget.exhausted()) {
                    // Degrade: remaining samples stay unmeasured (the
                    // bound certificate above still covers them).
                    checkRunBudget(cfg, runBudget, "during certify");
                    break;
                }
                s.measuredDistance = hsDistance(
                    original_u, buildUnitary(s.circuit, &pool));
                cert.measuredSamples++;
                cert.maxMeasured =
                    std::max(cert.maxMeasured, s.measuredDistance);
                // Theorem 1 says the bound dominates the measurement,
                // so a sample above its bound would ship a false
                // certificate: fail the run in every build type.
                if (s.measuredDistance > s.distanceBound + 1e-6) {
                    throw resilience::QuestError(
                        resilience::ErrorCategory::Internal,
                        detail::concat("Theorem-1 violation: sample "
                                       "measured distance ",
                                       s.measuredDistance,
                                       " exceeds its bound ",
                                       s.distanceBound));
                }
            }
        }
    }

    result.partitionSeconds = partition_watch.seconds();
    result.synthesisSeconds = synth_watch.seconds();
    result.annealSeconds = anneal_watch.seconds();
    result.certifySeconds = certify_watch.seconds();
    obs::MetricsRegistry::global().gauge(names::kMetricSamples).set(
        static_cast<int64_t>(result.samples.size()));
    return result;
}

} // namespace quest
