/**
 * @file
 * The single source of truth for every registered metric name, fault
 * site and process exit code in the tree.
 *
 * Production code must spell these names through the constants below
 * — never as string literals — so that one name has exactly one
 * definition site. `quest_analyze` (src/analysis) parses this header,
 * resolves `names::k...` identifiers at metric/fault-point call
 * sites back to their strings, and cross-checks the result against
 * the authoritative tables in docs/REGISTRY.md; a literal name in
 * src/, an unknown constant, or a constant that diverges from the
 * registry is a gating finding. Tests and benches may still use ad
 * hoc literal names under the ephemeral prefixes listed in
 * docs/REGISTRY.md (e.g. "obs_test.").
 *
 * To add a metric or fault site: add the constant here, add a row to
 * docs/REGISTRY.md with a description, and use the constant at the
 * call site. `quest_analyze` fails until all three agree.
 */

#ifndef QUEST_UTIL_NAMES_HH
#define QUEST_UTIL_NAMES_HH

namespace quest::names {

// ---- Metrics: counters -------------------------------------------

// Synthesis cache (src/cache) disk-store outcomes.
inline constexpr const char kMetricCacheHit[] = "quest.cache.hit";
inline constexpr const char kMetricCacheMiss[] = "quest.cache.miss";
inline constexpr const char kMetricCacheCorrupt[] = "quest.cache.corrupt";
inline constexpr const char kMetricCacheStale[] = "quest.cache.stale";
inline constexpr const char kMetricCacheEvict[] = "quest.cache.evict";
inline constexpr const char kMetricCacheStoreFailed[] =
    "quest.cache.store_failed";

// Pipeline-level accounting (src/quest).
inline constexpr const char kMetricPipelineRuns[] = "quest.pipeline.runs";
inline constexpr const char kMetricSynthCacheHits[] =
    "quest.synth.cache_hits";
inline constexpr const char kMetricSynthCacheMisses[] =
    "quest.synth.cache_misses";
inline constexpr const char kMetricApproxUnitaries[] =
    "quest.approx_unitaries";

// Degradation and fault accounting (src/resilience, src/quest).
inline constexpr const char kMetricFallbacks[] = "resilience.fallbacks";
inline constexpr const char kMetricTimeouts[] = "resilience.timeouts";
inline constexpr const char kMetricDivergences[] =
    "resilience.divergences";
inline constexpr const char kMetricFaults[] = "resilience.faults";
inline constexpr const char kMetricFaultsInjected[] =
    "resilience.faults_injected";
inline constexpr const char kMetricJournalFailures[] =
    "resilience.journal_failures";
inline constexpr const char kMetricCheckpointBlocksReplayed[] =
    "resilience.checkpoint_blocks_replayed";

// Ensemble evaluation (src/quest).
inline constexpr const char kMetricEnsembleEvals[] =
    "quest.ensemble.evals";

// Dual annealing (src/anneal).
inline constexpr const char kMetricAnnealRuns[] = "anneal.runs";
inline constexpr const char kMetricAnnealSteps[] = "anneal.steps";
inline constexpr const char kMetricAnnealAcceptances[] =
    "anneal.acceptances";
inline constexpr const char kMetricAnnealRestarts[] = "anneal.restarts";
inline constexpr const char kMetricAnnealEvaluations[] =
    "anneal.evaluations";
inline constexpr const char kMetricAnnealNanObjectives[] =
    "anneal.nan_objectives";

// Statevector simulation (src/sim).
inline constexpr const char kMetricSimGateApplies[] = "sim.gate_applies";
inline constexpr const char kMetricSimBytesTouched[] =
    "sim.bytes_touched";
inline constexpr const char kMetricSimStatevectorBuilds[] =
    "sim.statevector_builds";
inline constexpr const char kMetricSimUnitaryBuilds[] =
    "sim.unitary_builds";

// L-BFGS optimizer (src/synth).
inline constexpr const char kMetricLbfgsCalls[] = "lbfgs.calls";
inline constexpr const char kMetricLbfgsIterations[] = "lbfgs.iterations";
inline constexpr const char kMetricLbfgsEvaluations[] =
    "lbfgs.evaluations";
inline constexpr const char kMetricLbfgsNonfiniteObjectives[] =
    "lbfgs.nonfinite_objectives";

// LEAP synthesis and instantiation (src/synth).
inline constexpr const char kMetricSynthCalls[] = "synth.calls";
inline constexpr const char kMetricSynthLevels[] = "synth.levels";
inline constexpr const char kMetricSynthTasks[] = "synth.tasks";
inline constexpr const char kMetricSynthCandidates[] = "synth.candidates";
inline constexpr const char kMetricSynthInstantiations[] =
    "synth.instantiations";
inline constexpr const char kMetricSynthMultistarts[] =
    "synth.multistarts";
inline constexpr const char kMetricSynthEarlyStops[] =
    "synth.early_stops";
inline constexpr const char kMetricSynthWorkspaceReuses[] =
    "synth.workspace_reuses";

// Compile service (src/service): job lifecycle and framing.
inline constexpr const char kMetricServiceJobsSubmitted[] =
    "service.jobs.submitted";
inline constexpr const char kMetricServiceJobsDone[] =
    "service.jobs.done";
inline constexpr const char kMetricServiceJobsFailed[] =
    "service.jobs.failed";
inline constexpr const char kMetricServiceJobsCancelled[] =
    "service.jobs.cancelled";
inline constexpr const char kMetricServiceJobsRejected[] =
    "service.jobs.rejected";
inline constexpr const char kMetricServiceJobsExpired[] =
    "service.jobs.expired";
inline constexpr const char kMetricServiceJobsReplayed[] =
    "service.jobs.replayed";
inline constexpr const char kMetricServiceConnections[] =
    "service.connections";
inline constexpr const char kMetricServiceFramesRejected[] =
    "service.frames.rejected";
inline constexpr const char kMetricServiceRecvStalls[] =
    "service.recv.stalls";
inline constexpr const char kMetricServiceSendStalls[] =
    "service.send.stalls";
inline constexpr const char kMetricServiceConnsReaped[] =
    "service.conns.reaped";
inline constexpr const char kMetricServiceConnsRejected[] =
    "service.conns.rejected";
inline constexpr const char kMetricServiceTenantSheds[] =
    "service.tenants.shed";
inline constexpr const char kMetricServiceSubmitDedupHits[] =
    "service.submit.dedup_hits";
inline constexpr const char kMetricServiceResultRetries[] =
    "service.result.retries";
inline constexpr const char kMetricServiceExecutorCrashes[] =
    "service.executor.crashes";
inline constexpr const char kMetricServiceClientRetries[] =
    "service.client.retries";

// ---- Metrics: gauges ---------------------------------------------

inline constexpr const char kMetricBlocks[] = "quest.blocks";
inline constexpr const char kMetricSamples[] = "quest.samples";
inline constexpr const char kMetricServiceQueueDepth[] =
    "service.queue.depth";
inline constexpr const char kMetricServiceConnsActive[] =
    "service.conns.active";

// ---- Metrics: histograms -----------------------------------------

inline constexpr const char kMetricLbfgsIterationsPerCall[] =
    "lbfgs.iterations_per_call";
inline constexpr const char kMetricServiceJobQueueMs[] =
    "service.job.queue_ms";
inline constexpr const char kMetricServiceJobRunMs[] =
    "service.job.run_ms";

// ---- Dynamic metric prefixes -------------------------------------

// Per-site fired-fault counters: "fault." + <fault site>.
inline constexpr const char kMetricFaultPrefix[] = "fault.";

// ---- Fault sites (QUEST_FAULT_POINT) -----------------------------

inline constexpr const char kFaultCacheLoadRead[] = "cache.load.read";
inline constexpr const char kFaultCacheStoreEnospc[] =
    "cache.store.enospc";
inline constexpr const char kFaultCacheStoreShortWrite[] =
    "cache.store.short_write";
inline constexpr const char kFaultCacheStoreRename[] =
    "cache.store.rename";
inline constexpr const char kFaultJournalAppend[] = "journal.append";
inline constexpr const char kFaultSynthBlockDiverge[] =
    "synth.block.diverge";
inline constexpr const char kFaultSynthBlockTimeout[] =
    "synth.block.timeout";
inline constexpr const char kFaultServiceAccept[] = "service.accept";
inline constexpr const char kFaultServiceWrite[] = "service.write";
inline constexpr const char kFaultServiceRecvStall[] =
    "service.recv.stall";
inline constexpr const char kFaultServiceConnDrop[] =
    "service.conn.drop";
inline constexpr const char kFaultServiceExecutorCrash[] =
    "service.executor.crash";

// ---- Process exit codes (QuestError taxonomy) --------------------

// 0 (success), 1 (legacy fatal()) and 2 (CLI usage error) are
// reserved and not part of the taxonomy.
inline constexpr int kExitInvalidInput = 10;
inline constexpr int kExitIo = 11;
inline constexpr int kExitTimeout = 12;
inline constexpr int kExitCancelled = 13;
inline constexpr int kExitDiverged = 14;
inline constexpr int kExitResource = 15;
inline constexpr int kExitInternal = 70;

} // namespace quest::names

#endif // QUEST_UTIL_NAMES_HH
