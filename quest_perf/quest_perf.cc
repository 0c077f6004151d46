/**
 * @file
 * quest_perf: the repository benchmark. README.md beside this file
 * gives the reason for each workload, each metric's unit and bound,
 * and how to compare two commits.
 *
 *   quest_perf --workload <cold_small|cold_large|service_mix>
 *              [--seed n] [--seconds s] [--trace 0|1] [--workdir dir]
 *              [--json file] [--chrome-trace file]
 *
 * A run sets its workload up at least three times (setup_s is the
 * median), then compiles the workload's inputs pass after pass until
 * --seconds have elapsed and at least three passes have run (untraced
 * compile workloads), checking every output outside the timed
 * region. With --trace 0 it times the real entry points,
 * QuestPipeline::run and an in-process QuestServer, with tracing off,
 * and reports the end-to-end metrics. With --trace 1 it pairs every
 * pipeline compile with a traced compile through the layered driver
 * (layered.hh) and reports the per-layer metrics. The last line of
 * stdout is one JSON object with the keys correct, attempted, failed
 * and metrics; the exit code is 0 when every check held, 1 when one
 * failed and 2 on a usage error.
 */

#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <numeric>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <vector>

#include "algos/algorithms.hh"
#include "cache/synthesis_cache.hh"
#include "ir/qasm.hh"
#include "layered.hh"
#include "obs/chrome_trace.hh"
#include "obs/json.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "quest/pipeline.hh"
#include "resilience/thread_pool.hh"
#include "service/client.hh"
#include "service/job.hh"
#include "service/server.hh"
#include "util/logging.hh"
#include "util/names.hh"
#include "util/rng.hh"
#include "util/sha256.hh"
#include "verify/verifier.hh"

namespace {

using namespace quest;
using perf::processCpuSeconds;
namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

constexpr uint64_t kDefaultSeed = 99;

/** A run sets up at least kMinSetups times, and cheap set-ups until
 *  kSetupSeconds have gone by, so that setup_s, their median, is steady
 *  even for a set-up of a few milliseconds. */
constexpr size_t kMinSetups = 3;
constexpr size_t kMaxSetups = 100;
constexpr double kSetupSeconds = 1.0;

/** The traced layers must account for this share of a traced compile. */
constexpr double kCoverageFloorPct = 95.0;

/** Theorem 1 slack: the pipeline's own verify mode uses the same. */
constexpr double kTheorem1Slack = 1e-6;

// cold_small: Full-mode standard-suite circuits. Synthesis and the
// 8-qubit certifies (tfim_8, mult_8) do nearly all the work. README.md
// names the suite circuits left out and why.
const char *const kColdSmall[] = {"tfim_8",  "mult_8", "qft_5",
                                  "adder_4", "vqe_4",  "qaoa_5",
                                  "vqe_5",   "hlf_4"};

// cold_large: the block-only --large path at 64 and 128 qubits; TFIM
// repeats identical blocks, QAOA's random chords defeat dedup, the
// adder is deep.
const char *const kColdLarge[] = {"qaoa_64", "tfim_128", "adder_128"};

/** An untraced compile workload runs at least this many passes, so that
 *  every job's time is a median of three or more compiles. */
constexpr int kMinPasses = 3;

/** The service_mix repeats run every circuit at job seeds S .. S+3.
 *  The job seed drives only the
 *  annealer, so all of them share the circuit's synthesis cache
 *  entries, and the mean over four sample sets varies less from one
 *  --seed to the next than a single set does. */
constexpr uint64_t kJobSeeds = 4;

// service_mix: 75% of a wave repeats these circuits; 25% are fresh
// seeded vqe(4,2,s) / qaoa(5,1,s) circuits. The mix and the client
// count are assumptions, not measured traffic (README.md); the
// executor count is the server's default.
const char *const kServiceRepeats[] = {"adder_4", "hlf_4", "qft_5",
                                       "qaoa_5",  "vqe_4", "vqe_5"};
constexpr size_t kWaveRepeats = 12;
constexpr int kWaveFresh = 4;
constexpr int kServiceClients = 3;
const unsigned kServiceExecutors = service::ServerConfig{}.executors;

/** An untraced service_mix run serves at least this many waves, and the
 *  metrics that depend on the work done (peak_rss_mb,
 *  cnot_reduction_pct) are taken over exactly these, so they do not
 *  move with how many waves fit in --seconds. */
constexpr uint64_t kFixedWaves = 16;

/** Shadow waves (traced local compiles in service_mix) draw from a
 *  wave index range the server never sees. */
constexpr uint64_t kShadowWaveOffset = uint64_t{1} << 32;

// ---- measurement helpers ------------------------------------------------

double
since(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

uint64_t
counterValue(const char *name)
{
    return obs::MetricsRegistry::global().counter(name).value();
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** Nearest-rank @p p-quantile (0 < p <= 1). */
double
percentile(std::vector<double> v, double p)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const size_t rank = static_cast<size_t>(
        std::ceil(p * static_cast<double>(v.size())));
    return v[std::clamp<size_t>(rank, 1, v.size()) - 1];
}

/** The highest whole percentile with at least ten samples beyond it
 *  (0 when there are ten samples or fewer). */
int
tailPercentile(size_t samples)
{
    if (samples <= 10)
        return 0;
    return static_cast<int>(100 * (samples - 10) / samples);
}

bool
moreSetups(const std::vector<double> &seconds)
{
    double spent = 0;
    for (double s : seconds)
        spent += s;
    return seconds.size() < kMinSetups ||
           (spent < kSetupSeconds && seconds.size() < kMaxSetups);
}

double
ratio(double num, double den)
{
    return den > 0 ? num / den : 0.0;
}

// ---- report -------------------------------------------------------------

struct Metric
{
    std::string name;
    double value = 0;
    std::string unit;
};

/** Everything one run measured and checked. */
struct Report
{
    uint64_t attempted = 0;
    std::vector<std::string> failures;

    /** The metrics of the final line, in BENCHMARK.json order. */
    std::vector<Metric> metrics;

    /** Further measurements kept only in the --json record. */
    std::vector<Metric> extra;

    /** Per-job rows for the record. */
    struct Row
    {
        std::string name;
        size_t compiles = 0;
        double medianSeconds = 0;       //!< untraced compile
        double tracedMedianSeconds = 0; //!< layered driver, --trace 1 only
        std::string digest;
    };
    std::vector<Row> rows;

    void
    fail(const std::string &job, const std::string &why)
    {
        failures.push_back(job + ": " + why);
        warn("check failed: ", job, ": ", why);
    }
};

// ---- inputs -------------------------------------------------------------

/** One compile a workload asks for. The program sees only the
 *  generated circuit, as the QASM a user would hand it. */
struct Job
{
    std::string name;
    std::string qasm;
    Circuit circuit;
    service::CompileOptions options; //!< what a service submit carries
    QuestConfig config;              //!< what a local compile runs
};

Job
makeJob(std::string name, const Circuit &generated, SelectionMode mode,
        uint64_t seed)
{
    Job job;
    job.name = std::move(name);
    job.qasm = toQasm(generated);
    job.circuit = parseQasm(job.qasm);
    job.options.seed = seed;
    job.options.selectionMode = mode;
    job.config = service::compileConfig(job.options);
    return job;
}

/** A standard- or large-suite circuit compiled as quest_compile would
 *  with --seed @p seed. */
Job
suiteJob(const std::string &name, SelectionMode mode, uint64_t seed)
{
    static const auto suite = [] {
        auto all = algos::standardSuite();
        for (auto &spec : algos::largeSuite())
            all.push_back(spec);
        return all;
    }();
    return makeJob(name, algos::findSpec(suite, name).build(), mode, seed);
}

/** suiteJob, named name@seed, for workloads that run a circuit at
 *  several job seeds. */
Job
seededJob(const std::string &name, SelectionMode mode, uint64_t seed)
{
    Job job = suiteJob(name, mode, seed);
    job.name = detail::concat(name, "@", seed);
    return job;
}

// ---- output checks ------------------------------------------------------

/** What the checks keep of one output. */
struct Checked
{
    std::string digest;       //!< SHA-256 of the samples' QASM and CNOTs
    double reductionPct = 0;  //!< 100 (1 - min sample CNOTs / original)
    std::string error;        //!< empty when every check held
};

/** Why the sample text @p qasm fails its checks ("" when it holds);
 *  a sample that holds is appended to @p digestInput. */
std::string
checkSampleText(const std::string &qasm, uint64_t cnots, int qubits,
                std::string &digestInput)
{
    Circuit back;
    try {
        back = parseQasm(qasm);
    } catch (const std::exception &e) {
        return std::string("sample does not parse back: ") + e.what();
    }
    const VerifyReport report =
        CircuitVerifier({.requireNative = true, .allowPseudoOps = false})
            .verify(back);
    if (!report.ok())
        return "sample fails verification: " + report.toString();
    if (back.numQubits() != qubits)
        return "sample has the wrong width";
    if (back.cnotCount() != cnots)
        return "sample CNOT count differs from its circuit";
    digestInput += qasm;
    digestInput += "cnots " + std::to_string(cnots) + "\n";
    return "";
}

double
reductionPct(uint64_t minCnots, uint64_t originalCnots)
{
    return originalCnots == 0
               ? 0.0
               : 100.0 * (1.0 - static_cast<double>(minCnots) /
                                    static_cast<double>(originalCnots));
}

/** Why sample @p s of @p r fails its checks ("" when it holds). */
std::string
checkSample(const QuestResult &r, const ApproxSample &sample,
            std::string &digestInput)
{
    if (r.blockApprox.size() != r.blocks.size() ||
        sample.choice.size() != r.blocks.size())
        return "choice does not cover every block";
    double bound = 0.0;
    uint64_t cnots = 0;
    for (size_t b = 0; b < sample.choice.size(); ++b) {
        const int k = sample.choice[b];
        if (k < 0 || static_cast<size_t>(k) >= r.blockApprox[b].size())
            return "choice index out of range";
        bound += r.blockApprox[b][k].distance;
        cnots += static_cast<uint64_t>(r.blockApprox[b][k].cnotCount);
    }
    if (bound != sample.distanceBound)
        return "bound is not the sum of its block distances";
    if (sample.distanceBound > r.threshold)
        return "bound exceeds the threshold";
    if (cnots != sample.cnotCount)
        return "CNOT count is not the sum of its blocks'";
    if (r.selectionMode == SelectionMode::Full &&
        !(sample.measured() &&
          sample.measuredDistance <= sample.distanceBound + kTheorem1Slack))
        return "measured distance exceeds the bound (Theorem 1)";
    return checkSampleText(toQasm(sample.circuit), sample.cnotCount,
                           r.original.numQubits(), digestInput);
}

Checked
checkLocal(const QuestResult &r)
{
    Checked out;
    if (r.samples.empty()) {
        out.error = "no samples";
        return out;
    }
    if (r.fallbackBlocks() != 0) {
        out.error = detail::concat(r.fallbackBlocks(), " block(s) degraded");
        return out;
    }
    std::string digestInput;
    for (size_t s = 0; s < r.samples.size(); ++s) {
        const std::string why = checkSample(r, r.samples[s], digestInput);
        if (!why.empty()) {
            out.error = detail::concat("sample ", s, ": ", why);
            return out;
        }
    }
    out.digest = Sha256::hexDigest(digestInput);
    out.reductionPct = reductionPct(r.minSampleCnots(), r.originalCnots);
    return out;
}

Checked
checkReply(const service::ResultReply &reply)
{
    Checked out;
    if (reply.status.state != service::JobState::Done) {
        out.error = detail::concat("job ended ",
                                   service::jobStateName(reply.status.state),
                                   ": ", reply.status.detail);
        return out;
    }
    if (reply.okBlocks != reply.blocks) {
        out.error = detail::concat(reply.blocks - reply.okBlocks,
                                   " block(s) degraded");
        return out;
    }
    if (reply.samples.empty()) {
        out.error = "no samples";
        return out;
    }
    std::string digestInput;
    uint64_t minCnots = reply.samples.front().cnotCount;
    for (size_t s = 0; s < reply.samples.size(); ++s) {
        const service::SampleResult &sample = reply.samples[s];
        std::string why =
            sample.distanceBound > reply.threshold
                ? "bound exceeds the threshold"
                : checkSampleText(sample.qasm, sample.cnotCount,
                                  static_cast<int>(reply.qubits), digestInput);
        if (!why.empty()) {
            out.error = detail::concat("sample ", s, ": ", why);
            return out;
        }
        minCnots = std::min(minCnots, sample.cnotCount);
    }
    out.digest = Sha256::hexDigest(digestInput);
    out.reductionPct = reductionPct(minCnots, reply.originalCnots);
    return out;
}

/** One job's compiles over a run: their times, and the first output,
 *  which every later compile must reproduce. */
struct JobRecord
{
    std::vector<double> seconds; //!< untraced compile wall time
    std::vector<double> traced;  //!< traced layered compile wall time
    std::string digest;
    double reductionPct = 0;
};

void
recordOutput(JobRecord &rec, const Checked &out, const std::string &name,
             Report &report)
{
    if (!out.error.empty()) {
        report.fail(name, out.error);
    } else if (rec.digest.empty()) {
        rec.digest = out.digest;
        rec.reductionPct = out.reductionPct;
    } else if (out.digest != rec.digest) {
        report.fail(name, "output differs from its first compile");
    }
}

/** Compare each job's digest with golden_outputs.txt (for the default
 *  seed). */
void
checkGolden(const std::string &workload, const std::vector<Report::Row> &rows,
            Report &report)
{
    std::map<std::string, std::string> golden;
    std::ifstream in(QUEST_PERF_GOLDEN);
    for (std::string line; std::getline(in, line);) {
        std::istringstream fields(line);
        std::string w, job, digest;
        if (line.empty() || line[0] == '#' || !(fields >> w >> job >> digest))
            continue;
        if (w == workload)
            golden[job] = digest;
    }
    for (const Report::Row &row : rows) {
        if (row.digest.empty())
            continue; // never compiled, or already failed its checks
        auto it = golden.find(row.name);
        if (it == golden.end() || it->second != row.digest) {
            report.fail(row.name, "output differs from golden_outputs.txt "
                                  "(this run's line: " +
                                      workload + " " + row.name + " " +
                                      row.digest + ")");
        }
    }
}

// ---- traced compiles ----------------------------------------------------

/** Per-layer totals over a run's traced compiles. */
struct TraceTotals
{
    std::unordered_map<std::string_view, int64_t> spanNs;
    perf::LayerCounts counts;
    uint64_t instantiations = 0;
    uint64_t lbfgsEvals = 0;
    uint64_t droppedSpans = 0;
    int passes = 0;

    bool keepEvents = false;
    std::vector<obs::TraceEvent> events; //!< for --chrome-trace
};

/** One traced compile through the layered driver. */
QuestResult
tracedCompile(const Job &job, const QuestConfig &cfg, TraceTotals &totals,
              double &seconds)
{
    const uint64_t inst0 = counterValue(names::kMetricSynthInstantiations);
    const uint64_t evals0 = counterValue(names::kMetricLbfgsEvaluations);
    obs::TraceSession &session = obs::TraceSession::global();
    session.start();
    QuestResult r;
    try {
        const auto t0 = Clock::now();
        std::unique_ptr<cache::SynthesisCache> store;
        if (!cfg.cacheDir.empty()) {
            cache::CacheConfig cc;
            cc.dir = cfg.cacheDir;
            cc.maxBytes = cfg.cacheMaxBytes;
            store = std::make_unique<cache::SynthesisCache>(cc);
        }
        r = perf::compileLayered(job.circuit, cfg, store.get(),
                                 totals.counts);
        store.reset();
        seconds = since(t0);
    } catch (...) {
        session.stop();
        throw;
    }
    session.stop();
    const std::vector<obs::TraceEvent> events = session.collect();
    for (const obs::TraceEvent &e : events)
        totals.spanNs[e.name] += e.durNs;
    if (totals.keepEvents)
        totals.events.insert(totals.events.end(), events.begin(),
                             events.end());
    totals.droppedSpans += session.droppedEvents();
    totals.instantiations +=
        counterValue(names::kMetricSynthInstantiations) - inst0;
    totals.lbfgsEvals += counterValue(names::kMetricLbfgsEvaluations) - evals0;
    return r;
}

/** Compile @p job through QuestPipeline::run, timed; @p cpu receives
 *  the process CPU seconds it took. */
QuestResult
pipelineCompile(const Job &job, const QuestConfig &cfg, double &seconds,
                double &cpu)
{
    const double cpu0 = processCpuSeconds();
    const auto t0 = Clock::now();
    QuestResult r = QuestPipeline(cfg).run(job.circuit);
    seconds = since(t0);
    cpu = processCpuSeconds() - cpu0;
    return r;
}

/**
 * The traced half of a --trace run's compile: the layered driver on
 * @p cfg, whose samples must equal @p pipelineDigest byte for byte.
 */
void
tracedPair(const Job &job, const QuestConfig &cfg,
           const std::string &pipelineDigest, JobRecord &rec,
           TraceTotals &totals, Report &report)
{
    report.attempted++;
    double seconds = 0;
    try {
        const QuestResult r = tracedCompile(job, cfg, totals, seconds);
        const Checked out = checkLocal(r);
        if (!out.error.empty())
            report.fail(job.name + " (layered)", out.error);
        else if (out.digest != pipelineDigest)
            report.fail(job.name, "layered driver's samples differ from "
                                  "QuestPipeline::run's");
        rec.traced.push_back(seconds);
    } catch (const std::exception &e) {
        report.fail(job.name + " (layered)", e.what());
    }
}

double
spanSeconds(const TraceTotals &t, std::string_view name)
{
    auto it = t.spanNs.find(name);
    return it == t.spanNs.end() ? 0.0 : static_cast<double>(it->second) * 1e-9;
}

/** The per-layer metrics of a --trace run, per pass; @p untraced and
 *  @p traced are the same jobs' compile seconds through the pipeline and
 *  through the traced driver. */
void
layerMetrics(const TraceTotals &t, double untraced, double traced,
             Report &report)
{
    const double passes = std::max(1, t.passes);
    auto per = [&](double v) { return v / passes; };
    auto layer = [&](std::initializer_list<const char *> spans) {
        double s = 0;
        for (const char *name : spans)
            s += spanSeconds(t, name);
        return s;
    };
    const perf::LayerCounts &c = t.counts;
    const double partition = layer({perf::kSpanPartition, perf::kSpanAssemble});
    const double synth = layer({perf::kSpanSynth, perf::kSpanFilter});
    const double sim =
        layer({perf::kSpanBlockUnitary, perf::kSpanKeptUnitary});
    const double load = spanSeconds(t, perf::kSpanCacheLoad);
    const double store = spanSeconds(t, perf::kSpanCacheStore);
    const double similarity = spanSeconds(t, perf::kSpanSimilarity);
    const double anneal = spanSeconds(t, perf::kSpanAnneal);
    const double certify = spanSeconds(t, perf::kSpanCertify);
    const double compile = spanSeconds(t, perf::kSpanCompile);
    const double covered = partition + synth + sim + load + store +
                           similarity + anneal + certify;
    // Thread time inside the synthesizer's own instantiate spans, on
    // whichever pool thread ran them.
    const double instantiate = spanSeconds(t, "synth.instantiate");
    const double region = spanSeconds(t, perf::kSpanSynth);
    const double threads = ThreadPool::hardwareConcurrency();

    const double coverage = 100.0 * ratio(covered, compile);
    if (coverage < kCoverageFloorPct) {
        report.fail("trace", detail::concat("layers cover only ", coverage,
                                            "% of the traced compile time"));
    }
    if (t.droppedSpans != 0) {
        report.fail("trace", detail::concat(t.droppedSpans,
                                            " spans dropped (buffer full)"));
    }

    auto add = [&](const char *name, double value, const char *unit) {
        report.metrics.push_back({name, value, unit});
    };
    auto count = [&](const char *name, uint64_t n) {
        add(name, per(static_cast<double>(n)), "count");
    };
    add("partition.s", per(partition), "s");
    count("partition.blocks", c.blocks);
    add("synth.s", per(synth), "s");
    count("synth.searches", c.searches);
    count("synth.dedup_hits", c.dedupHits);
    count("synth.instantiations", t.instantiations);
    count("synth.lbfgs_evals", t.lbfgsEvals);
    add("synth.instantiate_share", ratio(instantiate, region * threads),
        "ratio");
    add("synth.evals_per_cpu_s",
        ratio(static_cast<double>(t.lbfgsEvals), c.synthCpuSeconds), "1/s");
    add("synth.pool_busy_frac", ratio(c.synthCpuSeconds, region * threads),
        "ratio");
    add("synth.kept_ratio",
        ratio(static_cast<double>(c.kept), static_cast<double>(c.candidates)),
        "ratio");
    add("sim.block_unitary_s", per(sim), "s");
    count("sim.block_unitaries", c.blockUnitaries);
    add("cache.load_s", per(load), "s");
    count("cache.loads", c.cacheLoads);
    add("cache.hit_ratio",
        ratio(static_cast<double>(c.cacheHits),
              static_cast<double>(c.cacheLoads)),
        "ratio");
    count("cache.stores", c.cacheStores);
    add("cache.bytes", per(static_cast<double>(c.cacheBytes)), "B");
    add("quest.similarity_s", per(similarity), "s");
    count("quest.similarity_pairs", c.similarityPairs);
    add("quest.certify_s", per(certify), "s");
    count("quest.certify_builds", c.certifyBuilds);
    add("anneal.s", per(anneal), "s");
    count("anneal.runs", c.annealRuns);
    count("anneal.evaluations", c.annealEvaluations);
    add("anneal.evals_per_s",
        ratio(static_cast<double>(c.annealEvaluations), anneal), "1/s");
    add("anneal.kept_ratio",
        ratio(static_cast<double>(c.annealKept),
              static_cast<double>(c.annealRuns)),
        "ratio");
    add("trace_overhead_pct", 100.0 * (ratio(traced, untraced) - 1.0), "%");
    add("layer_coverage_pct", coverage, "%");

    auto extra = [&](const char *name, double value, const char *unit) {
        report.extra.push_back({name, value, unit});
    };
    extra("cache.store_s", per(store), "s");
    extra("synth.instantiate_thread_s", per(instantiate), "s");
    extra("synth.cpu_s", per(c.synthCpuSeconds), "s");
    extra("traced_compile_s", traced, "s");
    extra("untraced_compile_s", untraced, "s");
}

// ---- local compile workloads --------------------------------------------

struct CompileSetup
{
    std::vector<Job> jobs;
    std::unique_ptr<ThreadPool> pool;
};

CompileSetup
setUpCompile(const std::string &workload, uint64_t seed, const fs::path &dir)
{
    CompileSetup setup;
    if (workload == "cold_small") {
        for (const char *name : kColdSmall)
            setup.jobs.push_back(suiteJob(name, SelectionMode::Full, seed));
    } else {
        for (const char *name : kColdLarge)
            setup.jobs.push_back(
                suiteJob(name, SelectionMode::BlockBound, seed));
    }
    setup.pool =
        std::make_unique<ThreadPool>(ThreadPool::hardwareConcurrency() - 1);

    // One small compile first, so that lazily built process state (code
    // pages, allocator arenas, the SIMD dispatch) is in place before
    // anything is timed.
    const Job warmUp = suiteJob("hlf_4", SelectionMode::Full, seed);
    QuestConfig cfg = warmUp.config;
    cfg.pool = setup.pool.get();
    cfg.cacheDir = (dir / "warm-up").string();
    QuestPipeline(cfg).run(warmUp.circuit);
    return setup;
}

void
runCompileWorkload(const std::string &workload, uint64_t seed, double budget,
                   bool trace, const fs::path &workdir, TraceTotals &totals,
                   Report &report)
{
    std::vector<double> setupSeconds;
    CompileSetup setup;
    fs::path setupDir;
    for (int i = 0; moreSetups(setupSeconds); ++i) {
        setup = {};
        fs::remove_all(setupDir);
        setupDir = workdir / detail::concat("setup-", i);
        const auto t0 = Clock::now();
        setup = setUpCompile(workload, seed, setupDir);
        setupSeconds.push_back(since(t0));
    }

    std::vector<JobRecord> records(setup.jobs.size());
    std::vector<double> passCpu;
    uint64_t scratch = 0;
    // Every compile starts from an empty synthesis cache of its own.
    auto cacheFor = [&]() {
        return workdir / detail::concat("cold-", scratch++);
    };
    const auto start = Clock::now();
    const int minPasses = trace ? 1 : kMinPasses;
    for (int pass = 0; pass < minPasses || since(start) < budget; ++pass) {
        double cpuSum = 0;
        totals.keepEvents = pass == 0;
        for (size_t j = 0; j < setup.jobs.size(); ++j) {
            const Job &job = setup.jobs[j];
            QuestConfig cfg = job.config;
            cfg.pool = setup.pool.get();
            const fs::path cache = cacheFor();
            cfg.cacheDir = cache.string();
            report.attempted++;
            Checked out;
            try {
                double seconds = 0, cpu = 0;
                const QuestResult r = pipelineCompile(job, cfg, seconds, cpu);
                records[j].seconds.push_back(seconds);
                cpuSum += cpu;
                out = checkLocal(r);
            } catch (const std::exception &e) {
                out.error = e.what();
            }
            recordOutput(records[j], out, job.name, report);
            fs::remove_all(cache);

            if (trace && out.error.empty()) {
                const fs::path tracedCache = cacheFor();
                cfg.cacheDir = tracedCache.string();
                tracedPair(job, cfg, out.digest, records[j], totals, report);
                fs::remove_all(tracedCache);
            }
        }
        passCpu.push_back(cpuSum);
        totals.passes++;
    }

    // A job's latency is its median over the run's compiles; the
    // percentiles are over the workload's jobs.
    double compile = 0, traced = 0, reduction = 0;
    std::vector<double> jobMs;
    for (size_t j = 0; j < records.size(); ++j) {
        const JobRecord &rec = records[j];
        compile += median(rec.seconds);
        traced += median(rec.traced);
        reduction += rec.reductionPct;
        jobMs.push_back(1e3 * median(rec.seconds));
        report.rows.push_back({setup.jobs[j].name, rec.seconds.size(),
                               median(rec.seconds), median(rec.traced),
                               rec.digest});
    }
    if (trace) {
        layerMetrics(totals, compile, traced, report);
        return;
    }
    report.metrics = {
        {"compile_s", compile, "s"},
        {"cpu_s", median(passCpu), "s"},
        {"job_p50_ms", percentile(jobMs, 0.5), "ms"},
        {"job_p90_ms", percentile(jobMs, 0.9), "ms"},
        {"peak_rss_mb", peakRssMb(), "MB"},
        {"cnot_reduction_pct",
         reduction / static_cast<double>(records.size()), "%"},
        {"setup_s", median(setupSeconds), "s"},
    };
    report.extra = {
        {"passes", static_cast<double>(passCpu.size()), "count"},
    };
}

// ---- service_mix --------------------------------------------------------

/** A seeded permutation of 0 .. n-1 (Fisher-Yates on Rng::uniformInt,
 *  so the same on every standard library). */
std::vector<size_t>
permutation(size_t n, Rng &rng)
{
    std::vector<size_t> p(n);
    std::iota(p.begin(), p.end(), size_t{0});
    for (size_t i = n; i > 1; --i)
        std::swap(p[i - 1], p[rng.uniformInt(static_cast<uint32_t>(i))]);
    return p;
}

/** A wave's job list: kWaveRepeats jobs of the repeat pool (their pool
 *  index in @p repeatIndex) and kWaveFresh fresh circuits (index -1),
 *  in a seeded order. Each run of kFixedWaves waves from a multiple of
 *  kFixedWaves holds every pool job equally often: the seed draws the
 *  order, not the mix, which would otherwise move cnot_reduction_pct
 *  from one seed to the next. */
std::vector<Job>
waveJobs(uint64_t seed, uint64_t wave, const std::vector<Job> &repeats,
         std::vector<int> &repeatIndex)
{
    constexpr size_t kSlots = kFixedWaves * kWaveRepeats;
    static_assert(kSlots % (kJobSeeds * std::size(kServiceRepeats)) == 0);
    constexpr uint64_t kDeckStream = uint64_t{1} << 40;
    Rng deckRng(seed, kDeckStream + wave / kFixedWaves);
    const std::vector<size_t> deck = permutation(kSlots, deckRng);

    Rng rng(seed, wave);
    std::vector<Job> drawn;
    std::vector<int> drawnIndex;
    for (size_t i = 0; i < kWaveRepeats; ++i) {
        const size_t r = deck[(wave % kFixedWaves) * kWaveRepeats + i] %
                         repeats.size();
        drawn.push_back(repeats[r]);
        drawnIndex.push_back(static_cast<int>(r));
    }
    for (int i = 0; i < kWaveFresh; ++i) {
        const uint64_t s = (uint64_t{rng()} << 32) | rng();
        const bool vqe = i % 2 == 0;
        drawn.push_back(makeJob(
            detail::concat(vqe ? "vqe_4_2_s" : "qaoa_5_1_s", s),
            vqe ? algos::vqe(4, 2, s) : algos::qaoa(5, 1, s),
            SelectionMode::Full, seed));
        drawnIndex.push_back(-1);
    }
    std::vector<Job> jobs;
    repeatIndex.clear();
    for (size_t i : permutation(drawn.size(), rng)) {
        jobs.push_back(std::move(drawn[i]));
        repeatIndex.push_back(drawnIndex[i]);
    }
    return jobs;
}

struct WaveResult
{
    double seconds = 0;
    double cpu = 0;
    std::vector<double> latencyMs;
    std::vector<service::ResultReply> replies;
    std::vector<std::string> errors; //!< transport/admission failures
};

/** Closed loop: each client submits its next job only after its
 *  previous result arrived. */
WaveResult
runWave(std::vector<service::QuestClient> &clients,
        const std::vector<Job> &jobs)
{
    WaveResult w;
    w.latencyMs.assign(jobs.size(), 0.0);
    w.replies.resize(jobs.size());
    w.errors.resize(jobs.size());
    std::atomic<size_t> next{0};
    const double cpu0 = processCpuSeconds();
    const auto t0 = Clock::now();
    std::vector<std::thread> threads;
    for (service::QuestClient &client : clients) {
        threads.emplace_back([&w, &jobs, &next, c = &client] {
            for (size_t i; (i = next.fetch_add(1)) < jobs.size();) {
                service::SubmitRequest request;
                request.options = jobs[i].options;
                request.qasm = jobs[i].qasm;
                const auto sent = Clock::now();
                try {
                    const service::SubmitReply sub = c->submit(request);
                    if (!sub.accepted) {
                        w.errors[i] = "submit rejected: " + sub.detail;
                        continue;
                    }
                    w.replies[i] = c->result(sub.jobId);
                    w.latencyMs[i] = 1e3 * since(sent);
                } catch (const std::exception &e) {
                    w.errors[i] = e.what();
                }
            }
        });
    }
    for (std::thread &t : threads)
        t.join();
    w.seconds = since(t0);
    w.cpu = processCpuSeconds() - cpu0;
    return w;
}

/** Declared so clients close before the server stops. */
struct ServiceSetup
{
    fs::path dir;
    std::vector<Job> repeats;
    std::unique_ptr<service::QuestServer> server;
    std::vector<service::QuestClient> clients;
    WaveResult warmup; //!< the seed-S jobs of the pool, to fill the cache

    void
    shutDown()
    {
        clients.clear();
        if (server)
            server->stop();
    }
};

std::unique_ptr<ServiceSetup>
setUpService(uint64_t seed, const fs::path &dir)
{
    auto setup = std::make_unique<ServiceSetup>();
    setup->dir = dir;
    for (uint64_t s = seed; s < seed + kJobSeeds; ++s)
        for (const char *name : kServiceRepeats)
            setup->repeats.push_back(
                seededJob(name, SelectionMode::Full, s));
    service::ServerConfig config;
    config.cacheDir = (dir / "cache").string();
    config.stateDir = (dir / "state").string();
    config.executors = kServiceExecutors;
    setup->server = std::make_unique<service::QuestServer>(config);
    for (int c = 0; c < kServiceClients; ++c) {
        int sv[2] = {-1, -1};
        if (socketpair(AF_UNIX, SOCK_STREAM, 0, sv) != 0)
            throw std::runtime_error("socketpair failed");
        setup->server->attach(sv[0]);
        setup->clients.push_back(service::QuestClient::fromFd(sv[1]));
    }
    const std::vector<Job> firstSeed(
        setup->repeats.begin(),
        setup->repeats.begin() + std::size(kServiceRepeats));
    setup->warmup = runWave(setup->clients, firstSeed);
    return setup;
}

/** Service histogram and counter totals, to difference around waves. */
struct ServiceTotals
{
    double queueMs = 0, runMs = 0, latencyMs = 0, waveSeconds = 0;
    uint64_t hits = 0, misses = 0, rejected = 0;

    static ServiceTotals
    now()
    {
        auto &registry = obs::MetricsRegistry::global();
        ServiceTotals t;
        t.queueMs = static_cast<double>(
            registry.histogram(names::kMetricServiceJobQueueMs).sum());
        t.runMs = static_cast<double>(
            registry.histogram(names::kMetricServiceJobRunMs).sum());
        t.hits = counterValue(names::kMetricSynthCacheHits);
        t.misses = counterValue(names::kMetricSynthCacheMisses);
        t.rejected = counterValue(names::kMetricServiceJobsRejected);
        return t;
    }

    void
    addDelta(const ServiceTotals &before, const ServiceTotals &after)
    {
        queueMs += after.queueMs - before.queueMs;
        runMs += after.runMs - before.runMs;
        hits += after.hits - before.hits;
        misses += after.misses - before.misses;
        rejected += after.rejected - before.rejected;
    }
};

void
runServiceWorkload(uint64_t seed, double budget, bool trace,
                   const fs::path &workdir, TraceTotals &totals, Report &report)
{
    std::vector<double> setupSeconds;
    std::unique_ptr<ServiceSetup> setup;
    for (int i = 0; moreSetups(setupSeconds); ++i) {
        if (setup) {
            // Gone before the next one starts, so that two servers'
            // job records never add up in peak_rss_mb.
            setup->shutDown();
            fs::remove_all(setup->dir);
            setup.reset();
        }
        const auto t0 = Clock::now();
        setup = setUpService(seed, workdir / detail::concat("setup-", i));
        setupSeconds.push_back(since(t0));
    }

    // The warm-up wave's outputs are the reference every later repeat
    // must reproduce.
    std::vector<JobRecord> repeatRecords(setup->repeats.size());
    for (size_t r = 0; r < setup->warmup.replies.size(); ++r) {
        Checked out;
        out.error = setup->warmup.errors[r];
        if (out.error.empty())
            out = checkReply(setup->warmup.replies[r]);
        recordOutput(repeatRecords[r], out,
                     setup->repeats[r].name + " (warm-up)", report);
    }

    ThreadPool localPool(ThreadPool::hardwareConcurrency() - 1);
    const std::string serverCache = (setup->dir / "cache").string();
    std::vector<Job> freshJobs; //!< wave 0's fresh jobs ...
    std::vector<std::string> freshDigests; //!< ... and their outputs
    std::vector<double> waveSeconds, waveCpu, latenciesMs;
    double reduction = 0, fixedRssMb = 0; //!< over the first kFixedWaves
    size_t done = 0, fixedDone = 0;
    ServiceTotals service;
    JobRecord shadowRecord; //!< every shadow compile, untraced and traced
    uint64_t scratch = 0;

    const uint64_t minWaves = trace ? 1 : kFixedWaves;
    const auto start = Clock::now();
    for (uint64_t k = 0; k < minWaves || since(start) < budget; ++k) {
        std::vector<int> repeatIndex;
        const std::vector<Job> jobs =
            waveJobs(seed, k, setup->repeats, repeatIndex);
        const ServiceTotals before = ServiceTotals::now();
        const WaveResult w = runWave(setup->clients, jobs);
        service.addDelta(before, ServiceTotals::now());
        service.waveSeconds += w.seconds;
        waveSeconds.push_back(w.seconds);
        waveCpu.push_back(w.cpu);
        for (size_t i = 0; i < jobs.size(); ++i) {
            report.attempted++;
            Checked out;
            out.error = w.errors[i];
            if (out.error.empty())
                out = checkReply(w.replies[i]);
            if (!out.error.empty()) {
                report.fail(jobs[i].name, out.error);
                continue;
            }
            latenciesMs.push_back(w.latencyMs[i]);
            service.latencyMs += w.latencyMs[i];
            done++;
            if (k < kFixedWaves) {
                reduction += out.reductionPct;
                fixedDone++;
            }
            if (repeatIndex[i] >= 0) {
                recordOutput(repeatRecords[static_cast<size_t>(repeatIndex[i])],
                             out, jobs[i].name, report);
            } else if (k == 0) {
                freshJobs.push_back(jobs[i]);
                freshDigests.push_back(out.digest);
            }
        }
        if (k + 1 == kFixedWaves)
            fixedRssMb = peakRssMb();
        if (!trace)
            continue;

        // A shadow wave of the same mix, compiled locally: repeats
        // against the server's (warm) cache, fresh jobs cold. Each job
        // runs through QuestPipeline::run and then the traced driver.
        std::vector<int> shadowIndex;
        const std::vector<Job> shadow = waveJobs(
            seed, kShadowWaveOffset + k, setup->repeats, shadowIndex);
        totals.keepEvents = k == 0;
        for (size_t i = 0; i < shadow.size(); ++i) {
            const bool fresh = shadowIndex[i] < 0;
            QuestConfig cfg = shadow[i].config;
            cfg.pool = &localPool;
            const fs::path cold = workdir / detail::concat("cold-", scratch++);
            cfg.cacheDir = fresh ? cold.string() : serverCache;
            report.attempted++;
            Checked out;
            try {
                double seconds = 0, cpu = 0;
                const QuestResult r =
                    pipelineCompile(shadow[i], cfg, seconds, cpu);
                shadowRecord.seconds.push_back(seconds);
                out = checkLocal(r);
            } catch (const std::exception &e) {
                out.error = e.what();
            }
            if (!out.error.empty())
                report.fail(shadow[i].name, out.error);
            const fs::path tracedCold =
                workdir / detail::concat("cold-", scratch++);
            if (fresh)
                cfg.cacheDir = tracedCold.string();
            if (out.error.empty())
                tracedPair(shadow[i], cfg, out.digest, shadowRecord, totals,
                           report);
            fs::remove_all(cold);
            fs::remove_all(tracedCold);
        }
        totals.passes++;
    }
    setup->shutDown();

    // Daemon versus local: the repeats against the now-idle server's
    // cache, and wave 0's fresh jobs from scratch, with no cache.
    auto local = [&](const Job &job, const std::string &cacheDir,
                     const std::string &expected) {
        QuestConfig cfg = job.config;
        cfg.pool = &localPool;
        cfg.cacheDir = cacheDir;
        report.attempted++;
        try {
            const Checked out = checkLocal(QuestPipeline(cfg).run(job.circuit));
            if (!out.error.empty())
                report.fail(job.name + " (local)", out.error);
            else if (out.digest != expected)
                report.fail(job.name, "service output differs from a local "
                                      "QuestPipeline run");
        } catch (const std::exception &e) {
            report.fail(job.name + " (local)", e.what());
        }
    };
    for (size_t r = 0; r < setup->repeats.size(); ++r)
        if (!repeatRecords[r].digest.empty())
            local(setup->repeats[r], serverCache, repeatRecords[r].digest);
    for (size_t f = 0; f < freshJobs.size(); ++f)
        local(freshJobs[f], "", freshDigests[f]);

    for (size_t r = 0; r < setup->repeats.size(); ++r)
        report.rows.push_back({setup->repeats[r].name, 0, 0.0, 0.0,
                               repeatRecords[r].digest});
    for (size_t f = 0; f < freshJobs.size(); ++f)
        report.rows.push_back(
            {freshJobs[f].name, 1, 0.0, 0.0, freshDigests[f]});

    const double jobs = static_cast<double>(done);
    if (trace) {
        auto sum = [](const std::vector<double> &v) {
            return std::accumulate(v.begin(), v.end(), 0.0);
        };
        layerMetrics(totals, sum(shadowRecord.seconds),
                     sum(shadowRecord.traced), report);
        auto add = [&](const char *name, double value, const char *unit) {
            report.metrics.push_back({name, value, unit});
        };
        add("service.queue_share", ratio(service.queueMs, service.latencyMs),
            "ratio");
        add("service.run_share", ratio(service.runMs, service.latencyMs),
            "ratio");
        add("service.transport_share",
            ratio(service.latencyMs - service.queueMs - service.runMs,
                  service.latencyMs),
            "ratio");
        add("service.executor_busy_frac",
            ratio(service.runMs,
                  1e3 * service.waveSeconds * kServiceExecutors),
            "ratio");
        add("service.synth_hit_ratio",
            ratio(static_cast<double>(service.hits),
                  static_cast<double>(service.hits + service.misses)),
            "ratio");
        add("service.jobs_rejected", static_cast<double>(service.rejected),
            "count");
        report.extra.push_back(
            {"service.queue_wait_ms", ratio(service.queueMs, jobs), "ms"});
        report.extra.push_back(
            {"service.run_ms", ratio(service.runMs, jobs), "ms"});
        report.extra.push_back(
            {"service.transport_ms",
             ratio(service.latencyMs - service.queueMs - service.runMs, jobs),
             "ms"});
        return;
    }
    report.metrics = {
        {"compile_s", median(waveSeconds), "s"},
        {"cpu_s", median(waveCpu), "s"},
        {"job_p50_ms", percentile(latenciesMs, 0.5), "ms"},
        {"job_p90_ms", percentile(latenciesMs, 0.9), "ms"},
        {"peak_rss_mb", fixedRssMb, "MB"},
        {"cnot_reduction_pct",
         ratio(reduction, static_cast<double>(fixedDone)), "%"},
        {"setup_s", median(setupSeconds), "s"},
    };
    report.extra = {
        {"waves", static_cast<double>(waveSeconds.size()), "count"},
        {"jobs_per_s", ratio(jobs, service.waveSeconds), "1/s"},
        {"job_tail_percentile",
         static_cast<double>(tailPercentile(latenciesMs.size())), "%"},
    };
}

/** The local compile workloads run no service. BENCHMARK.json lists
 *  one per-layer metric set for every workload, so their service layer
 *  reads zero. */
void
addIdleServiceLayer(Report &report)
{
    for (const char *name :
         {"service.queue_share", "service.run_share",
          "service.transport_share", "service.executor_busy_frac",
          "service.synth_hit_ratio"})
        report.metrics.push_back({name, 0.0, "ratio"});
    report.metrics.push_back({"service.jobs_rejected", 0.0, "count"});
}

// ---- output -------------------------------------------------------------

void
writeMetrics(obs::JsonWriter &json, const std::vector<Metric> &metrics)
{
    json.beginObject();
    for (const Metric &m : metrics) {
        json.key(m.name).beginObject();
        json.key("value").value(std::isfinite(m.value) ? m.value : 0.0);
        json.key("unit").value(m.unit);
        json.endObject();
    }
    json.endObject();
}

void
writeRecord(const std::string &path, const std::string &workload,
            uint64_t seed, double seconds, bool trace, bool correct,
            const Report &report)
{
    std::ofstream out(path);
    if (!out)
        throw std::runtime_error("cannot write " + path);
    obs::JsonWriter json(out);
    json.beginObject();
    json.key("schema").value("quest-perf-v1");
    json.key("workload").value(workload);
    json.key("seed").value(seed);
    json.key("seconds").value(seconds);
    json.key("trace").value(trace);
    json.key("threads").value(ThreadPool::hardwareConcurrency());
    json.key("correct").value(correct);
    json.key("attempted").value(report.attempted);
    json.key("failed").value(static_cast<uint64_t>(report.failures.size()));
    json.key("metrics");
    writeMetrics(json, report.metrics);
    json.key("extra");
    writeMetrics(json, report.extra);
    json.key("jobs").beginArray();
    for (const Report::Row &row : report.rows) {
        json.beginObject();
        json.key("name").value(row.name);
        json.key("compiles").value(static_cast<uint64_t>(row.compiles));
        json.key("median_s").value(row.medianSeconds);
        json.key("traced_median_s").value(row.tracedMedianSeconds);
        json.key("digest").value(row.digest);
        json.endObject();
    }
    json.endArray();
    json.key("failures").beginArray();
    for (const std::string &f : report.failures)
        json.value(f);
    json.endArray();
    json.endObject();
    out << "\n";
}

int
usage(const std::string &why)
{
    std::cerr << "quest_perf: " << why << "\n"
              << "usage: quest_perf --workload <cold_small|cold_large|"
                 "service_mix> [--seed n] [--seconds s]\n"
                 "                  [--trace 0|1] [--workdir dir] "
                 "[--json file] [--chrome-trace file]\n";
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string workload, jsonPath, chromePath;
    uint64_t seed = kDefaultSeed;
    double seconds = 10;
    bool trace = false;
    fs::path workdir = ".bench_build/quest_perf/work";
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (i + 1 >= argc)
            return usage("missing value for " + arg);
        const std::string value = argv[++i];
        try {
            if (arg == "--workload")
                workload = value;
            else if (arg == "--seed")
                seed = std::stoull(value);
            else if (arg == "--seconds")
                seconds = std::stod(value);
            else if (arg == "--trace" && (value == "0" || value == "1"))
                trace = value == "1";
            else if (arg == "--workdir")
                workdir = value;
            else if (arg == "--json")
                jsonPath = value;
            else if (arg == "--chrome-trace")
                chromePath = value;
            else
                return usage("bad argument " + arg + " " + value);
        } catch (const std::exception &) {
            return usage("bad value for " + arg + ": " + value);
        }
    }
    const bool service = workload == "service_mix";
    if (!service && workload != "cold_small" && workload != "cold_large")
        return usage("unknown workload '" + workload + "'");
    if (!(seconds > 0))
        return usage("--seconds must be positive");

    const fs::path dir =
        workdir / detail::concat(workload, "-", static_cast<long>(getpid()));
    fs::remove_all(dir);
    fs::create_directories(dir);

    Report report;
    TraceTotals totals;
    try {
        if (service) {
            runServiceWorkload(seed, seconds, trace, dir, totals, report);
        } else {
            runCompileWorkload(workload, seed, seconds, trace, dir, totals,
                               report);
            if (trace)
                addIdleServiceLayer(report);
        }
    } catch (const std::exception &e) {
        report.fail(workload, e.what());
    }
    std::error_code ec;
    fs::remove_all(dir, ec);
    if (seed == kDefaultSeed)
        checkGolden(workload, report.rows, report);

    const bool correct = report.failures.empty() && report.attempted > 0;
    for (const Metric &m : report.metrics)
        std::cout << m.name << " " << m.value << " " << m.unit << "\n";
    if (!jsonPath.empty())
        writeRecord(jsonPath, workload, seed, seconds, trace, correct, report);
    if (!chromePath.empty()) {
        std::ofstream out(chromePath);
        obs::writeChromeTrace(out, totals.events);
    }

    std::ostringstream line;
    obs::JsonWriter json(line);
    json.beginObject();
    json.key("correct").value(correct);
    json.key("attempted").value(std::max<uint64_t>(report.attempted, 1));
    json.key("failed").value(static_cast<uint64_t>(report.failures.size()));
    json.key("metrics");
    writeMetrics(json, report.metrics);
    json.endObject();
    std::cout << line.str() << std::endl;
    return correct ? 0 : 1;
}
