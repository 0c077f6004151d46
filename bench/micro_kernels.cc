/**
 * @file
 * google-benchmark micro-benchmarks of the hot kernels behind the
 * QUEST pipeline: statevector gate application, HS distance, dense
 * unitary builds (serial, pooled and block-sized), gradient
 * evaluation and its one-lane trace and row kernels, instantiation,
 * annealing steps and whole STEP-3 selection runs; and the warm path
 * of a cache hit: structural verification, QASM writing and a whole
 * synthesize() served from a QSC1 directory.
 *
 * Besides the google-benchmark suite, main() measures instantiation
 * throughput directly and archives it as BENCH_instantiation.json
 * (via bench_common's writeBenchJson) so CI keeps machine-readable
 * records of the hot-path numbers next to the figure harnesses.
 */

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <string>

#include "algos/algorithms.hh"
#include "anneal/dual_annealing.hh"
#include "bench_common.hh"
#include "cache/synthesis_cache.hh"
#include "ir/lower.hh"
#include "ir/qasm.hh"
#include "linalg/distance.hh"
#include "partition/scan_partitioner.hh"
#include "quest/objective.hh"
#include "quest/pipeline.hh"
#include "resilience/thread_pool.hh"
#include "service/job.hh"
#include "sim/statevector.hh"
#include "sim/unitary_builder.hh"
#include "synth/hs_cost.hh"
#include "synth/instantiater.hh"
#include "synth/lane/lane_kernels.hh"
#include "synth/lbfgs.hh"
#include "util/rng.hh"
#include "util/table.hh"
#include "util/vector_ops.hh"
#include "verify/verifier.hh"

namespace {

using namespace quest;

/** A ring-entangled test ansatz over n qubits. */
Ansatz
benchAnsatz(int n, int layers)
{
    Ansatz a = Ansatz::initialLayer(n);
    for (int l = 0; l < layers; ++l)
        a.addLayer(l % n, (l + 1) % n);
    return a;
}

void
BM_StateVectorCx(benchmark::State &state)
{
    const int n = static_cast<int>(state.range(0));
    StateVector sv(n);
    sv.applyGate(Gate::h(0));
    for (auto _ : state) {
        sv.applyGate(Gate::cx(0, n - 1));
        benchmark::DoNotOptimize(sv.amplitudes().data());
    }
}
BENCHMARK(BM_StateVectorCx)->Arg(4)->Arg(8)->Arg(12)->Arg(16);

void
BM_StateVectorU3(benchmark::State &state)
{
    const int n = static_cast<int>(state.range(0));
    StateVector sv(n);
    Gate g = Gate::u3(n / 2, 0.3, 0.2, -0.4);
    for (auto _ : state) {
        sv.applyGate(g);
        benchmark::DoNotOptimize(sv.amplitudes().data());
    }
}
BENCHMARK(BM_StateVectorU3)->Arg(4)->Arg(8)->Arg(12)->Arg(16);

void
BM_CircuitSimulation(benchmark::State &state)
{
    const int steps = static_cast<int>(state.range(0));
    Circuit c = lowerToNative(algos::tfim(8, steps));
    for (auto _ : state) {
        StateVector sv(8);
        sv.applyCircuit(c);
        benchmark::DoNotOptimize(sv.amplitudes().data());
    }
}
BENCHMARK(BM_CircuitSimulation)->Arg(1)->Arg(4)->Arg(16);

void
BM_HsDistance(benchmark::State &state)
{
    const int n = static_cast<int>(state.range(0));
    Matrix u = buildUnitary(lowerToNative(algos::tfim(n, 1)));
    Matrix v = buildUnitary(lowerToNative(algos::tfim(n, 2)));
    for (auto _ : state)
        benchmark::DoNotOptimize(hsDistance(u, v));
}
BENCHMARK(BM_HsDistance)->Arg(2)->Arg(4)->Arg(6);

void
BM_BuildUnitary(benchmark::State &state)
{
    const int n = static_cast<int>(state.range(0));
    Circuit c = lowerToNative(algos::tfim(n, 2));
    for (auto _ : state)
        benchmark::DoNotOptimize(buildUnitary(c));
}
BENCHMARK(BM_BuildUnitary)->Arg(2)->Arg(4)->Arg(6)->Arg(8)->Arg(10);

/** The pooled overload: column slabs on a pool of 3 workers (4
 *  threads with the caller). */
void
BM_BuildUnitaryPool(benchmark::State &state)
{
    const int n = static_cast<int>(state.range(0));
    Circuit c = lowerToNative(algos::tfim(n, 2));
    ThreadPool pool(3);
    for (auto _ : state)
        benchmark::DoNotOptimize(buildUnitary(c, &pool));
}
BENCHMARK(BM_BuildUnitaryPool)->Arg(8)->Arg(10)->UseRealTime();

/** Block unitaries, at the partitioner's block widths. */
void
BM_CircuitUnitary(benchmark::State &state)
{
    const int n = static_cast<int>(state.range(0));
    Circuit c = lowerToNative(algos::tfim(n, 2));
    for (auto _ : state)
        benchmark::DoNotOptimize(circuitUnitary(c));
}
BENCHMARK(BM_CircuitUnitary)->Arg(3)->Arg(4);

void
BM_CostGradient(benchmark::State &state)
{
    const int layers = static_cast<int>(state.range(0));
    Matrix target = buildUnitary(lowerToNative(algos::tfim(4, 2)));
    Ansatz a = Ansatz::initialLayer(4);
    for (int l = 0; l < layers; ++l)
        a.addLayer(l % 3, l % 3 + 1);
    HsCost cost(target, a);
    Rng rng(1);
    std::vector<double> x(a.paramCount());
    for (double &v : x)
        v = rng.uniform(-3.0, 3.0);
    std::vector<double> grad;
    for (auto _ : state)
        benchmark::DoNotOptimize(cost.evaluate(x, grad));
}
BENCHMARK(BM_CostGradient)->Arg(2)->Arg(6)->Arg(12);

void
BM_HsEvalGrad(benchmark::State &state)
{
    const int n = static_cast<int>(state.range(0));
    Ansatz a = benchAnsatz(n, 2 * n);
    Matrix target = buildUnitary(lowerToNative(algos::tfim(n, 2)));
    HsCost cost(target, a);
    Rng rng(3);
    std::vector<double> x(a.paramCount());
    for (double &v : x)
        v = rng.uniform(-3.0, 3.0);
    std::vector<double> grad;
    for (auto _ : state)
        benchmark::DoNotOptimize(cost.evaluate(x, grad));
}
BENCHMARK(BM_HsEvalGrad)->Arg(2)->Arg(3)->Arg(4);

/**
 * A random dim x dim matrix pair as the split re/im planes HsCost
 * keeps (64-byte-aligned bases): the one-lane kernel rows' operands.
 */
struct LanePlanes
{
    explicit LanePlanes(size_t dim)
    {
        Rng rng(11);
        for (size_t i = 0; i < 4; ++i) {
            simd::fitAligned(buf[i], plane[i], dim * dim);
            for (size_t e = 0; e < dim * dim; ++e)
                plane[i][e] = rng.uniform(-1.0, 1.0);
        }
    }
    std::vector<double> buf[4];
    double *plane[4] = {};
};

/** One backward-pass trace contraction at the active ISA. */
void
BM_OneLaneReduceTraceT(benchmark::State &state)
{
    const size_t dim = static_cast<size_t>(state.range(0));
    const auto &k = kern::lane::oneLaneKernelsFor(dim);
    LanePlanes m(dim);
    double w2[8];
    for (auto _ : state) {
        k.reduceTraceT(dim, m.plane[0], m.plane[1], m.plane[2],
                       m.plane[3], 1, w2);
        benchmark::DoNotOptimize(w2);
        benchmark::ClobberMemory();
    }
}
BENCHMARK(BM_OneLaneReduceTraceT)->Arg(8)->Arg(16);

/** The in-place row update it is paired with, at the active ISA. */
void
BM_OneLaneLeftU3(benchmark::State &state)
{
    const size_t dim = static_cast<size_t>(state.range(0));
    const auto &k = kern::lane::oneLaneKernelsFor(dim);
    LanePlanes m(dim);
    // A real rotation: unitary, so repeated application stays bounded.
    const double c = std::cos(0.3), s = std::sin(0.3);
    const double g[8] = {c, 0.0, -s, 0.0, s, 0.0, c, 0.0};
    for (auto _ : state) {
        k.leftU3(dim, m.plane[0], m.plane[1], m.plane[0], m.plane[1], g, 1);
        benchmark::DoNotOptimize(m.plane[0]);
        benchmark::ClobberMemory();
    }
}
BENCHMARK(BM_OneLaneLeftU3)->Arg(8)->Arg(16);

void
BM_Instantiation(benchmark::State &state)
{
    Matrix target = buildUnitary(lowerToNative(algos::tfim(3, 1)));
    Ansatz a = Ansatz::initialLayer(3);
    a.addLayer(0, 1);
    a.addLayer(1, 2);
    InstantiaterOptions opts;
    opts.multistarts = 1;
    opts.lbfgs.maxIterations = 100;
    Rng rng(7);
    for (auto _ : state)
        benchmark::DoNotOptimize(instantiate(target, a, rng, opts));
}
BENCHMARK(BM_Instantiation);

/**
 * The instantiation hot loop with a deadline armed but never firing —
 * against BM_Instantiation, the cost of the resilience plumbing on
 * bounded runs (the unbounded case adds only two branches per L-BFGS
 * iteration; the acceptance bar is <1% either way).
 */
void
BM_InstantiationArmedBudget(benchmark::State &state)
{
    Matrix target = buildUnitary(lowerToNative(algos::tfim(3, 1)));
    Ansatz a = Ansatz::initialLayer(3);
    a.addLayer(0, 1);
    a.addLayer(1, 2);
    resilience::CancelToken token;
    InstantiaterOptions opts;
    opts.multistarts = 1;
    opts.lbfgs.maxIterations = 100;
    opts.budget = resilience::Budget(
        resilience::Deadline::after(86400.0), &token);
    Rng rng(7);
    for (auto _ : state)
        benchmark::DoNotOptimize(instantiate(target, a, rng, opts));
}
BENCHMARK(BM_InstantiationArmedBudget);

/**
 * One L-BFGS run with an O(n) objective (the extended Rosenbrock
 * function), so the time is the optimizer's own bookkeeping: the
 * two-loop recursion over its history, the history updates and the
 * line search, at instantiation-sized parameter counts.
 */
void
BM_LbfgsMinimize(benchmark::State &state)
{
    const size_t n = static_cast<size_t>(state.range(0));
    std::vector<double> x0(n);
    for (size_t i = 0; i < n; ++i)
        x0[i] = i % 2 == 0 ? -1.2 : 1.0;
    const GradObjective rosenbrock = [](const std::vector<double> &x,
                                        std::vector<double> *g) {
        double v = 0.0;
        g->assign(x.size(), 0.0);
        for (size_t i = 0; i + 1 < x.size(); ++i) {
            const double a = x[i + 1] - x[i] * x[i], b = 1.0 - x[i];
            v += 100.0 * a * a + b * b;
            (*g)[i] += -400.0 * x[i] * a - 2.0 * b;
            (*g)[i + 1] += 200.0 * a;
        }
        return v;
    };
    LbfgsOptions opts;
    opts.maxIterations = 100;
    for (auto _ : state)
        benchmark::DoNotOptimize(lbfgsMinimize(rosenbrock, x0, opts));
}
BENCHMARK(BM_LbfgsMinimize)->Arg(24)->Arg(96);

/** The raw cost of one budget poll, unbounded vs armed. */
void
BM_BudgetPoll(benchmark::State &state)
{
    resilience::CancelToken token;
    const resilience::Budget budget =
        state.range(0) == 0
            ? resilience::Budget()
            : resilience::Budget(resilience::Deadline::after(86400.0),
                                 &token);
    for (auto _ : state)
        benchmark::DoNotOptimize(budget.exhausted());
}
BENCHMARK(BM_BudgetPoll)->Arg(0)->Arg(1);

void
BM_DualAnnealingStep(benchmark::State &state)
{
    AnnealObjective f = [](const std::vector<double> &x) {
        double v = 0.0;
        for (double xi : x)
            v += (xi - 0.4) * (xi - 0.4);
        return v;
    };
    AnnealOptions opts;
    opts.maxIterations = 100;
    opts.localSearch = false;
    std::vector<double> lo(8, 0.0), hi(8, 1.0);
    for (auto _ : state)
        benchmark::DoNotOptimize(dualAnnealing(f, lo, hi, opts));
}
BENCHMARK(BM_DualAnnealingStep);

/**
 * One whole STEP-3 dualAnnealing run, chain and polish, over a
 * synthetic SelectionObjective with tfim_128-like tables: 6, 7, 13 or
 * 24 approximations a block (index 0 the original) and 3 selected
 * samples. Arg: block count (1 and 4 as in the service's repeat
 * circuits, 87 as in qaoa_64, 475 as in tfim_128).
 */
void
BM_AnnealSelection(benchmark::State &state)
{
    const size_t blocks = static_cast<size_t>(state.range(0));
    constexpr uint32_t kCounts[] = {6, 7, 13, 24};
    Rng rng(128);
    QuestResult result;
    for (size_t b = 0; b < blocks; ++b) {
        const uint32_t count = kCounts[rng.uniformInt(4)];
        std::vector<BlockApprox> list(count);
        list[0].cnotCount = 6;
        for (uint32_t k = 1; k < count; ++k) {
            list[k].cnotCount = static_cast<int>(rng.uniformInt(6));
            list[k].distance = rng.uniform(0.0, 0.05);
        }
        std::vector<char> similar(count * count, 0);
        for (uint32_t i = 0; i < count; ++i) {
            similar[i * count + i] = 1;
            for (uint32_t j = i + 1; j < count; ++j) {
                const char s = rng.uniform() < 0.3 ? 1 : 0;
                similar[i * count + j] = s;
                similar[j * count + i] = s;
            }
        }
        result.originalCnots += 6;
        result.blockApprox.push_back(std::move(list));
        result.blockSimilar.push_back(std::move(similar));
    }
    result.threshold = 0.01 * static_cast<double>(blocks);
    std::vector<std::vector<int>> selected(3, std::vector<int>(blocks, 0));
    for (auto &choice : selected)
        for (size_t b = 0; b < blocks; ++b)
            if (rng.uniform() < 0.3)
                choice[b] = static_cast<int>(rng.uniformInt(
                    static_cast<uint32_t>(result.blockApprox[b].size())));

    SelectionObjective objective(result, selected, result.threshold, 0.5);
    const std::vector<double> lo(blocks, 0.0), hi(blocks, 1.0);
    AnnealOptions opts;
    opts.initial = std::vector<double>(blocks, 0.0);
    for (auto _ : state)
        benchmark::DoNotOptimize(dualAnnealing(objective, lo, hi, opts));
}
BENCHMARK(BM_AnnealSelection)->Arg(1)->Arg(4)->Arg(87)->Arg(475)
    ->Unit(benchmark::kMillisecond);

/**
 * CircuitVerifier over a clean native circuit with the options a
 * cache hit's deep validation uses. Arg: gate count.
 */
void
BM_VerifyCircuit(benchmark::State &state)
{
    const size_t gates = static_cast<size_t>(state.range(0));
    Rng rng(17);
    Circuit c(4);
    for (size_t i = 0; i < gates; ++i) {
        const int q = static_cast<int>(rng.uniformInt(4));
        if (i % 3 == 2)
            c.append(Gate::cx(q, (q + 1) % 4));
        else
            c.append(Gate::u3(q, rng.uniform(-3.0, 3.0),
                              rng.uniform(-3.0, 3.0),
                              rng.uniform(-3.0, 3.0)));
    }
    const CircuitVerifier verifier({.requireNative = true,
                                    .allowPseudoOps = false,
                                    .maxIssues = 1});
    for (auto _ : state)
        benchmark::DoNotOptimize(verifier.verify(c).ok());
}
BENCHMARK(BM_VerifyCircuit)->Arg(64)->Arg(4096);

/**
 * toQasm of the samples of one compiled circuit, as the service
 * writes every job's result. Arg: sample count (the compile's samples
 * repeat when it yields fewer).
 */
void
BM_ToQasm(benchmark::State &state)
{
    QuestConfig cfg = service::baseCompileConfig();
    cfg.maxSamples = static_cast<int>(state.range(0));
    cfg.threads = 2;
    const QuestResult result =
        QuestPipeline(cfg).run(algos::qaoa(5, 1, 3));
    std::vector<const Circuit *> samples;
    for (size_t i = 0; i < static_cast<size_t>(state.range(0)); ++i)
        samples.push_back(
            &result.samples[i % result.samples.size()].circuit);
    for (auto _ : state)
        for (const Circuit *c : samples)
            benchmark::DoNotOptimize(toQasm(*c));
}
BENCHMARK(BM_ToQasm)->Arg(16);

/**
 * LeapSynthesizer::synthesize served from a warm QSC1 directory: the
 * cache key, the entry load and decode, and the deep validation of
 * every candidate. The target is adder_4's costliest 4-qubit block,
 * synthesized once (cold) with the shipped settings
 * (service::baseCompileConfig) to warm the directory.
 */
void
BM_SynthesizeCacheHit(benchmark::State &state)
{
    const Circuit native = lowerToNative(algos::adder(4));
    const std::vector<Block> blocks = ScanPartitioner(4).partition(
        native.withoutPseudoOps());
    const Block &block = *std::max_element(
        blocks.begin(), blocks.end(), [](const Block &a, const Block &b) {
            return a.circuit.cnotCount() < b.circuit.cnotCount();
        });
    std::vector<std::pair<int, int>> skeleton;
    for (const Gate &g : block.circuit)
        if (g.type == GateType::CX)
            skeleton.emplace_back(g.qubits[0], g.qubits[1]);
    const Matrix target = circuitUnitary(block.circuit);

    std::string dir = (std::filesystem::temp_directory_path() /
                       "quest-micro-cache-XXXXXX")
                          .string();
    if (!mkdtemp(dir.data())) {
        state.SkipWithError("mkdtemp failed");
        return;
    }
    {
        cache::SynthesisCache disk({.dir = dir});
        SynthConfig cfg = service::baseCompileConfig().synth;
        cfg.threads = 2;
        cfg.cache = &disk;
        const LeapSynthesizer synth(cfg);
        const int max_cnots = static_cast<int>(skeleton.size());
        const SynthOutput warm =
            synth.synthesize(target, max_cnots, &skeleton);
        size_t gates = 0;
        for (const SynthCandidate &c : warm.candidates)
            gates += c.circuit.size();
        state.counters["candidates"] =
            static_cast<double>(warm.candidates.size());
        state.counters["gates"] = static_cast<double>(gates);
        for (auto _ : state)
            benchmark::DoNotOptimize(
                synth.synthesize(target, max_cnots, &skeleton));
    }
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
}
BENCHMARK(BM_SynthesizeCacheHit)->Unit(benchmark::kMicrosecond);

/** Mean milliseconds per call of @p fn over @p iters calls. */
double
msPerCall(int iters, const std::function<void()> &fn)
{
    const auto t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < iters; ++i)
        fn();
    const auto t1 = std::chrono::steady_clock::now();
    return std::chrono::duration<double, std::milli>(t1 - t0).count() /
           static_cast<double>(iters);
}

/**
 * Instantiation throughput table archived as BENCH_instantiation.json:
 * gradient evaluations per second of HsCost (each row of a matrix
 * vectorized across its columns) and multistart instantiations per
 * second, 24 starts at 2-5 qubits. The 2- and 4-start rows at 3-4
 * qubits are the production call shapes (compile calls and lineage
 * calls), and instantiate_serial is a 4-start latency row.
 *
 * The n=2..4 cases run the specialized fixed-dim kernels; n=5 (dim
 * 32) exercises the generic runtime-dim kernels. Its repetition
 * counts are scaled down to keep the full run's wall time in check.
 */
Table
instantiationTable()
{
    const bool smoke = quest::bench::smokeMode();

    Table table({"case", "metric", "value"});
    for (int n = 2; n <= 5; ++n) {
        const int scale = n == 5 ? 8 : 1;
        const int evals = (smoke ? 200 : 5000) / scale;
        const int insts = std::max(1, (smoke ? 2 : 20) / scale);
        const std::string suffix = "_n" + std::to_string(n);
        Ansatz a = benchAnsatz(n, 2 * n);
        Matrix target = buildUnitary(lowerToNative(algos::tfim(n, 2)));
        HsCost cost(target, a);
        Rng rng(5);
        std::vector<double> x(a.paramCount());
        for (double &v : x)
            v = rng.uniform(-3.0, 3.0);
        std::vector<double> grad;
        cost.evaluate(x, grad);  // warm the workspace

        double ms = msPerCall(
            evals, [&] { benchmark::DoNotOptimize(cost.evaluate(x, grad)); });
        table.addRow({"hs_eval_grad" + suffix, "evals_per_s",
                      Table::num(1000.0 / ms, 1)});

        // End-to-end multistart instantiation. The goal is 0, so in
        // practice every start runs until it converges or hits its
        // iteration cap.
        InstantiaterOptions iopts;
        iopts.multistarts = 24;
        iopts.lbfgs.maxIterations = smoke ? 40 : 100;
        iopts.goal = 0.0;
        Rng brng(7);
        ms = msPerCall(insts, [&] {
            benchmark::DoNotOptimize(instantiate(target, a, brng, iopts));
        });
        table.addRow({"instantiate" + suffix, "instantiations_per_sec",
                      Table::num(1000.0 / ms, 2)});

        // The production call shapes: 2 starts per compile call, 4
        // per lineage call.
        if (n == 3 || n == 4) {
            for (int starts : {2, 4}) {
                iopts.multistarts = starts;
                const int reps = (smoke ? 4 : 240) / starts;
                ms = msPerCall(reps, [&] {
                    benchmark::DoNotOptimize(
                        instantiate(target, a, brng, iopts));
                });
                table.addRow({"instantiate_" + std::to_string(starts) +
                                  "starts" + suffix,
                              "instantiations_per_sec",
                              Table::num(1000.0 / ms, 2)});
            }
        }
    }

    const int insts = smoke ? 2 : 20;
    Matrix target = buildUnitary(lowerToNative(algos::tfim(3, 1)));
    Ansatz a = Ansatz::initialLayer(3);
    a.addLayer(0, 1);
    a.addLayer(1, 2);
    InstantiaterOptions opts;
    opts.multistarts = 4;
    opts.lbfgs.maxIterations = smoke ? 40 : 100;
    Rng rng(7);
    table.addRow({"instantiate_serial", "ms_per_call",
                  Table::num(msPerCall(insts, [&] {
                                 benchmark::DoNotOptimize(
                                     instantiate(target, a, rng, opts));
                             }),
                             3)});
    return table;
}

} // namespace

int
main(int argc, char **argv)
{
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();

    quest::bench::finishBench("instantiation", instantiationTable());
    return 0;
}
