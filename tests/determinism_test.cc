/**
 * @file
 * Determinism contract: the same configuration and seed must produce
 * byte-identical results — across repeated runs and across worker
 * thread counts. Task RNGs are split serially when the task list is
 * built and every task writes its own output slot, so the schedule
 * must not leak into the results.
 */

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <numbers>
#include <span>
#include <utility>

#include "algos/algorithms.hh"
#include "anneal/dual_annealing.hh"
#include "ir/circuit.hh"
#include "ir/qasm.hh"
#include "obs/metrics.hh"
#include "quest/objective.hh"
#include "quest/pipeline.hh"
#include "synth/instantiater.hh"
#include "util/names.hh"
#include "util/serialize.hh"

namespace quest {
namespace {

QuestConfig
tinyConfig()
{
    QuestConfig cfg;
    cfg.synth.beamWidth = 1;
    cfg.synth.inst.multistarts = 1;
    cfg.synth.inst.lbfgs.maxIterations = 60;
    cfg.synth.maxLayers = 5;
    cfg.synth.candidatesPerLevel = 3;
    cfg.synth.stallLevels = 3;
    cfg.anneal.maxIterations = 120;
    cfg.maxSamples = 3;
    return cfg;
}

/** Exact (not approximate) equality of two pipeline results. */
void
expectIdentical(const QuestResult &a, const QuestResult &b)
{
    ASSERT_EQ(a.blocks.size(), b.blocks.size());
    ASSERT_EQ(a.blockApprox.size(), b.blockApprox.size());
    for (size_t blk = 0; blk < a.blockApprox.size(); ++blk) {
        ASSERT_EQ(a.blockApprox[blk].size(), b.blockApprox[blk].size())
            << "block " << blk;
        for (size_t k = 0; k < a.blockApprox[blk].size(); ++k) {
            // Bitwise-equal distances, not EXPECT_DOUBLE_EQ: any
            // schedule-dependent float difference is a failure.
            EXPECT_EQ(a.blockApprox[blk][k].distance,
                      b.blockApprox[blk][k].distance)
                << "block " << blk << " approx " << k;
            EXPECT_EQ(a.blockApprox[blk][k].cnotCount,
                      b.blockApprox[blk][k].cnotCount);
            EXPECT_EQ(toQasm(a.blockApprox[blk][k].circuit),
                      toQasm(b.blockApprox[blk][k].circuit));
        }
        EXPECT_EQ(a.blockSimilar[blk], b.blockSimilar[blk]);
    }

    ASSERT_EQ(a.samples.size(), b.samples.size());
    for (size_t s = 0; s < a.samples.size(); ++s) {
        EXPECT_EQ(a.samples[s].choice, b.samples[s].choice);
        EXPECT_EQ(a.samples[s].cnotCount, b.samples[s].cnotCount);
        EXPECT_EQ(a.samples[s].distanceBound,
                  b.samples[s].distanceBound);
        EXPECT_EQ(toQasm(a.samples[s].circuit),
                  toQasm(b.samples[s].circuit));
    }
    EXPECT_EQ(a.threshold, b.threshold);
    EXPECT_EQ(a.originalCnots, b.originalCnots);
}

TEST(Determinism, RepeatedRunsAreByteIdentical)
{
    QuestConfig cfg = tinyConfig();
    cfg.threads = 1;
    Circuit circuit = algos::tfim(4, 3);
    QuestResult a = QuestPipeline(cfg).run(circuit);
    QuestResult b = QuestPipeline(cfg).run(circuit);
    expectIdentical(a, b);
}

TEST(Determinism, IndependentOfThreadCount)
{
    Circuit circuit = algos::tfim(8, 2);  // multi-block
    QuestConfig serial = tinyConfig();
    serial.threads = 1;
    QuestConfig parallel = tinyConfig();
    parallel.threads = 4;
    QuestResult a = QuestPipeline(serial).run(circuit);
    QuestResult b = QuestPipeline(parallel).run(circuit);
    expectIdentical(a, b);
}

TEST(Determinism, SeedChangesTheRun)
{
    QuestConfig cfg = tinyConfig();
    cfg.threads = 1;
    QuestConfig other = cfg;
    other.seed = cfg.seed + 1;
    // The pipeline seed feeds the annealer; the synthesizer draws
    // from its own seed, so vary both.
    other.synth.seed = cfg.synth.seed + 1;
    Circuit circuit = algos::tfim(4, 3);
    QuestResult a = QuestPipeline(cfg).run(circuit);
    QuestResult b = QuestPipeline(other).run(circuit);
    // Different seeds must not be forced identical: at minimum the
    // synthesized approximation distances should differ somewhere.
    bool any_difference = false;
    for (size_t blk = 0;
         blk < std::min(a.blockApprox.size(), b.blockApprox.size());
         ++blk) {
        if (a.blockApprox[blk].size() != b.blockApprox[blk].size()) {
            any_difference = true;
            break;
        }
        for (size_t k = 0; k < a.blockApprox[blk].size(); ++k)
            any_difference |= a.blockApprox[blk][k].distance !=
                              b.blockApprox[blk][k].distance;
    }
    EXPECT_TRUE(any_difference);
}

// ---------------------------------------------------------------------
// Full-mode certify pins: each sample's measured full-circuit HS
// distance, the certificate's maximum and its sample count must not
// depend on the thread budget, which certify now spends on column
// slabs. Captured at commit 8dc52c2 (one serial builder) by running
// CertifyIndependentOfThreadCount with empty pin rows and copying the
// "%a" values its failures printed; the same at threads 1, 2 and 4.

/** Up to tinyConfig().maxSamples measured distances. */
struct CertifyPin
{
    const char *name;
    Circuit (*make)();
    int samples;
    double measured[3];
    double maxMeasured;
};

const CertifyPin kCertifyPins[] = {
    {"tfim_4", [] { return algos::tfim(4, 3); }, 1,
     {0x1.26d0bc045652p-2}, 0x1.26d0bc045652p-2},
    {"adder_4", [] { return algos::adder(4); }, 1, {0x1p-26}, 0x1p-26},
    {"tfim_7", [] { return algos::tfim(7, 2); }, 2,
     {0x1.637be5b75d0bcp-2, 0x1.63a401ebf2ad3p-2},
     0x1.63a401ebf2ad3p-2},
    {"adder_6", [] { return algos::adder(6); }, 2,
     {0x1.0ac137b4748a1p-1, 0x1.87de2a6aeab76p-2},
     0x1.0ac137b4748a1p-1},
    {"adder_8", [] { return algos::adder(8); }, 3,
     {0x1.0ac137b47481bp-1, 0x1.0ac137b474ca5p-1, 0x1.87de2a6aeacd4p-2},
     0x1.0ac137b474ca5p-1},
};
std::string
hexFloat(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%a", v);
    return buf;
}

TEST(Determinism, CertifyIndependentOfThreadCount)
{
    for (const CertifyPin &pin : kCertifyPins) {
        const Circuit circuit = pin.make();
        for (unsigned threads : {1u, 2u, 4u}) {
            QuestConfig cfg = tinyConfig();
            cfg.threads = threads;
            ASSERT_EQ(cfg.selectionMode, SelectionMode::Full);
            const QuestResult r = QuestPipeline(cfg).run(circuit);
            const BoundCertificate &cert = r.certificate;
            EXPECT_EQ(cert.measuredSamples, pin.samples)
                << pin.name << " at " << threads << " threads";
            for (size_t s = 0; s < r.samples.size() && s < 3; ++s) {
                EXPECT_EQ(r.samples[s].measuredDistance, pin.measured[s])
                    << pin.name << " sample " << s << " at " << threads
                    << " threads: " << hexFloat(r.samples[s].measuredDistance);
            }
            EXPECT_EQ(cert.maxMeasured, pin.maxMeasured)
                << pin.name << " at " << threads
                << " threads: " << hexFloat(cert.maxMeasured);
        }
    }
}

// ---------------------------------------------------------------------
// Golden instantiate() pins. Every multistart call runs its starts
// one after another on one HsCost; these rows pin its results, bit
// for bit. They were captured from the one-start-at-a-time scalar
// engine (InstantiaterEngine::Scalar, no pool) at commit cf04da3 by
// looping over kPinWidths, multistarts {1, 2, 4, 11} and goals
// {kReachableGoal, kUnreachableGoal} exactly as runPin() does below,
// printing the distance with printf("%a") and fnv1a64 over the
// params' bytes with printf("0x%016llx"). The test names keep the
// name of the batched engine that once served these calls.

/** One width's ansatz, iteration cap and instantiate() seed. The
 *  cap and seed are chosen so the first start misses the goal and a
 *  later one reaches it: the early stop then skips every start past
 *  a nonzero index. */
struct PinWidth
{
    int qubits;
    int maxIterations;
    uint64_t seed;
};

constexpr PinWidth kPinWidths[] = {
    {2, 40, 42}, {3, 40, 44}, {4, 200, 47}, {5, 80, 48}};

constexpr double kReachableGoal = 1e-10;
constexpr double kUnreachableGoal = -1.0;  //!< below any HS cost

struct InstantiatePin
{
    int qubits;
    int multistarts;
    double distance;
    uint64_t paramsHash;
};

constexpr InstantiatePin kReachablePins[] = {
    {2, 1, 0x1.7bccf199ef559p-7, 0xb77ac4969e847346ull},
    {2, 2, 0x1.7bccf199ef559p-7, 0xb77ac4969e847346ull},
    {2, 4, 0x1.4e7d5a6c62f4ep-9, 0x80b78f69b8f409abull},
    {2, 11, 0x1.d8bec3c150194p-22, 0x956da0158deffd9dull},
    {3, 1, 0x1.faf4c92f86664p-13, 0x674f134dfc85262dull},
    {3, 2, 0x1.faf4c92f86664p-13, 0x674f134dfc85262dull},
    {3, 4, 0x1.faf4c92f86664p-13, 0x674f134dfc85262dull},
    {3, 11, 0x1.0867ad94c80ap-17, 0xd6f86e6be938dd60ull},
    {4, 1, 0x1.f64a2917f0149p-7, 0xab7eadb784fcf60full},
    {4, 2, 0x1.f261a21fcdfp-20, 0xa98e13cd32c7f1aaull},
    {4, 4, 0x1.f261a21fcdfp-20, 0xa98e13cd32c7f1aaull},
    {4, 11, 0x1.f261a21fcdfp-20, 0xa98e13cd32c7f1aaull},
    {5, 1, 0x1.ffc23d4d3e85ap-1, 0x3a0f4c3e64c88c29ull},
    {5, 2, 0x1.fa9a3ebfacdf2p-1, 0x2e93429af8c413a3ull},
    {5, 4, 0x1.fa9a3ebfacdf2p-1, 0x2e93429af8c413a3ull},
    {5, 11, 0x1.16dad43bc9c5ap-20, 0x887d4b3913f6df04ull},
};

constexpr InstantiatePin kUnreachablePins[] = {
    {2, 1, 0x1.7bccf199ef559p-7, 0xb77ac4969e847346ull},
    {2, 2, 0x1.7bccf199ef559p-7, 0xb77ac4969e847346ull},
    {2, 4, 0x1.4e7d5a6c62f4ep-9, 0x80b78f69b8f409abull},
    {2, 11, 0x1.d8bec3c150194p-22, 0x956da0158deffd9dull},
    {3, 1, 0x1.faf4c92f86664p-13, 0x674f134dfc85262dull},
    {3, 2, 0x1.faf4c92f86664p-13, 0x674f134dfc85262dull},
    {3, 4, 0x1.faf4c92f86664p-13, 0x674f134dfc85262dull},
    {3, 11, 0x1.0867ad94c80ap-17, 0xd6f86e6be938dd60ull},
    {4, 1, 0x1.f64a2917f0149p-7, 0xab7eadb784fcf60full},
    {4, 2, 0x1.f261a21fcdfp-20, 0xa98e13cd32c7f1aaull},
    {4, 4, 0x1.08e853f43b0dfp-21, 0x94dda7a48bbf0863ull},
    {4, 11, 0x1.6954b41cd4293p-23, 0x53e8f743da9f87ecull},
    {5, 1, 0x1.ffc23d4d3e85ap-1, 0x3a0f4c3e64c88c29ull},
    {5, 2, 0x1.fa9a3ebfacdf2p-1, 0x2e93429af8c413a3ull},
    {5, 4, 0x1.fa9a3ebfacdf2p-1, 0x2e93429af8c413a3ull},
    {5, 11, 0x1.16dad43bc9c5ap-20, 0x887d4b3913f6df04ull},
};

/** instantiate() for one pin row: a chain ansatz plus a closing
 *  (1, 0) layer, against its own unitary at Rng(21) angles. */
InstantiationResult
runPin(const PinWidth &width, int multistarts, double goal)
{
    constexpr double pi = std::numbers::pi;
    Ansatz a = Ansatz::initialLayer(width.qubits);
    for (int q = 0; q + 1 < width.qubits; ++q)
        a.addLayer(q, q + 1);
    a.addLayer(1, 0);
    Rng truth_rng(21);
    std::vector<double> truth(static_cast<size_t>(a.paramCount()));
    for (double &v : truth)
        v = truth_rng.uniform(-pi, pi);
    const Matrix target = circuitUnitary(a.instantiate(truth));

    InstantiaterOptions opts;
    opts.multistarts = multistarts;
    opts.lbfgs.maxIterations = width.maxIterations;
    opts.goal = goal;
    Rng rng(width.seed);
    return instantiate(target, a, rng, opts);
}

void
expectPins(std::span<const InstantiatePin> pins, double goal)
{
    for (const InstantiatePin &pin : pins) {
        const PinWidth *width = nullptr;
        for (const PinWidth &w : kPinWidths) {
            if (w.qubits == pin.qubits)
                width = &w;
        }
        ASSERT_NE(width, nullptr);
        const InstantiationResult r = runPin(*width, pin.multistarts, goal);
        EXPECT_EQ(r.distance, pin.distance)
            << pin.qubits << " qubits, " << pin.multistarts << " starts";
        EXPECT_EQ(fnv1a64(r.params.data(), r.params.size() * sizeof(double)),
                  pin.paramsHash)
            << pin.qubits << " qubits, " << pin.multistarts << " starts";
    }
}

TEST(Determinism, BatchedEngineMatchesScalarSerialWithEarlyStop)
{
    // The first start to reach the goal ends the call: no later
    // start launches.
    expectPins(kReachablePins, kReachableGoal);
}

TEST(Determinism, BatchedEngineMatchesScalarSerialAcrossLaneRefills)
{
    // No start can reach the goal, so every start runs.
    expectPins(kUnreachablePins, kUnreachableGoal);
}

TEST(Determinism, InstantiateLaunchesNoStartPastTheFirstToReachTheGoal)
{
    // At 4 qubits start 0 misses the reachable goal and start 1
    // reaches it (the {4, 1} and {4, 2} pins), so an 11-start call
    // launches two starts and finishes two L-BFGS runs. Under the
    // unreachable goal it runs all 11.
    auto &registry = obs::MetricsRegistry::global();
    obs::Counter &starts = registry.counter(names::kMetricSynthMultistarts);
    obs::Counter &runs = registry.counter(names::kMetricLbfgsCalls);
    for (const auto &[goal, expected] :
         {std::pair{kReachableGoal, uint64_t{2}},
          std::pair{kUnreachableGoal, uint64_t{11}}}) {
        const uint64_t starts_before = starts.value();
        const uint64_t runs_before = runs.value();
        runPin(kPinWidths[2], 11, goal);
        EXPECT_EQ(starts.value() - starts_before, expected)
            << "goal " << goal;
        EXPECT_EQ(runs.value() - runs_before, expected) << "goal " << goal;
    }
}

TEST(Determinism, DualAnnealingSameSeed)
{
    AnnealObjective objective = [](const std::vector<double> &x) {
        double f = 0.0;
        for (size_t i = 0; i < x.size(); ++i)
            f += (x[i] - 0.3 * static_cast<double>(i + 1)) *
                 (x[i] - 0.3 * static_cast<double>(i + 1));
        return std::cos(3.0 * x[0]) + f;
    };
    const std::vector<double> lo(3, -2.0), hi(3, 2.0);
    AnnealOptions options;
    options.maxIterations = 500;
    options.seed = 12345;

    AnnealResult a = dualAnnealing(objective, lo, hi, options);
    AnnealResult b = dualAnnealing(objective, lo, hi, options);
    EXPECT_EQ(a.value, b.value);
    EXPECT_EQ(a.x, b.x);
    EXPECT_EQ(a.evaluations, b.evaluations);
}

// ---------------------------------------------------------------------
// Dual-annealing trajectory pins: the result point, its value, the
// evaluation count and the anneal.* counter deltas of fixed runs on
// three objectives. Captured at commit 751f087 (every polish probe a
// full evaluation, visiting factors per coordinate, fmod wrap) by
// running these tests with zeroed rows and copying what their
// failures printed.

constexpr const char *kAnnealCounterNames[] = {
    names::kMetricAnnealRuns,         names::kMetricAnnealSteps,
    names::kMetricAnnealAcceptances,  names::kMetricAnnealRestarts,
    names::kMetricAnnealEvaluations,  names::kMetricAnnealNanObjectives,
};
using AnnealCounts = std::array<uint64_t, std::size(kAnnealCounterNames)>;

AnnealCounts
annealCounts()
{
    AnnealCounts counts{};
    for (size_t i = 0; i < counts.size(); ++i)
        counts[i] = obs::MetricsRegistry::global()
                        .counter(kAnnealCounterNames[i])
                        .value();
    return counts;
}

struct AnnealPin
{
    const char *name;
    uint64_t xHash;      //!< fnv1a64 over result.x's bytes
    double value;
    int evaluations;
    AnnealCounts counts; //!< deltas, in kAnnealCounterNames order
};

template <class Objective>
void
expectAnnealPin(const AnnealPin &pin, Objective &objective,
                const std::vector<double> &lo,
                const std::vector<double> &hi, const AnnealOptions &options)
{
    const AnnealCounts before = annealCounts();
    const AnnealResult r = dualAnnealing(objective, lo, hi, options);
    const AnnealCounts after = annealCounts();
    AnnealCounts delta{};
    for (size_t i = 0; i < delta.size(); ++i)
        delta[i] = after[i] - before[i];

    const uint64_t hash = fnv1a64(r.x.data(), r.x.size() * sizeof(double));
    char hash_text[32];
    std::snprintf(hash_text, sizeof hash_text, "0x%016llx",
                  static_cast<unsigned long long>(hash));
    EXPECT_EQ(hash, pin.xHash) << pin.name << ": " << hash_text;
    EXPECT_EQ(r.value, pin.value) << pin.name << ": " << hexFloat(r.value);
    EXPECT_EQ(r.evaluations, pin.evaluations) << pin.name;
    for (size_t i = 0; i < delta.size(); ++i)
        EXPECT_EQ(delta[i], pin.counts[i])
            << pin.name << ": " << kAnnealCounterNames[i];
}

TEST(Determinism, DualAnnealingUnitBoxPiecewisePin)
{
    // A staircase over [0, 1)^40 with a NaN cell on coordinate 0: the
    // unit-range wrap, the grid polish and the non-finite clamp.
    AnnealObjective objective = [](const std::vector<double> &x) {
        if (std::floor(x[0] * 5.0) == 3.0)
            return std::numeric_limits<double>::quiet_NaN();
        double f = 0.0;
        for (size_t i = 0; i < x.size(); ++i) {
            const double levels = static_cast<double>(3 + i % 7);
            const double cell = std::floor(x[i] * levels);
            f += std::abs(cell - static_cast<double>(i % 3)) *
                 (1.0 + 0.125 * static_cast<double>(i % 5));
        }
        return f;
    };
    const std::vector<double> lo(40, 0.0), hi(40, 1.0);
    AnnealOptions options;
    options.seed = 7;
    expectAnnealPin({"unit_box_piecewise", 0x3ed52c4e33210b4cull, 0x0p+0,
                     1881, {1, 600, 111, 0, 1881, 64}},
                    objective, lo, hi, options);
}

TEST(Determinism, DualAnnealingOffsetBoxContinuousPin)
{
    // A shifted, rippled bowl over [-2.5, 1.5]^6: the fmod wrap of a
    // non-unit range, two re-anneals and the polish of a continuous
    // objective.
    AnnealObjective objective = [](const std::vector<double> &x) {
        double f = 0.0;
        for (size_t i = 0; i < x.size(); ++i) {
            const double c = 0.4 * static_cast<double>(i) - 1.3;
            f += (x[i] - c) * (x[i] - c) + 0.5 * (1.0 - std::cos(3.0 * x[i]));
        }
        return f;
    };
    const std::vector<double> lo(6, -2.5), hi(6, 1.5);
    AnnealOptions options;
    options.maxIterations = 2600;
    options.seed = 99;
    expectAnnealPin({"offset_box_continuous", 0x55efd5efa51a1d63ull,
                     0x1.8e429434e7cdcp+0, 2697, {1, 2600, 205, 2, 2697, 0}},
                    objective, lo, hi, options);
}

/** A 200-block STEP-3 state with tfim-like tables: 6, 7, 13 or 24
 *  approximations a block, index 0 the original (distance 0, the
 *  most CNOTs), random similarity. */
QuestResult
syntheticSelectionState()
{
    constexpr size_t kBlocks = 200;
    constexpr uint32_t kCounts[] = {6, 7, 13, 24};
    Rng rng(2024);
    QuestResult r;
    for (size_t b = 0; b < kBlocks; ++b) {
        const uint32_t count = kCounts[rng.uniformInt(4)];
        std::vector<BlockApprox> list(count);
        list[0].cnotCount = 6;
        for (uint32_t k = 1; k < count; ++k) {
            list[k].cnotCount = static_cast<int>(rng.uniformInt(6));
            list[k].distance = rng.uniform(0.0, 0.01);
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
        r.originalCnots += 6;
        r.blockApprox.push_back(std::move(list));
        r.blockSimilar.push_back(std::move(similar));
    }
    r.threshold = 0.1;
    return r;
}

TEST(Determinism, DualAnnealingSelectionObjectivePins)
{
    const QuestResult state = syntheticSelectionState();
    const size_t blocks = state.blockApprox.size();
    // Earlier samples: mostly the original, a few random cells.
    Rng rng(77);
    std::vector<std::vector<int>> samples(3, std::vector<int>(blocks, 0));
    for (auto &choice : samples)
        for (size_t b = 0; b < blocks; ++b)
            if (rng.uniform() < 0.1)
                choice[b] = static_cast<int>(rng.uniformInt(
                    static_cast<uint32_t>(state.blockApprox[b].size())));

    const AnnealPin pins[] = {
        {"selected_0", 0x4aee67577b817da0ull, 0x1.c888888888889p-1, 7001,
         {1, 600, 225, 0, 7001, 0}},
        {"selected_1", 0xd7656d37b8419337ull, 0x1.aeeeeeeeeeeefp-1, 7001,
         {1, 600, 210, 0, 7001, 0}},
        {"selected_3", 0x07dd8fe74e114e1bull, 0x1.b4b17e4b17e4cp-1, 7001,
         {1, 600, 221, 0, 7001, 0}},
    };
    const size_t counts[] = {0, 1, 3};
    const std::vector<double> lo(blocks, 0.0), hi(blocks, 1.0);
    for (size_t p = 0; p < std::size(pins); ++p) {
        const std::vector<std::vector<int>> selected(
            samples.begin(), samples.begin() + counts[p]);
        SelectionObjective objective(state, selected, state.threshold, 0.5);
        AnnealOptions options;
        options.seed = 1000 + p;
        options.initial = std::vector<double>(blocks, 0.0);
        expectAnnealPin(pins[p], objective, lo, hi, options);
    }
}

} // namespace
} // namespace quest
