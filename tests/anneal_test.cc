/**
 * @file
 * Dual-annealing minimizer tests on continuous and discrete
 * objectives (the QUEST selection objective is piecewise constant).
 */

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <numbers>
#include <thread>

#include "anneal/dual_annealing.hh"
#include "obs/metrics.hh"
#include "quest/objective.hh"
#include "selection_state.hh"
#include "util/names.hh"

namespace quest {
namespace {

constexpr double pi = std::numbers::pi;

TEST(DualAnnealing, QuadraticBowl)
{
    AnnealObjective f = [](const std::vector<double> &x) {
        double v = 0.0;
        for (double xi : x)
            v += (xi - 0.3) * (xi - 0.3);
        return v;
    };
    AnnealOptions opts;
    opts.maxIterations = 2000;
    AnnealResult r = dualAnnealing(f, {0.0, 0.0}, {1.0, 1.0}, opts);
    EXPECT_LT(r.value, 1e-2);
}

TEST(DualAnnealing, RastriginEscapesLocalMinima)
{
    AnnealObjective f = [](const std::vector<double> &x) {
        double v = 10.0 * static_cast<double>(x.size());
        for (double xi : x)
            v += xi * xi - 10.0 * std::cos(2.0 * pi * xi);
        return v;
    };
    AnnealOptions opts;
    opts.maxIterations = 4000;
    opts.seed = 5;
    AnnealResult r =
        dualAnnealing(f, {-5.12, -5.12}, {5.12, 5.12}, opts);
    // Global minimum is 0 at the origin; accept near-global.
    EXPECT_LT(r.value, 2.0);
}

TEST(DualAnnealing, DiscreteIndexObjective)
{
    // Mimics QUEST: coordinates in [0,1) map to indices 0..9; the
    // optimum is a specific index combination.
    AnnealObjective f = [](const std::vector<double> &x) {
        int i0 = std::min(9, static_cast<int>(x[0] * 10));
        int i1 = std::min(9, static_cast<int>(x[1] * 10));
        return std::abs(i0 - 7) + std::abs(i1 - 2);
    };
    AnnealOptions opts;
    opts.maxIterations = 1500;
    AnnealResult r = dualAnnealing(f, {0.0, 0.0}, {1.0, 1.0}, opts);
    EXPECT_EQ(r.value, 0.0);
}

TEST(DualAnnealing, LocalSearchPolishesPlateaus)
{
    // Piecewise-constant with a single narrow optimal cell: the grid
    // polish must find it even if annealing only lands nearby.
    AnnealObjective f = [](const std::vector<double> &x) {
        int idx = std::min(15, static_cast<int>(x[0] * 16));
        return idx == 11 ? 0.0 : 1.0 + idx * 0.01;
    };
    AnnealOptions opts;
    opts.maxIterations = 200;
    opts.localSearch = true;
    AnnealResult r = dualAnnealing(f, {0.0}, {1.0}, opts);
    EXPECT_EQ(r.value, 0.0);
}

TEST(DualAnnealing, DeterministicForSeed)
{
    AnnealObjective f = [](const std::vector<double> &x) {
        return std::abs(x[0] - 0.5) + std::abs(x[1] + 0.2);
    };
    AnnealOptions opts;
    opts.maxIterations = 500;
    opts.seed = 17;
    AnnealResult a = dualAnnealing(f, {-1, -1}, {1, 1}, opts);
    AnnealResult b = dualAnnealing(f, {-1, -1}, {1, 1}, opts);
    EXPECT_EQ(a.value, b.value);
    EXPECT_EQ(a.x, b.x);
}

TEST(DualAnnealing, SeedsChangeTrajectory)
{
    AnnealObjective f = [](const std::vector<double> &x) {
        return x[0] * x[0];
    };
    AnnealOptions a_opts, b_opts;
    a_opts.maxIterations = b_opts.maxIterations = 50;
    a_opts.localSearch = b_opts.localSearch = false;
    a_opts.seed = 1;
    b_opts.seed = 2;
    AnnealResult a = dualAnnealing(f, {-10}, {10}, a_opts);
    AnnealResult b = dualAnnealing(f, {-10}, {10}, b_opts);
    EXPECT_NE(a.x[0], b.x[0]);
}

TEST(DualAnnealing, StaysInBounds)
{
    std::vector<double> lo = {-2.0, 3.0};
    std::vector<double> hi = {-1.0, 4.5};
    AnnealObjective f = [&](const std::vector<double> &x) {
        EXPECT_GE(x[0], lo[0]);
        EXPECT_LE(x[0], hi[0]);
        EXPECT_GE(x[1], lo[1]);
        EXPECT_LE(x[1], hi[1]);
        return x[0] + x[1];
    };
    AnnealOptions opts;
    opts.maxIterations = 500;
    AnnealResult r = dualAnnealing(f, lo, hi, opts);
    EXPECT_NEAR(r.value, lo[0] + lo[1], 0.3);
}

TEST(DualAnnealing, CountsEvaluations)
{
    AnnealObjective f = [](const std::vector<double> &x) {
        return x[0];
    };
    AnnealOptions opts;
    opts.maxIterations = 100;
    opts.localSearch = false;
    AnnealResult r = dualAnnealing(f, {0.0}, {1.0}, opts);
    EXPECT_GT(r.evaluations, 50);
    EXPECT_LE(r.evaluations, 150);
}

TEST(DualAnnealing, CoordinatePathMatchesFunctionPath)
{
    // The selection objective's delta-scored polish probes must walk
    // the same trajectory as full evaluations of a plain function.
    Rng rng(5);
    const QuestResult state = randomSelectionState(rng, 120);
    const size_t blocks = state.blockApprox.size();
    for (size_t num_selected : {0, 3}) {
        const auto selected = randomChoices(rng, state, num_selected);
        SelectionObjective objective(state, selected, 0.5, 0.5);
        AnnealObjective function = [&](const std::vector<double> &x) {
            return objective.scoreChoice(objective.toChoice(x));
        };
        const std::vector<double> lo(blocks, 0.0), hi(blocks, 1.0);
        AnnealOptions opts;
        opts.seed = 11;
        opts.initial = std::vector<double>(blocks, 0.0);
        const AnnealResult direct = dualAnnealing(objective, lo, hi, opts);
        const AnnealResult through = dualAnnealing(function, lo, hi, opts);
        EXPECT_EQ(direct.x, through.x);
        EXPECT_EQ(direct.value, through.value);
        EXPECT_EQ(direct.evaluations, through.evaluations);
        EXPECT_LT(direct.value, 1.0);  // found a feasible choice
    }
}

TEST(DualAnnealing, AlternatingOptionsMatchFreshThreads)
{
    // A thread keeps the schedule of the options it last ran with.
    // Runs that alternate two option sets on one thread must equal
    // runs on fresh threads bit for bit. The second set restarts
    // every few steps, so its restart entries are read too.
    Rng rng(7);
    const QuestResult state = randomSelectionState(rng, 40);
    const auto selected = randomChoices(rng, state, 2);
    const size_t blocks = state.blockApprox.size();
    const std::vector<double> lo(blocks, 0.0), hi(blocks, 1.0);
    AnnealOptions a;
    a.maxIterations = 300;
    a.seed = 3;
    AnnealOptions b;
    b.maxIterations = 200;
    b.initialTemp = 900.0;
    b.visitParam = 2.3;
    b.restartTempRatio = 0.05;
    b.seed = 4;
    const auto run = [&](const AnnealOptions &options) {
        SelectionObjective objective(state, selected, 0.5, 0.5);
        return dualAnnealing(objective, lo, hi, options);
    };
    const auto fresh = [&](const AnnealOptions &options) {
        AnnealResult r;
        std::thread([&] { r = run(options); }).join();
        return r;
    };
    const auto expectSame = [](const AnnealResult &got,
                               const AnnealResult &want) {
        ASSERT_EQ(got.x.size(), want.x.size());
        for (size_t i = 0; i < got.x.size(); ++i)
            EXPECT_EQ(std::bit_cast<uint64_t>(got.x[i]),
                      std::bit_cast<uint64_t>(want.x[i]));
        EXPECT_EQ(std::bit_cast<uint64_t>(got.value),
                  std::bit_cast<uint64_t>(want.value));
        EXPECT_EQ(got.evaluations, want.evaluations);
    };

    auto &restarts = obs::MetricsRegistry::global().counter(
        names::kMetricAnnealRestarts);
    const AnnealResult want_a = fresh(a);
    const uint64_t restarts0 = restarts.value();
    const AnnealResult want_b = fresh(b);
    EXPECT_GT(restarts.value(), restarts0);
    std::thread([&] {
        for (int round = 0; round < 3; ++round) {
            expectSame(run(a), want_a);
            expectSame(run(b), want_b);
        }
    }).join();
}

TEST(DualAnnealing, BadBoundsPanic)
{
    AnnealObjective f = [](const std::vector<double> &) { return 0.0; };
    EXPECT_DEATH(dualAnnealing(f, {1.0}, {0.0}), "bound");
    EXPECT_DEATH(dualAnnealing(f, {}, {}), "bad bounds");
}

} // namespace
} // namespace quest
