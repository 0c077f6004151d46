/**
 * @file
 * L-BFGS minimizer tests on standard optimization problems, plus
 * golden pins of its exact iterates and an operator-new probe of its
 * allocation-free iterations.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <new>
#include <utility>
#include <vector>

#include "allocation_probe.hh"
#include "synth/lbfgs.hh"

namespace quest {
namespace {

TEST(Lbfgs, QuadraticBowl)
{
    GradObjective f = [](const std::vector<double> &x,
                         std::vector<double> *g) {
        double v = 0.0;
        if (g)
            g->resize(x.size());
        for (size_t i = 0; i < x.size(); ++i) {
            v += (x[i] - 1.0) * (x[i] - 1.0);
            if (g)
                (*g)[i] = 2.0 * (x[i] - 1.0);
        }
        return v;
    };
    LbfgsResult r = lbfgsMinimize(f, {5.0, -3.0, 0.0});
    EXPECT_TRUE(r.converged);
    EXPECT_NEAR(r.value, 0.0, 1e-10);
    for (double xi : r.x)
        EXPECT_NEAR(xi, 1.0, 1e-5);
}

TEST(Lbfgs, IllConditionedQuadratic)
{
    // f = x0^2 + 1000 x1^2.
    GradObjective f = [](const std::vector<double> &x,
                         std::vector<double> *g) {
        if (g)
            *g = {2.0 * x[0], 2000.0 * x[1]};
        return x[0] * x[0] + 1000.0 * x[1] * x[1];
    };
    LbfgsResult r = lbfgsMinimize(f, {3.0, 1.0});
    EXPECT_NEAR(r.value, 0.0, 1e-8);
}

TEST(Lbfgs, Rosenbrock2d)
{
    GradObjective f = [](const std::vector<double> &x,
                         std::vector<double> *g) {
        double a = 1.0 - x[0];
        double b = x[1] - x[0] * x[0];
        if (g) {
            *g = {-2.0 * a - 400.0 * x[0] * b, 200.0 * b};
        }
        return a * a + 100.0 * b * b;
    };
    LbfgsOptions opts;
    opts.maxIterations = 2000;
    LbfgsResult r = lbfgsMinimize(f, {-1.2, 1.0}, opts);
    EXPECT_NEAR(r.x[0], 1.0, 1e-4);
    EXPECT_NEAR(r.x[1], 1.0, 1e-4);
}

TEST(Lbfgs, TrigLandscape)
{
    // Smooth periodic objective with a known minimum of -2.
    GradObjective f = [](const std::vector<double> &x,
                         std::vector<double> *g) {
        if (g)
            *g = {std::sin(x[0]), std::sin(x[1])};
        return -std::cos(x[0]) - std::cos(x[1]);
    };
    LbfgsResult r = lbfgsMinimize(f, {0.3, -0.4});
    EXPECT_NEAR(r.value, -2.0, 1e-8);
}

TEST(Lbfgs, AlreadyAtMinimum)
{
    GradObjective f = [](const std::vector<double> &x,
                         std::vector<double> *g) {
        if (g)
            *g = {2.0 * x[0]};
        return x[0] * x[0];
    };
    LbfgsResult r = lbfgsMinimize(f, {0.0});
    EXPECT_TRUE(r.converged);
    EXPECT_NEAR(r.value, 0.0, 1e-12);
}

TEST(Lbfgs, EmptyParameterVector)
{
    GradObjective f = [](const std::vector<double> &,
                         std::vector<double> *) { return 7.0; };
    LbfgsResult r = lbfgsMinimize(f, {});
    EXPECT_TRUE(r.converged);
    EXPECT_EQ(r.value, 7.0);
}

TEST(Lbfgs, RespectsIterationCap)
{
    GradObjective f = [](const std::vector<double> &x,
                         std::vector<double> *g) {
        double a = 1.0 - x[0];
        double b = x[1] - x[0] * x[0];
        if (g)
            *g = {-2.0 * a - 400.0 * x[0] * b, 200.0 * b};
        return a * a + 100.0 * b * b;
    };
    LbfgsOptions opts;
    opts.maxIterations = 3;
    LbfgsResult r = lbfgsMinimize(f, {-1.2, 1.0}, opts);
    EXPECT_LE(r.iterations, 3);
}

TEST(Lbfgs, MonotoneNonIncreasing)
{
    // The line search enforces sufficient decrease, so the final
    // value can never exceed the starting value.
    GradObjective f = [](const std::vector<double> &x,
                         std::vector<double> *g) {
        double v = 0.0;
        if (g)
            g->resize(x.size());
        for (size_t i = 0; i < x.size(); ++i) {
            v += std::pow(x[i], 4) - 3.0 * x[i] * x[i] + x[i];
            if (g)
                (*g)[i] = 4.0 * std::pow(x[i], 3) - 6.0 * x[i] + 1.0;
        }
        return v;
    };
    std::vector<double> x0 = {2.0, -2.0, 0.5};
    std::vector<double> dummy;
    double f0 = f(x0, &dummy);
    LbfgsResult r = lbfgsMinimize(f, x0);
    EXPECT_LE(r.value, f0);
}

// ---------------------------------------------------------------------
// Golden pins of lbfgsMinimize(), the one L-BFGS implementation:
// value, point, iterations, flags and evaluation count, bit for bit.
// The instantiate() determinism pins rest on the same iterates.
// Captured at commit cf04da3 by running each landscape below through
// that commit's lbfgsMinimize loop with a counting objective and
// printing every double with printf("%a"). The suite keeps the name
// of LbfgsMachine, the state machine that once ran these iterates.

struct LbfgsPin
{
    double value;
    std::vector<double> x;
    int iterations;
    bool converged;
    int evaluations;
};

/** Minimize through a counting objective and compare to @p pin. */
void
expectPin(const GradObjective &objective, std::vector<double> x0,
          const LbfgsPin &pin, const LbfgsOptions &options = {})
{
    int evaluations = 0;
    GradObjective counted = [&](const std::vector<double> &x,
                                std::vector<double> *g) {
        ++evaluations;
        return objective(x, g);
    };
    const LbfgsResult r = lbfgsMinimize(counted, std::move(x0), options);
    EXPECT_EQ(r.value, pin.value);
    EXPECT_EQ(r.iterations, pin.iterations);
    EXPECT_EQ(r.converged, pin.converged);
    EXPECT_EQ(r.stopped, resilience::StopReason::None);
    EXPECT_EQ(evaluations, pin.evaluations);
    ASSERT_EQ(r.x.size(), pin.x.size());
    for (size_t i = 0; i < pin.x.size(); ++i)
        EXPECT_EQ(r.x[i], pin.x[i]) << "i=" << i;
}

TEST(LbfgsMachine, MatchesMinimizeOnQuadraticBowl)
{
    GradObjective f = [](const std::vector<double> &x,
                         std::vector<double> *g) {
        double v = 0.0;
        if (g)
            g->resize(x.size());
        for (size_t i = 0; i < x.size(); ++i) {
            v += (x[i] - 1.0) * (x[i] - 1.0);
            if (g)
                (*g)[i] = 2.0 * (x[i] - 1.0);
        }
        return v;
    };
    expectPin(f, {5.0, -3.0, 0.0},
              {0x0p+0, {0x1p+0, 0x1p+0, 0x1p+0}, 2, true, 3});
}

TEST(LbfgsMachine, MatchesMinimizeOnIllConditionedQuadratic)
{
    GradObjective f = [](const std::vector<double> &x,
                         std::vector<double> *g) {
        if (g)
            *g = {2.0 * x[0], 2000.0 * x[1]};
        return x[0] * x[0] + 1000.0 * x[1] * x[1];
    };
    expectPin(f, {3.0, 1.0},
              {0x1.2c61a2cba8cc3p-88,
               {-0x1.1411352c72p-44, -0x1.a79bf1cap-53},
               5,
               true,
               10});
}

TEST(LbfgsMachine, MatchesMinimizeOnRosenbrock)
{
    // Long run: line-search rejections and curvature updates
    // exercise every branch of the machine.
    GradObjective f = [](const std::vector<double> &x,
                         std::vector<double> *g) {
        double a = 1.0 - x[0];
        double b = x[1] - x[0] * x[0];
        if (g)
            *g = {-2.0 * a - 400.0 * x[0] * b, 200.0 * b};
        return a * a + 100.0 * b * b;
    };
    LbfgsOptions opts;
    opts.maxIterations = 2000;
    expectPin(f, {-1.2, 1.0},
              {0x1.193e320ea88p-65,
               {0x1.fffffffee6097p-1, 0x1.fffffffdb2adap-1},
               44,
               true,
               55},
              opts);
}

TEST(LbfgsMachine, MatchesMinimizeOnTrigLandscape)
{
    GradObjective f = [](const std::vector<double> &x,
                         std::vector<double> *g) {
        if (g)
            *g = {std::sin(x[0]), std::sin(x[1])};
        return -std::cos(x[0]) - std::cos(x[1]);
    };
    expectPin(f, {0.3, -0.4},
              {-0x1p+1, {0x1.d5865f776a8p-34, 0x1.7f1fd3ee0dp-36}, 4, true,
               5});
}

TEST(LbfgsMachine, MatchesMinimizeAtTheMinimum)
{
    GradObjective f = [](const std::vector<double> &x,
                         std::vector<double> *g) {
        if (g)
            *g = {2.0 * x[0]};
        return x[0] * x[0];
    };
    expectPin(f, {0.0}, {0x0p+0, {0x0p+0}, 1, true, 1});
}

TEST(LbfgsMachine, MatchesMinimizeOnEmptyParameterVector)
{
    GradObjective f = [](const std::vector<double> &,
                         std::vector<double> *) { return 7.0; };
    expectPin(f, {}, {0x1.cp+2, {}, 0, true, 1});
}

TEST(LbfgsMachine, MatchesMinimizeUnderIterationCap)
{
    GradObjective f = [](const std::vector<double> &x,
                         std::vector<double> *g) {
        double a = 1.0 - x[0];
        double b = x[1] - x[0] * x[0];
        if (g)
            *g = {-2.0 * a - 400.0 * x[0] * b, 200.0 * b};
        return a * a + 100.0 * b * b;
    };
    const std::pair<int, LbfgsPin> caps[] = {
        {0,
         {0x1.8333333333332p+4, {-0x1.3333333333333p+0, 0x1p+0}, 0, false,
          1}},
        {1,
         {0x1.86cde49af35d4p+3,
          {-0x1.d15aec4ca7072p-1, 0x1.1e6ad50007b56p+0},
          1,
          false,
          6}},
        {3,
         {0x1.075cc8e640201p+2,
          {-0x1.074d4f1874cccp+0, 0x1.0e84eea605062p+0},
          3,
          false,
          8}},
    };
    for (const auto &[cap, pin] : caps) {
        SCOPED_TRACE(cap);
        LbfgsOptions opts;
        opts.maxIterations = cap;
        expectPin(f, {-1.2, 1.0}, pin, opts);
    }
}

TEST(LbfgsMachine, IterationsAreAllocationFree)
{
    // The extended Rosenbrock function on 6 parameters takes far more
    // accepted steps than the 8-pair history holds, so the ring fills
    // and wraps. The objective reads the operator-new count at each
    // call: lbfgsMinimize sizes every buffer before its first
    // evaluation, so the count must not move from the first call to
    // the last.
    int calls = 0;
    uint64_t first = 0, last = 0;
    const GradObjective rosenbrock = [&](const std::vector<double> &x,
                                         std::vector<double> *g) {
        const uint64_t now =
            g_allocation_count.load(std::memory_order_relaxed);
        if (calls++ == 0)
            first = now;
        last = now;
        double v = 0.0;
        for (double &gi : *g)
            gi = 0.0;
        for (size_t i = 0; i + 1 < x.size(); ++i) {
            const double a = x[i + 1] - x[i] * x[i], b = 1.0 - x[i];
            v += 100.0 * a * a + b * b;
            (*g)[i] += -400.0 * x[i] * a - 2.0 * b;
            (*g)[i + 1] += 200.0 * a;
        }
        return v;
    };
    const std::vector<double> x0 = {-1.2, 1.0, -1.2, 1.0, -1.2, 1.0};
    const LbfgsOptions options;

    // Warm-up: registers the lbfgs.* metrics a finished run flushes.
    lbfgsMinimize(rosenbrock, x0, options);

    calls = 0;
    const LbfgsResult r = lbfgsMinimize(rosenbrock, x0, options);
    EXPECT_GT(calls, 1);
    EXPECT_EQ(last - first, 0u)
        << "an L-BFGS run allocated between its first evaluation and "
           "its last";
    EXPECT_GT(r.iterations, 3 * options.historySize);
    EXPECT_LT(r.value, 1e-8);
}

TEST(LbfgsMachine, MatchesMinimizeOnNonFiniteObjective)
{
    // A diverged start reports value = inf without touching the
    // point.
    GradObjective f = [](const std::vector<double> &x,
                         std::vector<double> *g) {
        if (g)
            g->assign(x.size(), 0.0);
        return std::numeric_limits<double>::quiet_NaN();
    };
    expectPin(f, {1.0, 2.0},
              {std::numeric_limits<double>::infinity(), {0x1p+0, 0x1p+1}, 0,
               false, 1});
}

} // namespace
} // namespace quest
