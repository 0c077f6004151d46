#include "synth/lbfgs.hh"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "obs/metrics.hh"
#include "util/logging.hh"
#include "util/names.hh"

namespace quest {

namespace {

double
dot(const std::vector<double> &a, const std::vector<double> &b)
{
    double sum = 0.0;
    for (size_t i = 0; i < a.size(); ++i)
        sum += a[i] * b[i];
    return sum;
}

double
infNorm(const std::vector<double> &v)
{
    double worst = 0.0;
    for (double x : v)
        worst = std::max(worst, std::abs(x));
    return worst;
}

} // namespace

LbfgsMachine::LbfgsMachine(std::vector<double> x0,
                           const LbfgsOptions &options)
    : options(options), n(x0.size())
{
    result.x = std::move(x0);
    grad.resize(n);
    direction.resize(n);
    x_new.resize(n);
    grad_new.resize(n);
    ring.resize(static_cast<size_t>(std::max(0, options.historySize)));
    for (Pair &p : ring) {
        p.s.resize(n);
        p.y.resize(n);
    }
    spare.s.resize(n);
    spare.y.resize(n);
    alpha_buf.resize(ring.size());
}

const std::vector<double> &
LbfgsMachine::queryPoint() const
{
    QUEST_ASSERT(phase != Phase::Finished,
                 "queryPoint() on a finished machine");
    return phase == Phase::AwaitInitial ? result.x : x_new;
}

void
LbfgsMachine::finish(double value)
{
    static auto &calls =
        obs::MetricsRegistry::global().counter(names::kMetricLbfgsCalls);
    static auto &iters =
        obs::MetricsRegistry::global().counter(names::kMetricLbfgsIterations);
    static auto &evaluations = obs::MetricsRegistry::global().counter(
        names::kMetricLbfgsEvaluations);
    static auto &iter_hist = obs::MetricsRegistry::global().histogram(
        names::kMetricLbfgsIterationsPerCall);
    calls.increment();
    evaluations.add(static_cast<uint64_t>(evals));
    iters.add(static_cast<uint64_t>(result.iterations));
    iter_hist.record(static_cast<uint64_t>(result.iterations));

    result.value = value;
    phase = Phase::Finished;
}

void
LbfgsMachine::proposeTrial()
{
    for (size_t i = 0; i < n; ++i)
        x_new[i] = result.x[i] + step * direction[i];
    phase = Phase::AwaitTrial;
}

void
LbfgsMachine::beginIteration()
{
    if (iter >= options.maxIterations) {
        finish(f);
        return;
    }

    // The per-iteration safe point: a cancelled or overdue run stops
    // here with the best point found so far.
    const resilience::StopReason stop = options.budget.stop();
    if (stop != resilience::StopReason::None) {
        result.stopped = stop;
        finish(f);
        return;
    }

    result.iterations = iter + 1;
    if (infNorm(grad) < options.gradTolerance) {
        result.converged = true;
        finish(f);
        return;
    }

    // Two-loop recursion: direction = -H g.
    direction = grad;
    for (size_t h = historyCount; h-- > 0;) {
        const Pair &p = historyPair(h);
        double a = p.rho * dot(p.s, direction);
        alpha_buf[h] = a;
        for (size_t i = 0; i < n; ++i)
            direction[i] -= a * p.y[i];
    }
    if (historyCount > 0) {
        const Pair &last = historyPair(historyCount - 1);
        double gamma = dot(last.s, last.y) / dot(last.y, last.y);
        for (double &d : direction)
            d *= gamma;
    }
    for (size_t h = 0; h < historyCount; ++h) {
        const Pair &p = historyPair(h);
        double beta = p.rho * dot(p.y, direction);
        for (size_t i = 0; i < n; ++i)
            direction[i] += p.s[i] * (alpha_buf[h] - beta);
    }
    for (double &d : direction)
        d = -d;

    dir_deriv = dot(grad, direction);
    if (dir_deriv >= 0.0) {
        // Not a descent direction: reset to steepest descent.
        historyCount = 0;
        for (size_t i = 0; i < n; ++i)
            direction[i] = -grad[i];
        dir_deriv = -dot(grad, grad);
    }

    step = 1.0;
    ls = 0;
    proposeTrial();
}

void
LbfgsMachine::consume(double fval, std::vector<double> &g)
{
    QUEST_ASSERT(phase != Phase::Finished, "consume() on a finished machine");
    ++evals;

    if (phase == Phase::AwaitInitial) {
        if (!std::isfinite(fval)) {
            // A non-finite objective at the starting point cannot be
            // optimized (every Armijo test would fail); report it as
            // a diverged run instead of comparing against NaN below.
            static auto &nonfinite = obs::MetricsRegistry::global().counter(
                names::kMetricLbfgsNonfiniteObjectives);
            nonfinite.increment();
            finish(std::numeric_limits<double>::infinity());
            return;
        }
        f = fval;
        grad.swap(g);
        if (n == 0) {
            result.converged = true;
            finish(f);
            return;
        }
        iter = 0;
        beginIteration();
        return;
    }

    // A line-search trial came back: Armijo test, then either accept
    // (curvature update, stagnation check, next iteration) or shrink
    // the step by quadratic interpolation — fit f(step) ~ quadratic
    // through f(0), f'(0) and the rejected trial — and retry.
    const double f_new = fval;
    grad_new.swap(g);
    constexpr double c1 = 1e-4;
    if (f_new <= f + c1 * step * dir_deriv) {
        Pair &p = spare;
        for (size_t i = 0; i < n; ++i) {
            p.s[i] = x_new[i] - result.x[i];
            p.y[i] = grad_new[i] - grad[i];
        }
        double sy = dot(p.s, p.y);
        if (sy > 1e-12 && !ring.empty()) {
            p.rho = 1.0 / sy;
            // Append; once the ring is full the slot after the newest
            // is the oldest pair's, which this drops.
            std::swap(p, ring[(ringHead + historyCount) % ring.size()]);
            if (historyCount < ring.size())
                ++historyCount;
            else
                ringHead = (ringHead + 1) % ring.size();
        }

        double f_old = f;
        // proposeTrial overwrites all of x_new before it is read again.
        result.x.swap(x_new);
        grad.swap(grad_new);
        f = f_new;

        if (std::abs(f_old - f) <=
            options.valueTolerance * std::max(1.0, std::abs(f_old))) {
            result.converged = true;
            finish(f);
            return;
        }
        ++iter;
        beginIteration();
        return;
    }

    double denom = 2.0 * (f_new - f - dir_deriv * step);
    double interpolated =
        denom > 0.0 ? -dir_deriv * step * step / denom : 0.5 * step;
    step = std::clamp(interpolated, 0.1 * step, 0.5 * step);
    ++ls;
    if (ls >= 40) {
        result.converged = infNorm(grad) < 1e-6;
        finish(f);
        return;
    }
    proposeTrial();
}

LbfgsResult
lbfgsMinimize(const GradObjective &objective, std::vector<double> x0,
              const LbfgsOptions &options)
{
    std::vector<double> grad(x0.size());
    LbfgsMachine machine(std::move(x0), options);
    while (!machine.done())
        machine.consume(objective(machine.queryPoint(), &grad), grad);
    return machine.takeResult();
}

} // namespace quest
