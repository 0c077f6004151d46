#include "synth/lbfgs.hh"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "obs/metrics.hh"
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

/** One accepted step's curvature pair, with rho = 1 / (s . y). */
struct Pair
{
    std::vector<double> s;
    std::vector<double> y;
    double rho = 0.0;
};

/** Flush one finished run into the lbfgs.* metrics. */
void
countRun(int evaluations, int iterations)
{
    static auto &calls =
        obs::MetricsRegistry::global().counter(names::kMetricLbfgsCalls);
    static auto &iters =
        obs::MetricsRegistry::global().counter(names::kMetricLbfgsIterations);
    static auto &evals = obs::MetricsRegistry::global().counter(
        names::kMetricLbfgsEvaluations);
    static auto &iter_hist = obs::MetricsRegistry::global().histogram(
        names::kMetricLbfgsIterationsPerCall);
    calls.increment();
    evals.add(static_cast<uint64_t>(evaluations));
    iters.add(static_cast<uint64_t>(iterations));
    iter_hist.record(static_cast<uint64_t>(iterations));
}

} // namespace

LbfgsResult
lbfgsMinimize(const GradObjective &objective, std::vector<double> x0,
              const LbfgsOptions &options)
{
    const size_t n = x0.size();
    LbfgsResult result;
    result.x = std::move(x0);
    int evals = 0;
    auto finish = [&](double value) {
        countRun(evals, result.iterations);
        result.value = value;
        return std::move(result);
    };

    // Every buffer is sized here, before the first evaluation. The
    // last historySize accepted pairs live in a ring: historyCount of
    // them starting at ringHead. `spare` takes each new pair;
    // accepting it swaps it into the ring, so no iteration allocates.
    std::vector<double> grad(n), direction(n), x_new(n), grad_new(n);
    std::vector<Pair> ring(
        static_cast<size_t>(std::max(0, options.historySize)));
    for (Pair &p : ring) {
        p.s.resize(n);
        p.y.resize(n);
    }
    Pair spare;
    spare.s.resize(n);
    spare.y.resize(n);
    std::vector<double> alpha(ring.size());
    size_t ringHead = 0;
    size_t historyCount = 0;
    // History pair h, oldest first (h < historyCount).
    auto historyPair = [&](size_t h) -> const Pair & {
        return ring[(ringHead + h) % ring.size()];
    };

    double f = objective(result.x, &grad);
    ++evals;
    if (!std::isfinite(f)) {
        // A non-finite objective at the starting point cannot be
        // optimized (every Armijo test would fail); report it as a
        // diverged run instead of comparing against NaN below.
        static auto &nonfinite = obs::MetricsRegistry::global().counter(
            names::kMetricLbfgsNonfiniteObjectives);
        nonfinite.increment();
        return finish(std::numeric_limits<double>::infinity());
    }
    if (n == 0) {
        result.converged = true;
        return finish(f);
    }

    for (int iter = 0; iter < options.maxIterations; ++iter) {
        // The per-iteration safe point: a cancelled or overdue run
        // stops here with the best point found so far.
        const resilience::StopReason stop = options.budget.stop();
        if (stop != resilience::StopReason::None) {
            result.stopped = stop;
            return finish(f);
        }

        result.iterations = iter + 1;
        if (infNorm(grad) < options.gradTolerance) {
            result.converged = true;
            return finish(f);
        }

        // Two-loop recursion: direction = -H g.
        direction = grad;
        for (size_t h = historyCount; h-- > 0;) {
            const Pair &p = historyPair(h);
            double a = p.rho * dot(p.s, direction);
            alpha[h] = a;
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
                direction[i] += p.s[i] * (alpha[h] - beta);
        }
        for (double &d : direction)
            d = -d;

        double dir_deriv = dot(grad, direction);
        if (dir_deriv >= 0.0) {
            // Not a descent direction: reset to steepest descent.
            historyCount = 0;
            for (size_t i = 0; i < n; ++i)
                direction[i] = -grad[i];
            dir_deriv = -dot(grad, grad);
        }

        // Armijo backtracking: a rejected trial shrinks the step by
        // quadratic interpolation — fit f(step) ~ quadratic through
        // f(0), f'(0) and the rejected trial — and retries.
        constexpr double c1 = 1e-4;
        double step = 1.0;
        double f_new = 0.0;
        for (int ls = 1;; ++ls) {
            for (size_t i = 0; i < n; ++i)
                x_new[i] = result.x[i] + step * direction[i];
            f_new = objective(x_new, &grad_new);
            ++evals;
            if (f_new <= f + c1 * step * dir_deriv)
                break;
            double denom = 2.0 * (f_new - f - dir_deriv * step);
            double interpolated =
                denom > 0.0 ? -dir_deriv * step * step / denom : 0.5 * step;
            step = std::clamp(interpolated, 0.1 * step, 0.5 * step);
            if (ls >= 40) {
                result.converged = infNorm(grad) < 1e-6;
                return finish(f);
            }
        }

        // Accept: curvature update, then the stagnation check.
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
        // The next trial overwrites all of x_new before it is read.
        result.x.swap(x_new);
        grad.swap(grad_new);
        f = f_new;

        if (std::abs(f_old - f) <=
            options.valueTolerance * std::max(1.0, std::abs(f_old))) {
            result.converged = true;
            return finish(f);
        }
    }
    return finish(f);
}

} // namespace quest
