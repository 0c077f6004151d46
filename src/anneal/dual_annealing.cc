#include "anneal/dual_annealing.hh"

#include <math.h> // lgamma_r

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <numbers>

#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "util/logging.hh"
#include "util/names.hh"

namespace quest {

namespace {

constexpr double pi = std::numbers::pi;

/** One step index's entries of the annealing schedule. */
struct ScheduleStep
{
    bool restart;       //!< T_k is below the restart temperature
    double acceptTemp;  //!< T_k / (k + 1), the acceptance temperature
    double visitScale;  //!< the visiting distribution's scale at T_k
};

/** The options a schedule depends on. */
struct ScheduleKey
{
    double initialTemp;
    double visitParam;
    double restartTempRatio;
    int maxIterations;

    bool operator==(const ScheduleKey &) const = default;
};

using Schedule = std::vector<ScheduleStep>;

/**
 * The schedule of @p key, indexed by step index k from 1 to
 * maxIterations. The temperature T_k = T0 (2^(qv-1) - 1) /
 * ((k+1)^(qv-1) - 1) depends on the step index alone, and so does
 * the scale of the Tsallis visiting distribution (the step generator
 * of generalized simulated annealing) at T_k. Every entry is computed
 * by the expression a run once evaluated at each step, with SciPy's
 * temperature-independent factors computed once, so a run that reads
 * the table is bit for bit the run that computed it.
 */
Schedule
buildSchedule(const ScheduleKey &key)
{
    const double qv = key.visitParam;
    const double factor2 = std::exp((4.0 - qv) * std::log(qv - 1.0));
    const double factor3 =
        std::exp((2.0 - qv) * std::log(2.0) / (qv - 1.0));
    const double factor4p =
        std::sqrt(pi) * factor2 / (factor3 * (3.0 - qv));
    const double factor5 = 1.0 / (qv - 1.0) - 0.5;
    const double d1 = 2.0 - factor5;
    // lgamma_r, not std::lgamma: glibc's lgamma writes the global
    // signgam, a data race when annealers run on several executor
    // threads at once.
    int sign = 0;
    const double factor6 = pi * (1.0 - factor5) /
                           std::sin(pi * (1.0 - factor5)) /
                           std::exp(lgamma_r(d1, &sign));
    const double t1 = std::exp((qv - 1.0) * std::log(2.0)) - 1.0;

    Schedule steps(static_cast<size_t>(std::max(key.maxIterations, 0)) +
                   1);
    for (size_t k = 1; k < steps.size(); ++k) {
        const double t2 =
            std::exp((qv - 1.0) *
                     std::log(static_cast<double>(k) + 1.0)) -
            1.0;
        const double temperature = key.initialTemp * t1 / t2;
        const double factor1 =
            std::exp(std::log(temperature) / (qv - 1.0));
        const double factor4 = factor4p * factor1;
        steps[k] = {
            temperature < key.initialTemp * key.restartTempRatio,
            temperature / static_cast<double>(k + 1),
            std::exp(-(qv - 1.0) * std::log(factor6 / factor4) /
                     (3.0 - qv))};
    }
    return steps;
}

/**
 * The calling thread's schedule for @p options: built on the first
 * run with these options and kept until a run with others. Shared,
 * so an objective that runs an annealer of its own cannot free the
 * schedule of the run that called it.
 */
std::shared_ptr<const Schedule>
threadSchedule(const AnnealOptions &options)
{
    const ScheduleKey key{options.initialTemp, options.visitParam,
                          options.restartTempRatio,
                          options.maxIterations};
    thread_local ScheduleKey builtFor{};
    thread_local std::shared_ptr<const Schedule> built;
    if (!built || builtFor != key) {
        built = std::make_shared<const Schedule>(buildSchedule(key));
        builtFor = key;
    }
    return built;
}

/** One heavy-tailed Tsallis visiting step at scale @p scale. */
double
visitStep(Rng &rng, double qv, double scale)
{
    double x = rng.normal() * scale;
    double y = rng.normal();
    double den =
        std::exp((qv - 1.0) * std::log(std::abs(y)) / (3.0 - qv));
    double visit = x / den;
    // Tail clipping as in SciPy to avoid overflow-scale steps.
    constexpr double tail = 1e8;
    if (visit > tail)
        return tail * rng.uniform();
    if (visit < -tail)
        return -tail * rng.uniform();
    return visit;
}

/** Wrap a coordinate back into [lo, hi] (SciPy's modulo fold). */
double
wrap(double x, double lo, double hi)
{
    double range = hi - lo;
    if (range <= 0.0)
        return lo;
    const double y = x - lo;
    // On a unit range, fmod(y, 1.0) bit for bit without the libm
    // call: for |y| >= 1 the subtraction is exact (Sterbenz), for
    // |y| < 1 trunc is zero, and copysign keeps fmod's signed zero.
    double t = range == 1.0 ? std::copysign(y - std::trunc(y), y)
                            : std::fmod(y, range);
    if (t < 0.0)
        t += range;
    return lo + t;
}

/** A plain function as a CoordinateObjective: a move evaluates it on
 *  the base point with one coordinate replaced. */
class FunctionObjective final : public CoordinateObjective
{
  public:
    explicit FunctionObjective(const AnnealObjective &fn) : fn(fn) {}

    double
    score(const std::vector<double> &x) const override
    {
        return fn(x);
    }

    void
    setBase(const std::vector<double> &x) override
    {
        base = x;
    }

    double
    scoreMove(size_t i, double xi) override
    {
        const double kept = base[i];
        base[i] = xi;
        const double v = fn(base);
        base[i] = kept;
        return v;
    }

  private:
    const AnnealObjective &fn;
    std::vector<double> base;
};

} // namespace

AnnealResult
dualAnnealing(const AnnealObjective &objective,
              const std::vector<double> &lo, const std::vector<double> &hi,
              const AnnealOptions &options)
{
    FunctionObjective coordinates(objective);
    return dualAnnealing(coordinates, lo, hi, options);
}

AnnealResult
dualAnnealing(CoordinateObjective &objective,
              const std::vector<double> &lo, const std::vector<double> &hi,
              const AnnealOptions &options)
{
    QUEST_TRACE_SCOPE("anneal.run");
    const size_t dim = lo.size();
    QUEST_ASSERT(dim > 0 && hi.size() == dim, "bad bounds");
    for (size_t i = 0; i < dim; ++i)
        QUEST_ASSERT(lo[i] < hi[i], "empty bound interval");
    QUEST_ASSERT(options.visitParam > 1.0 && options.visitParam < 3.0,
                 "visiting parameter must be in (1, 3)");

    const std::shared_ptr<const Schedule> schedule =
        threadSchedule(options);
    Rng rng(options.seed);
    AnnealResult result;
    result.evaluations = 0;

    // Non-finite objective values would poison the acceptance math
    // (inf - inf = NaN probabilities) and, worse, could be adopted as
    // the incumbent best; treat them as "infinitely bad" instead.
    auto counted = [&](double v) {
        ++result.evaluations;
        if (!std::isfinite(v)) {
            static auto &nans = obs::MetricsRegistry::global().counter(
                names::kMetricAnnealNanObjectives);
            nans.increment();
            return std::numeric_limits<double>::infinity();
        }
        return v;
    };
    auto eval = [&](const std::vector<double> &x) {
        return counted(objective.score(x));
    };

    std::vector<double> current(dim);
    if (options.initial) {
        QUEST_ASSERT(options.initial->size() == dim,
                     "initial point arity mismatch");
        current = *options.initial;
        for (size_t i = 0; i < dim; ++i)
            current[i] = std::clamp(current[i], lo[i], hi[i]);
    } else {
        for (size_t i = 0; i < dim; ++i)
            current[i] = rng.uniform(lo[i], hi[i]);
    }
    double f_current = eval(current);
    result.x = current;
    result.value = f_current;

    const double qv = options.visitParam;
    const double qa = options.acceptParam;

    int steps = 0, acceptances = 0, restarts = 0;
    int step_index = 1;
    std::vector<double> candidate(dim);
    for (int iter = 1; iter <= options.maxIterations; ++iter, ++step_index) {
        const auto stop = options.budget.stop();
        if (stop != resilience::StopReason::None) {
            result.stopped = stop;
            break;
        }

        const ScheduleStep &at = (*schedule)[step_index];
        ++steps;
        if (at.restart) {
            // Re-anneal: reset the schedule and re-randomize.
            ++restarts;
            step_index = 1;
            for (size_t i = 0; i < dim; ++i)
                current[i] = rng.uniform(lo[i], hi[i]);
            f_current = eval(current);
            if (f_current < result.value) {
                result.value = f_current;
                result.x = current;
            }
            continue;
        }

        // Alternate full-vector moves and single-coordinate moves
        // (SciPy's strategy chain, condensed).
        candidate = current;
        if (iter % 2 == 1) {
            for (size_t i = 0; i < dim; ++i)
                candidate[i] = wrap(
                    current[i] + visitStep(rng, qv, at.visitScale),
                    lo[i], hi[i]);
        } else {
            size_t i = rng.uniformInt(static_cast<uint32_t>(dim));
            candidate[i] = wrap(
                current[i] + visitStep(rng, qv, at.visitScale), lo[i],
                hi[i]);
        }

        double f_candidate = eval(candidate);
        bool accept = false;
        if (f_candidate <= f_current) {
            accept = true;
        } else {
            double pqa = 1.0 - (1.0 - qa) * (f_candidate - f_current) /
                                   at.acceptTemp;
            double p = pqa <= 0.0
                           ? 0.0
                           : std::exp(std::log(pqa) / (1.0 - qa));
            accept = rng.uniform() < p;
        }
        if (accept) {
            ++acceptances;
            current = candidate;
            f_current = f_candidate;
            if (f_current < result.value) {
                result.value = f_current;
                result.x = current;
            }
        }
    }

    if (options.localSearch &&
        result.stopped == resilience::StopReason::None) {
        // Greedy coordinate polish around the best point. The QUEST
        // objective is piecewise constant (it maps coordinates to
        // discrete approximation choices), so a gradient-based local
        // phase would see zero slope; a grid sweep per coordinate is
        // the faithful equivalent. Every probe is a one-coordinate
        // move from the incumbent, the objective's base point.
        constexpr int grid = 16;
        objective.setBase(result.x);
        bool improved = true;
        for (int round = 0; round < 4 && improved; ++round) {
            improved = false;
            for (size_t i = 0; i < dim; ++i) {
                const auto stop = options.budget.stop();
                if (stop != resilience::StopReason::None) {
                    result.stopped = stop;
                    improved = false;
                    break;
                }
                for (int g = 0; g < grid; ++g) {
                    const double xi =
                        lo[i] + (hi[i] - lo[i]) * (g + 0.5) / grid;
                    double f = counted(objective.scoreMove(i, xi));
                    if (f < result.value) {
                        result.value = f;
                        result.x[i] = xi;
                        objective.setBase(result.x);
                        improved = true;
                    }
                }
            }
        }
    }

    {
        auto &registry = obs::MetricsRegistry::global();
        static auto &runs = registry.counter(names::kMetricAnnealRuns);
        static auto &steps_counter = registry.counter(names::kMetricAnnealSteps);
        static auto &accept_counter =
            registry.counter(names::kMetricAnnealAcceptances);
        static auto &restart_counter =
            registry.counter(names::kMetricAnnealRestarts);
        static auto &eval_counter =
            registry.counter(names::kMetricAnnealEvaluations);
        runs.increment();
        steps_counter.add(static_cast<uint64_t>(steps));
        accept_counter.add(static_cast<uint64_t>(acceptances));
        restart_counter.add(static_cast<uint64_t>(restarts));
        eval_counter.add(static_cast<uint64_t>(result.evaluations));
    }
    return result;
}

} // namespace quest
