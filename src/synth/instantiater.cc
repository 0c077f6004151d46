#include "synth/instantiater.hh"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numbers>

#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "synth/hs_cost.hh"
#include "util/logging.hh"
#include "util/names.hh"

namespace quest {

/*
 * The starts run one after another on one HsCost, each a plain
 * lbfgsMinimize() run. The reduction keeps the first strict
 * improvement, and the first start to reach the goal ends the call:
 * no later start is launched.
 */
InstantiationResult
instantiate(const Matrix &target, const Ansatz &ansatz, Rng &rng,
            const InstantiaterOptions &options,
            const std::optional<std::vector<double>> &warm_start)
{
    QUEST_TRACE_SCOPE("synth.instantiate");
    static auto &calls =
        obs::MetricsRegistry::global().counter(names::kMetricSynthInstantiations);
    static auto &starts_counter =
        obs::MetricsRegistry::global().counter(names::kMetricSynthMultistarts);
    static auto &early_counter =
        obs::MetricsRegistry::global().counter(names::kMetricSynthEarlyStops);
    calls.increment();

    constexpr double pi = std::numbers::pi;
    const int n_params = ansatz.paramCount();
    const int n_starts = std::max(1, options.multistarts);

    // The call-level budget bounds every start's inner loop too: the
    // L-BFGS budget becomes the tighter of its own deadline and ours,
    // and inherits our token when it has none.
    LbfgsOptions lbfgsOptions = options.lbfgs;
    lbfgsOptions.budget =
        lbfgsOptions.budget.withDeadline(options.budget.deadline);
    if (!lbfgsOptions.budget.cancel)
        lbfgsOptions.budget.cancel = options.budget.cancel;

    // Per-start RNG streams, split serially up front: start i draws
    // from stream i alone, however many starts run before it.
    std::vector<Rng> streams = rng.splitN(static_cast<size_t>(n_starts));

    HsCost cost(target, ansatz);
    const GradObjective objective = [&cost](const std::vector<double> &x,
                                            std::vector<double> *grad) {
        return cost.evaluate(x, *grad);
    };

    InstantiationResult best;
    best.distance = 1.0;
    double best_value = 2.0;
    bool selected = false;
    for (int i = 0; i < n_starts; ++i) {
        // A fired budget launches no further start; the starts that
        // already finished still count.
        if (options.budget.exhausted())
            break;
        starts_counter.increment();
        std::vector<double> x0(static_cast<size_t>(n_params));
        if (i == 0 && warm_start) {
            QUEST_ASSERT(warm_start->size() <= x0.size(),
                         "warm start larger than parameter vector");
            std::copy(warm_start->begin(), warm_start->end(), x0.begin());
            // Trailing new parameters remain zero (identity-ish U3s).
        } else {
            for (double &v : x0)
                v = streams[static_cast<size_t>(i)].uniform(-pi, pi);
        }
        LbfgsResult r = lbfgsMinimize(objective, std::move(x0), lbfgsOptions);

        // Non-finite costs (diverged starts) are never selected; a
        // NaN would also poison the < comparison below.
        if (std::isfinite(r.value) && r.value < best_value) {
            best_value = r.value;
            best.params = std::move(r.x);
            best.distance = std::sqrt(std::max(0.0, best_value));
            selected = true;
        }
        if (best_value <= options.goal) {
            if (i + 1 < n_starts)
                early_counter.increment();
            break;
        }
    }
    if (!selected) {
        // Every start diverged (or the budget fired before any
        // completed). Return a well-formed parameter vector — callers
        // feed it straight into Ansatz::instantiate — with an
        // infinite distance so no threshold can ever admit it.
        best.params.assign(static_cast<size_t>(n_params), 0.0);
        best.distance = std::numeric_limits<double>::infinity();
    }
    return best;
}

} // namespace quest
