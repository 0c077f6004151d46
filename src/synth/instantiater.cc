#include "synth/instantiater.hh"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numbers>

#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "synth/batch/batch_kernels.hh"
#include "synth/batch/batched_hs_cost.hh"
#include "synth/hs_cost.hh"
#include "util/annotations.hh"
#include "util/logging.hh"
#include "util/names.hh"

namespace quest {

namespace {

/** Which ISA served a batched call (one counter per table). */
obs::Counter &
dispatchCounter(util::SimdIsa isa)
{
    static auto &avx512 = obs::MetricsRegistry::global().counter(
        names::kMetricSynthSimdDispatchAvx512);
    static auto &avx2 = obs::MetricsRegistry::global().counter(
        names::kMetricSynthSimdDispatchAvx2);
    static auto &scalar = obs::MetricsRegistry::global().counter(
        names::kMetricSynthSimdDispatchScalar);
    switch (isa) {
      case util::SimdIsa::Avx512:
        return avx512;
      case util::SimdIsa::Avx2:
        return avx2;
      case util::SimdIsa::Scalar:
        break;
    }
    return scalar;
}

} // namespace

/*
 * Every start's L-BFGS run is an LbfgsMachine on one of kLanes lanes.
 * Each tick evaluates all live lanes at once, feeds every machine its
 * (f, gradient), retires finished lanes and refills them from the
 * pending starts. Two evaluators serve the ticks:
 *   - BatchedHsCost, one SIMD pass over all kLanes lanes, when all
 *     kLanes lanes are live on a 3- or 4-qubit block;
 *   - HsCost, one lane at a time, for every other tick; every call
 *     with fewer than kLanes starts, or on any other width, runs on
 *     HsCost end to end.
 * A batched pass costs one full pass however many lanes are live.
 * Measured per candidate, a full batched pass beats the column-
 * vectorized HsCost only 1.08-1.36x at 2-4 qubits and loses at 5
 * (0.80x; medians, EXPERIMENTS.md), so per-lane evaluation is cheaper
 * below about 5.9-7.4 live lanes, and at 5 qubits always. Only a
 * full tick lands on the batched side at both 3 and 4 qubits in every
 * measured run (a 7-lane tick read on both sides of the crossover at
 * 4). Below 3 qubits neither evaluator is bound by its kernels
 * (per-op trig and call overhead set the cost, and a full tick is a
 * coin flip); above 4 the eight-lane prefix stack leaves L2. Both
 * evaluators are built on first use. They agree bit for bit per lane
 * (pinned by the kernel parity tests), so which one served a tick
 * never shows in a result.
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
    static auto &batched_evals = obs::MetricsRegistry::global().counter(
        names::kMetricSynthBatchedEvals);
    static auto &batch_lanes =
        obs::MetricsRegistry::global().counter(names::kMetricSynthBatchLanes);
    static auto &lane_refills = obs::MetricsRegistry::global().counter(
        names::kMetricSynthLaneRefills);
    calls.increment();

    constexpr double pi = std::numbers::pi;
    constexpr size_t L = synth::BatchedHsCost::kLanes;
    const bool batchable =
        ansatz.numQubits() == 3 || ansatz.numQubits() == 4;
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

    // Per-start RNG streams, split serially up front: stream i is the
    // same whichever lane start i later runs on.
    std::vector<Rng> streams = rng.splitN(static_cast<size_t>(n_starts));

    std::vector<LbfgsResult> results(static_cast<size_t>(n_starts));
    std::vector<uint8_t> computed(static_cast<size_t>(n_starts), 0);

    std::optional<synth::BatchedHsCost> batched;
    std::optional<HsCost> single;

    std::array<std::optional<LbfgsMachine>, L> machines;
    std::array<int, L> laneStart{};
    std::array<std::vector<double>, L> gradBuf;
    std::array<double, L> fBuf{};

    // The live lanes, in ascending order. Ticks walk only these, so a
    // call with one start pays for one lane, not kLanes.
    std::array<size_t, L> live;
    size_t n_live = 0;

    // Lowest start index that reached the goal. Starts beyond it are
    // skippable: the serial-order reduction below never reads past
    // the earliest goal index, so dropping them cannot change the
    // result.
    int stop_at = n_starts;
    int next_pending = 0;

    auto makeX0 = [&](int idx) {
        std::vector<double> x0(static_cast<size_t>(n_params));
        if (idx == 0 && warm_start) {
            QUEST_ASSERT(warm_start->size() <= x0.size(),
                         "warm start larger than parameter vector");
            std::copy(warm_start->begin(), warm_start->end(), x0.begin());
            // Trailing new parameters remain zero (identity-ish U3s).
        } else {
            for (double &v : x0)
                v = streams[static_cast<size_t>(idx)].uniform(-pi, pi);
        }
        return x0;
    };

    // Claim the next runnable pending start for a free lane. Starts
    // past the earliest goal index are skipped; a fired budget stops
    // launching and leaves the rest uncomputed, so the reduction
    // stops there.
    auto launch = [&](size_t lane) -> bool {
        while (next_pending < n_starts) {
            if (options.budget.exhausted())
                return false;
            const int idx = next_pending++;
            if (idx > stop_at)
                continue;
            starts_counter.increment();
            laneStart[lane] = idx;
            machines[lane].emplace(makeX0(idx), lbfgsOptions);
            return true;
        }
        return false;
    };

    auto retire = [&](size_t lane) {
        LbfgsResult r = machines[lane]->takeResult();
        const int idx = laneStart[lane];
        if (r.value <= options.goal && idx < stop_at)
            stop_at = idx;
        results[static_cast<size_t>(idx)] = std::move(r);
        computed[static_cast<size_t>(idx)] = 1;
    };

    while (n_live < L && launch(n_live)) {
        live[n_live] = n_live;
        ++n_live;
    }

    // Lockstep drain. Bounded: every machine's per-iteration budget
    // poll (merged call budget) limits its lifetime to maxIterations
    // line searches of at most 40 trials, and retired lanes only
    // refill from the finite pending list.
    while (n_live > 0) {
        QUEST_BOUNDED_LOOP("per-lane L-BFGS budget polls bound every machine");
        if (n_live < L || !batchable) {
            if (!single)
                single.emplace(target, ansatz);
            for (size_t k = 0; k < n_live; ++k) {
                QUEST_BOUNDED_LOOP("at most kLanes lanes");
                const size_t lane = live[k];
                fBuf[lane] = single->evaluate(machines[lane]->queryPoint(),
                                              gradBuf[lane]);
            }
        } else {
            if (!batched) {
                batched.emplace(target, ansatz);
                dispatchCounter(util::activeSimdIsa()).increment();
            }
            std::array<const std::vector<double> *, L> xs{};
            std::array<std::vector<double> *, L> grads{};
            for (size_t k = 0; k < n_live; ++k) {
                const size_t lane = live[k];
                xs[lane] = &machines[lane]->queryPoint();
                grads[lane] = &gradBuf[lane];
            }
            batched->evaluateBatch(xs, fBuf, grads);
            batched_evals.increment();
            batch_lanes.add(n_live);
        }

        for (size_t k = 0; k < n_live; ++k) {
            const size_t lane = live[k];
            machines[lane]->consume(fBuf[lane], gradBuf[lane]);
            if (machines[lane]->done()) {
                retire(lane);
                if (launch(lane))
                    lane_refills.increment();
                else
                    machines[lane].reset();
            }
        }

        // Keep the lanes whose start can still matter: a start past
        // the earliest goal index would be discarded unread.
        size_t kept = 0;
        for (size_t k = 0; k < n_live; ++k) {
            const size_t lane = live[k];
            if (machines[lane] && laneStart[lane] <= stop_at)
                live[kept++] = lane;
            else
                machines[lane].reset();
        }
        n_live = kept;
    }

    // Serial-order best-of reduction: walk starts in index order,
    // keep the first strict improvement, stop at the first start that
    // reached the goal — exactly the serial loop's selection, so the
    // outcome is independent of which lane ran which start (or
    // whether extra starts past the goal were computed and
    // discarded).
    InstantiationResult best;
    best.distance = 1.0;
    double best_value = 2.0;
    bool selected = false;
    for (int i = 0; i < n_starts; ++i) {
        LbfgsResult &r = results[static_cast<size_t>(i)];
        if (!computed[static_cast<size_t>(i)])
            break;  // past the earliest goal index, or budget-skipped
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
