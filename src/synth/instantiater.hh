/**
 * @file
 * Multi-start instantiation: optimize an ansatz's angles against a
 * target unitary from several starting points and keep the best.
 *
 * All starts of one call run on the calling thread, one after
 * another, on one HsCost (see instantiate()). Determinism holds by
 * construction: every start gets its own RNG stream, split serially
 * before any start runs, each start's iterates depend only on its
 * own stream, and the best-of reduction walks the starts in order,
 * stopping at the first one that reaches the goal.
 */

#ifndef QUEST_SYNTH_INSTANTIATER_HH
#define QUEST_SYNTH_INSTANTIATER_HH

#include <cmath>
#include <optional>
#include <vector>

#include "linalg/matrix.hh"
#include "resilience/budget.hh"
#include "synth/ansatz.hh"
#include "synth/lbfgs.hh"
#include "util/rng.hh"

namespace quest {

/** Instantiation settings. */
struct InstantiaterOptions
{
    int multistarts = 4;        //!< random restarts per call
    LbfgsOptions lbfgs;
    double goal = 0.0;          //!< stop restarts early below this cost

    /**
     * Deadline/cancellation for the whole call, merged into the
     * per-start L-BFGS budgets and checked before each start begins.
     * A fired budget trades determinism for liveness: which starts
     * completed depends on timing, so budget-truncated results must
     * never be cached (LeapSynthesizer enforces this).
     */
    resilience::Budget budget;
};

/** Best parameters found for an ansatz against a target. */
struct InstantiationResult
{
    std::vector<double> params;
    double distance = 1.0;      //!< HS distance at the optimum

    /** Non-finite costs everywhere, or the budget fired before any
     *  start finished: params are zeros, distance is +infinity. */
    bool diverged() const { return !std::isfinite(distance); }
};

/**
 * Optimize @p ansatz against @p target. If @p warm_start is provided
 * it seeds the first restart (new trailing parameters, if any, start
 * at zero); remaining restarts are uniform in [-pi, pi].
 */
InstantiationResult
instantiate(const Matrix &target, const Ansatz &ansatz, Rng &rng,
            const InstantiaterOptions &options = {},
            const std::optional<std::vector<double>> &warm_start =
                std::nullopt);

} // namespace quest

#endif // QUEST_SYNTH_INSTANTIATER_HH
