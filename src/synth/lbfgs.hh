/**
 * @file
 * Limited-memory BFGS minimizer with backtracking line search: the
 * numerical-optimization engine behind circuit instantiation.
 * instantiate() runs one lbfgsMinimize() per multistart.
 */

#ifndef QUEST_SYNTH_LBFGS_HH
#define QUEST_SYNTH_LBFGS_HH

#include <functional>
#include <vector>

#include "resilience/budget.hh"

namespace quest {

/**
 * Objective callback: returns f(x); writes the gradient into @p grad
 * when it is non-null.
 */
using GradObjective =
    std::function<double(const std::vector<double> &x,
                         std::vector<double> *grad)>;

/** L-BFGS options. */
struct LbfgsOptions
{
    int maxIterations = 400;
    int historySize = 8;
    double gradTolerance = 1e-10;   //!< stop when ||g||_inf below this
    double valueTolerance = 1e-14;  //!< stop on relative f stagnation

    /**
     * Deadline/cancellation, polled once per iteration (an unbounded
     * budget costs two branches and no clock read). On exhaustion the
     * best point so far is returned with `stopped` set.
     */
    resilience::Budget budget;
};

/** Minimization outcome. */
struct LbfgsResult
{
    std::vector<double> x;
    double value = 0.0;
    int iterations = 0;
    bool converged = false;

    /** Why the loop quit early, if the budget fired. */
    resilience::StopReason stopped = resilience::StopReason::None;
};

/**
 * Minimize an unconstrained smooth objective from @p x0: an initial
 * evaluation, then per iteration a budget poll, the two-loop
 * recursion over the last historySize accepted pairs, and an Armijo
 * backtracking line search with quadratic interpolation (at most 40
 * trials). Every buffer, the history ring included, is allocated
 * before the first evaluation, so the iterations allocate nothing
 * (the objective aside). The lbfgs.* metrics are flushed once, when
 * the run finishes.
 */
LbfgsResult lbfgsMinimize(const GradObjective &objective,
                          std::vector<double> x0,
                          const LbfgsOptions &options = {});

} // namespace quest

#endif // QUEST_SYNTH_LBFGS_HH
