/**
 * @file
 * Limited-memory BFGS minimizer with backtracking line search: the
 * numerical-optimization engine behind circuit instantiation.
 *
 * LbfgsMachine is the one implementation, written with inverted
 * control: the machine exposes the next point it wants evaluated and
 * the caller feeds back (f, gradient). That lets instantiate() step
 * up to eight multistarts in lane lockstep through one batched cost
 * pass. lbfgsMinimize() is the plain driving loop for a serial
 * objective.
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
 * One minimization in progress: initial evaluation, per-iteration
 * budget poll, two-loop recursion, Armijo backtracking with
 * quadratic interpolation and curvature updates, where each
 * objective call is a queryPoint()/consume() round trip. The
 * lbfgs.* metrics are flushed once, when the run finishes; a
 * machine dropped before then is not counted.
 */
class LbfgsMachine
{
  public:
    LbfgsMachine(std::vector<double> x0, const LbfgsOptions &options);

    /** True once the run has terminated; queryPoint() is then
     *  invalid and takeResult() is ready. */
    bool done() const { return phase == Phase::Finished; }

    /** The point to evaluate next (valid while !done()). */
    const std::vector<double> &queryPoint() const;

    /**
     * Deliver the objective value and gradient at queryPoint().
     * @p grad is swapped with a buffer of the parameter count (its
     * post-call contents are unspecified), so one caller buffer is
     * reused round-robin.
     */
    void consume(double f, std::vector<double> &grad);

    /** The finished result (valid once done()). */
    LbfgsResult takeResult() { return std::move(result); }

  private:
    enum class Phase
    {
        AwaitInitial,  //!< waiting for f/grad at the start point
        AwaitTrial,    //!< waiting for f/grad at a line-search trial
        Finished,
    };

    struct Pair
    {
        std::vector<double> s;
        std::vector<double> y;
        double rho = 0.0;
    };

    /** History pair @p h, oldest first (h < historyCount). */
    const Pair &historyPair(size_t h) const
    {
        return ring[(ringHead + h) % ring.size()];
    }

    void beginIteration();
    void proposeTrial();
    void finish(double value);

    LbfgsOptions options;
    LbfgsResult result;
    Phase phase = Phase::AwaitInitial;
    size_t n = 0;
    int evals = 0;
    int iter = 0;

    double f = 0.0;
    std::vector<double> grad;
    // The last historySize accepted (s, y, rho) pairs, in a ring
    // allocated at construction: historyCount of them starting at
    // ringHead. `spare` takes each new pair; accepting it swaps it
    // into the ring, so no iteration allocates.
    std::vector<Pair> ring;
    size_t ringHead = 0;
    size_t historyCount = 0;
    Pair spare;
    std::vector<double> direction, x_new, grad_new, alpha_buf;

    // Line-search state.
    double step = 1.0;
    double dir_deriv = 0.0;
    int ls = 0;
};

/** Minimize an unconstrained smooth objective from @p x0. */
LbfgsResult lbfgsMinimize(const GradObjective &objective,
                          std::vector<double> x0,
                          const LbfgsOptions &options = {});

} // namespace quest

#endif // QUEST_SYNTH_LBFGS_HH
