/**
 * @file
 * Dual annealing global minimizer (STEP 3's search engine, Sec. 3.6).
 *
 * Re-implements the generalized simulated annealing algorithm behind
 * SciPy's dual_annealing [Xiang et al.; Tsallis]: a distorted-Cauchy
 * visiting distribution with parameter q_v, a generalized Metropolis
 * acceptance with parameter q_a, geometric-like temperature decay
 * with restarts, and an optional greedy local-polish phase. The
 * temperature schedule depends on the step index alone, so each
 * thread tabulates it once for the options that shape it and every
 * later run with those options reads the table.
 */

#ifndef QUEST_ANNEAL_DUAL_ANNEALING_HH
#define QUEST_ANNEAL_DUAL_ANNEALING_HH

#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "resilience/budget.hh"
#include "util/rng.hh"

namespace quest {

/** Objective over a box-bounded vector. */
using AnnealObjective =
    std::function<double(const std::vector<double> &x)>;

/**
 * An objective that can also score one-coordinate moves from a base
 * point. The local polish sets the base once and then probes one
 * coordinate at a time, so an objective that caches per-point state
 * (the STEP-3 selection objective) scores each probe as a delta
 * instead of from scratch. scoreMove(i, xi) must return exactly what
 * score() returns for the base with coordinate i set to xi.
 */
class CoordinateObjective
{
  public:
    virtual ~CoordinateObjective() = default;

    /** Objective at @p x. */
    virtual double score(const std::vector<double> &x) const = 0;

    /** Make @p x the base point of later scoreMove() calls. */
    virtual void setBase(const std::vector<double> &x) = 0;

    /** Objective at the base point with coordinate @p i set to @p xi. */
    virtual double scoreMove(size_t i, double xi) = 0;
};

/** Dual-annealing options (defaults follow SciPy's). */
struct AnnealOptions
{
    int maxIterations = 600;       //!< annealing sweeps
    double initialTemp = 5230.0;
    double restartTempRatio = 2e-5;
    double visitParam = 2.62;      //!< q_v
    double acceptParam = -5.0;     //!< q_a
    bool localSearch = true;       //!< greedy coordinate polish
    uint64_t seed = 42;

    /** Optional start point (defaults to a uniform random draw). */
    std::optional<std::vector<double>> initial;

    /**
     * Hard wall-clock/cancellation cutoff, polled once per sweep and
     * once per local-search coordinate, so a pathological objective
     * cannot spin forever (the loop is otherwise only
     * iteration-bounded). The best point so far is still returned.
     */
    resilience::Budget budget;
};

/** Minimization outcome. */
struct AnnealResult
{
    std::vector<double> x;
    double value = 0.0;
    int evaluations = 0;

    /** Set when the budget cut the run short. */
    resilience::StopReason stopped = resilience::StopReason::None;
};

/**
 * Minimize @p objective over the box [lo_i, hi_i]^d.
 */
AnnealResult dualAnnealing(CoordinateObjective &objective,
                           const std::vector<double> &lo,
                           const std::vector<double> &hi,
                           const AnnealOptions &options = {});

/** The same search over a plain function: each polish probe
 *  evaluates it on the base point with one coordinate replaced. */
AnnealResult dualAnnealing(const AnnealObjective &objective,
                           const std::vector<double> &lo,
                           const std::vector<double> &hi,
                           const AnnealOptions &options = {});

} // namespace quest

#endif // QUEST_ANNEAL_DUAL_ANNEALING_HH
