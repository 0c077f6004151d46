/**
 * @file
 * Hilbert-Schmidt synthesis cost function with analytic gradient.
 *
 * This is the innermost loop of numerical instantiation: L-BFGS calls
 * evaluate() thousands of times per multistart. The implementation is
 * built for that: a reusable flat workspace (HsWorkspace) sized once
 * at construction, per-dimension unrolled kernels dispatched once
 * (synth/kernels.hh), and a per-op cache of U3 entries + derivatives
 * computed from a single trig evaluation — so evaluate() performs no
 * heap allocation in steady state, on both the value-only and the
 * gradient path.
 */

#ifndef QUEST_SYNTH_HS_COST_HH
#define QUEST_SYNTH_HS_COST_HH

#include <cstdint>
#include <vector>

#include "linalg/matrix.hh"
#include "synth/ansatz.hh"
#include "synth/kernels.hh"
#include "synth/op_plan.hh"

namespace quest {

/**
 * Flat scratch arena reused across evaluate() calls: the forward
 * prefix stack, the (transposed) backward accumulator, a value-only
 * running product, and the per-op U3 entry/derivative cache. All
 * buffers are sized once; ensure() only grows, and steady-state calls
 * never touch the allocator.
 */
struct HsWorkspace
{
    std::vector<Complex> prefix;    //!< (opCount + 1) stacked dim*dim slices
    std::vector<Complex> backward;  //!< transposed suffix accumulator
    std::vector<Complex> scratch;   //!< value-only running product
    std::vector<Complex> u3Terms;   //!< per U3 op: 4 entries + 3*4 derivatives

    uint64_t allocations = 0;  //!< ensure() calls that grew a buffer
    uint64_t reuses = 0;       //!< ensure() calls served without growth

    /** Size the arena for a dim x dim problem with the given op and
     *  U3 counts. Returns true when any buffer had to grow. */
    bool ensure(size_t dim, size_t opCount, size_t u3Count);
};

/**
 * Smooth objective f(theta) = 1 - |Tr(U^dagger A(theta))|^2 / N^2,
 * whose square root is the paper's HS process distance. Minimizing f
 * minimizes the distance; the gradient is computed analytically from
 * the ansatz parameter derivatives.
 *
 * Not safe for concurrent evaluate() calls on one instance: the
 * internal workspace is reused across calls. instantiate() builds
 * one per call for its last lanes (see synth/instantiater.cc).
 */
class HsCost
{
  public:
    HsCost(const Matrix &target, const Ansatz &ansatz);

    /** Objective value; fills @p grad (same size as params) if
     *  non-null. Allocation-free after the constructor. */
    double evaluate(const std::vector<double> &params,
                    std::vector<double> *grad) const;

    /** HS distance sqrt(max(0, f)) at the given parameters. */
    double distance(const std::vector<double> &params) const;

    /** The reusable arena (test/diagnostic hook). */
    const HsWorkspace &workspace() const { return ws; }

  private:
    Complex traceAgainstTarget(const Complex *u) const;

    const Matrix &target;
    const Ansatz &ansatz;
    double dimSquared;
    size_t dim;
    size_t u3Count;
    int nParams;
    const kern::KernelSet *kernels;
    std::vector<synth::OpPlan> plan;
    std::vector<Complex> targetConj;  //!< conj(target): trace + backward init
    mutable HsWorkspace ws;
};

} // namespace quest

#endif // QUEST_SYNTH_HS_COST_HH
