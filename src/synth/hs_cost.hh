/**
 * @file
 * Hilbert-Schmidt synthesis cost function with analytic gradient.
 *
 * This is the innermost loop of numerical instantiation: L-BFGS calls
 * evaluate() thousands of times per multistart. The implementation is
 * built for that: a reusable workspace (HsWorkspace) sized once at
 * construction, holding every matrix as split real/imaginary planes
 * so the one-lane SIMD kernels (synth/lane/lane_kernels.hh) can
 * vectorize each row across its columns, dispatched once per cost
 * object; and a per-op cache of U3 entries + derivatives computed
 * from a single trig evaluation. evaluate() performs no heap
 * allocation in steady state.
 *
 * Only the gradient path exists: L-BFGS evaluates the gradient at
 * every point it visits.
 */

#ifndef QUEST_SYNTH_HS_COST_HH
#define QUEST_SYNTH_HS_COST_HH

#include <cstdint>
#include <vector>

#include "linalg/matrix.hh"
#include "synth/ansatz.hh"
#include "synth/lane/lane_kernels.hh"
#include "synth/op_plan.hh"

namespace quest {

/**
 * Scratch arena reused across evaluate() calls: the forward prefix
 * stack and the (transposed) backward accumulator, as split
 * real/imaginary planes with 64-byte-aligned bases, plus the per-op
 * U3 entry/derivative cache. All buffers are sized once; ensure()
 * only grows, and steady-state calls never touch the allocator.
 */
struct HsWorkspace
{
    std::vector<double> prefixRe, prefixIm;      //!< (opCount + 1) slices
    std::vector<double> backwardRe, backwardIm;  //!< transposed suffix
    std::vector<Complex> u3Terms;  //!< per U3 op: 4 entries + 3*4 derivs

    /** Aligned bases of the planes above (see simd::fitAligned),
     *  set by ensure(). */
    double *preRe = nullptr, *preIm = nullptr;
    double *bwdRe = nullptr, *bwdIm = nullptr;

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
 * Bit-identical on every ISA to its value on the portable one-lane
 * table (the QUEST_SIMD=scalar dispatch), so a result never depends
 * on the dispatched kernel table. One
 * instance serves all of an instantiate() call's starts, one after
 * another (see synth/instantiater.cc). Not safe for concurrent
 * evaluate() calls on one instance: the workspace is reused across
 * calls.
 */
class HsCost
{
  public:
    HsCost(const Matrix &target, const Ansatz &ansatz);

    /** Objective value; fills @p grad (resized to the parameter
     *  count). Allocation-free after the constructor. */
    double evaluate(const std::vector<double> &params,
                    std::vector<double> &grad);

    /** The reusable arena (test/diagnostic hook). */
    const HsWorkspace &workspace() const { return ws; }

    /** The kernel table in use (test/diagnostic hook); defaults to
     *  the process-wide dispatch, overridable for parity tests. */
    void useKernels(const kern::lane::OneLaneKernelSet &k) { kernels = &k; }

  private:
    double dimSquared;
    size_t dim;
    const kern::lane::OneLaneKernelSet *kernels;
    synth::CompiledPlan plan;
    std::vector<double> tcRe, tcIm;  //!< conj(target): trace + backward init
    HsWorkspace ws;
};

} // namespace quest

#endif // QUEST_SYNTH_HS_COST_HH
