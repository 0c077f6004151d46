/**
 * @file
 * Lane-batched Hilbert-Schmidt cost: one evaluation computes the
 * objective and analytic gradient for up to kLanes parameter vectors
 * of the SAME ansatz against the SAME target.
 *
 * The op plan, the target conjugate and the loop structure are
 * exactly the one-lane HsCost's (hs_cost.cc); the matrices are laid
 * out structure-of-arrays (batch_kernels.hh) and every scalar
 * floating-point operation becomes one vector operation across
 * lanes. Trigonometry stays scalar: u3WithDerivatives runs once per
 * (op, lane) and is fanned into the SoA gate cache, so the libm
 * values each lane sees are the ones HsCost computes. The result is
 * bit-for-bit parity per lane, which the multistart driver
 * (instantiater.cc) relies on when it switches between this and
 * HsCost, and which the kernel tests pin.
 *
 * Only the gradient path exists, as in HsCost: L-BFGS evaluates the
 * gradient at every point it visits.
 */

#ifndef QUEST_SYNTH_BATCH_BATCHED_HS_COST_HH
#define QUEST_SYNTH_BATCH_BATCHED_HS_COST_HH

#include <array>
#include <cstdint>
#include <vector>

#include "linalg/matrix.hh"
#include "synth/ansatz.hh"
#include "synth/batch/batch_kernels.hh"
#include "synth/op_plan.hh"

namespace quest::synth {

/**
 * Flat SoA scratch arena reused across evaluateBatch() calls. All
 * buffers are plain std::vector<double> (no aligned new: the
 * allocation-probe tests override only the plain operators) with
 * split real/imaginary planes; ensure() only grows, and steady-state
 * calls never touch the allocator.
 */
struct BatchedHsWorkspace
{
    std::vector<double> prefixRe, prefixIm;      //!< (opCount+1) SoA slices
    std::vector<double> backwardRe, backwardIm;  //!< transposed accumulator
    std::vector<double> u3Re, u3Im;  //!< per U3 op: 4 entries + 3*4 derivs
    std::vector<double> gtRe, gtIm;  //!< transposed-gate scratch (4 entries)
    std::vector<double> w2Re, w2Im;  //!< trace contraction (4 entries)
    std::vector<double> trRe, trIm;  //!< per-lane trace accumulators

    /** 64-byte-aligned base of each buffer above, set by ensure()
     *  (see simd::fitAligned): one lane group is kLanes
     *  doubles, exactly one cache line. */
    double *preRe = nullptr, *preIm = nullptr;
    double *bwdRe = nullptr, *bwdIm = nullptr;
    double *gRe = nullptr, *gIm = nullptr;
    double *tgRe = nullptr, *tgIm = nullptr;
    double *wRe = nullptr, *wIm = nullptr;
    double *tRe = nullptr, *tIm = nullptr;

    uint64_t allocations = 0;  //!< ensure() calls that grew a buffer
    uint64_t reuses = 0;       //!< ensure() calls served without growth

    /** Size the arena; returns true when any buffer had to grow. */
    bool ensure(size_t dim, size_t opCount, size_t u3Count);
};

/**
 * Batched counterpart of HsCost. Not safe for concurrent
 * evaluateBatch() calls on one instance; the multistart driver
 * owns one instance per call and runs on a single thread.
 */
class BatchedHsCost
{
  public:
    static constexpr size_t kLanes = kern::batch::kLanes;

    BatchedHsCost(const Matrix &target, const Ansatz &ansatz);

    /**
     * Evaluate all lanes at once. xs[l] points at lane l's parameter
     * vector (size paramCount()); a null entry marks an idle lane,
     * which is computed with all-zero parameters (identity-phase
     * U3s, always finite) and produces no output. For live lanes,
     * f[l] receives the objective and grads[l] (non-null, resized to
     * paramCount()) the analytic gradient. Allocation-free after the
     * constructor.
     */
    void evaluateBatch(const std::array<const std::vector<double> *,
                                        kLanes> &xs,
                       std::array<double, kLanes> &f,
                       const std::array<std::vector<double> *, kLanes>
                           &grads);

    int paramCount() const { return plan.nParams; }

    /** The reusable arena (test/diagnostic hook). */
    const BatchedHsWorkspace &workspace() const { return ws; }

    /** The kernel table in use (test/diagnostic hook); defaults to
     *  the process-wide dispatch, overridable for parity tests. */
    void useKernels(const kern::batch::BatchKernelSet &k) { kernels = &k; }

  private:
    double dimSquared;
    size_t dim;
    const kern::batch::BatchKernelSet *kernels;
    CompiledPlan plan;
    std::vector<double> tcRe, tcIm;  //!< conj(target), plain scalars
    Complex idleG[4];       //!< u3WithDerivatives(0,0,0): gate ...
    Complex idleDg[3][4];   //!< ... and derivatives, for idle lanes
    BatchedHsWorkspace ws;
};

} // namespace quest::synth

#endif // QUEST_SYNTH_BATCH_BATCHED_HS_COST_HH
