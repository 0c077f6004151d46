/**
 * @file
 * QUEST pipeline result types.
 */

#ifndef QUEST_QUEST_RESULT_HH
#define QUEST_QUEST_RESULT_HH

#include <string>
#include <vector>

#include "ir/circuit.hh"
#include "partition/scan_partitioner.hh"
#include "quest/mode.hh"

namespace quest {

/** How one block's synthesis ended. Every non-Ok status means the
 *  original block circuit was substituted (distance 0, so the
 *  Theorem-1 bound is unaffected). */
enum class BlockStatus {
    Ok,       //!< synthesis completed; approximations available
    Timeout,  //!< block/run deadline fired mid-synthesis
    Diverged, //!< the numerical search produced non-finite costs
    Faulted,  //!< synthesis threw (I/O fault, injected fault, bug)
    Fallback, //!< not attempted: run already cancelled/out of budget
};

/** Stable lower-case name ("ok", "timeout", ...). */
const char *blockStatusName(BlockStatus status);

/** Structured per-block synthesis outcome. */
struct BlockOutcome
{
    BlockStatus status = BlockStatus::Ok;

    /** One-line reason for a non-Ok status (exception text). */
    std::string detail;

    bool ok() const { return status == BlockStatus::Ok; }
};

/** One synthesized approximation of a block. */
struct BlockApprox
{
    Circuit circuit;        //!< block-local native circuit
    double distance = 0.0;  //!< HS distance to the block unitary
    int cnotCount = 0;
};

/** One selected full-circuit approximation sample. */
struct ApproxSample
{
    std::vector<int> choice;   //!< approximation index per block
    Circuit circuit;           //!< assembled full circuit
    size_t cnotCount = 0;      //!< CNOT count of @ref circuit
    double distanceBound = 0.0; //!< Sec. 3.8 bound: sum of block dists

    /**
     * Exact full-circuit HS process distance to the lowered original,
     * measured in SelectionMode::Full only; negative means "not
     * measured" (BlockBound mode, or the run budget fired first).
     * Theorem 1 guarantees measuredDistance <= distanceBound.
     */
    double measuredDistance = -1.0;

    /** True when @ref measuredDistance holds a measured value. */
    bool measured() const { return measuredDistance >= 0.0; }
};

/**
 * The certificate reported with every result: what the Theorem-1
 * additive bound promises about the selected ensemble, and — in
 * SelectionMode::Full — how the measured full-circuit distances
 * compare. All distances are Hilbert-Schmidt process distances in
 * [0, 2]; @ref outputEstimate is a heuristic output-TVD proxy in
 * [0, 1] (metrics/output_distance.hh), not a guarantee.
 */
struct BoundCertificate
{
    SelectionMode mode = SelectionMode::Full; //!< how it was produced

    /** Bound ceiling the selection enforced (QuestResult::threshold). */
    double threshold = 0.0;

    /** Largest Sec. 3.8 bound over the selected samples. */
    double maxBound = 0.0;

    /** Mean Sec. 3.8 bound over the selected samples. */
    double meanBound = 0.0;

    /** outputDistanceEstimate(maxBound): heuristic TVD proxy. */
    double outputEstimate = 0.0;

    /** Samples with a measured full-circuit distance (Full mode). */
    int measuredSamples = 0;

    /** Largest measured distance; negative when none was measured. */
    double maxMeasured = -1.0;
};

/** Everything the pipeline produced. */
struct QuestResult
{
    Circuit original;          //!< lowered input circuit
    std::vector<Block> blocks;

    /** Approximations per block (index 0 is always the original
     *  block circuit itself, distance zero). */
    std::vector<std::vector<BlockApprox>> blockApprox;

    /** Pairwise block-approximation similarity (Alg. 1 line 13):
     *  blockSimilar[b][i * numApprox_b + j]. */
    std::vector<std::vector<char>> blockSimilar;

    /** Selected dissimilar samples, in selection order. */
    std::vector<ApproxSample> samples;

    double threshold = 0.0;    //!< bound threshold used for selection
    size_t originalCnots = 0;  //!< CNOT count of the lowered input

    /** Mode this result was produced under (quest/mode.hh). */
    SelectionMode selectionMode = SelectionMode::Full;

    /** The Theorem-1 bound certificate for the selected ensemble. */
    BoundCertificate certificate;

    /** Per-block synthesis outcome (duplicate blocks share their
     *  canonical block's outcome). Invariant, asserted by tests:
     *  okBlocks() + fallbackBlocks() == blocks.size(). */
    std::vector<BlockOutcome> blockOutcomes;

    /** Blocks whose synthesis completed. */
    size_t okBlocks() const;

    /** Blocks degraded to their original circuit (any non-Ok
     *  status). */
    size_t fallbackBlocks() const;

    /** Stage wall-clock (Fig. 12). */
    double partitionSeconds = 0.0;
    double synthesisSeconds = 0.0;
    double annealSeconds = 0.0;
    /** The quest.certify block: the bound certificate, plus in Full
     *  mode the dense builds that measure every sample. */
    double certifySeconds = 0.0;

    /** Lowest CNOT count among the selected samples. */
    size_t minSampleCnots() const;

    /** Mean CNOT count over the selected samples. */
    double meanSampleCnots() const;
};

} // namespace quest

#endif // QUEST_QUEST_RESULT_HH
