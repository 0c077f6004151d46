/**
 * @file
 * The dual-annealing objective of Algorithm 1, generalized to
 * partitioned circuits via the block-similarity fraction (Sec. 3.6).
 */

#ifndef QUEST_QUEST_OBJECTIVE_HH
#define QUEST_QUEST_OBJECTIVE_HH

#include <cstddef>
#include <vector>

#include "anneal/dual_annealing.hh"
#include "quest/result.hh"

namespace quest {

/**
 * Scores a candidate full-circuit approximation (one approximation
 * index per block) against the already-selected samples:
 *
 *   - 1.0 if the Sec. 3.8 distance bound exceeds the threshold;
 *   - normalized CNOT count if nothing is selected yet;
 *   - w * cnorm + (1 - w) * similarity otherwise, where similarity
 *     is the mean over selected samples of the fraction of blocks
 *     whose approximations are "similar" (Alg. 1 line 13).
 *
 * As the annealer's CoordinateObjective, it caches its base choice's
 * per-block distances, their running sums in block order, its CNOT
 * total and its similar-block count per selected sample, so a
 * one-block move is scored from integer deltas and the bound's own
 * additions after the moved block, bit for bit as scoreChoice().
 *
 * Scoring allocates nothing once the first call has sized the
 * scratch vectors below, so score() and scoreChoice() are const but
 * not safe to call on one objective from several threads at once.
 */
class SelectionObjective final : public CoordinateObjective
{
  public:
    /**
     * @param result   pipeline state with blockApprox/blockSimilar
     *                 populated
     * @param selected already-selected choice vectors
     * @param threshold bound threshold
     * @param cnot_weight objective weight on CNOT count
     */
    SelectionObjective(const QuestResult &result,
                       const std::vector<std::vector<int>> &selected,
                       double threshold, double cnot_weight);

    /** Map annealer coordinates in [0, 1) to approximation indices. */
    std::vector<int> toChoice(const std::vector<double> &x) const;

    /** Score a choice vector. */
    double scoreChoice(const std::vector<int> &choice) const;

    /** Annealer-facing objective over [0, 1)^numBlocks. */
    double score(const std::vector<double> &x) const override;

    void setBase(const std::vector<double> &x) override;

    double scoreMove(size_t b, double xb) override;

    /** Distance bound (sum of chosen block distances). */
    double bound(const std::vector<int> &choice) const;

    /** CNOT count of the assembled choice. */
    size_t cnots(const std::vector<int> &choice) const;

  private:
    /** Approximation index of coordinate @p xb of block @p b. */
    int index(size_t b, double xb) const;

    /** toChoice() into @p choice. */
    void toChoice(const std::vector<double> &x,
                  std::vector<int> &choice) const;

    /** 1 if block @p b's approximations @p i and @p j are similar. */
    size_t similar(size_t b, int i, int j) const;

    /** Similar-block count of @p choice per selected sample, into
     *  @p counts. */
    void similarCounts(const std::vector<int> &choice,
                       std::vector<size_t> &counts) const;

    /** Score of a choice within the threshold, from its CNOT total
     *  and its similar-block count per selected sample. */
    double feasibleScore(size_t cnots,
                         const std::vector<size_t> &similar_counts) const;

    const QuestResult &result;
    const std::vector<std::vector<int>> &selected;
    double threshold;
    double cnotWeight;

    // The base point of scoreMove().
    std::vector<int> baseChoice;
    std::vector<double> baseDistance;   //!< per block
    std::vector<double> prefixBound;    //!< sum of blocks before b
    size_t baseCnots = 0;
    std::vector<size_t> baseSimilar;    //!< per selected sample
    double baseScore = 0.0;

    // Scratch of score(), scoreChoice() and scoreMove().
    mutable std::vector<int> choiceScratch;
    mutable std::vector<size_t> similarScratch;
};

} // namespace quest

#endif // QUEST_QUEST_OBJECTIVE_HH
