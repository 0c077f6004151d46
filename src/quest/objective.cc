#include "quest/objective.hh"

#include <algorithm>
#include <cmath>

#include "util/logging.hh"

namespace quest {

SelectionObjective::SelectionObjective(
    const QuestResult &result,
    const std::vector<std::vector<int>> &selected, double threshold,
    double cnot_weight)
    : result(result), selected(selected), threshold(threshold),
      cnotWeight(cnot_weight)
{
    QUEST_ASSERT(cnot_weight >= 0.0 && cnot_weight <= 1.0,
                 "cnot weight must be in [0, 1]");
}

int
SelectionObjective::index(size_t b, double xb) const
{
    const int count = static_cast<int>(result.blockApprox[b].size());
    int idx = static_cast<int>(std::floor(xb * count));
    return std::clamp(idx, 0, count - 1);
}

void
SelectionObjective::toChoice(const std::vector<double> &x,
                             std::vector<int> &choice) const
{
    QUEST_ASSERT(x.size() == result.blockApprox.size(),
                 "coordinate arity mismatch");
    choice.resize(x.size());
    for (size_t b = 0; b < x.size(); ++b)
        choice[b] = index(b, x[b]);
}

std::vector<int>
SelectionObjective::toChoice(const std::vector<double> &x) const
{
    std::vector<int> choice;
    toChoice(x, choice);
    return choice;
}

double
SelectionObjective::bound(const std::vector<int> &choice) const
{
    double sum = 0.0;
    for (size_t b = 0; b < choice.size(); ++b)
        sum += result.blockApprox[b][choice[b]].distance;
    return sum;
}

size_t
SelectionObjective::cnots(const std::vector<int> &choice) const
{
    size_t sum = 0;
    for (size_t b = 0; b < choice.size(); ++b)
        sum += result.blockApprox[b][choice[b]].cnotCount;
    return sum;
}

size_t
SelectionObjective::similar(size_t b, int i, int j) const
{
    const size_t count = result.blockApprox[b].size();
    return result.blockSimilar[b][static_cast<size_t>(i) * count +
                                  static_cast<size_t>(j)]
               ? 1
               : 0;
}

void
SelectionObjective::similarCounts(const std::vector<int> &choice,
                                  std::vector<size_t> &counts) const
{
    counts.assign(selected.size(), 0);
    for (size_t s = 0; s < selected.size(); ++s)
        for (size_t b = 0; b < choice.size(); ++b)
            counts[s] += similar(b, choice[b], selected[s][b]);
}

double
SelectionObjective::feasibleScore(
    size_t cnots, const std::vector<size_t> &similar_counts) const
{
    const double cnorm =
        result.originalCnots == 0
            ? 0.0
            : static_cast<double>(cnots) /
                  static_cast<double>(result.originalCnots);

    if (selected.empty())
        return cnorm;  // first sample: pure CNOT minimization

    // Mean over selected samples of the fraction of similar blocks.
    double total = 0.0;
    const size_t num_blocks = result.blockApprox.size();
    for (size_t count : similar_counts)
        total += static_cast<double>(count) /
                 static_cast<double>(num_blocks);
    const double similarity = total / static_cast<double>(selected.size());

    return cnotWeight * cnorm + (1.0 - cnotWeight) * similarity;
}

double
SelectionObjective::scoreChoice(const std::vector<int> &choice) const
{
    const double b = bound(choice);
    if (b > threshold) {
        // Coarse approximation: eliminated (Alg. 1 line 7). The
        // excess grades the plateau so annealing can descend toward
        // the feasible region; anything >= 1.0 is never selected.
        return 1.0 + (b - threshold);
    }
    similarCounts(choice, similarScratch);
    return feasibleScore(cnots(choice), similarScratch);
}

double
SelectionObjective::score(const std::vector<double> &x) const
{
    toChoice(x, choiceScratch);
    return scoreChoice(choiceScratch);
}

void
SelectionObjective::setBase(const std::vector<double> &x)
{
    toChoice(x, baseChoice);
    const size_t num_blocks = baseChoice.size();
    baseDistance.resize(num_blocks);
    prefixBound.resize(num_blocks);
    double sum = 0.0;
    for (size_t b = 0; b < num_blocks; ++b) {
        prefixBound[b] = sum;
        baseDistance[b] = result.blockApprox[b][baseChoice[b]].distance;
        sum += baseDistance[b];
    }
    baseCnots = cnots(baseChoice);
    similarCounts(baseChoice, baseSimilar);
    baseScore = scoreChoice(baseChoice);
}

double
SelectionObjective::scoreMove(size_t b, double xb)
{
    QUEST_ASSERT(b < baseChoice.size(), "move outside the base point");
    const int from = baseChoice[b];
    const int to = index(b, xb);
    if (to == from)
        return baseScore;  // scoreChoice() of the base choice itself

    // bound()'s additions in bound()'s order: the sum before block b,
    // the moved block, then every later block of the base.
    const BlockApprox &moved = result.blockApprox[b][to];
    double sum = prefixBound[b] + moved.distance;
    for (size_t j = b + 1; j < baseDistance.size(); ++j)
        sum += baseDistance[j];
    if (sum > threshold)
        return 1.0 + (sum - threshold);

    // Integer deltas: exact whatever the order.
    const size_t cnots =
        baseCnots -
        static_cast<size_t>(result.blockApprox[b][from].cnotCount) +
        static_cast<size_t>(moved.cnotCount);
    similarScratch.resize(selected.size());
    for (size_t s = 0; s < selected.size(); ++s) {
        const int other = selected[s][b];
        similarScratch[s] = baseSimilar[s] - similar(b, from, other) +
                            similar(b, to, other);
    }
    return feasibleScore(cnots, similarScratch);
}

} // namespace quest
