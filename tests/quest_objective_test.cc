/**
 * @file
 * Algorithm 1 selection-objective tests on hand-built pipeline state.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>

#include "allocation_probe.hh"
#include "quest/objective.hh"
#include "selection_state.hh"

namespace quest {
namespace {

/** Two blocks with hand-authored approximation tables. */
QuestResult
makeState()
{
    QuestResult r;
    r.original = Circuit(4);
    r.originalCnots = 10;

    auto make_block_circuit = [](int cnots) {
        Circuit c(2);
        for (int i = 0; i < cnots; ++i)
            c.append(Gate::cx(0, 1));
        return c;
    };

    // Block 0: original (5 cx, d=0), cheap (1 cx, d=0.04),
    //          mid (3 cx, d=0.01).
    r.blockApprox.push_back({{make_block_circuit(5), 0.0, 5},
                             {make_block_circuit(1), 0.04, 1},
                             {make_block_circuit(3), 0.01, 3}});
    // Block 1: original (5 cx, d=0), cheap (2 cx, d=0.05).
    r.blockApprox.push_back({{make_block_circuit(5), 0.0, 5},
                             {make_block_circuit(2), 0.05, 2}});

    // Similarity: within block 0, approx 1 and 2 are dissimilar;
    // everything is similar to itself; the original is dissimilar to
    // the approximations.
    r.blockSimilar.push_back({1, 0, 0,
                              0, 1, 0,
                              0, 0, 1});
    r.blockSimilar.push_back({1, 0,
                              0, 1});
    r.threshold = 0.1;
    return r;
}

TEST(SelectionObjective, ToChoiceMapsCoordinates)
{
    QuestResult state = makeState();
    std::vector<std::vector<int>> selected;
    SelectionObjective obj(state, selected, state.threshold, 0.5);
    EXPECT_EQ(obj.toChoice({0.0, 0.0}), (std::vector<int>{0, 0}));
    EXPECT_EQ(obj.toChoice({0.99, 0.99}), (std::vector<int>{2, 1}));
    EXPECT_EQ(obj.toChoice({0.34, 0.5}), (std::vector<int>{1, 1}));
}

TEST(SelectionObjective, BoundIsSumOfBlockDistances)
{
    QuestResult state = makeState();
    std::vector<std::vector<int>> selected;
    SelectionObjective obj(state, selected, state.threshold, 0.5);
    EXPECT_NEAR(obj.bound({1, 1}), 0.09, 1e-12);
    EXPECT_NEAR(obj.bound({0, 0}), 0.0, 1e-12);
}

TEST(SelectionObjective, CnotsSumOverBlocks)
{
    QuestResult state = makeState();
    std::vector<std::vector<int>> selected;
    SelectionObjective obj(state, selected, state.threshold, 0.5);
    EXPECT_EQ(obj.cnots({1, 1}), 3u);
    EXPECT_EQ(obj.cnots({0, 0}), 10u);
}

TEST(SelectionObjective, FirstSampleIsPureCnotCount)
{
    QuestResult state = makeState();
    std::vector<std::vector<int>> selected;
    SelectionObjective obj(state, selected, state.threshold, 0.5);
    // cnorm = 3/10 for the cheapest feasible choice.
    EXPECT_NEAR(obj.scoreChoice({1, 1}), 0.3, 1e-12);
    EXPECT_NEAR(obj.scoreChoice({0, 0}), 1.0, 1e-12);  // cnorm = 1
}

TEST(SelectionObjective, ThresholdBreachIsNeverSelectable)
{
    QuestResult state = makeState();
    state.threshold = 0.05;  // {1,1} bound 0.09 now breaches
    std::vector<std::vector<int>> selected;
    SelectionObjective obj(state, selected, state.threshold, 0.5);
    // Infeasible choices score >= 1.0 (1.0 plus the graded excess
    // that lets annealing descend toward feasibility).
    EXPECT_NEAR(obj.scoreChoice({1, 1}), 1.0 + (0.09 - 0.05), 1e-12);
    EXPECT_GE(obj.scoreChoice({1, 1}), 1.0);
}

TEST(SelectionObjective, PenaltyGradesWithExcess)
{
    QuestResult state = makeState();
    state.threshold = 0.02;
    std::vector<std::vector<int>> selected;
    SelectionObjective obj(state, selected, state.threshold, 0.5);
    // {1,1} (bound 0.09) is worse than {2,1} (bound 0.06).
    EXPECT_GT(obj.scoreChoice({1, 1}), obj.scoreChoice({2, 1}));
}

TEST(SelectionObjective, SimilarityPenalizesRepeats)
{
    QuestResult state = makeState();
    std::vector<std::vector<int>> selected = {{1, 1}};
    SelectionObjective obj(state, selected, state.threshold, 0.5);

    // Re-proposing the identical choice: both blocks similar
    // (identity similarity), m = 1, cnorm = 0.3 -> 0.65.
    EXPECT_NEAR(obj.scoreChoice({1, 1}), 0.5 * 1.0 + 0.5 * 0.3, 1e-12);

    // Different approximation for block 0 (dissimilar), same for
    // block 1: m = 0.5, cnorm = 0.5.
    EXPECT_NEAR(obj.scoreChoice({2, 1}), 0.5 * 0.5 + 0.5 * 0.5, 1e-12);
}

TEST(SelectionObjective, AveragesOverSelectedSamples)
{
    QuestResult state = makeState();
    std::vector<std::vector<int>> selected = {{1, 1}, {2, 1}};
    SelectionObjective obj(state, selected, state.threshold, 0.5);
    // Candidate {0,1}: vs {1,1}: blocks similar = (0,1) -> 0.5;
    // vs {2,1}: (0,1) -> 0.5; mean m = 0.5. cnorm = 7/10.
    EXPECT_NEAR(obj.scoreChoice({0, 1}), 0.5 * 0.5 + 0.5 * 0.7, 1e-12);
}

TEST(SelectionObjective, CnotWeightExtremes)
{
    QuestResult state = makeState();
    std::vector<std::vector<int>> selected = {{1, 1}};
    SelectionObjective pure_cnot(state, selected, state.threshold, 1.0);
    EXPECT_NEAR(pure_cnot.scoreChoice({1, 1}), 0.3, 1e-12);
    SelectionObjective pure_sim(state, selected, state.threshold, 0.0);
    EXPECT_NEAR(pure_sim.scoreChoice({1, 1}), 1.0, 1e-12);
}

TEST(SelectionObjective, ScoreMatchesScoreChoice)
{
    QuestResult state = makeState();
    std::vector<std::vector<int>> selected;
    SelectionObjective obj(state, selected, state.threshold, 0.5);
    EXPECT_EQ(obj.score({0.4, 0.6}),
              obj.scoreChoice(obj.toChoice({0.4, 0.6})));
}

TEST(SelectionObjective, ScoreMoveMatchesScoreChoiceBitExact)
{
    // Every one-block move from several bases, at the polish's 16
    // grid points, must score bit for bit as scoreChoice() of the
    // edited choice. The threshold sits a few ulps either side of the
    // base's bound, so moves land on both sides of it, and the spread
    // distances make any reordering of the bound's sum show.
    constexpr double inf = std::numeric_limits<double>::infinity();
    Rng rng(31);
    size_t feasible = 0, infeasible = 0;
    for (int trial = 0; trial < 2; ++trial) {
        const QuestResult state = randomSelectionState(rng, 300);
        const size_t blocks = state.blockApprox.size();
        auto random_point = [&] {
            std::vector<double> x(blocks);
            for (double &v : x)
                v = rng.uniform();
            return x;
        };
        for (size_t num_selected : {0, 1, 5, 16}) {
            const auto selected = randomChoices(rng, state, num_selected);
            for (int base = 0; base < 2; ++base) {
                const std::vector<double> x = random_point();
                const std::vector<double> stale = random_point();
                const SelectionObjective measure(state, selected, 0.0, 0.5);
                const double base_bound = measure.bound(measure.toChoice(x));
                for (double toward : {-inf, inf}) {
                    double threshold = base_bound;
                    for (int ulp = 0; ulp < 3; ++ulp)
                        threshold = std::nextafter(threshold, toward);
                    SelectionObjective obj(state, selected, threshold, 0.5);
                    obj.setBase(stale);  // re-basing must replace it all
                    obj.setBase(x);
                    std::vector<double> edited = x;
                    for (size_t b = 0; b < blocks; ++b) {
                        for (int g = 0; g < 16; ++g) {
                            edited[b] = (g + 0.5) / 16;
                            const std::vector<int> choice =
                                obj.toChoice(edited);
                            const double want = obj.scoreChoice(choice);
                            const double got = obj.scoreMove(b, edited[b]);
                            ASSERT_EQ(std::bit_cast<uint64_t>(got),
                                      std::bit_cast<uint64_t>(want))
                                << "block " << b << " grid " << g << " with "
                                << num_selected << " selected: " << got
                                << " vs " << want;
                            ++(obj.bound(choice) > threshold ? infeasible
                                                             : feasible);
                        }
                        edited[b] = x[b];
                    }
                }
            }
        }
    }
    EXPECT_GT(feasible, 0u);
    EXPECT_GT(infeasible, 0u);
}

TEST(SelectionObjective, ScoringAllocatesNothingAfterTheFirstCall)
{
    // The annealer scores every step of a run: score(), scoreMove()
    // and the polish's setBase() reuse the objective's scratch once
    // the first calls have sized it. The points include the
    // all-original choice, so both the feasible and the infeasible
    // paths run.
    Rng rng(41);
    const QuestResult state = randomSelectionState(rng, 60);
    const auto selected = randomChoices(rng, state, 3);
    const size_t blocks = state.blockApprox.size();
    std::vector<std::vector<double>> points(8, std::vector<double>(blocks));
    for (size_t p = 1; p < points.size(); ++p)
        for (double &v : points[p])
            v = rng.uniform();
    SelectionObjective obj(state, selected, 3.0, 0.5);
    obj.score(points[0]);
    obj.setBase(points[1]);
    obj.scoreMove(0, 0.5);

    size_t feasible = 0, infeasible = 0;
    const uint64_t before = g_allocation_count.load();
    for (const std::vector<double> &x : points) {
        ++(obj.score(x) < 1.0 ? feasible : infeasible);
        obj.setBase(x);
        for (size_t b = 0; b < blocks; ++b)
            ++(obj.scoreMove(b, 0.7) < 1.0 ? feasible : infeasible);
    }
    const uint64_t allocations = g_allocation_count.load() - before;
    EXPECT_EQ(allocations, 0u);
    EXPECT_GT(feasible, 0u);
    EXPECT_GT(infeasible, 0u);
}

} // namespace
} // namespace quest
