/**
 * @file
 * Random STEP-3 pipeline states for selection-objective tests.
 */

#ifndef QUEST_TESTS_SELECTION_STATE_HH
#define QUEST_TESTS_SELECTION_STATE_HH

#include <cmath>
#include <cstdint>
#include <vector>

#include "quest/result.hh"
#include "util/rng.hh"

namespace quest {

/**
 * @p blocks blocks of 1 to 24 approximations each. Index 0 is the
 * original block (distance 0, the most CNOTs); the other distances
 * spread over 2^-20..2^0, so any reordering of a bound's sum changes
 * its last bits.
 */
inline QuestResult
randomSelectionState(Rng &rng, size_t blocks)
{
    constexpr int kOriginalCnots = 12;
    QuestResult r;
    for (size_t b = 0; b < blocks; ++b) {
        const uint32_t count = 1 + rng.uniformInt(24);
        std::vector<BlockApprox> list(count);
        list[0].cnotCount = kOriginalCnots;
        for (uint32_t k = 1; k < count; ++k) {
            list[k].distance = std::exp2(-20.0 * rng.uniform());
            list[k].cnotCount =
                static_cast<int>(rng.uniformInt(kOriginalCnots));
        }
        std::vector<char> similar(count * count, 0);
        for (uint32_t i = 0; i < count; ++i) {
            similar[i * count + i] = 1;
            for (uint32_t j = i + 1; j < count; ++j) {
                const char s = rng.uniformInt(2) == 0 ? 1 : 0;
                similar[i * count + j] = s;
                similar[j * count + i] = s;
            }
        }
        r.originalCnots += kOriginalCnots;
        r.blockApprox.push_back(std::move(list));
        r.blockSimilar.push_back(std::move(similar));
    }
    return r;
}

/** @p n uniformly random choice vectors over @p state's blocks. */
inline std::vector<std::vector<int>>
randomChoices(Rng &rng, const QuestResult &state, size_t n)
{
    std::vector<std::vector<int>> choices(n);
    for (std::vector<int> &choice : choices)
        for (const auto &list : state.blockApprox)
            choice.push_back(static_cast<int>(
                rng.uniformInt(static_cast<uint32_t>(list.size()))));
    return choices;
}

} // namespace quest

#endif // QUEST_TESTS_SELECTION_STATE_HH
