/**
 * @file
 * Precompiled ansatz execution plan of the HS cost function.
 *
 * Wire bits and parameter bases are structural — they depend only on
 * the ansatz, never on the parameter values — so HsCost resolves
 * them once at construction.
 */

#ifndef QUEST_SYNTH_OP_PLAN_HH
#define QUEST_SYNTH_OP_PLAN_HH

#include <cstddef>
#include <vector>

#include "synth/ansatz.hh"

namespace quest::synth {

/** One op of the precompiled execution plan: wire bits and the
 *  parameter base resolved once at construction. */
struct OpPlan
{
    bool isCx;
    size_t bit;   //!< U3 wire bit, or CX control bit
    size_t bit2;  //!< CX target bit (unused for U3)
    int base;     //!< first parameter index (-1 for CX)
};

/** The full plan for an ansatz, plus the derived counts. */
struct CompiledPlan
{
    std::vector<OpPlan> ops;
    size_t u3Count = 0;
    int nParams = 0;
};

/** Compile the ansatz op sequence into wire bits and parameter
 *  bases. */
inline CompiledPlan
compilePlan(const Ansatz &ansatz)
{
    CompiledPlan plan;
    const auto &ops = ansatz.operations();
    plan.ops.reserve(ops.size());
    int p = 0;
    for (const AnsatzOp &op : ops) {
        OpPlan e;
        e.isCx = op.isCx;
        e.bit = ansatz.wireBit(op.a);
        e.bit2 = op.isCx ? ansatz.wireBit(op.b) : 0;
        e.base = op.isCx ? -1 : p;
        if (!op.isCx) {
            p += 3;
            ++plan.u3Count;
        }
        plan.ops.push_back(e);
    }
    plan.nParams = p;
    return plan;
}

} // namespace quest::synth

#endif // QUEST_SYNTH_OP_PLAN_HH
