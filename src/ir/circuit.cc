#include "ir/circuit.hh"

#include <algorithm>

#include "ir/unitary_kernel.hh"
#include "util/logging.hh"

namespace quest {

Circuit::Circuit(int n_qubits)
    : nQubits(n_qubits)
{
    QUEST_ASSERT(n_qubits > 0, "circuit needs at least one qubit");
}

void
Circuit::append(Gate gate)
{
    for (int q : gate.qubits) {
        QUEST_ASSERT(q >= 0 && q < nQubits,
                     "gate wire ", q, " outside circuit of ", nQubits,
                     " qubits");
    }
    gateList.push_back(std::move(gate));
}

void
Circuit::appendCircuit(const Circuit &other,
                       const std::vector<int> &wire_map)
{
    QUEST_ASSERT(static_cast<int>(wire_map.size()) == other.numQubits(),
                 "wire map arity mismatch");
    for (const Gate &g : other) {
        Gate mapped = g;
        for (auto &q : mapped.qubits)
            q = wire_map[q];
        append(std::move(mapped));
    }
}

void
Circuit::appendCircuit(const Circuit &other)
{
    std::vector<int> identity(other.numQubits());
    for (int i = 0; i < other.numQubits(); ++i)
        identity[i] = i;
    appendCircuit(other, identity);
}

void
Circuit::erase(size_t i)
{
    QUEST_ASSERT(i < gateList.size(), "erase index out of range");
    gateList.erase(gateList.begin() + static_cast<ptrdiff_t>(i));
}

void
Circuit::replace(size_t i, Gate gate)
{
    QUEST_ASSERT(i < gateList.size(), "replace index out of range");
    for (int q : gate.qubits)
        QUEST_ASSERT(q >= 0 && q < nQubits, "bad wire in replace");
    gateList[i] = std::move(gate);
}

size_t
Circuit::gateCount() const
{
    size_t count = 0;
    for (const Gate &g : gateList)
        if (g.type != GateType::Barrier && g.type != GateType::Measure)
            ++count;
    return count;
}

size_t
Circuit::cnotCount() const
{
    size_t count = 0;
    for (const Gate &g : gateList)
        if (g.type == GateType::CX)
            ++count;
    return count;
}

size_t
Circuit::cnotEquivalentCount() const
{
    size_t count = 0;
    for (const Gate &g : gateList)
        count += static_cast<size_t>(cnotEquivalents(g.type));
    return count;
}

size_t
Circuit::twoQubitGateCount() const
{
    size_t count = 0;
    for (const Gate &g : gateList)
        if (isEntangling(g.type))
            ++count;
    return count;
}

size_t
Circuit::depth() const
{
    std::vector<size_t> wire_depth(nQubits, 0);
    for (const Gate &g : gateList) {
        if (g.type == GateType::Barrier || g.type == GateType::Measure)
            continue;
        size_t level = 0;
        for (int q : g.qubits)
            level = std::max(level, wire_depth[q]);
        ++level;
        for (int q : g.qubits)
            wire_depth[q] = level;
    }
    return *std::max_element(wire_depth.begin(), wire_depth.end());
}

bool
Circuit::hasMeasurements() const
{
    for (const Gate &g : gateList)
        if (g.type == GateType::Measure)
            return true;
    return false;
}

Circuit
Circuit::withoutPseudoOps() const
{
    Circuit result(nQubits);
    for (const Gate &g : gateList)
        if (g.type != GateType::Barrier && g.type != GateType::Measure)
            result.append(g);
    return result;
}

Circuit
Circuit::inverse() const
{
    Circuit result(nQubits);
    for (auto it = gateList.rbegin(); it != gateList.rend(); ++it) {
        if (it->type == GateType::Measure)
            continue;
        result.append(it->inverse());
    }
    return result;
}

Circuit
Circuit::remapped(const std::vector<int> &wire_map,
                  int new_n_qubits) const
{
    QUEST_ASSERT(static_cast<int>(wire_map.size()) == nQubits,
                 "remap arity mismatch");
    Circuit result(new_n_qubits);
    result.appendCircuit(*this, wire_map);
    return result;
}

std::vector<int>
Circuit::activeQubits() const
{
    std::vector<bool> active(nQubits, false);
    for (const Gate &g : gateList)
        for (int q : g.qubits)
            active[q] = true;
    std::vector<int> result;
    for (int q = 0; q < nQubits; ++q)
        if (active[q])
            result.push_back(q);
    return result;
}

Matrix
circuitUnitary(const Circuit &circuit)
{
    const int n = circuit.numQubits();
    QUEST_ASSERT(n <= 12, "circuitUnitary limited to 12 qubits; use "
                 "buildUnitary (sim/unitary_builder.hh) for larger "
                 "circuits");
    return UnitaryPlan(circuit).unitary();
}

} // namespace quest
