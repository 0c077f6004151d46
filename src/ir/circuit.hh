/**
 * @file
 * Circuit container: an ordered gate list over a fixed wire count.
 */

#ifndef QUEST_IR_CIRCUIT_HH
#define QUEST_IR_CIRCUIT_HH

#include <vector>

#include "ir/gate.hh"
#include "linalg/matrix.hh"

namespace quest {

/**
 * A quantum circuit: gates applied in list order (index 0 first) to
 * n wires. Measurement gates are allowed only as a trailing suffix
 * and are ignored by unitary construction.
 */
class Circuit
{
  public:
    /** Default: a zero-wire placeholder (only assignment is valid). */
    Circuit() : nQubits(0) {}

    /** An empty circuit on @p n_qubits wires. */
    explicit Circuit(int n_qubits);

    int numQubits() const { return nQubits; }

    /** Append a gate; validates wire indices. */
    void append(Gate gate);

    /** Make room for @p n gates in all. */
    void reserve(size_t n) { gateList.reserve(n); }

    /** Append every gate of @p other, remapping its wire i to
     *  wire_map[i]. */
    void appendCircuit(const Circuit &other,
                       const std::vector<int> &wire_map);

    /** Append every gate of @p other on identical wires. */
    void appendCircuit(const Circuit &other);

    /** Gate access. */
    const Gate &operator[](size_t i) const { return gateList[i]; }
    Gate &operator[](size_t i) { return gateList[i]; }
    size_t size() const { return gateList.size(); }
    bool empty() const { return gateList.empty(); }
    auto begin() const { return gateList.begin(); }
    auto end() const { return gateList.end(); }
    const std::vector<Gate> &gates() const { return gateList; }

    /** Remove the gate at index i. */
    void erase(size_t i);

    /** Replace the gate at index i. */
    void replace(size_t i, Gate gate);

    /** Number of non-pseudo gates. */
    size_t gateCount() const;

    /** Number of literal CX gates. */
    size_t cnotCount() const;

    /** CNOT-equivalent count including un-lowered multi-qubit gates. */
    size_t cnotEquivalentCount() const;

    /** Number of entangling (multi-qubit) gates of any kind. */
    size_t twoQubitGateCount() const;

    /** Circuit depth: longest wire-dependency chain (pseudo-ops
     *  excluded). */
    size_t depth() const;

    /** True if any gate is a Measure. */
    bool hasMeasurements() const;

    /** Copy without Barrier/Measure pseudo-ops. */
    Circuit withoutPseudoOps() const;

    /**
     * The adjoint circuit: gates reversed and individually inverted.
     * Exact up to a global phase (see Gate::inverse).
     */
    Circuit inverse() const;

    /**
     * Copy of this circuit acting on @p new_n_qubits wires with wire
     * i renamed to wire_map[i].
     */
    Circuit remapped(const std::vector<int> &wire_map,
                     int new_n_qubits) const;

    /** Sorted list of wires that at least one gate acts on. */
    std::vector<int> activeQubits() const;

  private:
    int nQubits;
    std::vector<Gate> gateList;
};

/**
 * Full unitary of a circuit (measurements ignored), built by the slab
 * kernel of ir/unitary_kernel.hh; meant for block unitaries. For
 * larger circuits use buildUnitary (sim/unitary_builder.hh), which
 * gives the same bytes. Panics above 12 qubits.
 */
Matrix circuitUnitary(const Circuit &circuit);

} // namespace quest

#endif // QUEST_IR_CIRCUIT_HH
