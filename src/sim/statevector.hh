/**
 * @file
 * Statevector simulation primitives.
 *
 * Uses the library-wide bit convention: qubit q is bit (n - 1 - q) of
 * a basis-state index (qubit 0 is most significant).
 */

#ifndef QUEST_SIM_STATEVECTOR_HH
#define QUEST_SIM_STATEVECTOR_HH

#include <initializer_list>
#include <span>
#include <vector>

#include "ir/circuit.hh"
#include "linalg/matrix.hh"
#include "sim/distribution.hh"
#include "util/rng.hh"

namespace quest {

/** An n-qubit pure state with in-place gate application. */
class StateVector
{
  public:
    /** Initialize to |0...0>. */
    explicit StateVector(int n_qubits);

    int numQubits() const { return nQubits; }
    size_t dim() const { return amps.size(); }

    const Complex &amp(size_t k) const { return amps[k]; }
    const std::vector<Complex> &amplitudes() const { return amps; }
    std::vector<Complex> &amplitudes() { return amps; }

    /** Apply a gate (Barrier/Measure are no-ops). */
    void applyGate(const Gate &gate);

    /** Apply every gate of a circuit in order. */
    void applyCircuit(const Circuit &circuit);

    /** Apply an arbitrary 2x2 matrix to wire q. */
    void applyMatrix1(const Matrix &m, int q);

    /** Apply an arbitrary 4x4 matrix to wires (q0 msb, q1 lsb). */
    void applyMatrix2(const Matrix &m, int q0, int q1);

    /** Apply an arbitrary 2^k x 2^k matrix to the given wires. */
    void applyMatrix(const Matrix &m, std::span<const int> qubits);
    void
    applyMatrix(const Matrix &m, std::initializer_list<int> qubits)
    {
        applyMatrix(m, std::span<const int>(qubits));
    }

    /** Apply a Pauli (0 none, 1 X, 2 Y, 3 Z) to wire q. */
    void applyPauli(int pauli, int q);

    /** L2 norm (1.0 for a normalized state). */
    double norm() const;

    /** Measurement probabilities over all basis states. */
    Distribution probabilities() const;

    /** Sample a single measurement outcome without collapsing. */
    size_t sample(Rng &rng) const;

    /** Gates applied to this state so far (Barrier/Measure excluded). */
    uint64_t gateApplies() const { return nGateApplies; }

    /** Amplitude bytes read+written by those gate applications. */
    uint64_t bytesTouched() const { return nBytesTouched; }

  private:
    int nQubits;
    std::vector<Complex> amps;
    // Per-instance tallies (plain members so hot kernels pay no
    // atomic cost); applyCircuit flushes the deltas to the metrics
    // registry.
    uint64_t nGateApplies = 0;
    uint64_t nBytesTouched = 0;
};

} // namespace quest

#endif // QUEST_SIM_STATEVECTOR_HH
