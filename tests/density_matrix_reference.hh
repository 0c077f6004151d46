/**
 * @file
 * Exact density-matrix simulation with Pauli noise channels: the
 * infinite-shot reference the Monte-Carlo trajectory simulator
 * (sim/simulator.hh) is cross-validated against. It applies the same
 * channel exactly, from dense embedded gate matrices. Memory is 2^2n
 * amplitudes, so it is practical to about eight qubits.
 */

#ifndef QUEST_TESTS_DENSITY_MATRIX_REFERENCE_HH
#define QUEST_TESTS_DENSITY_MATRIX_REFERENCE_HH

#include <utility>

#include "embed_reference.hh"
#include "ir/circuit.hh"
#include "linalg/matrix.hh"
#include "sim/distribution.hh"
#include "sim/noise.hh"
#include "util/logging.hh"

namespace quest {

/** An n-qubit mixed state rho, initialized to |0...0><0...0|. */
class DensityMatrix
{
  public:
    explicit DensityMatrix(int n_qubits)
        : nQubits(n_qubits), rho(size_t{1} << n_qubits,
                                 size_t{1} << n_qubits)
    {
        QUEST_ASSERT(n_qubits >= 1 && n_qubits <= 8,
                     "density matrix limited to 8 qubits");
        rho(0, 0) = Complex(1.0, 0.0);
    }

    /** Apply a unitary gate: rho <- U rho U^dagger. */
    void
    applyGate(const Gate &gate)
    {
        if (gate.type == GateType::Barrier ||
            gate.type == GateType::Measure) {
            return;
        }
        Matrix u = embedUnitary(gateMatrix(gate), gate.qubits, nQubits);
        rho = u * rho * u.adjoint();
    }

    /**
     * Apply the symmetric Pauli channel on wire q:
     * rho <- (1 - p) rho + (p/3)(X rho X + Y rho Y + Z rho Z).
     */
    void
    applyPauliChannel(int q, double p)
    {
        QUEST_ASSERT(q >= 0 && q < nQubits, "wire out of range");
        QUEST_ASSERT(p >= 0.0 && p <= 1.0, "bad channel probability");
        if (p == 0.0)
            return;

        Matrix mixed = rho * Complex(1.0 - p, 0.0);
        const double w = p / 3.0;
        for (GateType pauli : {GateType::X, GateType::Y, GateType::Z}) {
            Matrix u = embedUnitary(gateMatrix(Gate(pauli, {q})), {q},
                                    nQubits);
            mixed += (u * rho * u.adjoint()) * Complex(w, 0.0);
        }
        rho = std::move(mixed);
    }

    /** Trace of rho (1.0 for a valid state). */
    double trace() const { return rho.trace().real(); }

    /** Purity Tr(rho^2) (1.0 for pure states). */
    double
    purity() const
    {
        // Tr(rho^2) = sum_ij rho_ij rho_ji = sum_ij |rho_ij|^2 for
        // Hermitian rho.
        double sum = 0.0;
        for (const Complex &e : rho.data())
            sum += std::norm(e);
        return sum;
    }

    /** Measurement probabilities (the diagonal of rho). */
    Distribution
    probabilities() const
    {
        Distribution d(nQubits);
        for (size_t k = 0; k < d.size(); ++k)
            d[k] = rho(k, k).real();
        return d;
    }

  private:
    int nQubits;
    Matrix rho;
};

/**
 * Exact noisy output distribution of a circuit under a NoiseModel:
 * the Pauli channel after every gate on each involved wire, then the
 * per-qubit readout bit-flip confusion applied to the diagonal.
 * This is the infinite-shot limit of NoisySimulator::run.
 */
inline Distribution
exactNoisyDistribution(const Circuit &circuit, const NoiseModel &noise)
{
    const int n = circuit.numQubits();
    DensityMatrix state(n);
    for (const Gate &g : circuit) {
        if (g.type == GateType::Barrier || g.type == GateType::Measure)
            continue;
        state.applyGate(g);
        double p = g.arity() >= 2 ? noise.p2 : noise.p1;
        if (p > 0.0)
            for (int q : g.qubits)
                state.applyPauliChannel(q, p);
    }

    Distribution d = state.probabilities();
    if (noise.pReadout <= 0.0)
        return d;

    // Readout confusion: independent per-qubit bit flips applied to
    // the classical distribution, one qubit at a time.
    const double p = noise.pReadout;
    for (int q = 0; q < n; ++q) {
        const size_t bit = size_t{1} << (n - 1 - q);
        Distribution next(n);
        for (size_t k = 0; k < d.size(); ++k) {
            next[k] += (1.0 - p) * d[k];
            next[k ^ bit] += p * d[k];
        }
        d = std::move(next);
    }
    return d;
}

} // namespace quest

#endif // QUEST_TESTS_DENSITY_MATRIX_REFERENCE_HH
