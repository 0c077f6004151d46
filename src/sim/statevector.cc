#include "sim/statevector.hh"

#include <cmath>

#include "obs/metrics.hh"
#include "util/logging.hh"
#include "util/names.hh"

namespace quest {

StateVector::StateVector(int n_qubits)
    : nQubits(n_qubits), amps(size_t{1} << n_qubits, Complex(0.0, 0.0))
{
    QUEST_ASSERT(n_qubits >= 1 && n_qubits <= 26,
                 "statevector qubit count out of range: ", n_qubits);
    // Counted so large-circuit (BlockBound) runs can prove they never
    // allocated a full state (the counter must stay flat).
    static auto &builds = obs::MetricsRegistry::global().counter(
        names::kMetricSimStatevectorBuilds);
    builds.increment();
    amps[0] = Complex(1.0, 0.0);
}

void
StateVector::applyMatrix1(const Matrix &m, int q)
{
    QUEST_ASSERT(m.rows() == 2 && m.cols() == 2, "expected 2x2 matrix");
    QUEST_ASSERT(q >= 0 && q < nQubits, "wire out of range");
    const size_t stride = size_t{1} << (nQubits - 1 - q);
    const Complex m00 = m(0, 0), m01 = m(0, 1);
    const Complex m10 = m(1, 0), m11 = m(1, 1);
    const size_t dim = amps.size();
    for (size_t base = 0; base < dim; base += 2 * stride) {
        for (size_t i = base; i < base + stride; ++i) {
            Complex a0 = amps[i];
            Complex a1 = amps[i + stride];
            amps[i] = m00 * a0 + m01 * a1;
            amps[i + stride] = m10 * a0 + m11 * a1;
        }
    }
}

void
StateVector::applyMatrix2(const Matrix &m, int q0, int q1)
{
    QUEST_ASSERT(m.rows() == 4 && m.cols() == 4, "expected 4x4 matrix");
    QUEST_ASSERT(q0 != q1, "duplicate wires");
    const size_t b0 = size_t{1} << (nQubits - 1 - q0);
    const size_t b1 = size_t{1} << (nQubits - 1 - q1);
    const size_t dim = amps.size();
    const size_t mask = b0 | b1;
    for (size_t i = 0; i < dim; ++i) {
        if (i & mask)
            continue;
        const size_t k00 = i;
        const size_t k01 = i | b1;
        const size_t k10 = i | b0;
        const size_t k11 = i | b0 | b1;
        Complex a00 = amps[k00], a01 = amps[k01];
        Complex a10 = amps[k10], a11 = amps[k11];
        amps[k00] = m(0, 0) * a00 + m(0, 1) * a01 + m(0, 2) * a10 +
                    m(0, 3) * a11;
        amps[k01] = m(1, 0) * a00 + m(1, 1) * a01 + m(1, 2) * a10 +
                    m(1, 3) * a11;
        amps[k10] = m(2, 0) * a00 + m(2, 1) * a01 + m(2, 2) * a10 +
                    m(2, 3) * a11;
        amps[k11] = m(3, 0) * a00 + m(3, 1) * a01 + m(3, 2) * a10 +
                    m(3, 3) * a11;
    }
}

void
StateVector::applyMatrix(const Matrix &m, std::span<const int> qubits)
{
    const size_t k = qubits.size();
    if (k == 1) {
        applyMatrix1(m, qubits[0]);
        return;
    }
    if (k == 2) {
        applyMatrix2(m, qubits[0], qubits[1]);
        return;
    }
    const size_t sub_dim = size_t{1} << k;
    QUEST_ASSERT(m.rows() == sub_dim && m.cols() == sub_dim,
                 "matrix dim does not match wire count");

    std::vector<size_t> bit(k);
    size_t mask = 0;
    for (size_t i = 0; i < k; ++i) {
        bit[i] = size_t{1} << (nQubits - 1 - qubits[i]);
        mask |= bit[i];
    }

    std::vector<Complex> gathered(sub_dim);
    std::vector<size_t> offsets(sub_dim);
    for (size_t sub = 0; sub < sub_dim; ++sub) {
        size_t off = 0;
        for (size_t i = 0; i < k; ++i)
            if ((sub >> (k - 1 - i)) & 1u)
                off |= bit[i];
        offsets[sub] = off;
    }

    const size_t dim = amps.size();
    for (size_t i = 0; i < dim; ++i) {
        if (i & mask)
            continue;
        for (size_t sub = 0; sub < sub_dim; ++sub)
            gathered[sub] = amps[i | offsets[sub]];
        for (size_t r = 0; r < sub_dim; ++r) {
            Complex sum(0.0, 0.0);
            for (size_t c = 0; c < sub_dim; ++c)
                sum += m(r, c) * gathered[c];
            amps[i | offsets[r]] = sum;
        }
    }
}

void
StateVector::applyPauli(int pauli, int q)
{
    QUEST_ASSERT(pauli >= 0 && pauli <= 3, "bad Pauli index");
    if (pauli == 0)
        return;
    const size_t stride = size_t{1} << (nQubits - 1 - q);
    const size_t dim = amps.size();
    for (size_t base = 0; base < dim; base += 2 * stride) {
        for (size_t i = base; i < base + stride; ++i) {
            Complex a0 = amps[i];
            Complex a1 = amps[i + stride];
            switch (pauli) {
              case 1:  // X
                amps[i] = a1;
                amps[i + stride] = a0;
                break;
              case 2:  // Y
                amps[i] = Complex(0, -1) * a1;
                amps[i + stride] = Complex(0, 1) * a0;
                break;
              case 3:  // Z
                amps[i + stride] = -a1;
                break;
            }
        }
    }
}

void
StateVector::applyGate(const Gate &gate)
{
    switch (gate.type) {
      case GateType::Barrier:
      case GateType::Measure:
        return;
      default:
        break;
    }
    ++nGateApplies;
    nBytesTouched += amps.size() * sizeof(Complex);
    switch (gate.type) {
      case GateType::CX: {
        // Direct conditional swap: fast path for the dominant gate.
        const size_t bc = size_t{1} << (nQubits - 1 - gate.qubits[0]);
        const size_t bt = size_t{1} << (nQubits - 1 - gate.qubits[1]);
        const size_t dim = amps.size();
        for (size_t i = 0; i < dim; ++i) {
            if ((i & bc) && !(i & bt))
                std::swap(amps[i], amps[i | bt]);
        }
        return;
      }
      default:
        applyMatrix(gateMatrix(gate), gate.qubits);
    }
}

void
StateVector::applyCircuit(const Circuit &circuit)
{
    QUEST_ASSERT(circuit.numQubits() == nQubits,
                 "circuit width does not match state");
    const uint64_t gates_before = nGateApplies;
    const uint64_t bytes_before = nBytesTouched;
    for (const Gate &g : circuit)
        applyGate(g);
#ifndef QUEST_OBS_DISABLED
    static auto &gate_counter =
        obs::MetricsRegistry::global().counter(names::kMetricSimGateApplies);
    static auto &byte_counter =
        obs::MetricsRegistry::global().counter(names::kMetricSimBytesTouched);
    gate_counter.add(nGateApplies - gates_before);
    byte_counter.add(nBytesTouched - bytes_before);
#endif
}

double
StateVector::norm() const
{
    double sum = 0.0;
    for (const Complex &a : amps)
        sum += std::norm(a);
    return std::sqrt(sum);
}

Distribution
StateVector::probabilities() const
{
    Distribution d(nQubits);
    for (size_t k = 0; k < amps.size(); ++k)
        d[k] = std::norm(amps[k]);
    return d;
}

size_t
StateVector::sample(Rng &rng) const
{
    double r = rng.uniform();
    double acc = 0.0;
    for (size_t k = 0; k < amps.size(); ++k) {
        acc += std::norm(amps[k]);
        if (r < acc)
            return k;
    }
    return amps.size() - 1;
}

} // namespace quest
