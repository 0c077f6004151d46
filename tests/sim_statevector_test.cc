/**
 * @file
 * Statevector simulator tests, cross-checked against dense unitaries.
 */

#include <gtest/gtest.h>

#include <numbers>

#include "embed_reference.hh"
#include "ir/lower.hh"
#include "sim/statevector.hh"
#include "sim/unitary_builder.hh"
#include "util/rng.hh"

namespace quest {
namespace {

constexpr double pi = std::numbers::pi;

Circuit
randomCircuit(int n, int gates, uint64_t seed)
{
    Rng rng(seed);
    Circuit c(n);
    for (int i = 0; i < gates; ++i) {
        double pick = rng.uniform();
        int q = static_cast<int>(rng.uniformInt(n));
        if (pick < 0.3 && n >= 2) {
            int t = (q + 1 + static_cast<int>(
                     rng.uniformInt(n - 1))) % n;
            c.append(Gate::cx(q, t));
        } else if (pick < 0.4 && n >= 2) {
            int t = (q + 1) % n;
            c.append(Gate::rzz(q, t, rng.uniform(-pi, pi)));
        } else if (pick < 0.5 && n >= 3) {
            c.append(Gate::ccx(q, (q + 1) % n, (q + 2) % n));
        } else {
            c.append(Gate::u3(q, rng.uniform(-pi, pi),
                              rng.uniform(-pi, pi),
                              rng.uniform(-pi, pi)));
        }
    }
    return c;
}

TEST(StateVector, InitialState)
{
    StateVector s(3);
    EXPECT_EQ(s.dim(), 8u);
    EXPECT_EQ(s.amp(0), Complex(1.0, 0.0));
    for (size_t k = 1; k < 8; ++k)
        EXPECT_EQ(s.amp(k), Complex(0.0, 0.0));
    EXPECT_NEAR(s.norm(), 1.0, 1e-12);
}

TEST(StateVector, XFlipsQubit)
{
    StateVector s(2);
    s.applyGate(Gate::x(0));
    // Qubit 0 is the most significant bit: |10> = index 2.
    EXPECT_NEAR(std::abs(s.amp(2) - Complex(1.0, 0.0)), 0.0, 1e-12);
}

TEST(StateVector, BellState)
{
    StateVector s(2);
    s.applyGate(Gate::h(0));
    s.applyGate(Gate::cx(0, 1));
    double half = 0.5;
    Distribution d = s.probabilities();
    EXPECT_NEAR(d[0], half, 1e-12);
    EXPECT_NEAR(d[3], half, 1e-12);
    EXPECT_NEAR(d[1], 0.0, 1e-12);
    EXPECT_NEAR(d[2], 0.0, 1e-12);
}

TEST(StateVector, GhzState)
{
    StateVector s(4);
    s.applyGate(Gate::h(0));
    for (int q = 0; q + 1 < 4; ++q)
        s.applyGate(Gate::cx(q, q + 1));
    Distribution d = s.probabilities();
    EXPECT_NEAR(d[0], 0.5, 1e-12);
    EXPECT_NEAR(d[15], 0.5, 1e-12);
}

TEST(StateVector, MatchesUnitaryColumn)
{
    for (uint64_t seed = 1; seed <= 6; ++seed) {
        Circuit c = randomCircuit(4, 25, seed);
        StateVector s(4);
        s.applyCircuit(c);
        Matrix u = buildUnitary(c);
        // State = first column of U.
        for (size_t k = 0; k < 16; ++k) {
            EXPECT_NEAR(std::abs(s.amp(k) - u(k, 0)), 0.0, 1e-9)
                << "seed " << seed << " k " << k;
        }
    }
}

TEST(StateVector, NormPreservedByRandomCircuits)
{
    for (uint64_t seed = 10; seed < 15; ++seed) {
        Circuit c = randomCircuit(5, 40, seed);
        StateVector s(5);
        s.applyCircuit(c);
        EXPECT_NEAR(s.norm(), 1.0, 1e-9);
    }
}

TEST(StateVector, ApplyMatrixGeneralMatchesEmbed)
{
    // Apply a 3-qubit CCX via the general path and compare against
    // the dense embedding acting on a random state.
    Rng rng(3);
    StateVector s(4);
    Circuit prep = randomCircuit(4, 10, 77);
    s.applyCircuit(prep);
    std::vector<Complex> before = s.amplitudes();

    Matrix ccx = gateMatrix(Gate::ccx(0, 1, 2));
    s.applyMatrix(ccx, {3, 1, 0});

    Matrix full = embedUnitary(ccx, {3, 1, 0}, 4);
    std::vector<Complex> expected = matVec(full, before);
    for (size_t k = 0; k < 16; ++k)
        EXPECT_NEAR(std::abs(s.amp(k) - expected[k]), 0.0, 1e-10);
}

TEST(StateVector, ApplyPauliMatchesGates)
{
    for (int pauli = 1; pauli <= 3; ++pauli) {
        StateVector a(3), b(3);
        Circuit prep = randomCircuit(3, 8, 42);
        a.applyCircuit(prep);
        b.applyCircuit(prep);
        a.applyPauli(pauli, 1);
        Gate g = pauli == 1 ? Gate::x(1)
                            : pauli == 2 ? Gate::y(1) : Gate::z(1);
        b.applyGate(g);
        for (size_t k = 0; k < 8; ++k)
            EXPECT_NEAR(std::abs(a.amp(k) - b.amp(k)), 0.0, 1e-12);
    }
}

TEST(StateVector, CxFastPathMatchesMatrixPath)
{
    StateVector a(3), b(3);
    Circuit prep = randomCircuit(3, 10, 55);
    a.applyCircuit(prep);
    b.applyCircuit(prep);
    a.applyGate(Gate::cx(2, 0));
    b.applyMatrix2(gateMatrix(Gate::cx(2, 0)), 2, 0);
    for (size_t k = 0; k < 8; ++k)
        EXPECT_NEAR(std::abs(a.amp(k) - b.amp(k)), 0.0, 1e-12);
}

TEST(StateVector, SampleFollowsProbabilities)
{
    StateVector s(1);
    s.applyGate(Gate::h(0));
    Rng rng(9);
    int ones = 0;
    const int trials = 20000;
    for (int i = 0; i < trials; ++i)
        ones += (s.sample(rng) == 1);
    EXPECT_NEAR(static_cast<double>(ones) / trials, 0.5, 0.02);
}

TEST(UnitaryBuilder, MatchesNaiveOnRandomCircuits)
{
    for (uint64_t seed = 20; seed < 24; ++seed) {
        Circuit c = randomCircuit(4, 20, seed);
        EXPECT_TRUE(buildUnitary(c).approxEqual(circuitUnitary(c), 1e-9))
            << "seed " << seed;
    }
}

TEST(UnitaryBuilder, IgnoresMeasurements)
{
    Circuit c(2);
    c.append(Gate::h(0));
    c.append(Gate::measure(0));
    Matrix u = buildUnitary(c);
    Circuit bare(2);
    bare.append(Gate::h(0));
    EXPECT_TRUE(u.approxEqual(buildUnitary(bare), 1e-12));
}

TEST(UnitaryBuilder, ProducesUnitaries)
{
    Circuit c = randomCircuit(6, 40, 31);
    EXPECT_TRUE(buildUnitary(c).isUnitary(1e-8));
}

} // namespace
} // namespace quest
