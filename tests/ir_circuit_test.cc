/**
 * @file
 * Unit tests for the Circuit container and circuitUnitary.
 */

#include <gtest/gtest.h>

#include <numbers>

#include "ir/circuit.hh"
#include "linalg/distance.hh"
#include "util/rng.hh"

namespace quest {
namespace {

constexpr double pi = std::numbers::pi;

Circuit
randomNativeCircuit(int n, int gates, uint64_t seed)
{
    Rng rng(seed);
    Circuit c(n);
    for (int i = 0; i < gates; ++i) {
        if (n >= 2 && rng.bernoulli(0.4)) {
            int a = static_cast<int>(rng.uniformInt(n));
            int b = static_cast<int>(rng.uniformInt(n));
            if (a == b)
                b = (b + 1) % n;
            c.append(Gate::cx(a, b));
        } else {
            c.append(Gate::u3(static_cast<int>(rng.uniformInt(n)),
                              rng.uniform(-pi, pi), rng.uniform(-pi, pi),
                              rng.uniform(-pi, pi)));
        }
    }
    return c;
}

TEST(Circuit, AppendValidatesWires)
{
    Circuit c(2);
    EXPECT_DEATH(c.append(Gate::h(2)), "wire");
    EXPECT_DEATH(c.append(Gate::h(-1)), "wire");
}

TEST(Circuit, Counts)
{
    Circuit c(3);
    c.append(Gate::h(0));
    c.append(Gate::cx(0, 1));
    c.append(Gate::cx(1, 2));
    c.append(Gate::rzz(0, 2, 0.5));
    c.append(Gate::barrier({0, 1, 2}));
    c.append(Gate::measure(0));
    EXPECT_EQ(c.gateCount(), 4u);
    EXPECT_EQ(c.cnotCount(), 2u);
    EXPECT_EQ(c.twoQubitGateCount(), 3u);
    EXPECT_EQ(c.cnotEquivalentCount(), 4u);  // 1 + 1 + 2
    EXPECT_TRUE(c.hasMeasurements());
}

TEST(Circuit, DepthSerialVsParallel)
{
    Circuit serial(2);
    serial.append(Gate::h(0));
    serial.append(Gate::h(0));
    serial.append(Gate::h(0));
    EXPECT_EQ(serial.depth(), 3u);

    Circuit parallel(3);
    parallel.append(Gate::h(0));
    parallel.append(Gate::h(1));
    parallel.append(Gate::h(2));
    EXPECT_EQ(parallel.depth(), 1u);

    Circuit mixed(3);
    mixed.append(Gate::h(0));
    mixed.append(Gate::cx(0, 1));
    mixed.append(Gate::h(2));
    EXPECT_EQ(mixed.depth(), 2u);
}

TEST(Circuit, DepthIgnoresPseudoOps)
{
    Circuit c(2);
    c.append(Gate::h(0));
    c.append(Gate::barrier({0, 1}));
    c.append(Gate::measure(0));
    EXPECT_EQ(c.depth(), 1u);
}

TEST(Circuit, EraseAndReplace)
{
    Circuit c(2);
    c.append(Gate::h(0));
    c.append(Gate::x(1));
    c.replace(1, Gate::y(1));
    EXPECT_EQ(c[1].type, GateType::Y);
    c.erase(0);
    EXPECT_EQ(c.size(), 1u);
    EXPECT_EQ(c[0].type, GateType::Y);
}

TEST(Circuit, InverseCancelsToIdentity)
{
    Circuit c = randomNativeCircuit(3, 20, 5);
    Circuit inv = c.inverse();
    Circuit both(3);
    both.appendCircuit(c);
    both.appendCircuit(inv);
    Matrix u = circuitUnitary(both);
    EXPECT_NEAR(hsDistance(u, Matrix::identity(8)), 0.0, 1e-7);
}

TEST(Circuit, InverseReversesOrder)
{
    Circuit c(2);
    c.append(Gate::h(0));
    c.append(Gate::cx(0, 1));
    Circuit inv = c.inverse();
    EXPECT_EQ(inv[0].type, GateType::CX);
    EXPECT_EQ(inv[1].type, GateType::H);
}

TEST(Circuit, RemappedActsOnNewWires)
{
    Circuit c(2);
    c.append(Gate::cx(0, 1));
    Circuit r = c.remapped({2, 0}, 3);
    EXPECT_EQ(r.numQubits(), 3);
    EXPECT_EQ(r[0].qubits[0], 2);
    EXPECT_EQ(r[0].qubits[1], 0);
}

TEST(Circuit, RemapPreservesSemantics)
{
    // CX(0,1) remapped by {1,0} equals CX(1,0) directly.
    Circuit c(2);
    c.append(Gate::cx(0, 1));
    Circuit r = c.remapped({1, 0}, 2);
    Circuit direct(2);
    direct.append(Gate::cx(1, 0));
    EXPECT_TRUE(circuitUnitary(r).approxEqual(circuitUnitary(direct),
                                              1e-12));
}

TEST(Circuit, AppendCircuitComposesUnitaries)
{
    Circuit a = randomNativeCircuit(2, 8, 7);
    Circuit b = randomNativeCircuit(2, 8, 9);
    Circuit ab(2);
    ab.appendCircuit(a);
    ab.appendCircuit(b);
    Matrix expected = circuitUnitary(b) * circuitUnitary(a);
    EXPECT_TRUE(circuitUnitary(ab).approxEqual(expected, 1e-10));
}

TEST(Circuit, ActiveQubits)
{
    Circuit c(5);
    c.append(Gate::h(1));
    c.append(Gate::cx(3, 1));
    std::vector<int> active = c.activeQubits();
    EXPECT_EQ(active, (std::vector<int>{1, 3}));
}

TEST(Circuit, WithoutPseudoOps)
{
    Circuit c(2);
    c.append(Gate::h(0));
    c.append(Gate::barrier({0, 1}));
    c.append(Gate::measure(1));
    Circuit clean = c.withoutPseudoOps();
    EXPECT_EQ(clean.size(), 1u);
    EXPECT_FALSE(clean.hasMeasurements());
}

TEST(CircuitUnitary, EmptyCircuitIsIdentity)
{
    Circuit c(3);
    EXPECT_TRUE(circuitUnitary(c).approxEqual(Matrix::identity(8)));
}

TEST(CircuitUnitary, BellCircuit)
{
    Circuit c(2);
    c.append(Gate::h(0));
    c.append(Gate::cx(0, 1));
    Matrix u = circuitUnitary(c);
    // Column 0 should be the Bell state (|00> + |11>)/sqrt(2).
    double s = 1.0 / std::sqrt(2.0);
    EXPECT_NEAR(std::abs(u(0, 0) - Complex(s, 0)), 0.0, 1e-12);
    EXPECT_NEAR(std::abs(u(3, 0) - Complex(s, 0)), 0.0, 1e-12);
    EXPECT_NEAR(std::abs(u(1, 0)), 0.0, 1e-12);
    EXPECT_NEAR(std::abs(u(2, 0)), 0.0, 1e-12);
}

TEST(CircuitUnitary, GateOrderIsLeftToRight)
{
    // X then H on one qubit: U = H * X.
    Circuit c(1);
    c.append(Gate::x(0));
    c.append(Gate::h(0));
    Matrix expected =
        gateMatrix(Gate::h(0)) * gateMatrix(Gate::x(0));
    EXPECT_TRUE(circuitUnitary(c).approxEqual(expected, 1e-12));
}

TEST(CircuitUnitary, IsAlwaysUnitary)
{
    for (uint64_t seed = 1; seed <= 5; ++seed) {
        Circuit c = randomNativeCircuit(3, 15, seed);
        EXPECT_TRUE(circuitUnitary(c).isUnitary(1e-9));
    }
}

TEST(Circuit, DefaultConstructedIsPlaceholder)
{
    Circuit c;
    EXPECT_EQ(c.numQubits(), 0);
    EXPECT_TRUE(c.empty());
    Circuit real(2);
    real.append(Gate::h(0));
    c = real;
    EXPECT_EQ(c.numQubits(), 2);
}

} // namespace
} // namespace quest
