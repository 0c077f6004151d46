/**
 * @file
 * Benchmark-generator tests: structural properties and functional
 * correctness (the adder adds, the QFT matches the DFT matrix, the
 * Trotter models match direct expansion on small instances).
 */

#include <gtest/gtest.h>

#include <cmath>
#include <numbers>

#include "algos/algorithms.hh"
#include "ir/lower.hh"
#include "linalg/distance.hh"
#include "sim/simulator.hh"
#include "sim/unitary_builder.hh"

namespace quest {
namespace {

constexpr double pi = std::numbers::pi;

/** Value of wire q in a deterministic basis-state distribution. */
int
wireBit(const Distribution &d, int q)
{
    // Find the single outcome with probability ~1.
    size_t best = 0;
    for (size_t k = 1; k < d.size(); ++k)
        if (d[k] > d[best])
            best = k;
    return static_cast<int>((best >> (d.numQubits() - 1 - q)) & 1);
}

TEST(Adder, ComputesSumForDefaultInputs)
{
    for (int n : {4, 6, 8, 10}) {
        const int k = (n - 2) / 2;
        Circuit c = algos::adder(n);
        Distribution d = idealDistribution(c);

        // Reconstruct the inputs the generator loads.
        int a = 0, b = 0;
        for (int i = 0; i < k; ++i) {
            if (i % 2 == 0)
                a |= 1 << i;
            if (i % 3 != 2)
                b |= 1 << i;
        }
        const int sum = a + b;

        // b register (wires 1+k .. 2k, LSB first) holds sum mod 2^k;
        // the carry-out wire holds the top bit; a is restored.
        for (int i = 0; i < k; ++i) {
            EXPECT_EQ(wireBit(d, 1 + k + i), (sum >> i) & 1)
                << "n=" << n << " bit " << i;
            EXPECT_EQ(wireBit(d, 1 + i), (a >> i) & 1)
                << "n=" << n << " a-bit " << i;
        }
        EXPECT_EQ(wireBit(d, 2 * k + 1), (sum >> k) & 1) << "n=" << n;
        EXPECT_EQ(wireBit(d, 0), 0) << "n=" << n;  // cin restored
    }
}

TEST(Adder, RejectsBadWidths)
{
    EXPECT_DEATH(algos::adder(3), "even");
    EXPECT_DEATH(algos::adder(5), "even");
}

TEST(Multiplier, StructureAndDeterminism)
{
    Circuit c = algos::multiplier(8);
    EXPECT_EQ(c.numQubits(), 8);
    EXPECT_GT(c.cnotEquivalentCount(), 10u);
    // Output is a deterministic basis state (classical circuit).
    Distribution d = idealDistribution(c);
    double max = 0.0;
    for (size_t k = 0; k < d.size(); ++k)
        max = std::max(max, d[k]);
    EXPECT_NEAR(max, 1.0, 1e-9);
}

TEST(Multiplier, LowProductBitsCorrect)
{
    // k = 2: a = 3, b = 1 -> product = 3.
    Circuit c = algos::multiplier(8);
    Distribution d = idealDistribution(c);
    EXPECT_EQ(wireBit(d, 4), 1);  // p0
    EXPECT_EQ(wireBit(d, 5), 1);  // p1
}

TEST(Qft, MatchesDftMatrix)
{
    // The QFT circuit without input prep and without final swaps,
    // conjugated by the swaps, equals the DFT matrix
    // F[j][k] = w^(jk)/sqrt(N) with w = exp(2 pi i / N).
    const int n = 3;
    const size_t dim = 8;
    Circuit c(n);
    for (int i = 0; i < n; ++i) {
        c.append(Gate::h(i));
        for (int j = i + 1; j < n; ++j)
            c.append(Gate::cp(j, i, pi / (1 << (j - i))));
    }
    for (int i = 0; i < n / 2; ++i)
        c.append(Gate::swap(i, n - 1 - i));

    Matrix u = buildUnitary(c);
    Matrix dft(dim, dim);
    for (size_t r = 0; r < dim; ++r)
        for (size_t col = 0; col < dim; ++col)
            dft(r, col) = std::polar(1.0 / std::sqrt(8.0),
                                     2.0 * pi * r * col / 8.0);
    EXPECT_NEAR(hsDistance(u, dft), 0.0, 1e-7);
}

TEST(Qft, GeneratorIncludesPrep)
{
    Circuit c = algos::qft(4);
    EXPECT_EQ(c.numQubits(), 4);
    EXPECT_EQ(c[0].type, GateType::X);
}

TEST(Hlf, DeterministicPerSeed)
{
    Circuit a = algos::hlf(5, 3);
    Circuit b = algos::hlf(5, 3);
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].type, b[i].type);
        EXPECT_EQ(a[i].qubits, b[i].qubits);
    }
    // A different seed draws a different adjacency matrix.
    Circuit c = algos::hlf(5, 4);
    bool different = a.size() != c.size();
    for (size_t i = 0; !different && i < a.size(); ++i)
        different = a[i].type != c[i].type || a[i].qubits != c[i].qubits;
    EXPECT_TRUE(different);
}

TEST(Hlf, SandwichedByHadamards)
{
    Circuit c = algos::hlf(4);
    EXPECT_EQ(c[0].type, GateType::H);
    EXPECT_EQ(c[c.size() - 1].type, GateType::H);
}

TEST(Qaoa, RoundStructure)
{
    Circuit one = algos::qaoa(5, 1);
    Circuit two = algos::qaoa(5, 2);
    EXPECT_GT(two.size(), one.size());
    // Starts with Hadamards on every wire.
    for (int q = 0; q < 5; ++q)
        EXPECT_EQ(one[q].type, GateType::H);
}

TEST(Qaoa, UsesRzzAndRx)
{
    Circuit c = algos::qaoa(4);
    size_t rzz = 0, rx = 0;
    for (const Gate &g : c) {
        rzz += g.type == GateType::RZZ;
        rx += g.type == GateType::RX;
    }
    EXPECT_GE(rzz, 4u);   // at least the ring edges
    EXPECT_EQ(rx, 4u);    // one mixer per wire per round
}

TEST(Vqe, ParameterizedAndDeterministic)
{
    Circuit a = algos::vqe(4, 2, 5);
    Circuit b = algos::vqe(4, 2, 5);
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
        ASSERT_EQ(a[i].type, b[i].type);
        for (size_t p = 0; p < a[i].params.size(); ++p)
            EXPECT_EQ(a[i].params[p], b[i].params[p]);
    }
    EXPECT_EQ(a.cnotCount(), 2u * 3u);  // layers * (n - 1)
}

TEST(Tfim, MatchesDirectTrotterStep)
{
    // One Trotter step on 2 spins: RZZ(2 J dt) then RX(2 h dt) each.
    double dt = 0.1, j = 1.0, h = 1.0;
    Circuit c = algos::tfim(2, 1, dt, j, h);
    Circuit direct(2);
    direct.append(Gate::rzz(0, 1, 2 * j * dt));
    direct.append(Gate::rx(0, 2 * h * dt));
    direct.append(Gate::rx(1, 2 * h * dt));
    EXPECT_NEAR(hsDistance(buildUnitary(c), buildUnitary(direct)), 0.0,
                1e-7);
}

TEST(Tfim, StepsCompose)
{
    Circuit two = algos::tfim(3, 2);
    Circuit one = algos::tfim(3, 1);
    Circuit composed(3);
    composed.appendCircuit(one);
    composed.appendCircuit(one);
    EXPECT_NEAR(hsDistance(buildUnitary(two), buildUnitary(composed)),
                0.0, 1e-7);
}

TEST(Heisenberg, HasAllThreeCouplings)
{
    Circuit c = algos::heisenberg(4, 1);
    bool has_xx = false, has_yy = false, has_zz = false;
    for (const Gate &g : c) {
        has_xx |= g.type == GateType::RXX;
        has_yy |= g.type == GateType::RYY;
        has_zz |= g.type == GateType::RZZ;
    }
    EXPECT_TRUE(has_xx && has_yy && has_zz);
}

TEST(Xy, HasOnlyXYCouplings)
{
    Circuit c = algos::xy(4, 1);
    for (const Gate &g : c)
        EXPECT_NE(g.type, GateType::RZZ);
}

TEST(Hamiltonians, ZeroFieldDropsRx)
{
    Circuit c = algos::tfim(3, 1, 0.1, 1.0, 0.0);
    for (const Gate &g : c)
        EXPECT_NE(g.type, GateType::RX);
}

TEST(Suite, StandardSuiteIsConsistent)
{
    auto suite = algos::standardSuite();
    EXPECT_GE(suite.size(), 10u);
    for (const auto &spec : suite) {
        Circuit c = spec.build();
        EXPECT_EQ(c.numQubits(), spec.nQubits) << spec.name;
        EXPECT_GT(c.size(), 0u) << spec.name;
        // Names carry the width suffix.
        EXPECT_NE(spec.name.find('_'), std::string::npos);
    }
}

TEST(Suite, ManilaSuiteFitsFiveQubits)
{
    for (const auto &spec : algos::manilaSuite())
        EXPECT_LE(spec.nQubits, 5) << spec.name;
}

TEST(Suite, FindSpecByName)
{
    auto suite = algos::standardSuite();
    EXPECT_EQ(algos::findSpec(suite, "qft_4").nQubits, 4);
    EXPECT_DEATH(algos::findSpec(suite, "nope_9"), "no benchmark");
}

TEST(Suite, EveryCircuitLowersToNative)
{
    for (const auto &spec : algos::standardSuite()) {
        Circuit lowered = lowerToNative(spec.build());
        EXPECT_TRUE(isNative(lowered)) << spec.name;
        EXPECT_GT(lowered.cnotCount(), 0u) << spec.name;
    }
}

TEST(Suite, LargeSuiteCoversScalingWidths)
{
    auto suite = algos::largeSuite();
    ASSERT_EQ(suite.size(), 9u);
    // tfim/qaoa/adder at each of 64/96/128 qubits, in width order.
    for (int w : {64, 96, 128}) {
        std::string suffix = "_";
        suffix += std::to_string(w);
        for (const char *family : {"tfim", "qaoa", "adder"}) {
            const auto &spec =
                algos::findSpec(suite, family + suffix);
            EXPECT_EQ(spec.nQubits, w) << spec.name;
        }
    }
    // Generators are deterministic and genuinely wide: building
    // twice yields gate-identical circuits spanning every wire.
    for (const auto &spec : suite) {
        Circuit a = spec.build();
        Circuit b = spec.build();
        EXPECT_EQ(a.numQubits(), spec.nQubits) << spec.name;
        ASSERT_EQ(a.size(), b.size()) << spec.name;
        for (size_t i = 0; i < a.size(); ++i) {
            EXPECT_TRUE(a[i].type == b[i].type &&
                        a[i].qubits == b[i].qubits &&
                        a[i].params == b[i].params)
                << spec.name << " gate " << i;
        }
        EXPECT_GT(a.size(), 0u) << spec.name;
    }
}

} // namespace
} // namespace quest
