/**
 * @file
 * Unit tests for gate metadata, matrices and inverses, and for the
 * inline wire and angle storage: what copies and decodes allocate, and
 * a barrier wide enough to spill to the heap.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <numbers>
#include <utility>
#include <vector>

#include "allocation_probe.hh"
#include "cache/codec.hh"
#include "ir/circuit.hh"
#include "ir/gate.hh"
#include "ir/unitary_kernel.hh"
#include "linalg/distance.hh"
#include "util/serialize.hh"

namespace quest {
namespace {

constexpr double pi = std::numbers::pi;

const std::vector<GateType> allUnitaryGates = {
    GateType::U1, GateType::U2, GateType::U3, GateType::RX,
    GateType::RY, GateType::RZ, GateType::X, GateType::Y,
    GateType::Z, GateType::H, GateType::S, GateType::Sdg,
    GateType::T, GateType::Tdg, GateType::SX, GateType::CX,
    GateType::CZ, GateType::SWAP, GateType::RZZ, GateType::RXX,
    GateType::RYY, GateType::CRZ, GateType::CP, GateType::CCX,
};

Gate
makeGate(GateType type)
{
    std::vector<int> wires;
    for (int q = 0; q < gateArity(type); ++q)
        wires.push_back(q);
    std::vector<double> params;
    for (int p = 0; p < gateParamCount(type); ++p)
        params.push_back(0.3 + 0.4 * p);
    return {type, wires, params};
}

class EveryGate : public ::testing::TestWithParam<GateType>
{
};

TEST_P(EveryGate, MatrixIsUnitary)
{
    Gate g = makeGate(GetParam());
    Matrix m = gateMatrix(g);
    EXPECT_EQ(m.rows(), size_t{1} << g.arity());
    EXPECT_TRUE(m.isUnitary(1e-10)) << gateName(GetParam());
}

TEST_P(EveryGate, InverseCancelsUpToPhase)
{
    Gate g = makeGate(GetParam());
    Matrix m = gateMatrix(g);
    Matrix mi = gateMatrix(g.inverse());
    // Compare as unitaries (global-phase invariant; exact for all
    // but SX).
    EXPECT_NEAR(hsDistance(m * mi, Matrix::identity(m.rows())), 0.0,
                1e-7)
        << gateName(GetParam());
}

TEST_P(EveryGate, NameRoundTripIsLowerCase)
{
    std::string name = gateName(GetParam());
    EXPECT_FALSE(name.empty());
    for (char c : name)
        EXPECT_TRUE(std::islower(c) || std::isdigit(c));
}

INSTANTIATE_TEST_SUITE_P(AllGates, EveryGate,
                         ::testing::ValuesIn(allUnitaryGates),
                         [](const auto &info) {
                             return std::string(gateName(info.param));
                         });

TEST(Gate, CxMatrixMapsBasis)
{
    Matrix cx = gateMatrix(Gate::cx(0, 1));
    // |10> -> |11>: column 2 has a one in row 3.
    EXPECT_EQ(cx(3, 2), Complex(1.0, 0.0));
    EXPECT_EQ(cx(2, 3), Complex(1.0, 0.0));
    EXPECT_EQ(cx(0, 0), Complex(1.0, 0.0));
    EXPECT_EQ(cx(1, 1), Complex(1.0, 0.0));
}

TEST(Gate, CcxMatrixMapsBasis)
{
    Matrix ccx = gateMatrix(Gate::ccx(0, 1, 2));
    // |110> -> |111>.
    EXPECT_EQ(ccx(7, 6), Complex(1.0, 0.0));
    EXPECT_EQ(ccx(6, 7), Complex(1.0, 0.0));
    for (int k = 0; k < 6; ++k)
        EXPECT_EQ(ccx(k, k), Complex(1.0, 0.0));
}

TEST(Gate, SwapMatrix)
{
    Matrix sw = gateMatrix(Gate::swap(0, 1));
    EXPECT_EQ(sw(1, 2), Complex(1.0, 0.0));
    EXPECT_EQ(sw(2, 1), Complex(1.0, 0.0));
}

TEST(Gate, RzzIsDiagonal)
{
    Matrix m = gateMatrix(Gate::rzz(0, 1, 0.7));
    for (size_t r = 0; r < 4; ++r)
        for (size_t c = 0; c < 4; ++c)
            if (r != c) {
                EXPECT_EQ(m(r, c), Complex(0.0, 0.0));
            }
    EXPECT_NEAR(std::arg(m(0, 0)), -0.35, 1e-12);
    EXPECT_NEAR(std::arg(m(1, 1)), 0.35, 1e-12);
}

TEST(Gate, RxxEqualsHadamardConjugatedRzz)
{
    double theta = 0.9;
    Matrix h = gateMatrix(Gate::h(0));
    Matrix hh = kron(h, h);
    Matrix rzz = gateMatrix(Gate::rzz(0, 1, theta));
    Matrix rxx = gateMatrix(Gate::rxx(0, 1, theta));
    EXPECT_TRUE(rxx.approxEqual(hh * rzz * hh, 1e-10));
}

TEST(Gate, U3SpecialCases)
{
    // U3(pi, 0, pi) = X.
    EXPECT_NEAR(hsDistance(gateMatrix(Gate::u3(0, pi, 0, pi)),
                           gateMatrix(Gate::x(0))),
                0.0, 1e-7);
    // U3(0, 0, pi) = Z.
    EXPECT_NEAR(hsDistance(gateMatrix(Gate::u3(0, 0, 0, pi)),
                           gateMatrix(Gate::z(0))),
                0.0, 1e-7);
}

TEST(Gate, SAndSdgCompose)
{
    Matrix s = gateMatrix(Gate::s(0));
    Matrix sdg = gateMatrix(Gate::sdg(0));
    EXPECT_TRUE((s * sdg).approxEqual(Matrix::identity(2), 1e-12));
    // S^2 = Z.
    EXPECT_TRUE((s * s).approxEqual(gateMatrix(Gate::z(0)), 1e-12));
}

TEST(Gate, TSquaredIsS)
{
    Matrix t = gateMatrix(Gate::t(0));
    EXPECT_TRUE((t * t).approxEqual(gateMatrix(Gate::s(0)), 1e-12));
}

TEST(Gate, SxSquaredIsX)
{
    Matrix sx = gateMatrix(Gate::sx(0));
    EXPECT_TRUE((sx * sx).approxEqual(gateMatrix(Gate::x(0)), 1e-12));
}

TEST(Gate, ActsOn)
{
    Gate g = Gate::cx(2, 5);
    EXPECT_TRUE(g.actsOn(2));
    EXPECT_TRUE(g.actsOn(5));
    EXPECT_FALSE(g.actsOn(3));
}

TEST(Gate, ArityAndParamCounts)
{
    EXPECT_EQ(gateArity(GateType::U3), 1);
    EXPECT_EQ(gateArity(GateType::CX), 2);
    EXPECT_EQ(gateArity(GateType::CCX), 3);
    EXPECT_EQ(gateParamCount(GateType::U3), 3);
    EXPECT_EQ(gateParamCount(GateType::U2), 2);
    EXPECT_EQ(gateParamCount(GateType::RZ), 1);
    EXPECT_EQ(gateParamCount(GateType::H), 0);
}

TEST(Gate, CnotEquivalents)
{
    EXPECT_EQ(cnotEquivalents(GateType::CX), 1);
    EXPECT_EQ(cnotEquivalents(GateType::SWAP), 3);
    EXPECT_EQ(cnotEquivalents(GateType::CCX), 6);
    EXPECT_EQ(cnotEquivalents(GateType::RZZ), 2);
    EXPECT_EQ(cnotEquivalents(GateType::H), 0);
}

TEST(Gate, DuplicateWirePanics)
{
    EXPECT_DEATH(Gate::cx(1, 1), "duplicate");
}

TEST(Gate, MeasureHasNoInverse)
{
    EXPECT_DEATH(Gate::measure(0).inverse(), "inverse");
}

TEST(Gate, MeasureHasNoMatrix)
{
    EXPECT_DEATH(gateMatrix(Gate::measure(0)), "unitary");
}

TEST(Gate, ToStringFormat)
{
    EXPECT_EQ(Gate::cx(0, 1).toString(), "cx q[0],q[1];");
    std::string rz = Gate::rz(2, 0.5).toString();
    EXPECT_NE(rz.find("rz(0.5)"), std::string::npos);
}

TEST(Gate, IsEntangling)
{
    EXPECT_TRUE(isEntangling(GateType::CX));
    EXPECT_TRUE(isEntangling(GateType::RZZ));
    EXPECT_FALSE(isEntangling(GateType::U3));
    EXPECT_FALSE(isEntangling(GateType::Barrier));
}

/** A {U3, CX} circuit of @p n_gates gates on four wires. */
Circuit
nativeCircuit(size_t n_gates)
{
    Circuit c(4);
    for (size_t i = 0; i < n_gates; ++i) {
        const int q = static_cast<int>(i % 4);
        if (i % 2 == 0)
            c.append(Gate::u3(q, 0.1 * static_cast<double>(i), 0.2, -0.3));
        else
            c.append(Gate::cx(q, (q + 1) % 4));
    }
    return c;
}

TEST(GateStorage, CopyingANativeCircuitAllocatesOnce)
{
    const Circuit c = nativeCircuit(1000);
    uint64_t before = g_allocation_count.load();
    Circuit copy = c;
    EXPECT_EQ(g_allocation_count.load() - before, 1u)
        << "one gate array, no per-gate wire or angle storage";
    EXPECT_EQ(copy.size(), c.size());

    before = g_allocation_count.load();
    Gate u3 = copy[0];
    Gate moved = std::move(u3);
    u3 = moved;
    EXPECT_EQ(g_allocation_count.load() - before, 0u);
}

/** Allocations made by decoding one QSC1 candidate of @p n_gates. */
uint64_t
decodeAllocations(size_t n_gates)
{
    SynthCandidate candidate;
    candidate.circuit = nativeCircuit(n_gates);
    candidate.cnotCount = static_cast<int>(candidate.circuit.cnotCount());
    ByteWriter w;
    cache::encodeSynthCandidate(w, candidate);

    ByteReader r(w.buffer());
    const uint64_t before = g_allocation_count.load();
    const SynthCandidate back = cache::decodeSynthCandidate(r);
    const uint64_t allocations = g_allocation_count.load() - before;
    EXPECT_EQ(back.circuit.size(), n_gates);
    return allocations;
}

TEST(GateStorage, DecodingACandidateAllocatesPerCircuitNotPerGate)
{
    const uint64_t small = decodeAllocations(10);
    EXPECT_EQ(decodeAllocations(1000), small);
    EXPECT_LE(small, 1u);
}

/** Allocations made by planning a native circuit of @p n_gates plus
 *  one RZZ and one CCX (the slab kernel's mixed-gate path). */
uint64_t
planAllocations(size_t n_gates)
{
    Circuit c = nativeCircuit(n_gates);
    c.append(Gate::rzz(0, 2, 0.4));
    c.append(Gate::ccx(3, 1, 0));
    const uint64_t before = g_allocation_count.load();
    const UnitaryPlan plan(c);
    const uint64_t allocations = g_allocation_count.load() - before;
    EXPECT_EQ(plan.dim(), 16u);
    return allocations;
}

TEST(GateStorage, UnitaryPlanAllocatesPerCircuitNotPerGate)
{
    // gateUnitary() writes each gate's coefficients to the stack, so
    // no gate costs the plan a heap matrix.
    EXPECT_EQ(planAllocations(1000), planAllocations(10));
}

TEST(GateStorage, WideBarrierSurvivesCopyMoveAndSelfAssignment)
{
    const std::vector<int> wires = {4, 0, 3, 1, 2};
    const auto wiresOf = [](const Gate &g) {
        return std::vector<int>(g.qubits.begin(), g.qubits.end());
    };
    const Gate wide = Gate::barrier(wires);
    ASSERT_EQ(wiresOf(wide), wires);
    EXPECT_EQ(wide.arity(), 5);
    EXPECT_TRUE(wide.actsOn(2));

    Gate copy = wide;
    EXPECT_EQ(wiresOf(copy), wires);
    EXPECT_EQ(copy.qubits, wide.qubits);
    Gate moved = std::move(copy);
    EXPECT_EQ(wiresOf(moved), wires);
    EXPECT_TRUE(copy.qubits.empty());

    Gate assigned = Gate::cx(0, 1);
    assigned = moved;
    EXPECT_EQ(wiresOf(assigned), wires);
    Gate &alias = assigned;
    assigned = alias;
    EXPECT_EQ(wiresOf(assigned), wires);
    assigned = std::move(alias);
    EXPECT_EQ(wiresOf(assigned), wires);

    // Shrinking back to three wires moves them inline again.
    assigned.qubits.pop_back();
    assigned.qubits.pop_back();
    EXPECT_EQ(wiresOf(assigned), (std::vector<int>{4, 0, 3}));
    assigned.qubits = {7, 8, 9, 10};
    EXPECT_EQ(wiresOf(assigned), (std::vector<int>{7, 8, 9, 10}));
    assigned = Gate::h(1);
    EXPECT_EQ(wiresOf(assigned), (std::vector<int>{1}));
    EXPECT_LT(Gate::cx(0, 1).qubits, Gate::cx(0, 2).qubits);
    EXPECT_LT(Gate::cx(0, 1).qubits, moved.qubits);
}

} // namespace
} // namespace quest
