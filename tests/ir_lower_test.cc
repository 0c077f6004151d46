/**
 * @file
 * Lowering tests: every gate's native decomposition must preserve the
 * unitary up to global phase.
 */

#include <gtest/gtest.h>

#include "ir/lower.hh"
#include "linalg/distance.hh"
#include "sim/unitary_builder.hh"

namespace quest {
namespace {

const std::vector<GateType> loweredGates = {
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
        params.push_back(0.7 - 0.2 * p);
    return {type, wires, params};
}

class LowerEveryGate : public ::testing::TestWithParam<GateType>
{
};

TEST_P(LowerEveryGate, PreservesUnitaryUpToPhase)
{
    Gate g = makeGate(GetParam());
    Circuit c(g.arity());
    c.append(g);
    Circuit lowered = lowerToNative(c);
    EXPECT_TRUE(isNative(lowered)) << gateName(GetParam());
    EXPECT_NEAR(hsDistance(circuitUnitary(c), circuitUnitary(lowered)),
                0.0, 1e-7)
        << gateName(GetParam());
}

TEST_P(LowerEveryGate, CnotBudgetMatchesEquivalents)
{
    Gate g = makeGate(GetParam());
    Circuit c(g.arity());
    c.append(g);
    Circuit lowered = lowerToNative(c);
    EXPECT_EQ(lowered.cnotCount(),
              static_cast<size_t>(cnotEquivalents(GetParam())))
        << gateName(GetParam());
}

INSTANTIATE_TEST_SUITE_P(AllGates, LowerEveryGate,
                         ::testing::ValuesIn(loweredGates),
                         [](const auto &info) {
                             return std::string(gateName(info.param));
                         });

TEST(Lower, ReversedWireOrders)
{
    // Gates with wires in descending order must also lower correctly.
    Circuit c(3);
    c.append(Gate::cx(2, 0));
    c.append(Gate::rzz(2, 1, 0.4));
    c.append(Gate::ccx(2, 1, 0));
    c.append(Gate::swap(2, 0));
    Circuit lowered = lowerToNative(c);
    EXPECT_NEAR(hsDistance(circuitUnitary(c), circuitUnitary(lowered)),
                0.0, 1e-7);
}

TEST(Lower, DropsBarriersKeepsMeasures)
{
    Circuit c(2);
    c.append(Gate::h(0));
    c.append(Gate::barrier({0, 1}));
    c.append(Gate::measure(0));
    Circuit lowered = lowerToNative(c);
    EXPECT_TRUE(lowered.hasMeasurements());
    for (const Gate &g : lowered)
        EXPECT_NE(g.type, GateType::Barrier);
}

TEST(Lower, NativeCircuitUnchangedInLength)
{
    Circuit c(2);
    c.append(Gate::u3(0, 0.1, 0.2, 0.3));
    c.append(Gate::cx(0, 1));
    Circuit lowered = lowerToNative(c);
    EXPECT_EQ(lowered.size(), c.size());
    EXPECT_TRUE(isNative(lowered));
}

TEST(Lower, IsNativeDetectsForeignGates)
{
    Circuit c(2);
    c.append(Gate::h(0));
    EXPECT_FALSE(isNative(c));
    c = lowerToNative(c);
    EXPECT_TRUE(isNative(c));
}

TEST(Lower, WholeCircuitEquivalence)
{
    // A mixed 4-qubit circuit exercising every decomposition at once.
    Circuit c(4);
    c.append(Gate::h(0));
    c.append(Gate::ccx(0, 1, 2));
    c.append(Gate::swap(1, 3));
    c.append(Gate::rxx(0, 3, 0.8));
    c.append(Gate::ryy(2, 1, -0.6));
    c.append(Gate::crz(3, 0, 1.1));
    c.append(Gate::cp(1, 2, 0.9));
    c.append(Gate::sx(3));
    c.append(Gate::u2(0, 0.2, -0.4));
    Circuit lowered = lowerToNative(c);
    EXPECT_TRUE(isNative(lowered));
    EXPECT_NEAR(hsDistance(buildUnitary(c), buildUnitary(lowered)), 0.0,
                1e-7);
}

} // namespace
} // namespace quest
