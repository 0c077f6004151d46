/**
 * @file
 * Density-matrix simulator tests, including the cross-validation of
 * the Monte-Carlo trajectory simulator against the exact channel.
 */

#include <gtest/gtest.h>

#include "algos/algorithms.hh"
#include "density_matrix_reference.hh"
#include "ir/lower.hh"
#include "metrics/output_distance.hh"
#include "sim/simulator.hh"

namespace quest {
namespace {

TEST(DensityMatrix, InitialStateIsPureZero)
{
    DensityMatrix rho(2);
    EXPECT_NEAR(rho.trace(), 1.0, 1e-12);
    EXPECT_NEAR(rho.purity(), 1.0, 1e-12);
    EXPECT_NEAR(rho.probabilities()[0], 1.0, 1e-12);
}

TEST(DensityMatrix, UnitaryEvolutionMatchesStatevector)
{
    Circuit c = lowerToNative(algos::tfim(3, 2));
    DensityMatrix rho(3);
    for (const Gate &g : c)
        rho.applyGate(g);
    Distribution expected = idealDistribution(c);
    Distribution got = rho.probabilities();
    EXPECT_LT(tvd(expected, got), 1e-9);
    EXPECT_NEAR(rho.purity(), 1.0, 1e-9);
}

TEST(DensityMatrix, PauliChannelReducesPurity)
{
    DensityMatrix rho(1);
    rho.applyGate(Gate::h(0));
    EXPECT_NEAR(rho.purity(), 1.0, 1e-12);
    rho.applyPauliChannel(0, 0.2);
    EXPECT_LT(rho.purity(), 1.0);
    EXPECT_NEAR(rho.trace(), 1.0, 1e-12);
}

TEST(DensityMatrix, FullDepolarizationIsMaximallyMixed)
{
    // The symmetric Pauli channel at p = 3/4 is the fully
    // depolarizing channel for one qubit.
    DensityMatrix rho(1);
    rho.applyGate(Gate::h(0));
    rho.applyPauliChannel(0, 0.75);
    EXPECT_NEAR(rho.purity(), 0.5, 1e-10);
    EXPECT_NEAR(rho.probabilities()[0], 0.5, 1e-10);
}

TEST(DensityMatrix, ChannelPreservesTrace)
{
    DensityMatrix rho(2);
    rho.applyGate(Gate::h(0));
    rho.applyGate(Gate::cx(0, 1));
    for (double p : {0.01, 0.1, 0.5}) {
        rho.applyPauliChannel(0, p);
        rho.applyPauliChannel(1, p);
        EXPECT_NEAR(rho.trace(), 1.0, 1e-10);
    }
}

TEST(ExactNoisy, ZeroNoiseMatchesIdeal)
{
    Circuit c = lowerToNative(algos::qft(3));
    Distribution exact =
        exactNoisyDistribution(c, NoiseModel::ideal());
    EXPECT_LT(tvd(exact, idealDistribution(c)), 1e-9);
}

TEST(ExactNoisy, ReadoutOnIdentityCircuit)
{
    Circuit c(2);
    c.append(Gate::u3(0, 0, 0, 0));
    NoiseModel m;
    m.pReadout = 0.1;
    Distribution d = exactNoisyDistribution(c, m);
    EXPECT_NEAR(d[0], 0.81, 1e-10);   // both stay 0
    EXPECT_NEAR(d[3], 0.01, 1e-10);   // both flip
    EXPECT_NEAR(d.total(), 1.0, 1e-10);
}

/**
 * The key cross-validation: the Monte-Carlo trajectory simulator
 * must converge to the exact channel distribution.
 */
class TrajectoryVsExact : public ::testing::TestWithParam<double>
{
};

TEST_P(TrajectoryVsExact, Converges)
{
    const double level = GetParam();
    Circuit c = lowerToNative(algos::tfim(3, 3));
    NoiseModel noise = NoiseModel::pauli(level);

    Distribution exact = exactNoisyDistribution(c, noise);
    NoisySimulator sim(noise, 12345);
    Distribution empirical = sim.run(c, 60000);

    // 60k shots over 8 outcomes: statistical TVD floor well below
    // 0.02.
    EXPECT_LT(tvd(exact, empirical), 0.02) << "level " << level;
}

INSTANTIATE_TEST_SUITE_P(Levels, TrajectoryVsExact,
                         ::testing::Values(0.001, 0.01, 0.05));

TEST(TrajectoryVsExact, WithReadoutError)
{
    Circuit c = lowerToNative(algos::heisenberg(2, 1));
    NoiseModel noise = NoiseModel::ibmqManila();
    Distribution exact = exactNoisyDistribution(c, noise);
    NoisySimulator sim(noise, 999);
    EXPECT_LT(tvd(exact, sim.run(c, 60000)), 0.02);
}

TEST(DensityMatrix, DeepCircuitsAccumulateError)
{
    // On a circuit whose ideal output is a basis state at every
    // depth (pairs of X layers), the channel error must grow
    // monotonically with the number of noisy gates.
    NoiseModel noise = NoiseModel::pauli(0.01);
    double prev = 0.0;
    for (int layers : {2, 8, 24}) {
        Circuit c(3);
        for (int l = 0; l < layers; ++l)
            for (int q = 0; q < 3; ++q)
                c.append(Gate::x(q));
        double err = tvd(exactNoisyDistribution(c, noise),
                         idealDistribution(c));
        EXPECT_GT(err, prev);
        prev = err;
    }
    EXPECT_GT(prev, 0.05);
}

} // namespace
} // namespace quest
