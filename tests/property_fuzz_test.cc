/**
 * @file
 * Cross-module property tests on randomly generated circuits: QASM
 * round trips, lowering, partitioning, routing and the two noise
 * simulators must all agree on semantics for arbitrary inputs, not
 * just the curated suite.
 */

#include <gtest/gtest.h>

#include <numbers>

#include "density_matrix_reference.hh"
#include "ir/lower.hh"
#include "ir/qasm.hh"
#include "linalg/distance.hh"
#include "metrics/output_distance.hh"
#include "partition/scan_partitioner.hh"
#include "route/router.hh"
#include "sim/simulator.hh"
#include "sim/unitary_builder.hh"
#include "util/rng.hh"

namespace quest {
namespace {

constexpr double pi = std::numbers::pi;

/** Random circuit drawing from the full gate set. */
Circuit
randomMixedCircuit(int n, int gates, uint64_t seed)
{
    Rng rng(seed);
    Circuit c(n);
    auto wire = [&]() { return static_cast<int>(rng.uniformInt(n)); };
    auto angle = [&]() { return rng.uniform(-pi, pi); };
    for (int i = 0; i < gates; ++i) {
        int q = wire();
        int r = (q + 1 + static_cast<int>(rng.uniformInt(n - 1))) % n;
        switch (rng.uniformInt(12)) {
          case 0: c.append(Gate::h(q)); break;
          case 1: c.append(Gate::x(q)); break;
          case 2: c.append(Gate::t(q)); break;
          case 3: c.append(Gate::sdg(q)); break;
          case 4: c.append(Gate::rx(q, angle())); break;
          case 5: c.append(Gate::u3(q, angle(), angle(), angle()));
                  break;
          case 6: c.append(Gate::cx(q, r)); break;
          case 7: c.append(Gate::cz(q, r)); break;
          case 8: c.append(Gate::swap(q, r)); break;
          case 9: c.append(Gate::rzz(q, r, angle())); break;
          case 10: c.append(Gate::cp(q, r, angle())); break;
          default:
            if (n >= 3) {
                int s = (r + 1 + static_cast<int>(
                         rng.uniformInt(n - 2))) % n;
                if (s == q || s == r)
                    s = (std::max(q, r) + 1) % n;
                if (s != q && s != r) {
                    c.append(Gate::ccx(q, r, s));
                    break;
                }
            }
            c.append(Gate::y(q));
        }
    }
    return c;
}

class FuzzSeeds : public ::testing::TestWithParam<uint64_t>
{
};

TEST_P(FuzzSeeds, QasmRoundTripPreservesUnitary)
{
    Circuit c = randomMixedCircuit(4, 25, GetParam());
    Circuit parsed = parseQasm(toQasm(c));
    EXPECT_NEAR(hsDistance(buildUnitary(c), buildUnitary(parsed)), 0.0,
                1e-7);
}

TEST_P(FuzzSeeds, LoweringPreservesUnitary)
{
    Circuit c = randomMixedCircuit(4, 25, GetParam() + 100);
    Circuit lowered = lowerToNative(c);
    EXPECT_TRUE(isNative(lowered));
    EXPECT_NEAR(hsDistance(buildUnitary(c), buildUnitary(lowered)),
                0.0, 1e-7);
}

TEST_P(FuzzSeeds, PartitionReassemblyPreservesUnitary)
{
    Circuit c =
        lowerToNative(randomMixedCircuit(5, 30, GetParam() + 200));
    for (int width : {2, 3, 4}) {
        ScanPartitioner partitioner(width);
        auto blocks = partitioner.partition(c);
        Circuit back = assembleBlocks(blocks, c.numQubits());
        EXPECT_NEAR(hsDistance(buildUnitary(c), buildUnitary(back)),
                    0.0, 1e-7)
            << "width " << width;
    }
}

TEST_P(FuzzSeeds, RoutingPreservesDistribution)
{
    Circuit c =
        lowerToNative(randomMixedCircuit(5, 25, GetParam() + 300));
    RoutingResult r = routeCircuit(c, CouplingMap::line(5));
    Distribution logical = idealDistribution(c);
    Distribution physical = idealDistribution(r.circuit);
    EXPECT_LT(tvd(logical, unpermuteDistribution(physical,
                                                 r.finalLayout)),
              1e-9);
}

TEST_P(FuzzSeeds, DensityMatrixAgreesWithStatevector)
{
    Circuit c = randomMixedCircuit(3, 15, GetParam() + 400);
    DensityMatrix rho(3);
    for (const Gate &g : c)
        rho.applyGate(g);
    EXPECT_LT(tvd(rho.probabilities(), idealDistribution(c)), 1e-9);
    EXPECT_NEAR(rho.purity(), 1.0, 1e-9);
}

TEST_P(FuzzSeeds, InverseComposesToIdentity)
{
    Circuit c = randomMixedCircuit(4, 20, GetParam() + 500);
    Circuit both(4);
    both.appendCircuit(c);
    both.appendCircuit(c.inverse());
    EXPECT_NEAR(hsDistance(buildUnitary(both), Matrix::identity(16)),
                0.0, 1e-7);
}

INSTANTIATE_TEST_SUITE_P(Sweep, FuzzSeeds,
                         ::testing::Range<uint64_t>(1, 9));

} // namespace
} // namespace quest
