/**
 * @file
 * Cross-checks buildUnitary against the statevector simulator: column
 * j of the circuit unitary must equal the state obtained by applying
 * the circuit to basis state |j>. Golden digests pin the exact bytes
 * of buildUnitary, its pooled overload and circuitUnitary, and every
 * slab-kernel table is checked bit for bit against the portable one.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <numbers>
#include <numeric>

#include "algos/algorithms.hh"
#include "ir/circuit.hh"
#include "ir/lower.hh"
#include "ir/unitary_kernel.hh"
#include "obs/metrics.hh"
#include "resilience/thread_pool.hh"
#include "sim/statevector.hh"
#include "sim/unitary_builder.hh"
#include "util/names.hh"
#include "util/rng.hh"
#include "util/sha256.hh"
#include "util/vector_ops.hh"

namespace quest {
namespace {

constexpr double pi = std::numbers::pi;

/** The circuit applied to basis state |j>. */
std::vector<Complex>
applyToBasis(const Circuit &circuit, size_t j)
{
    StateVector sv(circuit.numQubits());
    auto &amps = sv.amplitudes();
    std::fill(amps.begin(), amps.end(), Complex(0.0, 0.0));
    amps[j] = Complex(1.0, 0.0);
    sv.applyCircuit(circuit);
    return sv.amplitudes();
}

/** Column-by-column comparison against the simulator. */
void
expectMatchesSimulator(const Circuit &circuit)
{
    Matrix u = buildUnitary(circuit);
    const size_t dim = size_t{1} << circuit.numQubits();
    ASSERT_EQ(u.rows(), dim);
    ASSERT_EQ(u.cols(), dim);
    for (size_t j = 0; j < dim; ++j) {
        std::vector<Complex> column = applyToBasis(circuit, j);
        for (size_t r = 0; r < dim; ++r) {
            EXPECT_NEAR(std::abs(u(r, j) - column[r]), 0.0, 1e-12)
                << "column " << j << " row " << r;
        }
    }
}

TEST(UnitaryBuilder, SingleQubitGates)
{
    Circuit c(1);
    c.append(Gate::h(0));
    c.append(Gate::t(0));
    c.append(Gate::u3(0, 0.3, -1.2, 2.5));
    c.append(Gate::sx(0));
    expectMatchesSimulator(c);
}

TEST(UnitaryBuilder, TwoQubitGates)
{
    Circuit c(2);
    c.append(Gate::h(0));
    c.append(Gate::cx(0, 1));
    c.append(Gate::rzz(0, 1, 0.7));
    c.append(Gate::swap(0, 1));
    c.append(Gate::cp(1, 0, pi / 3));
    expectMatchesSimulator(c);
}

TEST(UnitaryBuilder, ThreeQubitGates)
{
    Circuit c(3);
    c.append(Gate::h(1));
    c.append(Gate::ccx(0, 1, 2));
    c.append(Gate::cx(2, 0));
    c.append(Gate::ry(1, 0.4));
    c.append(Gate::ccx(2, 0, 1));
    expectMatchesSimulator(c);
}

TEST(UnitaryBuilder, CxDirectionMatters)
{
    Circuit up(2), down(2);
    up.append(Gate::cx(0, 1));
    down.append(Gate::cx(1, 0));
    expectMatchesSimulator(up);
    expectMatchesSimulator(down);

    Matrix mu = buildUnitary(up);
    Matrix md = buildUnitary(down);
    double diff = 0.0;
    for (size_t r = 0; r < 4; ++r)
        for (size_t cidx = 0; cidx < 4; ++cidx)
            diff += std::abs(mu(r, cidx) - md(r, cidx));
    EXPECT_GT(diff, 1.0);
}

TEST(UnitaryBuilder, GateOrderMatters)
{
    Circuit hc(2), ch(2);
    hc.append(Gate::h(0));
    hc.append(Gate::cx(0, 1));
    ch.append(Gate::cx(0, 1));
    ch.append(Gate::h(0));
    expectMatchesSimulator(hc);
    expectMatchesSimulator(ch);

    Matrix a = buildUnitary(hc);
    Matrix b = buildUnitary(ch);
    double diff = 0.0;
    for (size_t r = 0; r < 4; ++r)
        for (size_t cidx = 0; cidx < 4; ++cidx)
            diff += std::abs(a(r, cidx) - b(r, cidx));
    EXPECT_GT(diff, 1.0);
}

TEST(UnitaryBuilder, WirePermutationRemapsTheUnitary)
{
    // The same block embedded on permuted wires must agree with the
    // simulator on the full register.
    Circuit block(2);
    block.append(Gate::h(0));
    block.append(Gate::cx(0, 1));
    block.append(Gate::rz(1, 0.9));

    Circuit embedded(3);
    embedded.appendCircuit(block, {2, 0});
    expectMatchesSimulator(embedded);

    // And a permutation is not a no-op: wires (2,0) differ from (0,2).
    Circuit direct(3);
    direct.appendCircuit(block, {0, 2});
    Matrix a = buildUnitary(embedded);
    Matrix b = buildUnitary(direct);
    double diff = 0.0;
    for (size_t r = 0; r < a.rows(); ++r)
        for (size_t cidx = 0; cidx < a.cols(); ++cidx)
            diff += std::abs(a(r, cidx) - b(r, cidx));
    EXPECT_GT(diff, 1.0);
}

/** SHA-256 of a matrix's raw row-major bytes. */
std::string
digestOf(const Matrix &m)
{
    return Sha256::hexDigest(m.data().data(),
                             m.data().size() * sizeof(Complex));
}

TEST(UnitaryBuilder, AgreesWithCircuitUnitary)
{
    // Both builders run the same arithmetic, so they agree byte for
    // byte (signed zeros included), not just to a tolerance.
    Circuit c = algos::tfim(3, 2);
    EXPECT_EQ(digestOf(buildUnitary(c)), digestOf(circuitUnitary(c)));
}

TEST(UnitaryBuilder, TrotterCircuitMatchesSimulator)
{
    expectMatchesSimulator(algos::heisenberg(3, 1));
    expectMatchesSimulator(algos::qft(3));
}

TEST(UnitaryBuilder, BarrierAndMeasureAreIgnored)
{
    Circuit with(2), without(2);
    with.append(Gate::h(0));
    with.append(Gate::barrier({0, 1}));
    with.append(Gate::cx(0, 1));
    with.append(Gate::measure(0));
    without.append(Gate::h(0));
    without.append(Gate::cx(0, 1));

    Matrix a = buildUnitary(with);
    Matrix b = buildUnitary(without);
    for (size_t r = 0; r < a.rows(); ++r)
        for (size_t j = 0; j < a.cols(); ++j)
            EXPECT_NEAR(std::abs(a(r, j) - b(r, j)), 0.0, 1e-14);
}

TEST(UnitaryBuilder, RejectsOversizedCircuits)
{
    EXPECT_DEATH(buildUnitary(Circuit(15)), "14");
}

// ---------------------------------------------------------------------
// Golden digests: SHA-256 of the raw bytes of each pin circuit's
// unitary. They were captured at commit 8dc52c2, before one row kernel
// replaced both builders (buildUnitary's per-gate row scratch and
// circuitUnitary's embed-then-multiply loop), by running
// MatchesGoldenDigests below with empty strings in kUnitaryPins and
// copying the digests its failures printed; a Release build with
// GCC 12.2 at the baseline x86-64 ISA. At that commit buildUnitary
// and circuitUnitary gave the same digest for every pin of width 8
// or less (circuitUnitary is not pinned above width 8).

/** Every unitary gate type, in GateType order. */
constexpr GateType kUnitaryTypes[] = {
    GateType::U1,  GateType::U2,  GateType::U3,   GateType::RX,
    GateType::RY,  GateType::RZ,  GateType::X,    GateType::Y,
    GateType::Z,   GateType::H,   GateType::S,    GateType::Sdg,
    GateType::T,   GateType::Tdg, GateType::SX,   GateType::CX,
    GateType::CZ,  GateType::SWAP, GateType::RZZ, GateType::RXX,
    GateType::RYY, GateType::CRZ, GateType::CP,   GateType::CCX};

/** A gate of type @p type on @p wires with angles drawn from @p rng. */
Gate
seededGate(GateType type, std::vector<int> wires, Rng &rng)
{
    std::vector<double> params(static_cast<size_t>(gateParamCount(type)));
    for (double &p : params)
        p = rng.uniform(-pi, pi);
    return Gate(type, std::move(wires), std::move(params));
}

/** U3 with theta 0 and pi: gate matrices with exactly-zero entries
 *  (theta 0) and entries of order 1e-17 (theta pi). */
void
appendZeroEntryU3s(Circuit &c, int q, Rng &rng)
{
    c.append(Gate::u3(q, 0.0, rng.uniform(-pi, pi),
                      rng.uniform(-pi, pi)));
    c.append(Gate::u3(q, pi, rng.uniform(-pi, pi),
                      rng.uniform(-pi, pi)));
}

/** Width 1: every one-qubit type, then a barrier and a measure. */
Circuit
everyOneQubitGate()
{
    Rng rng(101);
    Circuit c(1);
    for (GateType t : kUnitaryTypes)
        if (gateArity(t) == 1)
            c.append(seededGate(t, {0}, rng));
    appendZeroEntryU3s(c, 0, rng);
    c.append(Gate::barrier({0}));
    c.append(Gate::x(0));
    c.append(Gate::y(0));
    c.append(Gate::measure(0));
    return c;
}

/** Every two-qubit type on (a, b) and on (b, a), with a dense
 *  one-qubit layer before each pair. */
Circuit
everyTwoQubitGateBothOrders(int n, int a, int b, uint64_t seed)
{
    Rng rng(seed);
    Circuit c(n);
    for (GateType t : kUnitaryTypes) {
        if (gateArity(t) != 2)
            continue;
        for (int q = 0; q < n; ++q)
            c.append(seededGate(GateType::U3, {q}, rng));
        c.append(seededGate(t, {a, b}, rng));
        c.append(seededGate(t, {b, a}, rng));
    }
    c.append(Gate::barrier({a, b}));
    appendZeroEntryU3s(c, a, rng);
    for (int q = 0; q < n; ++q)
        c.append(Gate::measure(q));
    return c;
}

/** CCX in all six wire orders of (0, 1, 2), interleaved with dense
 *  one-qubit layers, plus SWAP, X, Y and zero-entry U3s. */
Circuit
ccxEveryOrder()
{
    Rng rng(303);
    Circuit c(3);
    const int orders[6][3] = {{0, 1, 2}, {2, 1, 0}, {1, 2, 0},
                              {0, 2, 1}, {2, 0, 1}, {1, 0, 2}};
    for (const auto &o : orders) {
        for (int q = 0; q < 3; ++q)
            c.append(seededGate(GateType::U3, {q}, rng));
        c.append(Gate::ccx(o[0], o[1], o[2]));
    }
    c.append(Gate::swap(2, 0));
    c.append(Gate::x(1));
    c.append(Gate::y(2));
    appendZeroEntryU3s(c, 1, rng);
    c.append(Gate::barrier({0, 1, 2}));
    c.append(Gate::measure(1));
    return c;
}

/** Width n: 6n + 6 gates, each of a random unitary type (or a
 *  zero-entry U3) on random distinct wires in random order, with a
 *  barrier halfway and a trailing measure. */
Circuit
seededCircuit(int n)
{
    Rng rng(1000 + static_cast<uint64_t>(n));
    const auto draw = [&rng](size_t bound) {
        return static_cast<size_t>(
            rng.uniformInt(static_cast<uint32_t>(bound)));
    };
    std::vector<GateType> types;
    for (GateType t : kUnitaryTypes)
        if (gateArity(t) <= n)
            types.push_back(t);
    std::vector<int> all(static_cast<size_t>(n));
    std::iota(all.begin(), all.end(), 0);

    Circuit c(n);
    const size_t gates = 6 * all.size() + 6;
    for (size_t i = 0; i < gates; ++i) {
        if (i == gates / 2)
            c.append(Gate::barrier(all));
        const size_t pick = draw(types.size() + 1);
        if (pick == types.size()) {
            appendZeroEntryU3s(c, static_cast<int>(draw(all.size())), rng);
            continue;
        }
        // Shuffle, then keep the first gateArity wires.
        std::vector<int> wires = all;
        for (size_t k = 0; k < wires.size(); ++k)
            std::swap(wires[k], wires[k + draw(wires.size() - k)]);
        wires.resize(static_cast<size_t>(gateArity(types[pick])));
        c.append(seededGate(types[pick], std::move(wires), rng));
    }
    c.append(Gate::measure(static_cast<int>(draw(all.size()))));
    return c;
}

struct UnitaryPin
{
    const char *name;
    Circuit (*make)();
    const char *sha256;
};

const UnitaryPin kUnitaryPins[] = {
    {"every_1q_w1", &everyOneQubitGate,
     "6643f2575873c3b25dbda760c3ff1b0321406e65707bdfb0f8cef9cdbac60d40"},
    {"every_2q_both_orders_w2",
     [] { return everyTwoQubitGateBothOrders(2, 0, 1, 202); },
     "2fe03e9bb5e33b01b159aba3537bd6a67ebad5a5c1cd6f599c28fda07f53effe"},
    {"ccx_every_order_w3", &ccxEveryOrder,
     "d83a4e9c40e31280bdae314558dfd9d0d62e687d0f5b8b50ec6184dfedf05422"},
    {"every_2q_far_wires_w5",
     [] { return everyTwoQubitGateBothOrders(5, 1, 4, 505); },
     "2585bbd711f913a51005cbd0eb6855abb3c25be95b69b2b4e87475a684ade7dd"},
    {"native_tfim_w8", [] { return lowerToNative(algos::tfim(8, 1)); },
     "5ea42cf4088b16f4f272ca75735e74a4c982e63cfb8be1d5bb9d5cb8504c7974"},
    {"seeded_w1", [] { return seededCircuit(1); },
     "ade6a60c44fab6c6d419696adfbc36444fc4dbc661249614d0b4b85d01d3db8c"},
    {"seeded_w2", [] { return seededCircuit(2); },
     "3553b5a7e97debdb253656a30514e654d571b0043973a4cd0d955b43dea9818f"},
    {"seeded_w3", [] { return seededCircuit(3); },
     "3ff017cb1d53c4ac20c87c0934547779ffec498390465228107dd6e450b146f5"},
    {"seeded_w4", [] { return seededCircuit(4); },
     "5ff2ae5ec3a991ff6a117d67b0332061a140afaa60ee7e75c14dcbc4758468ed"},
    {"seeded_w5", [] { return seededCircuit(5); },
     "23c81154888af86920d3e9fb741f4e92d7b1aaf45393a5fe4e15c7cfd2017e33"},
    {"seeded_w6", [] { return seededCircuit(6); },
     "b4df7f0a5ae7d39e57572d813660e846632706c520036b0a56c9510cc2c46305"},
    {"seeded_w7", [] { return seededCircuit(7); },
     "058e3232b62650e0c08642c2681b90c41bd8cda048a1c9912e383528dcb1320f"},
    {"seeded_w8", [] { return seededCircuit(8); },
     "90334812ba7fc33c330b01af4cb58ce6aa8d407c4f1a5ffd59aa6980b88ed0c2"},
    {"seeded_w9", [] { return seededCircuit(9); },
     "34152da504f9e12c9cb6f2e899ac04161bc13b962b451ff862f1d7fc87726b2b"},
    {"seeded_w10", [] { return seededCircuit(10); },
     "59ac60461bc45079cbf390a05a047c3c1e2cf9d9d84f25aa430b81f08b23e725"},
};

TEST(UnitaryBuilder, MatchesGoldenDigests)
{
    for (const UnitaryPin &pin : kUnitaryPins) {
        const Circuit c = pin.make();
        EXPECT_EQ(digestOf(buildUnitary(c)), pin.sha256) << pin.name;
        if (c.numQubits() <= 8) {
            EXPECT_EQ(digestOf(circuitUnitary(c)), pin.sha256)
                << pin.name;
        }
    }
}

TEST(UnitaryBuilder, PooledMatchesGoldenDigests)
{
    // Pool sizes 0-3 give 1-4 threads: slab counts of 3 do not divide
    // 2^n, and at small widths 2^n is below the thread count.
    for (unsigned workers = 0; workers <= 3; ++workers) {
        ThreadPool pool(workers);
        for (const UnitaryPin &pin : kUnitaryPins) {
            EXPECT_EQ(digestOf(buildUnitary(pin.make(), &pool)),
                      pin.sha256)
                << pin.name << ", " << workers << " workers";
        }
    }
    for (const UnitaryPin &pin : kUnitaryPins) {
        EXPECT_EQ(digestOf(buildUnitary(pin.make(), nullptr)), pin.sha256)
            << pin.name << ", no pool";
    }
}

// ---------------------------------------------------------------------
// Every slab-kernel table against the portable one, bit for bit. The
// golden digests above run the dispatched table only; these run each
// table the build and host have, on every gate body, every zero
// pattern of a one-qubit gate, and operands with signed zeros and
// 1e-17 entries, at slab widths 1-32 and unitary widths 1-10.

/** The non-portable tables this build and host can run. */
std::vector<std::pair<util::SimdIsa, const SlabKernelSet *>>
vectorTables()
{
    std::vector<std::pair<util::SimdIsa, const SlabKernelSet *>> out;
    for (util::SimdIsa isa : {util::SimdIsa::Avx2, util::SimdIsa::Avx512})
        if (const SlabKernelSet *k = slabKernelsForIsa(isa))
            out.emplace_back(isa, k);
    return out;
}

const SlabKernelSet &
portable()
{
    return *slabKernelsForIsa(util::SimdIsa::Scalar);
}

/** A uniform value, or (one time in four) a signed zero or a signed
 *  1e-17. */
double
awkwardValue(Rng &rng)
{
    static constexpr double kSpecial[] = {0.0, -0.0, 1e-17, -1e-17};
    if (rng.uniformInt(4) == 0)
        return kSpecial[rng.uniformInt(4)];
    return rng.uniform(-1.0, 1.0);
}

/** Two planes of dim rows x stride doubles on a 64-byte base. */
struct Planes
{
    Planes(size_t dim, size_t stride) : n(dim * stride)
    {
        simd::fitAligned(buf, re, 2 * n);
        im = re + n;
    }
    void fill(Rng &rng)
    {
        for (size_t e = 0; e < 2 * n; ++e)
            re[e] = awkwardValue(rng);
    }
    bool sameBits(const Planes &o) const
    {
        return std::memcmp(re, o.re, 2 * n * sizeof(double)) == 0;
    }
    size_t n;
    std::vector<double> buf;
    double *re = nullptr, *im = nullptr;
};

/** Run @p call on a copy of the same planes under the portable table
 *  and under @p k, and compare every bit. */
template <class Call>
void
expectSameAsPortable(const SlabKernelSet &k, size_t dim, size_t stride,
                     uint64_t seed, const Call &call)
{
    Planes want(dim, stride), got(dim, stride);
    Rng rng(seed);
    want.fill(rng);
    std::memcpy(got.re, want.re, 2 * want.n * sizeof(double));
    call(portable(), want);
    call(k, got);
    EXPECT_TRUE(got.sameBits(want));
}

TEST(SlabKernels, PairBodiesMatchPortableOnEveryZeroPattern)
{
    for (const auto &[isa, k] : vectorTables()) {
        for (int n = 1; n <= 10; ++n) {
            const size_t dim = size_t{1} << n;
            for (size_t stride : {8, 16, 32}) {
                for (int q = 0; q < n; ++q) {
                    const size_t bit = size_t{1} << q;
                    for (unsigned pattern = 0; pattern < 16; ++pattern) {
                        SCOPED_TRACE(testing::Message()
                                     << util::simdIsaName(isa) << " n=" << n
                                     << " stride=" << stride << " bit=" << bit
                                     << " pattern=" << pattern);
                        Rng rng(7 * pattern + 131 * bit + stride);
                        double g[8];
                        for (double &v : g)
                            v = awkwardValue(rng);
                        expectSameAsPortable(
                            *k, dim, stride, 17 * pattern + n,
                            [&](const SlabKernelSet &t, Planes &p) {
                                t.pair[pattern](dim, stride, p.re, p.im, bit,
                                                g);
                            });
                    }
                }
            }
        }
    }
}

TEST(SlabKernels, SwapAndMixBodiesMatchPortable)
{
    for (const auto &[isa, k] : vectorTables()) {
        for (int n = 2; n <= 8; ++n) {
            const size_t dim = size_t{1} << n;
            for (size_t stride : {8, 32}) {
                for (int c = 0; c < n; ++c) {
                    for (int t = 0; t < n; ++t) {
                        if (c == t)
                            continue;
                        SCOPED_TRACE(testing::Message()
                                     << util::simdIsaName(isa) << " n=" << n
                                     << " stride=" << stride << " wires " << c
                                     << "," << t);
                        const size_t bc = size_t{1} << c;
                        const size_t bt = size_t{1} << t;
                        expectSameAsPortable(
                            *k, dim, stride, 5 * n + 3 * c + t,
                            [&](const SlabKernelSet &tab, Planes &p) {
                                tab.swap(dim, stride, p.re, p.im, bc, bt);
                            });
                        // A random 2-qubit (and, on a third wire, a
                        // 3-qubit) mix with zero and awkward terms.
                        for (size_t arity : {2, 3}) {
                            if (arity == 3 && n < 3)
                                continue;
                            Rng rng(41 * arity + 7 * c + t + 1000 * stride);
                            MixGate m;
                            m.subDim = size_t{1} << arity;
                            int third = 0;
                            while (third == c || third == t)
                                ++third;
                            const size_t bits[3] = {bc, bt,
                                                    size_t{1} << third};
                            for (size_t i = 0; i < arity; ++i) {
                                m.mask |= bits[i];
                                for (size_t s = 0; s < m.subDim; ++s)
                                    if ((s >> (arity - 1 - i)) & 1u)
                                        m.offsets[s] |= bits[i];
                            }
                            for (size_t r = 0; r < m.subDim; ++r)
                                for (size_t col = 0; col < m.subDim; ++col)
                                    if (rng.uniformInt(3) != 0)
                                        m.terms[r][m.termCount[r]++] = {
                                            col, awkwardValue(rng),
                                            awkwardValue(rng)};
                            expectSameAsPortable(
                                *k, dim, stride, 11 * n + arity,
                                [&](const SlabKernelSet &tab, Planes &p) {
                                    tab.mix(dim, stride, p.re, p.im, m);
                                });
                        }
                    }
                }
            }
        }
    }
}

/** The pin circuits of widths 1-10 (every gate type, zero-entry U3s,
 *  barriers and measures). */
std::vector<Circuit>
parityCircuits()
{
    std::vector<Circuit> out;
    for (const UnitaryPin &pin : kUnitaryPins)
        out.push_back(pin.make());
    return out;
}

/** Bytes of columns [col0, col0 + width) of @p u. */
std::vector<Complex>
columnsOf(const Matrix &u, size_t col0, size_t width)
{
    std::vector<Complex> out;
    for (size_t r = 0; r < u.rows(); ++r)
        for (size_t j = col0; j < col0 + width; ++j)
            out.push_back(u(r, j));
    return out;
}

bool
sameBits(const std::vector<Complex> &a, const std::vector<Complex> &b)
{
    return a.size() == b.size() &&
           std::memcmp(a.data(), b.data(), a.size() * sizeof(Complex)) == 0;
}

TEST(UnitaryPlan, EveryTableMatchesPortableOnEverySlabWidth)
{
    std::vector<const SlabKernelSet *> tables = {&portable()};
    for (const auto &entry : vectorTables())
        tables.push_back(entry.second);
    std::vector<double> planes;
    for (const Circuit &c : parityCircuits()) {
        const UnitaryPlan plan(c);
        const size_t dim = plan.dim();
        // The reference: every column from the portable table, one
        // slab of the whole width.
        Matrix want(dim, dim);
        plan.buildColumns(portable(), 0, dim, want, planes);
        for (size_t width = 1; width <= std::min<size_t>(dim, 32); ++width) {
            for (size_t col0 : {size_t{0}, (dim - width) / 2, dim - width}) {
                for (const SlabKernelSet *k : tables) {
                    SCOPED_TRACE(testing::Message()
                                 << c.numQubits() << " qubits, columns ["
                                 << col0 << ", " << col0 + width << ")");
                    Matrix got(dim, dim);
                    plan.buildColumns(*k, col0, width, got, planes);
                    EXPECT_TRUE(sameBits(columnsOf(got, col0, width),
                                         columnsOf(want, col0, width)));
                }
            }
        }
    }
}

TEST(UnitaryPlan, PooledBuildMatchesPortableOnEveryPoolSize)
{
    std::vector<double> planes;
    for (unsigned workers = 0; workers <= 3; ++workers) {
        ThreadPool pool(workers);
        for (const Circuit &c : parityCircuits()) {
            const UnitaryPlan plan(c);
            Matrix want(plan.dim(), plan.dim());
            plan.buildColumns(portable(), 0, plan.dim(), want, planes);
            EXPECT_EQ(digestOf(buildUnitary(c, &pool)), digestOf(want))
                << c.numQubits() << " qubits, " << workers << " workers";
        }
    }
}

TEST(UnitaryBuilder, CountsOneBuildPerMatrix)
{
    // One count per matrix, however many slabs build it; block
    // unitaries (circuitUnitary) are not counted.
    auto &builds = obs::MetricsRegistry::global().counter(
        names::kMetricSimUnitaryBuilds);
    const Circuit c = seededCircuit(9);
    ThreadPool pool(3);
    const uint64_t before = builds.value();
    buildUnitary(c, &pool);
    EXPECT_EQ(builds.value(), before + 1);
    buildUnitary(c);
    EXPECT_EQ(builds.value(), before + 2);
    circuitUnitary(c);
    EXPECT_EQ(builds.value(), before + 2);
}

} // namespace
} // namespace quest
