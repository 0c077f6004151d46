/**
 * @file
 * Verifier tests: every circuit the generators, partitioner,
 * synthesizer and pipeline produce must lint clean, and hand-built
 * malformed circuits (bad wire, wrong arity, CX self-loop,
 * non-finite angle, non-covering partition, ...) must be rejected
 * with a useful message. Every CircuitVerifier message is pinned in
 * full, and an operator-new probe checks that a clean circuit is
 * verified without building any per-gate text.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <new>

#include "allocation_probe.hh"
#include "algos/algorithms.hh"
#include "ir/lower.hh"
#include "partition/scan_partitioner.hh"
#include "quest/pipeline.hh"
#include "synth/leap_synthesizer.hh"
#include "verify/verifier.hh"

namespace quest {
namespace {

/** A small well-formed native circuit to corrupt. */
Circuit
nativeFixture()
{
    Circuit c(3);
    c.append(Gate::u3(0, 0.1, 0.2, 0.3));
    c.append(Gate::cx(0, 1));
    c.append(Gate::u3(1, -0.4, 0.5, 0.0));
    c.append(Gate::cx(1, 2));
    return c;
}

/** True iff some issue message contains @p needle. */
bool
mentions(const VerifyReport &report, const std::string &needle)
{
    for (const VerifyIssue &issue : report.issues)
        if (issue.message.find(needle) != std::string::npos)
            return true;
    return false;
}

// ---- Positive coverage: every generator. ---------------------------

TEST(CircuitVerifier, AcceptsEveryGeneratorRawAndLowered)
{
    CircuitVerifier raw_verifier;
    CircuitVerifier native_verifier({.requireNative = true});
    for (const auto &spec : algos::standardSuite()) {
        Circuit c = spec.build();
        EXPECT_TRUE(raw_verifier.verify(c).ok())
            << spec.name << ":\n" << raw_verifier.verify(c).toString();
        Circuit lowered = lowerToNative(c);
        EXPECT_TRUE(native_verifier.verify(lowered).ok())
            << spec.name << " lowered:\n"
            << native_verifier.verify(lowered).toString();
    }
}

TEST(PartitionVerifier, AcceptsEveryGeneratorPartition)
{
    for (const auto &spec : algos::standardSuite()) {
        Circuit c = lowerToNative(spec.build()).withoutPseudoOps();
        for (int width : {3, 4}) {
            auto blocks = ScanPartitioner(width).partition(c);
            VerifyReport report =
                PartitionVerifier(width).verify(c, blocks);
            EXPECT_TRUE(report.ok())
                << spec.name << " width " << width << ":\n"
                << report.toString();
        }
    }
}

TEST(CircuitVerifier, AcceptsPseudoOpsInTheRightPlaces)
{
    Circuit c(2);
    c.append(Gate::h(0));
    c.append(Gate::barrier({0, 1}));
    c.append(Gate::cx(0, 1));
    c.append(Gate::measure(0));
    c.append(Gate::measure(1));
    EXPECT_TRUE(CircuitVerifier().verify(c).ok());
}

// ---- Positive coverage: synthesizer and pipeline outputs. ----------

TEST(CircuitVerifier, AcceptsEveryLeapCandidate)
{
    Circuit block = lowerToNative(algos::tfim(2, 1)).withoutPseudoOps();
    SynthConfig cfg;
    cfg.maxLayers = 4;
    cfg.inst.multistarts = 2;
    cfg.verifyCandidates = true;  // the synthesizer's own pass
    LeapSynthesizer synthesizer(cfg);
    SynthOutput out = synthesizer.synthesize(
        circuitUnitary(block), static_cast<int>(block.cnotCount()));

    ASSERT_FALSE(out.candidates.empty());
    CircuitVerifier verifier({.requireNative = true,
                              .allowPseudoOps = false});
    for (const SynthCandidate &c : out.candidates)
        EXPECT_TRUE(verifier.verify(c.circuit).ok())
            << verifier.verify(c.circuit).toString();
}

TEST(Pipeline, VerifiersAcceptEveryPipelineArtifact)
{
    QuestConfig cfg;
    cfg.verify = true;  // in-pipeline verification after every step
    cfg.synth.beamWidth = 1;
    cfg.synth.inst.multistarts = 2;
    cfg.synth.inst.lbfgs.maxIterations = 200;
    cfg.synth.maxLayers = 5;
    cfg.synth.stallLevels = 4;
    cfg.maxSamples = 3;
    QuestResult r = QuestPipeline(cfg).run(algos::tfim(4, 2));

    // The pipeline would have panicked on an internal failure; also
    // lint the outputs externally.
    CircuitVerifier verifier({.requireNative = true,
                              .allowPseudoOps = false});
    EXPECT_TRUE(verifier.verify(r.original).ok());
    EXPECT_TRUE(PartitionVerifier(cfg.maxBlockSize)
                    .verify(r.original, r.blocks)
                    .ok());
    for (const auto &approx_list : r.blockApprox)
        for (const BlockApprox &a : approx_list)
            EXPECT_TRUE(verifier.verify(a.circuit).ok());
    ASSERT_GE(r.samples.size(), 1u);
    for (const ApproxSample &s : r.samples)
        EXPECT_TRUE(verifier.verify(s.circuit).ok());
}

// ---- Negative coverage: malformed circuits. ------------------------

TEST(CircuitVerifier, RejectsOutOfRangeWire)
{
    Circuit c = nativeFixture();
    c[1].qubits[1] = 99;  // bypasses append()'s validation
    VerifyReport report = CircuitVerifier().verify(c);
    ASSERT_FALSE(report.ok());
    EXPECT_EQ(report.issues[0].gateIndex, 1u);
    EXPECT_TRUE(mentions(report, "outside circuit"));
}

TEST(CircuitVerifier, RejectsNegativeWire)
{
    Circuit c = nativeFixture();
    c[0].qubits[0] = -1;
    EXPECT_TRUE(mentions(CircuitVerifier().verify(c),
                         "outside circuit"));
}

TEST(CircuitVerifier, RejectsWrongArity)
{
    Circuit c = nativeFixture();
    c[1].qubits.pop_back();  // a one-wire CX
    VerifyReport report = CircuitVerifier().verify(c);
    ASSERT_FALSE(report.ok());
    EXPECT_TRUE(mentions(report, "arity"));
}

TEST(CircuitVerifier, RejectsCxSelfLoop)
{
    Circuit c = nativeFixture();
    c[1].qubits[1] = c[1].qubits[0];
    VerifyReport report = CircuitVerifier().verify(c);
    ASSERT_FALSE(report.ok());
    EXPECT_TRUE(mentions(report, "duplicate wire"));
}

TEST(CircuitVerifier, RejectsNonFiniteAngle)
{
    Circuit c = nativeFixture();
    c[0].params[2] = std::numeric_limits<double>::quiet_NaN();
    EXPECT_TRUE(mentions(CircuitVerifier().verify(c), "non-finite"));

    Circuit d = nativeFixture();
    d[2].params[0] = std::numeric_limits<double>::infinity();
    EXPECT_TRUE(mentions(CircuitVerifier().verify(d), "non-finite"));
}

TEST(CircuitVerifier, RejectsWrongParamCount)
{
    Circuit c = nativeFixture();
    c[0].params.pop_back();
    EXPECT_TRUE(mentions(CircuitVerifier().verify(c), "parameters"));
}

TEST(CircuitVerifier, RejectsNonNativeGateWhenRequired)
{
    Circuit c(2);
    c.append(Gate::h(0));
    CircuitVerifier strict({.requireNative = true});
    VerifyReport report = strict.verify(c);
    ASSERT_FALSE(report.ok());
    EXPECT_TRUE(mentions(report, "native"));
    EXPECT_TRUE(CircuitVerifier().verify(c).ok());
}

TEST(CircuitVerifier, RejectsPseudoOpsWhenForbidden)
{
    Circuit c(2);
    c.append(Gate::cx(0, 1));
    c.append(Gate::measure(0));
    CircuitVerifier strict({.allowPseudoOps = false});
    EXPECT_TRUE(mentions(strict.verify(c), "pseudo-op"));
}

TEST(CircuitVerifier, RejectsGateAfterMeasurement)
{
    Circuit c(2);
    c.append(Gate::measure(0));
    c.append(Gate::h(1));
    VerifyReport report = CircuitVerifier().verify(c);
    ASSERT_FALSE(report.ok());
    EXPECT_TRUE(mentions(report, "trailing suffix"));
}

TEST(CircuitVerifier, RejectsDoubleMeasurement)
{
    Circuit c(2);
    c.append(Gate::measure(0));
    c.append(Gate::measure(0));
    EXPECT_TRUE(mentions(CircuitVerifier().verify(c),
                         "measured twice"));
}

TEST(CircuitVerifier, RejectsZeroWireCircuit)
{
    Circuit c;  // default-constructed placeholder
    EXPECT_TRUE(mentions(CircuitVerifier().verify(c), "no wires"));
}

TEST(CircuitVerifier, RespectsIssueCap)
{
    Circuit c(2);
    for (int i = 0; i < 10; ++i)
        c.append(Gate::h(0));
    for (size_t i = 0; i < c.size(); ++i)
        c[i].qubits[0] = 42;
    CircuitVerifier capped({.maxIssues = 3});
    EXPECT_EQ(capped.verify(c).issues.size(), 3u);
}

// ---- Exact message text of every check. ----------------------------

/** The messages @p verifier records for @p c, in order. */
std::vector<std::string>
messages(const CircuitVerifier &verifier, const Circuit &c)
{
    std::vector<std::string> out;
    for (const VerifyIssue &issue : verifier.verify(c).issues)
        out.push_back(issue.message);
    return out;
}

using Messages = std::vector<std::string>;

TEST(CircuitVerifierMessages, NoWires)
{
    EXPECT_EQ(messages(CircuitVerifier(), Circuit()),
              Messages{"circuit has no wires (default-constructed?)"});
}

TEST(CircuitVerifierMessages, BarrierWithNoWires)
{
    Circuit c(2);
    c.append(Gate::barrier({0, 1}));
    c[0].qubits.clear();
    EXPECT_EQ(messages(CircuitVerifier(), c),
              Messages{"barrier with no wires"});
}

TEST(CircuitVerifierMessages, Arity)
{
    Circuit c = nativeFixture();
    c[1].qubits.pop_back();
    EXPECT_EQ(messages(CircuitVerifier(), c),
              Messages{"cx q[0]; — arity 1 does not match cx's arity "
                       "of 2"});
}

TEST(CircuitVerifierMessages, WireOutOfRange)
{
    Circuit c(2);
    c.append(Gate::cx(0, 1));
    c[0].qubits[1] = 99;
    EXPECT_EQ(messages(CircuitVerifier(), c),
              Messages{"cx q[0],q[99]; — wire 99 outside circuit of 2 "
                       "qubits"});
}

TEST(CircuitVerifierMessages, DuplicateWire)
{
    Circuit c = nativeFixture();
    c[3].qubits[0] = 2;
    EXPECT_EQ(messages(CircuitVerifier(), c),
              Messages{"cx q[2],q[2]; — duplicate wire 2"});
}

TEST(CircuitVerifierMessages, ParameterCount)
{
    Circuit c = nativeFixture();
    c[0].params.pop_back();
    EXPECT_EQ(messages(CircuitVerifier(), c),
              Messages{"u3(0.1,0.2) q[0]; — 2 parameters; u3 takes 3"});
}

TEST(CircuitVerifierMessages, NonFiniteParameter)
{
    Circuit c = nativeFixture();
    c[2].params[1] = std::numeric_limits<double>::infinity();
    c[2].params[2] = std::numeric_limits<double>::quiet_NaN();
    EXPECT_EQ(messages(CircuitVerifier(), c),
              Messages{"u3(-0.4,inf,nan) q[1]; — non-finite parameter"});
}

TEST(CircuitVerifierMessages, PseudoOpNotAllowed)
{
    Circuit c(2);
    c.append(Gate::cx(0, 1));
    c.append(Gate::barrier({0, 1}));
    EXPECT_EQ(messages(CircuitVerifier({.allowPseudoOps = false}), c),
              Messages{"barrier q[0],q[1]; — pseudo-op not allowed "
                       "here"});
}

TEST(CircuitVerifierMessages, NonNative)
{
    Circuit c(2);
    c.append(Gate::rzz(0, 1, 0.25));
    EXPECT_EQ(messages(CircuitVerifier({.requireNative = true}), c),
              Messages{"rzz(0.25) q[0],q[1]; — rzz outside the native "
                       "{u3, cx} set"});
}

TEST(CircuitVerifierMessages, MeasuredTwice)
{
    Circuit c(2);
    c.append(Gate::measure(1));
    c.append(Gate::measure(1));
    EXPECT_EQ(messages(CircuitVerifier(), c),
              Messages{"measure q[1]; — wire 1 measured twice"});
}

TEST(CircuitVerifierMessages, GateAfterMeasurement)
{
    Circuit c(2);
    c.append(Gate::measure(0));
    c.append(Gate::barrier({0, 1}));  // barriers may follow
    c.append(Gate::h(1));
    EXPECT_EQ(messages(CircuitVerifier(), c),
              Messages{"h q[1]; — gate after a measurement "
                       "(measurements must be a trailing suffix)"});
}

TEST(CircuitVerifierMessages, SeveralIssuesInOrderUpToTheCap)
{
    // One gate, three checks failing, in the order verify() runs
    // them; the cap keeps the first two.
    Circuit c(2);
    c.append(Gate::h(0));
    c[0].qubits = {7, 7};
    c[0].params = {std::numeric_limits<double>::quiet_NaN()};
    const Messages all = {
        "h(nan) q[7],q[7]; — arity 2 does not match h's arity of 1",
        "h(nan) q[7],q[7]; — wire 7 outside circuit of 2 qubits",
        "h(nan) q[7],q[7]; — wire 7 outside circuit of 2 qubits",
        "h(nan) q[7],q[7]; — duplicate wire 7",
        "h(nan) q[7],q[7]; — 1 parameters; h takes 0",
        "h(nan) q[7],q[7]; — non-finite parameter",
        "h(nan) q[7],q[7]; — h outside the native {u3, cx} set"};
    EXPECT_EQ(messages(CircuitVerifier({.requireNative = true}), c), all);
    EXPECT_EQ(messages(CircuitVerifier({.requireNative = true,
                                        .maxIssues = 2}),
                       c),
              Messages(all.begin(), all.begin() + 2));
}

TEST(VerifyReport, RendersIssueLines)
{
    Circuit c(2);
    c.append(Gate::cx(0, 1));
    c.append(Gate::h(1));
    c[0].qubits[1] = 99;
    EXPECT_EQ(CircuitVerifier({.requireNative = true}).verify(c).toString(),
              "gate 0: cx q[0],q[99]; — wire 99 outside circuit of 2 "
              "qubits\n"
              "gate 1: h q[1]; — h outside the native {u3, cx} set");
}

// ---- Cost: a clean circuit builds no text. -------------------------

/** A clean native circuit of @p gates gates on 4 wires. */
Circuit
cleanNative(size_t gates)
{
    Circuit c(4);
    for (size_t i = 0; i < gates; ++i) {
        const int q = static_cast<int>(i % 4);
        if (i % 3 == 2)
            c.append(Gate::cx(q, (q + 1) % 4));
        else
            c.append(Gate::u3(q, 0.1 * static_cast<double>(i), -0.7, 2.5));
    }
    return c;
}

/** Allocations made by one verify() of @p c. */
uint64_t
verifyAllocations(const CircuitVerifier &verifier, const Circuit &c)
{
    const uint64_t before =
        g_allocation_count.load(std::memory_order_relaxed);
    const VerifyReport report = verifier.verify(c);
    const uint64_t after =
        g_allocation_count.load(std::memory_order_relaxed);
    EXPECT_TRUE(report.ok()) << report.toString();
    return after - before;
}

TEST(CircuitVerifierCost, CleanCircuitAllocationsDoNotGrowWithGates)
{
    const Circuit small = cleanNative(10);
    const Circuit large = cleanNative(10000);
    for (const CircuitVerifier &verifier :
         {CircuitVerifier(),
          CircuitVerifier({.requireNative = true,
                           .allowPseudoOps = false,
                           .maxIssues = 1})}) {
        EXPECT_EQ(verifyAllocations(verifier, small),
                  verifyAllocations(verifier, large));
    }
}

TEST(VerifyReport, RendersGateIndexAndMessage)
{
    Circuit c = nativeFixture();
    c[1].qubits[1] = 99;
    std::string text = CircuitVerifier().verify(c).toString();
    EXPECT_NE(text.find("gate 1"), std::string::npos);
    EXPECT_NE(text.find("99"), std::string::npos);
}

TEST(VerifyOrPanic, PanicsWithContext)
{
    Circuit c = nativeFixture();
    c[1].qubits[1] = 99;
    EXPECT_DEATH(verifyOrPanic(c, {}, "unit test"), "unit test");
}

// ---- Negative coverage: broken partitions. -------------------------

class BrokenPartition : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        original = lowerToNative(algos::heisenberg(6, 1))
                       .withoutPseudoOps();
        blocks = ScanPartitioner(3).partition(original);
        ASSERT_GT(blocks.size(), 1u);
        ASSERT_TRUE(
            PartitionVerifier(3).verify(original, blocks).ok());
    }

    Circuit original;
    std::vector<Block> blocks;
};

TEST_F(BrokenPartition, RejectsMissingGate)
{
    blocks[0].circuit.erase(0);
    VerifyReport report = PartitionVerifier(3).verify(original, blocks);
    ASSERT_FALSE(report.ok());
}

TEST_F(BrokenPartition, RejectsDuplicatedGate)
{
    blocks[0].circuit.append(blocks[0].circuit[0]);
    EXPECT_FALSE(PartitionVerifier(3).verify(original, blocks).ok());
}

TEST_F(BrokenPartition, RejectsModifiedGate)
{
    // Find a parameterized gate and nudge an angle.
    for (size_t b = 0; b < blocks.size(); ++b) {
        for (size_t i = 0; i < blocks[b].circuit.size(); ++i) {
            if (!blocks[b].circuit[i].params.empty()) {
                blocks[b].circuit[i].params[0] += 0.25;
                VerifyReport report =
                    PartitionVerifier(3).verify(original, blocks);
                ASSERT_FALSE(report.ok());
                EXPECT_TRUE(mentions(report, "wire"));
                return;
            }
        }
    }
    FAIL() << "fixture has no parameterized gate";
}

TEST_F(BrokenPartition, RejectsReorderedGatesOnAWire)
{
    // Swap two distinct gates inside one block; some wire must see
    // a different sequence.
    for (size_t b = 0; b < blocks.size(); ++b) {
        Circuit &c = blocks[b].circuit;
        for (size_t i = 0; i + 1 < c.size(); ++i) {
            if (c[i].type != c[i + 1].type ||
                c[i].qubits != c[i + 1].qubits) {
                std::swap(c[i], c[i + 1]);
                // The swap may still be a legal commutation only if
                // the gates share no wire; pick overlapping gates.
                bool share = false;
                for (int q : c[i].qubits)
                    share |= c[i + 1].actsOn(q);
                if (!share) {
                    std::swap(c[i], c[i + 1]);  // undo; keep looking
                    continue;
                }
                EXPECT_FALSE(
                    PartitionVerifier(3).verify(original, blocks).ok());
                return;
            }
        }
    }
    FAIL() << "fixture has no overlapping adjacent gate pair";
}

TEST_F(BrokenPartition, RejectsUnsortedWireMapping)
{
    ASSERT_GE(blocks[0].qubits.size(), 2u);
    std::swap(blocks[0].qubits[0], blocks[0].qubits[1]);
    VerifyReport report = PartitionVerifier(3).verify(original, blocks);
    ASSERT_FALSE(report.ok());
    EXPECT_TRUE(mentions(report, "ascending"));
}

TEST_F(BrokenPartition, RejectsOutOfRangeMapping)
{
    blocks[0].qubits[0] = original.numQubits() + 5;
    EXPECT_FALSE(PartitionVerifier(3).verify(original, blocks).ok());
}

TEST_F(BrokenPartition, RejectsWidthMismatch)
{
    blocks[0].qubits.push_back(original.numQubits() - 1);
    VerifyReport report = PartitionVerifier(3).verify(original, blocks);
    ASSERT_FALSE(report.ok());
}

TEST_F(BrokenPartition, RejectsOverWideBlock)
{
    // The width-4 partition is fine per se but violates a width-3
    // contract.
    auto wide = ScanPartitioner(4).partition(original);
    bool has_wide = false;
    for (const Block &b : wide)
        has_wide |= b.width() > 3;
    ASSERT_TRUE(has_wide);
    VerifyReport report = PartitionVerifier(3).verify(original, wide);
    ASSERT_FALSE(report.ok());
    EXPECT_TRUE(mentions(report, "exceeds"));
}

TEST_F(BrokenPartition, RejectsMeasuredInput)
{
    Circuit measured = original;
    measured.append(Gate::measure(0));
    EXPECT_TRUE(mentions(
        PartitionVerifier(3).verify(measured, blocks),
        "measurements"));
}

TEST_F(BrokenPartition, RejectsCorruptBlockCircuit)
{
    blocks[0].circuit[0].qubits[0] = 77;
    VerifyReport report = PartitionVerifier(3).verify(original, blocks);
    ASSERT_FALSE(report.ok());
    EXPECT_TRUE(mentions(report, "block 0"));
}

TEST(PartitionVerifierDeath, PanicsWithContext)
{
    Circuit c(2);
    c.append(Gate::cx(0, 1));
    std::vector<Block> blocks;  // empty: nothing covers the CX
    EXPECT_DEATH(verifyOrPanic(c, blocks, 2, "partition unit test"),
                 "partition unit test");
}

} // namespace
} // namespace quest
