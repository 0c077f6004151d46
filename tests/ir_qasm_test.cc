/**
 * @file
 * OpenQASM 2.0 writer/parser tests: round trips, expressions, errors,
 * the "%.17g" angle text and bit-exact angle round trips.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cfloat>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <numbers>
#include <random>
#include <vector>

#include "algos/algorithms.hh"
#include "ir/lower.hh"
#include "ir/qasm.hh"
#include "linalg/distance.hh"
#include "sim/unitary_builder.hh"

namespace quest {
namespace {

constexpr double pi = std::numbers::pi;

TEST(QasmWriter, HeaderAndRegisters)
{
    Circuit c(3);
    c.append(Gate::h(0));
    std::string q = toQasm(c);
    EXPECT_NE(q.find("OPENQASM 2.0;"), std::string::npos);
    EXPECT_NE(q.find("qreg q[3];"), std::string::npos);
    EXPECT_EQ(q.find("creg"), std::string::npos);
}

TEST(QasmWriter, CregOnlyWithMeasure)
{
    Circuit c(2);
    c.append(Gate::measure(0));
    std::string q = toQasm(c);
    EXPECT_NE(q.find("creg c[2];"), std::string::npos);
    EXPECT_NE(q.find("measure q[0] -> c[0];"), std::string::npos);
}

TEST(QasmParser, MinimalProgram)
{
    Circuit c = parseQasm("OPENQASM 2.0;\n"
                          "include \"qelib1.inc\";\n"
                          "qreg q[2];\n"
                          "h q[0];\n"
                          "cx q[0],q[1];\n");
    EXPECT_EQ(c.numQubits(), 2);
    ASSERT_EQ(c.size(), 2u);
    EXPECT_EQ(c[0].type, GateType::H);
    EXPECT_EQ(c[1].type, GateType::CX);
}

TEST(QasmParser, ParameterExpressions)
{
    Circuit c = parseQasm("qreg q[1];\n"
                          "rz(pi/2) q[0];\n"
                          "rx(-pi/4) q[0];\n"
                          "ry(2*pi/3) q[0];\n"
                          "u3(0.5, 1e-3, -(pi - 1)) q[0];\n");
    EXPECT_NEAR(c[0].params[0], pi / 2, 1e-12);
    EXPECT_NEAR(c[1].params[0], -pi / 4, 1e-12);
    EXPECT_NEAR(c[2].params[0], 2 * pi / 3, 1e-12);
    EXPECT_NEAR(c[3].params[0], 0.5, 1e-12);
    EXPECT_NEAR(c[3].params[1], 1e-3, 1e-15);
    EXPECT_NEAR(c[3].params[2], -(pi - 1), 1e-12);
}

TEST(QasmParser, CommentsIgnored)
{
    Circuit c = parseQasm("// leading comment\n"
                          "qreg q[1]; // inline comment\n"
                          "x q[0];\n");
    EXPECT_EQ(c.size(), 1u);
}

TEST(QasmParser, MeasureAndBarrier)
{
    Circuit c = parseQasm("qreg q[2];\ncreg c[2];\n"
                          "barrier q[0],q[1];\n"
                          "measure q[1] -> c[1];\n");
    EXPECT_EQ(c[0].type, GateType::Barrier);
    EXPECT_EQ(c[1].type, GateType::Measure);
    EXPECT_EQ(c[1].qubits[0], 1);
}

TEST(QasmParser, UAliasForU3)
{
    Circuit c = parseQasm("qreg q[1];\nu(0.1,0.2,0.3) q[0];\n");
    EXPECT_EQ(c[0].type, GateType::U3);
}

TEST(QasmParser, Cu1AliasForCp)
{
    Circuit c = parseQasm("qreg q[2];\ncu1(0.5) q[0],q[1];\n");
    EXPECT_EQ(c[0].type, GateType::CP);
}

TEST(QasmParser, MalformedNumbersThrowTyped)
{
    // A malformed or out-of-range literal or index is a QasmError,
    // never a std:: exception, and a literal must parse whole: no
    // "1.5.5" read as 1.5 or "q[1x]" as q[1].
    for (const char *stmt :
         {"rz(.) q[0];", "rz(e5) q[0];", "rz(1e999) q[0];",
          "rz(1e-400) q[0];", "rz(1.5.5) q[0];", "rz(1e) q[0];",
          "h q[];", "h q[99999999999];", "h q[1x];", "h q[+1];"}) {
        EXPECT_THROW(parseQasm(std::string("qreg q[2];\n") + stmt),
                     QasmError)
            << stmt;
    }
    EXPECT_THROW(parseQasm("qreg q[];"), QasmError);
    EXPECT_THROW(parseQasm("qreg q[99999999999];"), QasmError);
    try {
        parseQasm("qreg q[2];\nrz(1.5.5) q[0];");
        FAIL() << "no QasmError";
    } catch (const QasmError &e) {
        EXPECT_NE(std::string(e.what()).find("'1.5.5'"),
                  std::string::npos)
            << e.what();
    }
}

TEST(QasmParser, AcceptsSubnormalsAndBracketWhitespace)
{
    Circuit c = parseQasm("qreg q[ 2 ];\n"
                          "rz(4.9e-324) q[ 1 ];\n"
                          "rz(2.2250738585072009e-308) q[0];\n");
    EXPECT_EQ(c.numQubits(), 2);
    EXPECT_EQ(c[0].qubits[0], 1);
    EXPECT_EQ(c[0].params[0], std::numeric_limits<double>::denorm_min());
    EXPECT_EQ(c[1].params[0], 2.2250738585072009e-308);
}

TEST(QasmParser, Errors)
{
    EXPECT_THROW(parseQasm("x q[0];"), QasmError);           // no qreg
    EXPECT_THROW(parseQasm("qreg q[2];\nfoo q[0];"), QasmError);
    EXPECT_THROW(parseQasm("qreg q[2];\nx q[5];"), QasmError);
    EXPECT_THROW(parseQasm("qreg q[2];\ncx q[0];"), QasmError);
    EXPECT_THROW(parseQasm("qreg q[2];\nrz q[0];"), QasmError);
    EXPECT_THROW(parseQasm("qreg q[2];\nrz(1/0) q[0];"), QasmError);
    EXPECT_THROW(parseQasm("qreg q[2];\nx q[0]"), QasmError);  // no ';'
    EXPECT_THROW(parseQasm("qreg q[2];\nqreg r[2];"), QasmError);
    EXPECT_THROW(parseQasm("qreg q[0];"), QasmError);
    // Duplicate wires must throw, not trip Gate's internal assert.
    EXPECT_THROW(parseQasm("qreg q[2];\ncx q[0],q[0];"), QasmError);
    EXPECT_THROW(parseQasm("qreg q[3];\nccx q[0],q[1],q[1];"),
                 QasmError);
    // Barrier and measure wires too: out of range or repeated, they
    // are malformed input, not a Circuit or Gate assertion.
    EXPECT_THROW(parseQasm("qreg q[2];\nbarrier q[0],q[2];"), QasmError);
    EXPECT_THROW(parseQasm("qreg q[2];\nbarrier q[1],q[1];"), QasmError);
    EXPECT_THROW(parseQasm("qreg q[2];\nmeasure q[2] -> c[2];"),
                 QasmError);
}

class QasmRoundTrip : public ::testing::TestWithParam<std::string>
{
};

TEST_P(QasmRoundTrip, PreservesUnitary)
{
    // Generate, serialize, reparse, compare unitaries.
    Circuit original = [&]() {
        const std::string &name = GetParam();
        if (name == "adder")
            return algos::adder(4);
        if (name == "qft")
            return algos::qft(4);
        if (name == "tfim")
            return algos::tfim(4, 2);
        if (name == "heisenberg")
            return algos::heisenberg(3, 2);
        if (name == "qaoa")
            return algos::qaoa(4);
        if (name == "hlf")
            return algos::hlf(4);
        return algos::vqe(4);
    }();

    std::string text = toQasm(original);
    Circuit parsed = parseQasm(text);
    EXPECT_EQ(parsed.numQubits(), original.numQubits());
    EXPECT_EQ(parsed.size(), original.size());
    EXPECT_NEAR(hsDistance(buildUnitary(original), buildUnitary(parsed)),
                0.0, 1e-7);
}

INSTANTIATE_TEST_SUITE_P(Suite, QasmRoundTrip,
                         ::testing::Values("adder", "qft", "tfim",
                                           "heisenberg", "qaoa", "hlf",
                                           "vqe"));

TEST(QasmRoundTripNative, LoweredCircuit)
{
    Circuit c = lowerToNative(algos::heisenberg(3, 1));
    Circuit parsed = parseQasm(toQasm(c));
    EXPECT_NEAR(hsDistance(buildUnitary(c), buildUnitary(parsed)), 0.0,
                1e-7);
}

/** Parameters equal bit for bit (so -0 differs from +0). */
void
expectSameBits(const Circuit &expected, const Circuit &actual,
               const std::string &label)
{
    ASSERT_EQ(expected.size(), actual.size()) << label;
    for (size_t i = 0; i < expected.size(); ++i) {
        ASSERT_EQ(expected[i].type, actual[i].type) << label << " gate " << i;
        ASSERT_EQ(expected[i].qubits, actual[i].qubits)
            << label << " gate " << i;
        ASSERT_EQ(expected[i].params.size(), actual[i].params.size())
            << label << " gate " << i;
        for (size_t k = 0; k < expected[i].params.size(); ++k) {
            EXPECT_EQ(std::bit_cast<uint64_t>(expected[i].params[k]),
                      std::bit_cast<uint64_t>(actual[i].params[k]))
                << label << " gate " << i << " param " << k << ": "
                << expected[i].params[k] << " vs "
                << actual[i].params[k];
        }
    }
}

TEST(QasmAngles, SuiteRoundTripsBitForBit)
{
    for (const auto &suite : {algos::standardSuite(), algos::largeSuite()}) {
        for (const auto &spec : suite) {
            Circuit c = lowerToNative(spec.build());
            expectSameBits(c, parseQasm(toQasm(c)), spec.name);
        }
    }
    // One more input: a barrier across five wires, more than a Gate
    // holds inline.
    Circuit wide(5);
    wide.append(Gate::u3(0, 0.1, -0.2, 0.3));
    wide.append(Gate::barrier({4, 0, 3, 1, 2}));
    wide.append(Gate::cx(2, 4));
    expectSameBits(wide, parseQasm(toQasm(wide)), "5-wire barrier");
}

/** Angles at the edges of what "%.17g" and the parser must carry. */
std::vector<double>
edgeAngles()
{
    std::vector<double> v = {0.0,
                             -0.0,
                             std::numeric_limits<double>::denorm_min(),
                             -std::numeric_limits<double>::denorm_min(),
                             DBL_MIN,
                             1e16,
                             1e17,
                             -1e17,
                             DBL_MAX,
                             -DBL_MAX,
                             0.1,
                             1.0 / 3.0};
    for (int k = -8; k <= 8; ++k)
        v.push_back(k * pi / 4);
    return v;
}

/** One rz per angle on wire 0. */
Circuit
rzCircuit(const std::vector<double> &angles)
{
    Circuit c(1);
    for (double a : angles)
        c.append(Gate::rz(0, a));
    return c;
}

/** What toQasm must write for rzCircuit(@p angles). */
std::string
printfText(const std::vector<double> &angles)
{
    std::string text = "OPENQASM 2.0;\ninclude \"qelib1.inc\";\n"
                       "qreg q[1];\n";
    char buf[64];
    for (double a : angles) {
        std::snprintf(buf, sizeof buf, "rz(%.17g) q[0];\n", a);
        text += buf;
    }
    return text;
}

TEST(QasmAngles, EdgeAnglesRoundTripBitForBit)
{
    const Circuit c = rzCircuit(edgeAngles());
    expectSameBits(c, parseQasm(toQasm(c)), "edge angles");
}

TEST(QasmAngles, WriterMatchesPrintfOnEdgeAngles)
{
    EXPECT_EQ(toQasm(rzCircuit(edgeAngles())), printfText(edgeAngles()));
}

TEST(QasmAngles, WriterMatchesPrintfOnRandomBitPatterns)
{
    // Seeded, so a failure reproduces; finite values only (the
    // parser reads no "nan" or "inf").
    std::mt19937_64 gen(20261017);
    std::vector<double> angles;
    angles.reserve(100000);
    while (angles.size() < 100000) {
        const double v = std::bit_cast<double>(gen());
        if (std::isfinite(v))
            angles.push_back(v);
    }
    const Circuit c = rzCircuit(angles);
    const std::string text = toQasm(c);
    const std::string expected = printfText(angles);
    if (text != expected) {
        size_t at = 0;
        while (at < text.size() && at < expected.size() &&
               text[at] == expected[at])
            ++at;
        FAIL() << "first difference at byte " << at << ": '"
               << text.substr(at > 40 ? at - 40 : 0, 80) << "' vs '"
               << expected.substr(at > 40 ? at - 40 : 0, 80) << "'";
    }
    expectSameBits(c, parseQasm(text), "random bit patterns");
}

TEST(QasmWriter, GoldenTextWithAwkwardAngles)
{
    Circuit c(3);
    c.append(Gate::u3(0, pi, -0.0, 0.1));
    c.append(Gate::rz(1, 1e16));
    c.append(Gate::rx(2, 1e17));
    c.append(Gate::ry(0, std::numeric_limits<double>::denorm_min()));
    c.append(Gate::barrier({0, 2}));
    c.append(Gate::cx(2, 0));
    c.append(Gate::cp(1, 2, -DBL_MAX));
    c.append(Gate::u2(1, 2.0 / 3.0, -7 * pi / 4));
    c.append(Gate::rzz(0, 1, 1e-5));
    c.append(Gate::measure(2));
    EXPECT_EQ(toQasm(c),
              "OPENQASM 2.0;\n"
              "include \"qelib1.inc\";\n"
              "qreg q[3];\n"
              "creg c[3];\n"
              "u3(3.1415926535897931,-0,0.10000000000000001) q[0];\n"
              "rz(10000000000000000) q[1];\n"
              "rx(1e+17) q[2];\n"
              "ry(4.9406564584124654e-324) q[0];\n"
              "barrier q[0],q[2];\n"
              "cx q[2],q[0];\n"
              "cp(-1.7976931348623157e+308) q[1],q[2];\n"
              "u2(0.66666666666666663,-5.497787143782138) q[1];\n"
              "rzz(1.0000000000000001e-05) q[0],q[1];\n"
              "measure q[2] -> c[2];\n");
    expectSameBits(c, parseQasm(toQasm(c)), "golden");
}

} // namespace
} // namespace quest
