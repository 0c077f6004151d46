/**
 * @file
 * Unit and property tests for the linalg module.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <numbers>
#include <span>
#include <vector>

#include "embed_reference.hh"
#include "linalg/decompose.hh"
#include "linalg/distance.hh"
#include "linalg/matrix.hh"
#include "util/rng.hh"

namespace quest {
namespace {

constexpr double pi = std::numbers::pi;

/** A random unitary built from random U3s and CX-like mixing. */
Matrix
randomUnitary(int n, Rng &rng)
{
    size_t dim = size_t{1} << n;
    // Gram-Schmidt on a random complex matrix.
    Matrix m(dim, dim);
    for (size_t r = 0; r < dim; ++r)
        for (size_t c = 0; c < dim; ++c)
            m(r, c) = Complex(rng.normal(), rng.normal());
    // Orthonormalize columns.
    for (size_t c = 0; c < dim; ++c) {
        for (size_t prev = 0; prev < c; ++prev) {
            Complex dot(0.0, 0.0);
            for (size_t r = 0; r < dim; ++r)
                dot += std::conj(m(r, prev)) * m(r, c);
            for (size_t r = 0; r < dim; ++r)
                m(r, c) -= dot * m(r, prev);
        }
        double norm = 0.0;
        for (size_t r = 0; r < dim; ++r)
            norm += std::norm(m(r, c));
        norm = std::sqrt(norm);
        for (size_t r = 0; r < dim; ++r)
            m(r, c) /= norm;
    }
    return m;
}

TEST(Matrix, IdentityProperties)
{
    Matrix i = Matrix::identity(4);
    EXPECT_EQ(i.rows(), 4u);
    EXPECT_TRUE(i.isUnitary());
    EXPECT_EQ(i.trace(), Complex(4.0, 0.0));
}

TEST(Matrix, InitializerList)
{
    Matrix m = {{1.0, 2.0}, {3.0, 4.0}};
    EXPECT_EQ(m(0, 1), Complex(2.0, 0.0));
    EXPECT_EQ(m(1, 0), Complex(3.0, 0.0));
}

TEST(Matrix, AdditionSubtraction)
{
    Matrix a = {{1.0, 0.0}, {0.0, 1.0}};
    Matrix b = {{0.0, 2.0}, {2.0, 0.0}};
    Matrix sum = a + b;
    EXPECT_EQ(sum(0, 1), Complex(2.0, 0.0));
    Matrix diff = sum - b;
    EXPECT_TRUE(diff.approxEqual(a));
}

TEST(Matrix, ScalarMultiply)
{
    Matrix a = Matrix::identity(2);
    Matrix b = a * Complex(0.0, 2.0);
    EXPECT_EQ(b(0, 0), Complex(0.0, 2.0));
    Matrix c = Complex(2.0, 0.0) * a;
    EXPECT_EQ(c(1, 1), Complex(2.0, 0.0));
}

TEST(Matrix, MultiplicationAgainstKnown)
{
    Matrix x = {{0.0, 1.0}, {1.0, 0.0}};
    Matrix z = {{1.0, 0.0}, {0.0, -1.0}};
    Matrix xz = x * z;
    // X * Z = [[0, -1], [1, 0]]
    EXPECT_EQ(xz(0, 1), Complex(-1.0, 0.0));
    EXPECT_EQ(xz(1, 0), Complex(1.0, 0.0));
}

TEST(Matrix, MultiplicationAssociative)
{
    Rng rng(3);
    Matrix a = randomUnitary(2, rng);
    Matrix b = randomUnitary(2, rng);
    Matrix c = randomUnitary(2, rng);
    EXPECT_TRUE(((a * b) * c).approxEqual(a * (b * c), 1e-10));
}

TEST(Matrix, AdjointOfProduct)
{
    Rng rng(5);
    Matrix a = randomUnitary(2, rng);
    Matrix b = randomUnitary(2, rng);
    EXPECT_TRUE((a * b).adjoint().approxEqual(b.adjoint() * a.adjoint(),
                                              1e-10));
}

TEST(Matrix, UnitaryTimesAdjointIsIdentity)
{
    Rng rng(7);
    for (int n = 1; n <= 3; ++n) {
        Matrix u = randomUnitary(n, rng);
        EXPECT_TRUE(u.isUnitary(1e-9)) << "n=" << n;
        Matrix p = u * u.adjoint();
        EXPECT_TRUE(p.approxEqual(Matrix::identity(u.rows()), 1e-9));
    }
}

TEST(Matrix, TransposeConjugateCompose)
{
    Matrix m = {{Complex(1, 2), Complex(3, 4)},
                {Complex(5, 6), Complex(7, 8)}};
    EXPECT_TRUE(m.transpose().conjugate().approxEqual(m.adjoint()));
}

TEST(Matrix, FrobeniusNormOfIdentity)
{
    EXPECT_NEAR(Matrix::identity(4).frobeniusNorm(), 2.0, 1e-12);
}

TEST(Matrix, EqualUpToPhase)
{
    Rng rng(9);
    Matrix u = randomUnitary(2, rng);
    Matrix v = u * std::polar(1.0, 1.234);
    EXPECT_TRUE(v.equalUpToPhase(u, 1e-9));
    EXPECT_FALSE((v * Complex(2.0, 0.0)).equalUpToPhase(u, 1e-9));
}

TEST(Matrix, EqualUpToPhaseRejectsDifferent)
{
    Rng rng(11);
    Matrix u = randomUnitary(2, rng);
    Matrix v = randomUnitary(2, rng);
    EXPECT_FALSE(u.equalUpToPhase(v, 1e-6));
}

TEST(Matrix, ShapeMismatchPanics)
{
    Matrix a(2, 2), b(3, 3);
    EXPECT_DEATH(a + b, "mismatch");
    EXPECT_DEATH(a * b, "mismatch");
}

TEST(Kron, DimensionsMultiply)
{
    Matrix a(2, 2), b(4, 4);
    Matrix k = kron(a, b);
    EXPECT_EQ(k.rows(), 8u);
    EXPECT_EQ(k.cols(), 8u);
}

TEST(Kron, AgainstKnownValues)
{
    Matrix x = {{0.0, 1.0}, {1.0, 0.0}};
    Matrix i = Matrix::identity(2);
    Matrix k = kron(x, i);
    // X (x) I swaps the upper and lower halves.
    EXPECT_EQ(k(0, 2), Complex(1.0, 0.0));
    EXPECT_EQ(k(1, 3), Complex(1.0, 0.0));
    EXPECT_EQ(k(2, 0), Complex(1.0, 0.0));
    EXPECT_EQ(k(0, 0), Complex(0.0, 0.0));
}

TEST(Kron, PreservesUnitarity)
{
    Rng rng(13);
    Matrix u = randomUnitary(1, rng);
    Matrix v = randomUnitary(2, rng);
    EXPECT_TRUE(kron(u, v).isUnitary(1e-9));
}

TEST(Kron, MixedProductProperty)
{
    Rng rng(15);
    Matrix a = randomUnitary(1, rng), b = randomUnitary(1, rng);
    Matrix c = randomUnitary(1, rng), d = randomUnitary(1, rng);
    // (A (x) B)(C (x) D) = AC (x) BD
    EXPECT_TRUE((kron(a, b) * kron(c, d))
                    .approxEqual(kron(a * c, b * d), 1e-10));
}

TEST(MatVec, AgainstKnown)
{
    Matrix x = {{0.0, 1.0}, {1.0, 0.0}};
    std::vector<Complex> v = {Complex(1.0, 0.0), Complex(0.0, 0.0)};
    auto r = matVec(x, v);
    EXPECT_EQ(r[0], Complex(0.0, 0.0));
    EXPECT_EQ(r[1], Complex(1.0, 0.0));
}

TEST(HsDistance, ZeroForIdentical)
{
    Rng rng(17);
    Matrix u = randomUnitary(2, rng);
    EXPECT_NEAR(hsDistance(u, u), 0.0, 1e-7);
}

TEST(HsDistance, GlobalPhaseInvariant)
{
    Rng rng(19);
    Matrix u = randomUnitary(2, rng);
    Matrix v = u * std::polar(1.0, 0.77);
    EXPECT_NEAR(hsDistance(u, v), 0.0, 1e-7);
}

TEST(HsDistance, SymmetricAndBounded)
{
    Rng rng(21);
    for (int trial = 0; trial < 10; ++trial) {
        Matrix u = randomUnitary(2, rng);
        Matrix v = randomUnitary(2, rng);
        double duv = hsDistance(u, v);
        double dvu = hsDistance(v, u);
        EXPECT_NEAR(duv, dvu, 1e-12);
        EXPECT_GE(duv, 0.0);
        EXPECT_LE(duv, 1.0);
    }
}

TEST(HsDistance, MaximalForOrthogonalUnitaries)
{
    // Tr(Z^dagger X) = 0 -> distance 1.
    Matrix x = {{0.0, 1.0}, {1.0, 0.0}};
    Matrix z = {{1.0, 0.0}, {0.0, -1.0}};
    EXPECT_NEAR(hsDistance(x, z), 1.0, 1e-12);
}

TEST(HsDistance, FromTraceMatches)
{
    Rng rng(23);
    Matrix u = randomUnitary(2, rng);
    Matrix v = randomUnitary(2, rng);
    Complex tr = hsInnerProduct(u, v);
    EXPECT_NEAR(hsDistanceFromTrace(tr, u.rows()), hsDistance(u, v),
                1e-12);
}

TEST(HsDistances, RowMatchesHsDistanceBitForBit)
{
    // Rows of 0 to 10 matrices cover every split into passes of four,
    // two and one pairs; the last matrix is the first up to a phase,
    // so a distance that rounds to zero is among them.
    Rng rng(27);
    for (int n = 1; n <= 4; ++n) {
        std::vector<Matrix> mats;
        for (int k = 0; k < 10; ++k)
            mats.push_back(randomUnitary(n, rng));
        mats.push_back(mats[0] * std::polar(1.0, 0.3));
        for (size_t len = 0; len < mats.size(); ++len) {
            const std::span<const Matrix> row(mats.begin() + 1,
                                              mats.begin() + 1 + len);
            std::vector<double> got(len);
            hsDistances(mats[0], row, got);
            for (size_t k = 0; k < len; ++k)
                EXPECT_EQ(std::bit_cast<uint64_t>(got[k]),
                          std::bit_cast<uint64_t>(
                              hsDistance(mats[0], row[k])))
                    << "dim " << (1 << n) << ", pair " << k << " of "
                    << len;
        }
    }
}

TEST(HsInnerProduct, MatchesExplicitTrace)
{
    Rng rng(25);
    Matrix u = randomUnitary(2, rng);
    Matrix v = randomUnitary(2, rng);
    Complex direct = (u.adjoint() * v).trace();
    Complex fast = hsInnerProduct(u, v);
    EXPECT_NEAR(std::abs(direct - fast), 0.0, 1e-10);
}

TEST(Embed, IdentityOnAllWires)
{
    Matrix i2 = Matrix::identity(2);
    Matrix e = embedUnitary(i2, {1}, 3);
    EXPECT_TRUE(e.approxEqual(Matrix::identity(8)));
}

TEST(Embed, SingleQubitAgainstKron)
{
    Rng rng(27);
    Matrix u = randomUnitary(1, rng);
    Matrix i2 = Matrix::identity(2);
    // Wire 0 is the most significant qubit: U (x) I (x) I.
    EXPECT_TRUE(embedUnitary(u, {0}, 3)
                    .approxEqual(kron(u, Matrix::identity(4)), 1e-12));
    // Wire 2 is least significant: I (x) I (x) U.
    EXPECT_TRUE(embedUnitary(u, {2}, 3)
                    .approxEqual(kron(Matrix::identity(4), u), 1e-12));
    // Wire 1 in a 3-qubit space: I (x) U (x) I.
    EXPECT_TRUE(embedUnitary(u, {1}, 3)
                    .approxEqual(kron(kron(i2, u), i2), 1e-12));
}

TEST(Embed, TwoQubitAdjacentAgainstKron)
{
    Rng rng(29);
    Matrix u = randomUnitary(2, rng);
    EXPECT_TRUE(embedUnitary(u, {0, 1}, 3)
                    .approxEqual(kron(u, Matrix::identity(2)), 1e-12));
    EXPECT_TRUE(embedUnitary(u, {1, 2}, 3)
                    .approxEqual(kron(Matrix::identity(2), u), 1e-12));
}

TEST(Embed, PreservesUnitarity)
{
    Rng rng(31);
    Matrix u = randomUnitary(2, rng);
    EXPECT_TRUE(embedUnitary(u, {0, 2}, 4).isUnitary(1e-9));
    EXPECT_TRUE(embedUnitary(u, {3, 1}, 4).isUnitary(1e-9));
}

TEST(Embed, WireOrderMatters)
{
    Rng rng(33);
    Matrix u = randomUnitary(2, rng);
    Matrix a = embedUnitary(u, {0, 1}, 2);
    Matrix b = embedUnitary(u, {1, 0}, 2);
    // Swapping the wire list conjugates by SWAP; generally different.
    EXPECT_FALSE(a.approxEqual(b, 1e-6));
}

TEST(Embed, CompositionCommutesOnDisjointWires)
{
    Rng rng(35);
    Matrix u = randomUnitary(1, rng);
    Matrix v = randomUnitary(1, rng);
    Matrix uv = embedUnitary(u, {0}, 2) * embedUnitary(v, {1}, 2);
    Matrix vu = embedUnitary(v, {1}, 2) * embedUnitary(u, {0}, 2);
    EXPECT_TRUE(uv.approxEqual(vu, 1e-12));
    EXPECT_TRUE(uv.approxEqual(kron(u, v), 1e-12));
}

TEST(Zyz, RoundTripsRandomUnitaries)
{
    Rng rng(37);
    for (int trial = 0; trial < 50; ++trial) {
        Matrix u = randomUnitary(1, rng);
        ZyzAngles a = zyzDecompose(u);
        Matrix back = makeU3(a.theta, a.phi, a.lambda) *
                      std::polar(1.0, a.phase);
        EXPECT_TRUE(back.approxEqual(u, 1e-9)) << "trial " << trial;
    }
}

TEST(Zyz, HandlesDiagonal)
{
    Matrix z = {{1.0, 0.0}, {0.0, -1.0}};
    ZyzAngles a = zyzDecompose(z);
    Matrix back = makeU3(a.theta, a.phi, a.lambda) *
                  std::polar(1.0, a.phase);
    EXPECT_TRUE(back.approxEqual(z, 1e-10));
}

TEST(Zyz, HandlesAntiDiagonal)
{
    Matrix x = {{0.0, 1.0}, {1.0, 0.0}};
    ZyzAngles a = zyzDecompose(x);
    Matrix back = makeU3(a.theta, a.phi, a.lambda) *
                  std::polar(1.0, a.phase);
    EXPECT_TRUE(back.approxEqual(x, 1e-10));
}

TEST(Zyz, U3MatrixMatchesDefinition)
{
    Matrix m = makeU3(pi / 2, 0.0, pi);
    // This is the Hadamard.
    double s = 1.0 / std::sqrt(2.0);
    EXPECT_NEAR(std::abs(m(0, 0) - Complex(s, 0)), 0.0, 1e-12);
    EXPECT_NEAR(std::abs(m(0, 1) - Complex(s, 0)), 0.0, 1e-12);
    EXPECT_NEAR(std::abs(m(1, 0) - Complex(s, 0)), 0.0, 1e-12);
    EXPECT_NEAR(std::abs(m(1, 1) - Complex(-s, 0)), 0.0, 1e-12);
}

/** Property sweep: ZYZ round trip over a parameter grid. */
class ZyzGrid : public ::testing::TestWithParam<std::tuple<double, double>>
{
};

TEST_P(ZyzGrid, RoundTrip)
{
    auto [theta, phi] = GetParam();
    Matrix u = makeU3(theta, phi, 0.3 * theta - phi);
    ZyzAngles a = zyzDecompose(u);
    Matrix back = makeU3(a.theta, a.phi, a.lambda) *
                  std::polar(1.0, a.phase);
    EXPECT_TRUE(back.approxEqual(u, 1e-9));
}

INSTANTIATE_TEST_SUITE_P(
    Angles, ZyzGrid,
    ::testing::Combine(::testing::Values(0.0, 0.3, pi / 2, pi - 1e-3, pi),
                       ::testing::Values(-pi, -1.0, 0.0, 0.5, pi)));

} // namespace
} // namespace quest
