/**
 * @file
 * Property tests for the instantiation hot path. The portable
 * one-lane kernel table (the QUEST_SIMD=scalar dispatch) is checked
 * against dense embedUnitary products and dense traces across all
 * supported dimensions and wires, and the fused U3+derivative
 * evaluation against the reference factories; the HsCost gradient
 * against finite differences and the dense reference of
 * ansatz_gradient_reference.hh. Every compiled-in ISA's table, and
 * HsCost on it, is pinned bit-exact to the portable table. A global
 * operator-new probe asserts the zero-allocation contract of
 * evaluate() after warm-up.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <numbers>
#include <string>
#include <vector>

#include "allocation_probe.hh"
#include "ansatz_gradient_reference.hh"
#include "embed_reference.hh"
#include "ir/circuit.hh"
#include "linalg/decompose.hh"
#include "linalg/matrix.hh"
#include "synth/ansatz.hh"
#include "synth/hs_cost.hh"
#include "synth/lane/lane_kernels.hh"
#include "u3_reference.hh"
#include "util/rng.hh"

namespace quest {
namespace {

constexpr double pi = std::numbers::pi;

using kern::lane::OneLaneKernelSet;

Matrix
randomMatrix(size_t dim, Rng &rng)
{
    // Deliberately non-unitary entries: the kernels must be exact
    // linear-algebra primitives, not just unitary-preserving maps.
    Matrix m(dim, dim);
    for (Complex &v : m.data())
        v = Complex(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0));
    return m;
}

Matrix
cxMatrix()
{
    // Control = most significant qubit, matching embedUnitary's
    // qubit-list convention.
    return Matrix{{1, 0, 0, 0}, {0, 1, 0, 0}, {0, 0, 0, 1}, {0, 0, 1, 0}};
}

/** A few entangling layers on top of the initial U3 layer. */
Ansatz
testAnsatz(int n)
{
    Ansatz a = Ansatz::initialLayer(n);
    for (int q = 0; q + 1 < n; ++q)
        a.addLayer(q, q + 1);
    if (n >= 2)
        a.addLayer(n - 1, 0);
    return a;
}

/** The ansatz unitary at random angles: an HsCost target. */
Matrix
randomTarget(const Ansatz &a, Rng &rng)
{
    std::vector<double> truth(a.paramCount());
    for (double &v : truth)
        v = rng.uniform(-pi, pi);
    return circuitUnitary(a.instantiate(truth));
}

/** The portable one-lane table: the bit reference of every ISA's. */
const OneLaneKernelSet &
portable(size_t dim)
{
    return *kern::lane::oneLaneKernelsForIsa(util::SimdIsa::Scalar, dim);
}

/** The ISAs whose tables exist on this build+host. */
std::vector<util::SimdIsa>
availableIsas()
{
    std::vector<util::SimdIsa> isas;
    for (auto isa :
         {util::SimdIsa::Scalar, util::SimdIsa::Avx2,
          util::SimdIsa::Avx512}) {
        if (kern::lane::oneLaneKernelsForIsa(isa, 2))
            isas.push_back(isa);
    }
    return isas;
}

/** A dense matrix as split real/imaginary planes. */
struct Planes
{
    std::vector<double> re, im;

    explicit Planes(const Matrix &m)
        : re(m.data().size()), im(m.data().size())
    {
        for (size_t e = 0; e < m.data().size(); ++e) {
            re[e] = m.data()[e].real();
            im[e] = m.data()[e].imag();
        }
    }

    /** Zeroed planes for a dim x dim matrix. */
    explicit Planes(size_t dim) : re(dim * dim), im(dim * dim) {}

    Matrix
    matrix(size_t dim) const
    {
        Matrix m(dim, dim);
        for (size_t e = 0; e < re.size(); ++e)
            m.data()[e] = Complex(re[e], im[e]);
        return m;
    }
};

/** A Complex array as the interleaved (re, im) doubles the one-lane
 *  kernels take. */
const double *
asDoubles(const Complex *z)
{
    return reinterpret_cast<const double *>(z);
}

/** Exact equality of two plane pairs. */
void
expectPlanesEqual(const Planes &got, const Planes &ref,
                  const std::string &what)
{
    ASSERT_EQ(got.re.size(), ref.re.size()) << what;
    for (size_t e = 0; e < got.re.size(); ++e) {
        EXPECT_EQ(got.re[e], ref.re[e]) << what << " e=" << e;
        EXPECT_EQ(got.im[e], ref.im[e]) << what << " e=" << e;
    }
}

// ---------------------------------------------------------------------
// The portable table against dense references.

TEST(Kernels, LeftU3MatchesEmbedReference)
{
    Rng rng(11);
    for (int n = 1; n <= 5; ++n) {
        const size_t dim = size_t{1} << n;
        const OneLaneKernelSet &k = portable(dim);
        for (int q = 0; q < n; ++q) {
            Matrix g2 = randomMatrix(2, rng);
            Matrix m = randomMatrix(dim, rng);
            Matrix expect = embedUnitary(g2, {q}, n) * m;
            const Complex g[4] = {g2(0, 0), g2(0, 1), g2(1, 0), g2(1, 1)};
            const size_t bit = size_t{1} << (n - 1 - q);

            Planes src(m), out(dim);
            k.leftU3(dim, out.re.data(), out.im.data(), src.re.data(),
                     src.im.data(), asDoubles(g), bit);
            EXPECT_LT(out.matrix(dim).maxAbsDiff(expect), 1e-12)
                << "out-of-place n=" << n << " q=" << q;
            k.leftU3(dim, src.re.data(), src.im.data(), src.re.data(),
                     src.im.data(), asDoubles(g), bit);
            EXPECT_LT(src.matrix(dim).maxAbsDiff(expect), 1e-12)
                << "in-place n=" << n << " q=" << q;
        }
    }
}

TEST(Kernels, LeftCxMatchesEmbedReference)
{
    Rng rng(13);
    for (int n = 2; n <= 5; ++n) {
        const size_t dim = size_t{1} << n;
        const OneLaneKernelSet &k = portable(dim);
        for (int c = 0; c < n; ++c) {
            for (int t = 0; t < n; ++t) {
                if (c == t)
                    continue;
                Matrix m = randomMatrix(dim, rng);
                Matrix expect = embedUnitary(cxMatrix(), {c, t}, n) * m;
                const size_t bc = size_t{1} << (n - 1 - c);
                const size_t bt = size_t{1} << (n - 1 - t);

                Planes src(m), out(dim);
                k.leftCxOut(dim, out.re.data(), out.im.data(),
                            src.re.data(), src.im.data(), bc, bt);
                EXPECT_LT(out.matrix(dim).maxAbsDiff(expect), 1e-12)
                    << "gather n=" << n << " c=" << c << " t=" << t;
                k.leftCx(dim, src.re.data(), src.im.data(), bc, bt);
                EXPECT_LT(src.matrix(dim).maxAbsDiff(expect), 1e-12)
                    << "swap n=" << n << " c=" << c << " t=" << t;
            }
        }
    }
}

TEST(Kernels, ReduceTraceTMatchesDenseTrace)
{
    Rng rng(15);
    for (int n = 1; n <= 5; ++n) {
        const size_t dim = size_t{1} << n;
        const OneLaneKernelSet &k = portable(dim);
        for (int q = 0; q < n; ++q) {
            Matrix p = randomMatrix(dim, rng);
            Matrix b = randomMatrix(dim, rng);
            Planes pp(p), bt(b.transpose());
            Complex w2[4];
            k.reduceTraceT(dim, pp.re.data(), pp.im.data(), bt.re.data(),
                           bt.im.data(), size_t{1} << (n - 1 - q),
                           reinterpret_cast<double *>(w2));
            // Tr(P * B * embed(d)) = sum_{a,c} w2[a*2+c] * d(c, a)
            // for ANY 2x2 d, so the contraction must match the dense
            // trace for a random one.
            Matrix d = randomMatrix(2, rng);
            const Complex expect =
                (p * b * embedUnitary(d, {q}, n)).trace();
            const Complex got = w2[0] * d(0, 0) + w2[1] * d(1, 0) +
                                w2[2] * d(0, 1) + w2[3] * d(1, 1);
            EXPECT_LT(std::abs(got - expect), 1e-10)
                << "n=" << n << " q=" << q;
        }
    }
}

TEST(Kernels, TraceTargetMatchesDenseTrace)
{
    Rng rng(17);
    for (int n = 1; n <= 5; ++n) {
        const size_t dim = size_t{1} << n;
        const Matrix tgt = randomMatrix(dim, rng);
        const Matrix u = randomMatrix(dim, rng);
        // The kernel takes conj(target) and returns Tr(target^dagger U).
        Matrix tc = tgt;
        for (Complex &v : tc.data())
            v = std::conj(v);
        Planes tcp(tc), up(u);
        Complex got;
        portable(dim).traceTarget(dim, tcp.re.data(), tcp.im.data(),
                                  up.re.data(), up.im.data(),
                                  reinterpret_cast<double *>(&got));
        const Complex expect = (tgt.adjoint() * u).trace();
        EXPECT_LT(std::abs(got - expect), 1e-10) << "n=" << n;
    }
}

TEST(Kernels, U3EntriesAndDerivativesMatchReference)
{
    Rng rng(16);
    for (int trial = 0; trial < 25; ++trial) {
        const double th = rng.uniform(-2.0 * pi, 2.0 * pi);
        const double ph = rng.uniform(-2.0 * pi, 2.0 * pi);
        const double la = rng.uniform(-2.0 * pi, 2.0 * pi);

        Complex g[4];
        Complex dg[3][4];
        u3WithDerivatives(th, ph, la, g, dg);

        const Matrix ref = makeU3(th, ph, la);
        for (int i = 0; i < 4; ++i)
            EXPECT_LT(std::abs(g[i] - ref.data()[i]), 1e-14);
        for (int which = 0; which < 3; ++which) {
            const Matrix dref = u3Derivative(th, ph, la, which);
            for (int i = 0; i < 4; ++i)
                EXPECT_LT(std::abs(dg[which][i] - dref.data()[i]), 1e-14)
                    << "which=" << which << " i=" << i;
        }
    }
}

TEST(HsCostWorkspace, GradientMatchesFiniteDifference)
{
    for (int n = 2; n <= 4; ++n) {
        Rng rng(100 + static_cast<uint64_t>(n));
        Ansatz a = testAnsatz(n);
        const Matrix target = randomTarget(a, rng);

        std::vector<double> x(a.paramCount());
        for (double &v : x)
            v = rng.uniform(-pi, pi);
        HsCost cost(target, a);
        std::vector<double> grad;
        cost.evaluate(x, grad);
        ASSERT_EQ(grad.size(), x.size());

        const double h = 1e-6;
        std::vector<double> scratch;
        for (size_t i = 0; i < x.size(); ++i) {
            std::vector<double> xp = x, xm = x;
            xp[i] += h;
            xm[i] -= h;
            const double fd = (cost.evaluate(xp, scratch) -
                               cost.evaluate(xm, scratch)) /
                              (2.0 * h);
            EXPECT_NEAR(grad[i], fd, 1e-5) << "n=" << n << " i=" << i;
        }
    }
}

TEST(HsCostWorkspace, MatchesDenseReferencePath)
{
    Rng rng(200);
    Ansatz a = testAnsatz(3);
    const Matrix target = randomTarget(a, rng);

    std::vector<double> x(a.paramCount());
    for (double &v : x)
        v = rng.uniform(-pi, pi);
    HsCost cost(target, a);
    std::vector<double> grad;
    const double f = cost.evaluate(x, grad);

    // Dense reference: circuitUnitary with embedded U3 derivatives
    // plus the textbook f = 1 - |Tr(T^dagger A)|^2 / N^2 and its chain
    // rule.
    Matrix u;
    std::vector<Matrix> grads;
    denseUnitaryAndGradient(a, x, u, grads);
    const double n2 = static_cast<double>(target.rows()) *
                      static_cast<double>(target.rows());
    const Complex tr = (target.adjoint() * u).trace();
    EXPECT_NEAR(f, 1.0 - std::norm(tr) / n2, 1e-12);
    ASSERT_EQ(grads.size(), grad.size());
    for (size_t i = 0; i < grad.size(); ++i) {
        const Complex dtr = (target.adjoint() * grads[i]).trace();
        const double ref = -2.0 * (std::conj(tr) * dtr).real() / n2;
        EXPECT_NEAR(grad[i], ref, 1e-10) << "param " << i;
    }
}

TEST(HsCostWorkspace, EvaluateIsAllocationFreeAfterWarmup)
{
    Rng rng(300);
    Ansatz a = testAnsatz(3);
    const Matrix target = randomTarget(a, rng);

    HsCost cost(target, a);
    std::vector<double> x(a.paramCount());
    for (double &v : x)
        v = rng.uniform(-pi, pi);
    std::vector<double> grad;
    // Warm-up: sizes the gradient vector and touches every lazily
    // initialized static (metric counters) once.
    cost.evaluate(x, grad);

    const uint64_t ws_allocs = cost.workspace().allocations;
    const uint64_t ws_reuses = cost.workspace().reuses;
    double sink = 0.0;
    const uint64_t before =
        g_allocation_count.load(std::memory_order_relaxed);
    for (int i = 0; i < 50; ++i) {
        x[static_cast<size_t>(i) % x.size()] = std::sin(0.7 * i);
        sink += cost.evaluate(x, grad);
    }
    const uint64_t after =
        g_allocation_count.load(std::memory_order_relaxed);

    EXPECT_EQ(after - before, 0u)
        << "evaluate() allocated in steady state (sink=" << sink << ")";
    EXPECT_EQ(cost.workspace().allocations, ws_allocs)
        << "workspace grew after construction";
    EXPECT_EQ(cost.workspace().reuses, ws_reuses + 50);
}

// ---------------------------------------------------------------------
// The one-lane SIMD tables (planar, column-parallel): every kernel and
// the full evaluator must be BIT-identical to the portable table on
// every ISA the build and the host provide. All comparisons below
// are EXPECT_EQ on doubles — exact, not approximate.

TEST(OneLaneKernels, LeftU3MatchesScalarBitExact)
{
    Rng rng(411);
    for (auto isa : availableIsas()) {
        for (size_t dim = 2; dim <= 32; dim <<= 1) {
            const auto *ok = kern::lane::oneLaneKernelsForIsa(isa, dim);
            ASSERT_NE(ok, nullptr);
            for (size_t bit = 1; bit < dim; bit <<= 1) {
                const std::string what =
                    std::string("isa=") + util::simdIsaName(isa) +
                    " dim=" + std::to_string(dim) +
                    " bit=" + std::to_string(bit);
                Planes src(randomMatrix(dim, rng));
                Complex g[4];
                for (Complex &v : g)
                    v = Complex(rng.uniform(-1.0, 1.0),
                                rng.uniform(-1.0, 1.0));
                Planes ref(dim);
                portable(dim).leftU3(dim, ref.re.data(), ref.im.data(),
                                     src.re.data(), src.im.data(),
                                     asDoubles(g), bit);

                // Fused out-of-place (the forward walk) ...
                Planes out(dim);
                ok->leftU3(dim, out.re.data(), out.im.data(), src.re.data(),
                           src.im.data(), asDoubles(g), bit);
                expectPlanesEqual(out, ref, what + " out-of-place");
                // ... and in place (the backward accumulator).
                ok->leftU3(dim, src.re.data(), src.im.data(), src.re.data(),
                           src.im.data(), asDoubles(g), bit);
                expectPlanesEqual(src, ref, what + " in-place");
            }
        }
    }
}

TEST(OneLaneKernels, LeftCxMatchesScalarBitExact)
{
    Rng rng(412);
    for (auto isa : availableIsas()) {
        for (size_t dim = 4; dim <= 32; dim <<= 1) {
            const auto *ok = kern::lane::oneLaneKernelsForIsa(isa, dim);
            ASSERT_NE(ok, nullptr);
            for (size_t bc = 1; bc < dim; bc <<= 1) {
                for (size_t bt = 1; bt < dim; bt <<= 1) {
                    if (bc == bt)
                        continue;
                    const std::string what =
                        std::string("isa=") +
                        util::simdIsaName(isa) +
                        " dim=" + std::to_string(dim) +
                        " bc=" + std::to_string(bc) +
                        " bt=" + std::to_string(bt);
                    Planes src(randomMatrix(dim, rng));
                    Planes ref(dim);
                    portable(dim).leftCxOut(dim, ref.re.data(),
                                            ref.im.data(), src.re.data(),
                                            src.im.data(), bc, bt);

                    Planes out(dim);
                    ok->leftCxOut(dim, out.re.data(), out.im.data(),
                                  src.re.data(), src.im.data(), bc, bt);
                    expectPlanesEqual(out, ref, what + " gather");
                    ok->leftCx(dim, src.re.data(), src.im.data(), bc, bt);
                    expectPlanesEqual(src, ref, what + " swap");
                }
            }
        }
    }
}

TEST(OneLaneKernels, ReduceTraceTMatchesScalarBitExact)
{
    // Per (ISA, dim, bit): a random pair; a pair whose entries span
    // about 2^+-20, so that the products span 2^+-40 and any reordered
    // sum changes the last bits with near certainty; and, per sum,
    // order witnesses. A witness puts the terms 2^53, 1, -2^53 at
    // three consecutive positions of one sum's serial (h, c) order,
    // every other term zero. In that order the sum is exactly 0
    // (2^53 + 1 rounds to 2^53); adding -2^53 before the 1 gives 1.
    // Sliding the witness over every start position puts it inside a
    // register chunk and across every chunk and row boundary, and
    // checks that the portable table itself sums in serial order.
    Rng rng(413);
    auto wideMatrix = [&rng](size_t dim) {
        Matrix m(dim, dim);
        auto wide = [&rng] {
            const int e = static_cast<int>(rng.uniformInt(41)) - 20;
            return std::ldexp(rng.uniform(-1.0, 1.0), e);
        };
        for (Complex &v : m.data())
            v = Complex(wide(), wide());
        return m;
    };
    for (auto isa : availableIsas()) {
        for (size_t dim = 2; dim <= 32; dim <<= 1) {
            const auto *ok = kern::lane::oneLaneKernelsForIsa(isa, dim);
            ASSERT_NE(ok, nullptr);
            auto expectMatch = [&](const Matrix &p, const Matrix &b,
                                   size_t bit, const std::string &what) {
                const Planes pp(p), bp(b);
                std::array<Complex, 4> ref;
                portable(dim).reduceTraceT(dim, pp.re.data(), pp.im.data(),
                                           bp.re.data(), bp.im.data(), bit,
                                           reinterpret_cast<double *>(
                                               ref.data()));
                Complex got[4];
                ok->reduceTraceT(dim, pp.re.data(), pp.im.data(),
                                 bp.re.data(), bp.im.data(), bit,
                                 reinterpret_cast<double *>(got));
                for (size_t e = 0; e < 4; ++e) {
                    EXPECT_EQ(got[e].real(), ref[e].real())
                        << "isa=" << util::simdIsaName(isa)
                        << " dim=" << dim << " bit=" << bit << " e=" << e
                        << " " << what;
                    EXPECT_EQ(got[e].imag(), ref[e].imag())
                        << "isa=" << util::simdIsaName(isa)
                        << " dim=" << dim << " bit=" << bit << " e=" << e
                        << " " << what;
                }
                return ref;
            };
            for (size_t bit = 1; bit < dim; bit <<= 1) {
                expectMatch(randomMatrix(dim, rng), randomMatrix(dim, rng),
                            bit, "random");
                expectMatch(wideMatrix(dim), wideMatrix(dim), bit, "wide");

                // Position q of the serial order is column q % dim of
                // row pair h = q / dim; sum k (entry k / 2, the
                // imaginary part for odd k) multiplies row pair side
                // (k >> 2) of p by side (k >> 1) & 1 of bt. The first
                // two row pairs and the step into the third cover
                // every chunk offset and boundary kind.
                const size_t terms = dim * dim / 2;
                const size_t lo = bit - 1;
                for (size_t q = 0; q + 3 <= std::min(terms, 2 * dim + 2);
                     ++q) {
                    for (size_t k = 0; k < 8; ++k) {
                        Matrix p(dim, dim), b(dim, dim);
                        const double v[3] = {0x1p53, 1.0, -0x1p53};
                        for (size_t i = 0; i < 3; ++i) {
                            const size_t h = (q + i) / dim;
                            const size_t c = (q + i) % dim;
                            const size_t r0 = ((h & ~lo) << 1) | (h & lo);
                            const size_t pr = (k >> 2) ? (r0 | bit) : r0;
                            const size_t br =
                                ((k >> 1) & 1) ? (r0 | bit) : r0;
                            p(pr, c) = v[i];
                            b(br, c) = (k & 1) ? Complex(0.0, 1.0) : 1.0;
                        }
                        const std::array<Complex, 4> ref = expectMatch(
                            p, b, bit,
                            "witness q=" + std::to_string(q) +
                                " sum=" + std::to_string(k));
                        const Complex &sum = ref[k / 2];
                        EXPECT_EQ((k & 1) ? sum.imag() : sum.real(), 0.0)
                            << "witness misplaced: q=" << q << " sum=" << k;
                    }
                }
            }
        }
    }
}

TEST(OneLaneKernels, TraceTargetMatchesScalarBitExact)
{
    Rng rng(414);
    for (auto isa : availableIsas()) {
        for (size_t dim = 2; dim <= 32; dim <<= 1) {
            const auto *ok = kern::lane::oneLaneKernelsForIsa(isa, dim);
            ASSERT_NE(ok, nullptr);
            const Planes tc(randomMatrix(dim, rng));
            const Planes u(randomMatrix(dim, rng));
            double ref[2];
            portable(dim).traceTarget(dim, tc.re.data(), tc.im.data(),
                                      u.re.data(), u.im.data(), ref);
            double got[2];
            ok->traceTarget(dim, tc.re.data(), tc.im.data(), u.re.data(),
                            u.im.data(), got);
            EXPECT_EQ(got[0], ref[0])
                << "isa=" << util::simdIsaName(isa) << " dim=" << dim;
            EXPECT_EQ(got[1], ref[1])
                << "isa=" << util::simdIsaName(isa) << " dim=" << dim;
        }
    }
}

TEST(HsCostWorkspace, MatchesInterleavedReferenceBitExactEveryIsa)
{
    // Evaluator level: HsCost on every one-lane table reproduces its
    // value and gradient on the portable table bit for bit, including
    // dim 32's generic bodies.
    for (int n = 1; n <= 5; ++n) {
        Rng rng(450 + static_cast<uint64_t>(n));
        Ansatz a = testAnsatz(n);
        const Matrix target = randomTarget(a, rng);
        std::vector<double> x(a.paramCount());
        for (double &v : x)
            v = rng.uniform(-pi, pi);
        HsCost reference(target, a);
        reference.useKernels(portable(target.rows()));
        std::vector<double> refGrad;
        const double refF = reference.evaluate(x, refGrad);
        for (auto isa : availableIsas()) {
            HsCost cost(target, a);
            cost.useKernels(
                *kern::lane::oneLaneKernelsForIsa(isa, target.rows()));
            std::vector<double> grad;
            EXPECT_EQ(cost.evaluate(x, grad), refF)
                << "isa=" << util::simdIsaName(isa) << " n=" << n;
            EXPECT_EQ(grad, refGrad)
                << "isa=" << util::simdIsaName(isa) << " n=" << n;
        }
    }
}

TEST(HsCostWorkspace, ConstructorWarmsTheArena)
{
    Rng rng(301);
    Ansatz a = testAnsatz(2);
    const Matrix target = randomTarget(a, rng);

    HsCost cost(target, a);
    // The constructor's single ensure() is the only growth; every
    // evaluate() afterwards is a pure reuse.
    EXPECT_EQ(cost.workspace().allocations, 1u);
    EXPECT_EQ(cost.workspace().reuses, 0u);
    std::vector<double> x(a.paramCount(), 0.25);
    std::vector<double> grad;
    cost.evaluate(x, grad);
    EXPECT_EQ(cost.workspace().allocations, 1u);
    EXPECT_EQ(cost.workspace().reuses, 1u);
}

} // namespace
} // namespace quest
