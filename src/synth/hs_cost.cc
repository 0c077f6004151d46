#include "synth/hs_cost.hh"

#include <algorithm>

#include "obs/metrics.hh"
#include "util/logging.hh"
#include "util/names.hh"
#include "util/vector_ops.hh"

namespace quest {

namespace {

/** Complex multiply without the NaN-fixup branch of operator*, so the
 *  compiler emits straight mul/add sequences instead of the __muldc3
 *  libcall. */
inline Complex
cmul(const Complex &a, const Complex &b)
{
    return Complex(a.real() * b.real() - a.imag() * b.imag(),
                   a.real() * b.imag() + a.imag() * b.real());
}

/** Evaluate calls that reused the workspace without allocating. */
obs::Counter &
workspaceReuseCounter()
{
    static auto &c = obs::MetricsRegistry::global().counter(
        names::kMetricSynthWorkspaceReuses);
    return c;
}

/** A Complex array as the interleaved (re, im) doubles the one-lane
 *  kernels take; std::complex is layout-compatible with double[2]. */
const double *
interleaved(const Complex *z)
{
    return reinterpret_cast<const double *>(z);
}

double *
interleaved(Complex *z)
{
    return reinterpret_cast<double *>(z);
}

} // namespace

bool
HsWorkspace::ensure(size_t dim, size_t opCount, size_t u3Count)
{
    const size_t dd = dim * dim;
    using simd::fitAligned;
    bool grew = fitAligned(prefixRe, preRe, (opCount + 1) * dd);
    grew |= fitAligned(prefixIm, preIm, (opCount + 1) * dd);
    grew |= fitAligned(backwardRe, bwdRe, dd);
    grew |= fitAligned(backwardIm, bwdIm, dd);
    if (u3Terms.size() < u3Count * 16) {
        u3Terms.resize(u3Count * 16);
        grew = true;
    }
    if (grew)
        ++allocations;
    else
        ++reuses;
    return grew;
}

HsCost::HsCost(const Matrix &target, const Ansatz &ansatz)
{
    QUEST_ASSERT(target.isSquare(), "target must be square");
    QUEST_ASSERT(target.rows() == (size_t{1} << ansatz.numQubits()),
                 "target dimension does not match ansatz width");
    dim = target.rows();
    const double n = static_cast<double>(dim);
    dimSquared = n * n;
    kernels = &kern::lane::oneLaneKernelsFor(dim);

    // Precompile the op sequence: wire bits and parameter bases are
    // structural, so resolve them once instead of per evaluation
    // (op_plan.hh).
    plan = synth::compilePlan(ansatz);

    tcRe.resize(dim * dim);
    tcIm.resize(dim * dim);
    const Complex *t = target.data().data();
    for (size_t i = 0; i < dim * dim; ++i) {
        const Complex c = std::conj(t[i]);
        tcRe[i] = c.real();
        tcIm[i] = c.imag();
    }

    // Warm the arena now so every evaluate() is allocation-free.
    ws.ensure(dim, plan.ops.size(), plan.u3Count);
}

double
HsCost::evaluate(const std::vector<double> &params,
                 std::vector<double> &grad)
{
    QUEST_ASSERT(static_cast<int>(params.size()) == plan.nParams,
                 "parameter count mismatch");
    const size_t count = plan.ops.size();
    const size_t dd = dim * dim;
    const kern::lane::OneLaneKernelSet &k = *kernels;

    if (!ws.ensure(dim, count, plan.u3Count))
        workspaceReuseCounter().increment();

    // Forward pass: prefix slice j holds op_{j-1} ... op_0 (slice 0 is
    // the identity), each written straight from slice j by a fused
    // out-of-place kernel. Each U3's entries and all three
    // derivatives are cached from one shared trig evaluation for the
    // backward pass.
    double *preRe = ws.preRe;
    double *preIm = ws.preIm;
    Complex *terms = ws.u3Terms.data();
    std::fill(preRe, preRe + dd, 0.0);
    std::fill(preIm, preIm + dd, 0.0);
    for (size_t i = 0; i < dim; ++i)
        preRe[i * dim + i] = 1.0;
    {
        size_t ui = 0;
        for (size_t j = 0; j < count; ++j) {
            const synth::OpPlan &op = plan.ops[j];
            double *curRe = preRe + j * dd;
            double *curIm = preIm + j * dd;
            if (op.isCx) {
                k.leftCxOut(dim, curRe + dd, curIm + dd, curRe, curIm,
                            op.bit, op.bit2);
                continue;
            }
            Complex *slot = terms + ui * 16;
            u3WithDerivatives(params[op.base], params[op.base + 1],
                              params[op.base + 2], slot,
                              reinterpret_cast<Complex(*)[4]>(slot + 4));
            k.leftU3(dim, curRe + dd, curIm + dd, curRe, curIm,
                     interleaved(slot), op.bit);
            ++ui;
        }
    }
    Complex tr;
    k.traceTarget(dim, tcRe.data(), tcIm.data(), preRe + count * dd,
                  preIm + count * dd, interleaved(&tr));

    // Backward pass, transposed: bt = B^T with
    // B = target^dagger * op_{L-1} ... op_{j+1}, so B's strided
    // columns become bt's contiguous rows and every update is a
    // row-mixing kernel. Initially bt = (target^dagger)^T =
    // conj(target); appending op j on B's right (B <- B * embed(g))
    // is bt <- embed(g)^T * bt, i.e. leftU3 with the transposed gate.
    grad.resize(static_cast<size_t>(plan.nParams));
    double *btRe = ws.bwdRe;
    double *btIm = ws.bwdIm;
    std::copy(tcRe.begin(), tcRe.end(), btRe);
    std::copy(tcIm.begin(), tcIm.end(), btIm);
    const Complex trc = std::conj(tr);
    Complex w2[4];
    size_t ui = plan.u3Count;
    for (size_t j = count; j-- > 0;) {
        const synth::OpPlan &op = plan.ops[j];
        if (op.isCx) {
            // embed(CX)^T = embed(CX): the same row-swap kernel.
            k.leftCx(dim, btRe, btIm, op.bit, op.bit2);
            continue;
        }
        const Complex *slot = terms + --ui * 16;
        k.reduceTraceT(dim, preRe + j * dd, preIm + j * dd, btRe, btIm,
                       op.bit, interleaved(w2));
        for (int which = 0; which < 3; ++which) {
            const Complex *d = slot + 4 + which * 4;
            // Tr(W * embed(d)) = sum_ac w2[a][c] d(c, a).
            const Complex dtr = cmul(w2[0], d[0]) + cmul(w2[1], d[2]) +
                                cmul(w2[2], d[1]) + cmul(w2[3], d[3]);
            grad[op.base + which] =
                -2.0 * cmul(trc, dtr).real() / dimSquared;
        }
        const Complex gT[4] = {slot[0], slot[2], slot[1], slot[3]};
        k.leftU3(dim, btRe, btIm, btRe, btIm, interleaved(gT), op.bit);
    }

    return 1.0 - std::norm(tr) / dimSquared;
}

} // namespace quest
