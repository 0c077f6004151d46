#include "synth/batch/batched_hs_cost.hh"

#include <algorithm>
#include <cmath>

#include "obs/metrics.hh"
#include "synth/kernels.hh"
#include "util/logging.hh"
#include "util/names.hh"
#include "util/vector_ops.hh"

namespace quest::synth {

namespace {

using kern::cmul;

/** Evaluate calls that reused the workspace without allocating —
 *  same counter as HsCost's warm-workspace path. */
obs::Counter &
workspaceReuseCounter()
{
    static auto &c = obs::MetricsRegistry::global().counter(
        names::kMetricSynthWorkspaceReuses);
    return c;
}

} // namespace

bool
BatchedHsWorkspace::ensure(size_t dim, size_t opCount, size_t u3Count)
{
    constexpr size_t L = kern::batch::kLanes;
    const size_t ddL = dim * dim * L;
    using simd::fitAligned;
    bool grew = fitAligned(prefixRe, preRe, (opCount + 1) * ddL);
    grew |= fitAligned(prefixIm, preIm, (opCount + 1) * ddL);
    grew |= fitAligned(backwardRe, bwdRe, ddL);
    grew |= fitAligned(backwardIm, bwdIm, ddL);
    grew |= fitAligned(u3Re, gRe, u3Count * 16 * L);
    grew |= fitAligned(u3Im, gIm, u3Count * 16 * L);
    grew |= fitAligned(gtRe, tgRe, 4 * L);
    grew |= fitAligned(gtIm, tgIm, 4 * L);
    grew |= fitAligned(w2Re, wRe, 4 * L);
    grew |= fitAligned(w2Im, wIm, 4 * L);
    grew |= fitAligned(trRe, tRe, L);
    grew |= fitAligned(trIm, tIm, L);
    if (grew)
        ++allocations;
    else
        ++reuses;
    return grew;
}

BatchedHsCost::BatchedHsCost(const Matrix &target, const Ansatz &ansatz)
{
    QUEST_ASSERT(target.isSquare(), "target must be square");
    QUEST_ASSERT(target.rows() == (size_t{1} << ansatz.numQubits()),
                 "target dimension does not match ansatz width");
    dim = target.rows();
    const double n = static_cast<double>(dim);
    dimSquared = n * n;
    kernels = &kern::batch::batchKernelsFor(dim);
    plan = compilePlan(ansatz);

    tcRe.resize(dim * dim);
    tcIm.resize(dim * dim);
    const Complex *t = target.data().data();
    for (size_t i = 0; i < dim * dim; ++i) {
        const Complex c = std::conj(t[i]);
        tcRe[i] = c.real();
        tcIm[i] = c.imag();
    }

    // Idle lanes evaluate with all-zero parameters; cache that gate
    // once so the per-op lane loop skips the trig for them.
    u3WithDerivatives(0.0, 0.0, 0.0, idleG, idleDg);

    // Warm the arena now so every evaluateBatch() is allocation-free.
    ws.ensure(dim, plan.ops.size(), plan.u3Count);
}

void
BatchedHsCost::evaluateBatch(
    const std::array<const std::vector<double> *, kLanes> &xs,
    std::array<double, kLanes> &f,
    const std::array<std::vector<double> *, kLanes> &grads)
{
    constexpr size_t L = kLanes;
    const size_t count = plan.ops.size();
    const size_t dd = dim * dim;
    const size_t ddL = dd * L;
    const kern::batch::BatchKernelSet &k = *kernels;

    if (!ws.ensure(dim, count, plan.u3Count))
        workspaceReuseCounter().increment();

    for (size_t l = 0; l < L; ++l) {
        if (xs[l]) {
            QUEST_ASSERT(static_cast<int>(xs[l]->size()) == plan.nParams,
                         "parameter count mismatch");
            QUEST_ASSERT(grads[l] != nullptr,
                         "live lane requires a gradient output");
            grads[l]->resize(static_cast<size_t>(plan.nParams));
        }
    }

    // Forward pass, all lanes at once: prefix slice j holds
    // op_{j-1} ... op_0 per lane (slice 0 is the identity). U3
    // entries and derivatives come from one scalar u3WithDerivatives
    // per (op, lane) — the exact libm values HsCost sees —
    // fanned into the SoA gate cache.
    double *preRe = ws.preRe;
    double *preIm = ws.preIm;
    std::fill(preRe, preRe + ddL, 0.0);
    std::fill(preIm, preIm + ddL, 0.0);
    for (size_t i = 0; i < dim; ++i) {
        double *cell = preRe + (i * dim + i) * L;
        std::fill(cell, cell + L, 1.0);
    }
    {
        size_t ui = 0;
        for (size_t j = 0; j < count; ++j) {
            const OpPlan &op = plan.ops[j];
            double *curRe = preRe + j * ddL;
            double *curIm = preIm + j * ddL;
            if (op.isCx) {
                k.leftCxOut(dim, curRe + ddL, curIm + ddL, curRe, curIm,
                            op.bit, op.bit2);
                continue;
            }
            const size_t slot = ui * 16;
            Complex buf[4];
            Complex dbuf[3][4];
            for (size_t l = 0; l < L; ++l) {
                const std::vector<double> *x = xs[l];
                const Complex(*dg)[4] = idleDg;
                const Complex *g = idleG;
                if (x) {
                    const size_t b = static_cast<size_t>(op.base);
                    u3WithDerivatives((*x)[b], (*x)[b + 1], (*x)[b + 2],
                                      buf, dbuf);
                    g = buf;
                    dg = dbuf;
                }
                for (size_t e = 0; e < 4; ++e) {
                    ws.gRe[(slot + e) * L + l] = g[e].real();
                    ws.gIm[(slot + e) * L + l] = g[e].imag();
                }
                for (size_t w = 0; w < 3; ++w) {
                    for (size_t e = 0; e < 4; ++e) {
                        const size_t at = (slot + 4 + w * 4 + e) * L + l;
                        ws.gRe[at] = dg[w][e].real();
                        ws.gIm[at] = dg[w][e].imag();
                    }
                }
            }
            k.leftU3Out(dim, curRe + ddL, curIm + ddL, curRe, curIm,
                        ws.gRe + slot * L, ws.gIm + slot * L,
                        op.bit);
            ++ui;
        }
    }
    k.traceTarget(dim, tcRe.data(), tcIm.data(), preRe + count * ddL,
                  preIm + count * ddL, ws.tRe, ws.tIm);

    // Backward pass, transposed, exactly as in HsCost::evaluate: bt
    // starts as conj(target) in every lane; each U3 contributes three
    // gradient entries per lane via the trace contraction, then its
    // transposed gate is appended.
    double *btRe = ws.bwdRe;
    double *btIm = ws.bwdIm;
    for (size_t e = 0; e < dd; ++e) {
        std::fill(btRe + e * L, btRe + e * L + L, tcRe[e]);
        std::fill(btIm + e * L, btIm + e * L + L, tcIm[e]);
    }
    std::array<Complex, L> trc;
    for (size_t l = 0; l < L; ++l)
        trc[l] = std::conj(Complex(ws.tRe[l], ws.tIm[l]));

    size_t ui = plan.u3Count;
    for (size_t j = count; j-- > 0;) {
        const OpPlan &op = plan.ops[j];
        if (op.isCx) {
            // embed(CX)^T = embed(CX): the same row-swap kernel.
            k.leftCx(dim, btRe, btIm, op.bit, op.bit2);
            continue;
        }
        const size_t slot = --ui * 16;
        k.reduceTraceT(dim, preRe + j * ddL, preIm + j * ddL, btRe, btIm,
                       op.bit, ws.wRe, ws.wIm);
        for (int which = 0; which < 3; ++which) {
            const size_t d = (slot + 4 + static_cast<size_t>(which) * 4) * L;
            for (size_t l = 0; l < L; ++l) {
                if (!xs[l])
                    continue;
                // Reconstruct per-lane complexes and evaluate the
                // one-lane evaluator's expression verbatim:
                // Tr(W * embed(d)) = sum_ac w2[a][c] d(c, a).
                const Complex w0(ws.wRe[0 * L + l], ws.wIm[0 * L + l]);
                const Complex w1(ws.wRe[1 * L + l], ws.wIm[1 * L + l]);
                const Complex w2(ws.wRe[2 * L + l], ws.wIm[2 * L + l]);
                const Complex w3(ws.wRe[3 * L + l], ws.wIm[3 * L + l]);
                const Complex d0(ws.gRe[d + 0 * L + l],
                                 ws.gIm[d + 0 * L + l]);
                const Complex d1(ws.gRe[d + 1 * L + l],
                                 ws.gIm[d + 1 * L + l]);
                const Complex d2(ws.gRe[d + 2 * L + l],
                                 ws.gIm[d + 2 * L + l]);
                const Complex d3(ws.gRe[d + 3 * L + l],
                                 ws.gIm[d + 3 * L + l]);
                const Complex dtr =
                    cmul(w0, d0) + cmul(w1, d2) + cmul(w2, d1) + cmul(w3, d3);
                (*grads[l])[op.base + which] =
                    -2.0 * cmul(trc[l], dtr).real() / dimSquared;
            }
        }
        // gT = {g00, g10, g01, g11}: swap the off-diagonal entry
        // vectors into the transposed-gate scratch.
        static constexpr size_t kTranspose[4] = {0, 2, 1, 3};
        for (size_t e = 0; e < 4; ++e) {
            const double *sr = ws.gRe + (slot + kTranspose[e]) * L;
            const double *si = ws.gIm + (slot + kTranspose[e]) * L;
            std::copy(sr, sr + L, ws.tgRe + e * L);
            std::copy(si, si + L, ws.tgIm + e * L);
        }
        k.leftU3(dim, btRe, btIm, ws.tgRe, ws.tgIm, op.bit);
    }

    for (size_t l = 0; l < L; ++l) {
        if (!xs[l])
            continue;
        const Complex tr(ws.tRe[l], ws.tIm[l]);
        f[l] = 1.0 - std::norm(tr) / dimSquared;
    }
}

} // namespace quest::synth
