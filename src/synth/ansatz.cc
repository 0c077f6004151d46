#include "synth/ansatz.hh"

#include <algorithm>
#include <cmath>

#include "synth/kernels.hh"
#include "util/logging.hh"

namespace quest {

Matrix
u3Derivative(double theta, double phi, double lambda, int which)
{
    const double c = std::cos(theta / 2.0);
    const double s = std::sin(theta / 2.0);
    const Complex eip = std::polar(1.0, phi);
    const Complex eil = std::polar(1.0, lambda);
    const Complex i(0.0, 1.0);

    Matrix d(2, 2);
    switch (which) {
      case 0:  // d/d theta
        d(0, 0) = Complex(-s / 2.0, 0.0);
        d(0, 1) = -eil * (c / 2.0);
        d(1, 0) = eip * (c / 2.0);
        d(1, 1) = eip * eil * (-s / 2.0);
        break;
      case 1:  // d/d phi
        d(1, 0) = i * eip * s;
        d(1, 1) = i * eip * eil * c;
        break;
      case 2:  // d/d lambda
        d(0, 1) = -i * eil * s;
        d(1, 1) = i * eip * eil * c;
        break;
      default:
        QUEST_PANIC("bad U3 parameter index");
    }
    return d;
}

void
makeU3Entries(double theta, double phi, double lambda, Complex g[4])
{
    const double c = std::cos(theta / 2.0);
    const double s = std::sin(theta / 2.0);
    const Complex eil = std::polar(1.0, lambda);
    const Complex eip = std::polar(1.0, phi);
    g[0] = Complex(c, 0.0);
    g[1] = -eil * s;
    g[2] = eip * s;
    g[3] = eip * eil * c;
}

void
u3WithDerivatives(double theta, double phi, double lambda, Complex g[4],
                  Complex dg[3][4])
{
    // This runs once per U3 op per cost evaluation and the three
    // argument reductions dominate it, so fuse each sin/cos pair into
    // one sincos where libm provides it. glibc's sincos evaluates the
    // same kernels as sin and cos, so the values, and every result
    // built on them, are unchanged.
#if defined(__GLIBC__) && defined(_GNU_SOURCE)
    double c, s, cl, sl, cp, sp;
    ::sincos(theta / 2.0, &s, &c);
    ::sincos(lambda, &sl, &cl);
    ::sincos(phi, &sp, &cp);
    const Complex eil(cl, sl);
    const Complex eip(cp, sp);
#else
    const double c = std::cos(theta / 2.0);
    const double s = std::sin(theta / 2.0);
    const Complex eil = std::polar(1.0, lambda);
    const Complex eip = std::polar(1.0, phi);
#endif
    const Complex eipl = eip * eil;
    const Complex i(0.0, 1.0);
    const Complex zero(0.0, 0.0);

    g[0] = Complex(c, 0.0);
    g[1] = -eil * s;
    g[2] = eip * s;
    g[3] = eipl * c;

    // d/d theta
    dg[0][0] = Complex(-s / 2.0, 0.0);
    dg[0][1] = -eil * (c / 2.0);
    dg[0][2] = eip * (c / 2.0);
    dg[0][3] = eipl * (-s / 2.0);
    // d/d phi
    dg[1][0] = zero;
    dg[1][1] = zero;
    dg[1][2] = i * eip * s;
    dg[1][3] = i * eipl * c;
    // d/d lambda
    dg[2][0] = zero;
    dg[2][1] = -i * eil * s;
    dg[2][2] = zero;
    dg[2][3] = i * eipl * c;
}

Ansatz::Ansatz(int n_qubits)
    : nQubits(n_qubits)
{
    QUEST_ASSERT(n_qubits >= 1 && n_qubits <= 6,
                 "ansatz width out of range: ", n_qubits);
}

Ansatz
Ansatz::initialLayer(int n_qubits)
{
    Ansatz a(n_qubits);
    for (int q = 0; q < n_qubits; ++q)
        a.addU3(q);
    return a;
}

void
Ansatz::addU3(int q)
{
    QUEST_ASSERT(q >= 0 && q < nQubits, "U3 wire out of range");
    ops.push_back({false, q, -1});
    ++u3Count;
}

void
Ansatz::addCx(int control, int target)
{
    QUEST_ASSERT(control >= 0 && control < nQubits && target >= 0 &&
                 target < nQubits && control != target,
                 "bad CX wires");
    ops.push_back({true, control, target});
    ++cxCount;
}

void
Ansatz::addLayer(int a, int b)
{
    addCx(a, b);
    addU3(a);
    addU3(b);
}

Circuit
Ansatz::instantiate(const std::vector<double> &params) const
{
    QUEST_ASSERT(static_cast<int>(params.size()) == paramCount(),
                 "parameter count mismatch");
    Circuit c(nQubits);
    size_t p = 0;
    for (const Op &op : ops) {
        if (op.isCx) {
            c.append(Gate::cx(op.a, op.b));
        } else {
            c.append(Gate::u3(op.a, params[p], params[p + 1],
                              params[p + 2]));
            p += 3;
        }
    }
    return c;
}

Matrix
Ansatz::unitary(const std::vector<double> &params) const
{
    QUEST_ASSERT(static_cast<int>(params.size()) == paramCount(),
                 "parameter count mismatch");
    const size_t dim = size_t{1} << nQubits;
    const kern::KernelSet &k = kern::kernelsForDim(dim);
    Matrix u = Matrix::identity(dim);
    Complex *data = u.data().data();
    Complex g[4];
    size_t p = 0;
    for (const Op &op : ops) {
        if (op.isCx) {
            k.leftCx(dim, data, wireBit(op.a), wireBit(op.b));
        } else {
            makeU3Entries(params[p], params[p + 1], params[p + 2], g);
            k.leftU3(dim, data, g, wireBit(op.a));
            p += 3;
        }
    }
    return u;
}

void
Ansatz::unitaryAndGradient(const std::vector<double> &params, Matrix &u,
                           std::vector<Matrix> &grads) const
{
    QUEST_ASSERT(static_cast<int>(params.size()) == paramCount(),
                 "parameter count mismatch");
    const size_t dim = size_t{1} << nQubits;
    const size_t dd = dim * dim;
    const size_t count = ops.size();
    const kern::KernelSet &k = kern::kernelsForDim(dim);

    // Forward pass: prefix products, stacked in one flat arena
    // (slice j holds op_{j-1} ... op_0) instead of count + 1
    // separately built matrices.
    std::vector<Complex> prefix((count + 1) * dd, Complex(0.0, 0.0));
    std::vector<int> param_base(count, -1);
    for (size_t i = 0; i < dim; ++i)
        prefix[i * dim + i] = Complex(1.0, 0.0);
    {
        int p = 0;
        Complex g[4];
        for (size_t j = 0; j < count; ++j) {
            param_base[j] = p;
            Complex *cur = prefix.data() + j * dd;
            Complex *nxt = cur + dd;
            std::copy(cur, cur + dd, nxt);
            if (ops[j].isCx) {
                k.leftCx(dim, nxt, wireBit(ops[j].a), wireBit(ops[j].b));
            } else {
                makeU3Entries(params[p], params[p + 1], params[p + 2], g);
                k.leftU3(dim, nxt, g, wireBit(ops[j].a));
                p += 3;
            }
        }
    }
    u = Matrix(dim, dim);
    std::copy(prefix.data() + count * dd, prefix.data() + (count + 1) * dd,
              u.data().data());

    grads.assign(paramCount(), Matrix());

    // Backward pass: maintain the suffix product in place (right-apply
    // kernels) while emitting the three U3 partials at each
    // parameterized op as suffix * embed(d) * prefix[j].
    Matrix suffix = Matrix::identity(dim);
    Complex g[4], dg[3][4];
    for (size_t j = count; j-- > 0;) {
        if (!ops[j].isCx) {
            const int base = param_base[j];
            const size_t bit = wireBit(ops[j].a);
            u3WithDerivatives(params[base], params[base + 1],
                              params[base + 2], g, dg);
            for (int which = 0; which < 3; ++which) {
                Matrix t(dim, dim);
                std::copy(prefix.data() + j * dd,
                          prefix.data() + (j + 1) * dd, t.data().data());
                k.leftU3(dim, t.data().data(), dg[which], bit);
                grads[base + which] = suffix * t;
            }
            k.rightU3(dim, suffix.data().data(), g, bit);
        } else {
            k.rightCx(dim, suffix.data().data(), wireBit(ops[j].a),
                      wireBit(ops[j].b));
        }
    }
}

} // namespace quest
