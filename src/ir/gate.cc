#include "ir/gate.hh"

#include <cmath>
#include <numbers>
#include <sstream>

#include "linalg/decompose.hh"
#include "util/logging.hh"

namespace quest {

namespace {

constexpr double pi = std::numbers::pi;

} // namespace

const char *
gateName(GateType type)
{
    switch (type) {
      case GateType::U1: return "u1";
      case GateType::U2: return "u2";
      case GateType::U3: return "u3";
      case GateType::RX: return "rx";
      case GateType::RY: return "ry";
      case GateType::RZ: return "rz";
      case GateType::X: return "x";
      case GateType::Y: return "y";
      case GateType::Z: return "z";
      case GateType::H: return "h";
      case GateType::S: return "s";
      case GateType::Sdg: return "sdg";
      case GateType::T: return "t";
      case GateType::Tdg: return "tdg";
      case GateType::SX: return "sx";
      case GateType::CX: return "cx";
      case GateType::CZ: return "cz";
      case GateType::SWAP: return "swap";
      case GateType::RZZ: return "rzz";
      case GateType::RXX: return "rxx";
      case GateType::RYY: return "ryy";
      case GateType::CRZ: return "crz";
      case GateType::CP: return "cp";
      case GateType::CCX: return "ccx";
      case GateType::Barrier: return "barrier";
      case GateType::Measure: return "measure";
    }
    QUEST_PANIC("unknown gate type");
}

int
gateArity(GateType type)
{
    switch (type) {
      case GateType::U1: case GateType::U2: case GateType::U3:
      case GateType::RX: case GateType::RY: case GateType::RZ:
      case GateType::X: case GateType::Y: case GateType::Z:
      case GateType::H: case GateType::S: case GateType::Sdg:
      case GateType::T: case GateType::Tdg: case GateType::SX:
      case GateType::Measure:
        return 1;
      case GateType::CX: case GateType::CZ: case GateType::SWAP:
      case GateType::RZZ: case GateType::RXX: case GateType::RYY:
      case GateType::CRZ: case GateType::CP:
        return 2;
      case GateType::CCX:
        return 3;
      case GateType::Barrier:
        return 1;  // variadic; minimum one wire
    }
    QUEST_PANIC("unknown gate type");
}

int
gateParamCount(GateType type)
{
    switch (type) {
      case GateType::U1: case GateType::RX: case GateType::RY:
      case GateType::RZ: case GateType::RZZ: case GateType::RXX:
      case GateType::RYY: case GateType::CRZ: case GateType::CP:
        return 1;
      case GateType::U2:
        return 2;
      case GateType::U3:
        return 3;
      default:
        return 0;
    }
}

bool
isEntangling(GateType type)
{
    switch (type) {
      case GateType::CX: case GateType::CZ: case GateType::SWAP:
      case GateType::RZZ: case GateType::RXX: case GateType::RYY:
      case GateType::CRZ: case GateType::CP: case GateType::CCX:
        return true;
      default:
        return false;
    }
}

int
cnotEquivalents(GateType type)
{
    switch (type) {
      case GateType::CX:
        return 1;
      case GateType::CZ:
        return 1;  // CX conjugated by H on the target
      case GateType::SWAP:
        return 3;
      case GateType::RZZ: case GateType::RXX: case GateType::RYY:
      case GateType::CRZ: case GateType::CP:
        return 2;
      case GateType::CCX:
        return 6;
      default:
        return 0;
    }
}

Gate::Gate(GateType type, std::span<const int> qubits,
           std::span<const double> params)
    : type(type), qubits(qubits), params(params)
{
    if (type != GateType::Barrier) {
        QUEST_ASSERT(static_cast<int>(this->qubits.size()) ==
                     gateArity(type),
                     "gate ", gateName(type), " arity mismatch");
    }
    QUEST_ASSERT(static_cast<int>(this->params.size()) ==
                 gateParamCount(type),
                 "gate ", gateName(type), " param-count mismatch");
    for (size_t i = 0; i < this->qubits.size(); ++i)
        for (size_t j = i + 1; j < this->qubits.size(); ++j)
            QUEST_ASSERT(this->qubits[i] != this->qubits[j],
                         "duplicate wire on gate ", gateName(type));
}

Gate Gate::u1(int q, double l) { return {GateType::U1, {q}, {l}}; }
Gate Gate::u2(int q, double p, double l)
{
    return {GateType::U2, {q}, {p, l}};
}
Gate Gate::u3(int q, double t, double p, double l)
{
    return {GateType::U3, {q}, {t, p, l}};
}
Gate Gate::rx(int q, double t) { return {GateType::RX, {q}, {t}}; }
Gate Gate::ry(int q, double t) { return {GateType::RY, {q}, {t}}; }
Gate Gate::rz(int q, double t) { return {GateType::RZ, {q}, {t}}; }
Gate Gate::x(int q) { return {GateType::X, {q}}; }
Gate Gate::y(int q) { return {GateType::Y, {q}}; }
Gate Gate::z(int q) { return {GateType::Z, {q}}; }
Gate Gate::h(int q) { return {GateType::H, {q}}; }
Gate Gate::s(int q) { return {GateType::S, {q}}; }
Gate Gate::sdg(int q) { return {GateType::Sdg, {q}}; }
Gate Gate::t(int q) { return {GateType::T, {q}}; }
Gate Gate::tdg(int q) { return {GateType::Tdg, {q}}; }
Gate Gate::sx(int q) { return {GateType::SX, {q}}; }
Gate Gate::cx(int c, int t) { return {GateType::CX, {c, t}}; }
Gate Gate::cz(int a, int b) { return {GateType::CZ, {a, b}}; }
Gate Gate::swap(int a, int b) { return {GateType::SWAP, {a, b}}; }
Gate Gate::rzz(int a, int b, double t)
{
    return {GateType::RZZ, {a, b}, {t}};
}
Gate Gate::rxx(int a, int b, double t)
{
    return {GateType::RXX, {a, b}, {t}};
}
Gate Gate::ryy(int a, int b, double t)
{
    return {GateType::RYY, {a, b}, {t}};
}
Gate Gate::crz(int c, int t, double theta)
{
    return {GateType::CRZ, {c, t}, {theta}};
}
Gate Gate::cp(int c, int t, double theta)
{
    return {GateType::CP, {c, t}, {theta}};
}
Gate Gate::ccx(int c1, int c2, int t)
{
    return {GateType::CCX, {c1, c2, t}};
}
Gate Gate::barrier(std::span<const int> qubits)
{
    return {GateType::Barrier, qubits};
}
Gate Gate::barrier(std::initializer_list<int> qubits)
{
    return {GateType::Barrier, qubits};
}
Gate Gate::measure(int q) { return {GateType::Measure, {q}}; }

bool
Gate::actsOn(int q) const
{
    for (int wire : qubits)
        if (wire == q)
            return true;
    return false;
}

Gate
Gate::inverse() const
{
    switch (type) {
      case GateType::U1:
        return u1(qubits[0], -params[0]);
      case GateType::U2:
        // U2(p, l) = U3(pi/2, p, l); inverse is U3(-pi/2, -l, -p).
        return u3(qubits[0], -pi / 2, -params[1], -params[0]);
      case GateType::U3:
        return u3(qubits[0], -params[0], -params[2], -params[1]);
      case GateType::RX: case GateType::RY: case GateType::RZ:
      case GateType::RZZ: case GateType::RXX: case GateType::RYY:
      case GateType::CRZ: case GateType::CP: {
        Gate g = *this;
        g.params[0] = -g.params[0];
        return g;
      }
      case GateType::X: case GateType::Y: case GateType::Z:
      case GateType::H: case GateType::CX: case GateType::CZ:
      case GateType::SWAP: case GateType::CCX: case GateType::Barrier:
        return *this;
      case GateType::S:
        return sdg(qubits[0]);
      case GateType::Sdg:
        return s(qubits[0]);
      case GateType::T:
        return tdg(qubits[0]);
      case GateType::Tdg:
        return t(qubits[0]);
      case GateType::SX:
        // Inverse up to global phase (exact SX-dagger is not a U3).
        return u3(qubits[0], -pi / 2, -pi / 2, pi / 2);
      case GateType::Measure:
        QUEST_PANIC("measure has no inverse");
    }
    QUEST_PANIC("unknown gate type");
}

std::string
Gate::toString() const
{
    std::ostringstream os;
    os << gateName(type);
    if (!params.empty()) {
        os << "(";
        for (size_t i = 0; i < params.size(); ++i) {
            if (i)
                os << ",";
            os << params[i];
        }
        os << ")";
    }
    os << " ";
    for (size_t i = 0; i < qubits.size(); ++i) {
        if (i)
            os << ",";
        os << "q[" << qubits[i] << "]";
    }
    os << ";";
    return os.str();
}

namespace {

/** Write the row-major 2x2 {a, b; c, d} to @p m. */
void
put(Complex *m, Complex a, Complex b, Complex c, Complex d)
{
    m[0] = a;
    m[1] = b;
    m[2] = c;
    m[3] = d;
}

void
oneQubitUnitary(const Gate &g, Complex *m)
{
    const double inv_sqrt2 = 1.0 / std::sqrt(2.0);
    switch (g.type) {
      case GateType::U1:
        return put(m, 1.0, 0.0, 0.0, std::polar(1.0, g.params[0]));
      case GateType::U2: {
        Complex eip = std::polar(1.0, g.params[0]);
        Complex eil = std::polar(1.0, g.params[1]);
        const Complex scale(inv_sqrt2, 0.0);
        return put(m, Complex(1.0) * scale, -eil * scale, eip * scale,
                   eip * eil * scale);
      }
      case GateType::U3: {
        const std::array<Complex, 4> e =
            u3Entries(g.params[0], g.params[1], g.params[2]);
        return put(m, e[0], e[1], e[2], e[3]);
      }
      case GateType::RX: {
        double c = std::cos(g.params[0] / 2), s = std::sin(g.params[0] / 2);
        return put(m, c, Complex(0, -s), Complex(0, -s), c);
      }
      case GateType::RY: {
        double c = std::cos(g.params[0] / 2), s = std::sin(g.params[0] / 2);
        return put(m, c, -s, s, c);
      }
      case GateType::RZ: {
        Complex e = std::polar(1.0, g.params[0] / 2);
        return put(m, std::conj(e), 0.0, 0.0, e);
      }
      case GateType::X:
        return put(m, 0.0, 1.0, 1.0, 0.0);
      case GateType::Y:
        return put(m, 0.0, Complex(0, -1), Complex(0, 1), 0.0);
      case GateType::Z:
        return put(m, 1.0, 0.0, 0.0, -1.0);
      case GateType::H:
        return put(m, inv_sqrt2, inv_sqrt2, inv_sqrt2, -inv_sqrt2);
      case GateType::S:
        return put(m, 1.0, 0.0, 0.0, Complex(0, 1));
      case GateType::Sdg:
        return put(m, 1.0, 0.0, 0.0, Complex(0, -1));
      case GateType::T:
        return put(m, 1.0, 0.0, 0.0, std::polar(1.0, pi / 4));
      case GateType::Tdg:
        return put(m, 1.0, 0.0, 0.0, std::polar(1.0, -pi / 4));
      case GateType::SX: {
        Complex a(0.5, 0.5), b(0.5, -0.5);
        return put(m, a, b, b, a);
      }
      default:
        QUEST_PANIC("not a one-qubit matrix gate: ", gateName(g.type));
    }
}

/** A 2^k-dimensional unitary that starts as zero or the identity. */
class Entries
{
  public:
    Entries(Complex *m, size_t dim, bool identity) : m(m), dim(dim)
    {
        std::fill(m, m + dim * dim, Complex(0.0, 0.0));
        if (identity)
            for (size_t i = 0; i < dim; ++i)
                (*this)(i, i) = Complex(1.0, 0.0);
    }

    Complex &operator()(size_t r, size_t c) { return m[r * dim + c]; }

  private:
    Complex *m;
    size_t dim;
};

void
twoQubitUnitary(const Gate &g, Complex *out)
{
    switch (g.type) {
      case GateType::CX: {
        Entries m(out, 4, true);
        m(2, 2) = 0; m(3, 3) = 0;
        m(2, 3) = 1; m(3, 2) = 1;
        return;
      }
      case GateType::CZ: {
        Entries m(out, 4, true);
        m(3, 3) = -1;
        return;
      }
      case GateType::SWAP: {
        Entries m(out, 4, false);
        m(0, 0) = 1; m(1, 2) = 1; m(2, 1) = 1; m(3, 3) = 1;
        return;
      }
      case GateType::RZZ: {
        Complex e = std::polar(1.0, g.params[0] / 2);
        Entries m(out, 4, false);
        m(0, 0) = std::conj(e); m(1, 1) = e;
        m(2, 2) = e; m(3, 3) = std::conj(e);
        return;
      }
      case GateType::RXX: {
        double c = std::cos(g.params[0] / 2), s = std::sin(g.params[0] / 2);
        Complex is(0, s);
        Entries m(out, 4, false);
        m(0, 0) = c; m(1, 1) = c; m(2, 2) = c; m(3, 3) = c;
        m(0, 3) = -is; m(1, 2) = -is; m(2, 1) = -is; m(3, 0) = -is;
        return;
      }
      case GateType::RYY: {
        double c = std::cos(g.params[0] / 2), s = std::sin(g.params[0] / 2);
        Complex is(0, s);
        Entries m(out, 4, false);
        m(0, 0) = c; m(1, 1) = c; m(2, 2) = c; m(3, 3) = c;
        m(0, 3) = is; m(1, 2) = -is; m(2, 1) = -is; m(3, 0) = is;
        return;
      }
      case GateType::CRZ: {
        Complex e = std::polar(1.0, g.params[0] / 2);
        Entries m(out, 4, true);
        m(2, 2) = std::conj(e);
        m(3, 3) = e;
        return;
      }
      case GateType::CP: {
        Entries m(out, 4, true);
        m(3, 3) = std::polar(1.0, g.params[0]);
        return;
      }
      default:
        QUEST_PANIC("not a two-qubit matrix gate: ", gateName(g.type));
    }
}

} // namespace

void
gateUnitary(const Gate &gate, std::span<Complex> out)
{
    const int arity = gateArity(gate.type);
    QUEST_ASSERT(arity >= 1 && arity <= 3 &&
                     out.size() >= (size_t{1} << (2 * arity)),
                 "gateUnitary: ", out.size(), " entries for arity ",
                 arity);
    switch (arity) {
      case 1:
        QUEST_ASSERT(gate.type != GateType::Measure &&
                     gate.type != GateType::Barrier,
                     "pseudo-op has no unitary");
        return oneQubitUnitary(gate, out.data());
      case 2:
        return twoQubitUnitary(gate, out.data());
      default: {
        QUEST_ASSERT(gate.type == GateType::CCX, "unexpected 3q gate");
        Entries m(out.data(), 8, true);
        m(6, 6) = 0; m(7, 7) = 0;
        m(6, 7) = 1; m(7, 6) = 1;
        return;
      }
    }
}

Matrix
gateMatrix(const Gate &gate)
{
    const size_t dim = size_t{1} << gateArity(gate.type);
    Matrix m(dim, dim);
    gateUnitary(gate, m.data());
    return m;
}

} // namespace quest
