#include "ir/unitary_kernel.hh"

#include <algorithm>

#include "ir/unitary_kernel_impl.hh"
#include "util/logging.hh"
#include "util/vector_ops.hh"

namespace quest {

namespace {

/** Plane rows are padded to a multiple of this many doubles: one
 *  64-byte line, and a whole number of registers of every policy. */
constexpr size_t kRowQuantum = 8;

/** The table util::activeSimdIsa() selected, resolved once. */
const SlabKernelSet &
dispatchedKernels()
{
    static const SlabKernelSet *const k =
        slabKernelsForIsa(util::activeSimdIsa());
    QUEST_ASSERT(k != nullptr, "dispatched slab kernels missing");
    return *k;
}

} // namespace

const SlabKernelSet *
slabKernelsForIsa(util::SimdIsa isa)
{
    if (!util::simdIsaAvailable(isa))
        return nullptr;
    switch (isa) {
      case util::SimdIsa::Avx512:
        return slab::avx512Kernels();
      case util::SimdIsa::Avx2:
        return slab::avx2Kernels();
      case util::SimdIsa::Scalar:
        break;
    }
    return &slab::portableKernels();
}

UnitaryPlan::UnitaryPlan(const Circuit &circuit)
    : dimension(size_t{1} << circuit.numQubits())
{
    const int n = circuit.numQubits();
    auto row_bit = [n](int q) { return size_t{1} << (n - 1 - q); };
    steps.reserve(circuit.size());
    for (const Gate &g : circuit) {
        if (g.type == GateType::Barrier || g.type == GateType::Measure)
            continue;
        Step step;
        if (g.type == GateType::CX) {
            step.kind = Kind::Swap;
            step.bit = row_bit(g.qubits[0]);
            step.target = row_bit(g.qubits[1]);
            steps.push_back(step);
            continue;
        }
        const size_t k = g.qubits.size();
        if (k == 1) {
            std::array<Complex, 4> m;
            gateUnitary(g, m);
            step.kind = Kind::Pair;
            step.bit = row_bit(g.qubits[0]);
            for (unsigned i = 0; i < 4; ++i) {
                const Complex c = m[i];
                step.g[2 * i] = c.real();
                step.g[2 * i + 1] = c.imag();
                if (c != Complex(0.0, 0.0))
                    step.pattern |= 1u << i;
            }
            steps.push_back(step);
            continue;
        }
        QUEST_ASSERT(k <= kMaxArity, "gate on ", k, " wires");
        std::array<Complex, kMaxSubDim * kMaxSubDim> entries;
        gateUnitary(g, entries);
        MixGate mix;
        mix.subDim = size_t{1} << k;
        const auto m = [&](size_t r, size_t c) {
            return entries[r * mix.subDim + c];
        };
        for (size_t i = 0; i < k; ++i) {
            const size_t bit = row_bit(g.qubits[i]);
            mix.mask |= bit;
            for (size_t sub = 0; sub < mix.subDim; ++sub)
                if ((sub >> (k - 1 - i)) & 1u)
                    mix.offsets[sub] |= bit;
        }
        for (size_t r = 0; r < mix.subDim; ++r)
            for (size_t c = 0; c < mix.subDim; ++c)
                if (m(r, c) != Complex(0.0, 0.0))
                    mix.terms[r][mix.termCount[r]++] = {c, m(r, c).real(),
                                                        m(r, c).imag()};
        step.kind = Kind::Mix;
        step.mix = mixes.size();
        mixes.push_back(mix);
        steps.push_back(step);
    }
}

size_t
UnitaryPlan::slabCount() const
{
    return std::max<size_t>(1, dimension / kSlabColumns);
}

void
UnitaryPlan::buildSlab(size_t s, Matrix &u, std::vector<double> &planes) const
{
    const size_t width = std::min(dimension, kSlabColumns);
    buildColumns(dispatchedKernels(), s * width, width, u, planes);
}

Matrix
UnitaryPlan::unitary() const
{
    Matrix u(dimension, dimension);
    std::vector<double> planes;
    for (size_t s = 0; s < slabCount(); ++s)
        buildSlab(s, u, planes);
    return u;
}

void
UnitaryPlan::buildColumns(const SlabKernelSet &k, size_t col0,
                          size_t width, Matrix &u,
                          std::vector<double> &planes) const
{
    const size_t dim = dimension;
    QUEST_ASSERT(col0 + width <= dim, "columns [", col0, ", ",
                 col0 + width, ") outside a ", dim, "-column unitary");
    QUEST_ASSERT(u.rows() == dim && u.cols() == dim,
                 "output is not ", dim, " x ", dim);
    const size_t stride = (width + kRowQuantum - 1) / kRowQuantum *
                          kRowQuantum;
    double *re = nullptr;
    simd::fitAligned(planes, re, 2 * dim * stride);
    double *im = re + dim * stride;
    std::fill(re, re + 2 * dim * stride, 0.0);
    for (size_t j = 0; j < width; ++j)
        re[(col0 + j) * stride + j] = 1.0;

    for (const Step &step : steps) {
        switch (step.kind) {
          case Kind::Pair:
            k.pair[step.pattern](dim, stride, re, im, step.bit,
                                 step.g.data());
            break;
          case Kind::Swap:
            k.swap(dim, stride, re, im, step.bit, step.target);
            break;
          case Kind::Mix:
            k.mix(dim, stride, re, im, mixes[step.mix]);
            break;
        }
    }

    Complex *out = u.data().data() + col0;
    for (size_t r = 0; r < dim; ++r)
        for (size_t j = 0; j < width; ++j)
            out[r * dim + j] = Complex(re[r * stride + j], im[r * stride + j]);
}

} // namespace quest
