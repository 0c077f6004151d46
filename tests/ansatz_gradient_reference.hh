/**
 * @file
 * Dense reference for an ansatz unitary and its partial derivatives,
 * built from circuitUnitary and embedded U3 derivatives: the
 * independent check that HsCost's trace-reduction value and gradient
 * are compared against. Builds full 2^n x 2^n matrices per parameter,
 * so it is meant for small n only.
 */

#ifndef QUEST_TESTS_ANSATZ_GRADIENT_REFERENCE_HH
#define QUEST_TESTS_ANSATZ_GRADIENT_REFERENCE_HH

#include <vector>

#include "embed_reference.hh"
#include "ir/circuit.hh"
#include "linalg/matrix.hh"
#include "synth/ansatz.hh"
#include "u3_reference.hh"

namespace quest {

/**
 * The ansatz unitary and its partial derivative with respect to every
 * parameter: for the U3 at gate j on wire q,
 * dA/dp = U(gates after j) * embed(dU3/dp, q) * U(gates before j).
 */
inline void
denseUnitaryAndGradient(const Ansatz &a, const std::vector<double> &params,
                        Matrix &u, std::vector<Matrix> &grads)
{
    const int n = a.numQubits();
    const Circuit c = a.instantiate(params);
    u = circuitUnitary(c);
    grads.clear();
    for (size_t j = 0; j < c.size(); ++j) {
        const Gate &g = c[j];
        if (g.type != GateType::U3)
            continue;
        Circuit before(n), after(n);
        for (size_t i = 0; i < j; ++i)
            before.append(c[i]);
        for (size_t i = j + 1; i < c.size(); ++i)
            after.append(c[i]);
        const Matrix pre = circuitUnitary(before);
        const Matrix post = circuitUnitary(after);
        for (int which = 0; which < 3; ++which) {
            const Matrix d = u3Derivative(g.params[0], g.params[1],
                                          g.params[2], which);
            grads.push_back(post * embedUnitary(d, g.qubits, n) * pre);
        }
    }
}

} // namespace quest

#endif // QUEST_TESTS_ANSATZ_GRADIENT_REFERENCE_HH
