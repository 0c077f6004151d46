/**
 * @file
 * Embedding of a k-qubit unitary into an n-qubit Hilbert space on an
 * arbitrary subset of wires (the U (x) I extension used by the
 * Sec. 3.8 bound and the unitary builder).
 */

#ifndef QUEST_LINALG_EMBED_HH
#define QUEST_LINALG_EMBED_HH

#include <initializer_list>
#include <span>

#include "linalg/matrix.hh"

namespace quest {

/**
 * Extend a 2^k x 2^k unitary acting on the given distinct qubits to
 * the full 2^n x 2^n space (identity on the remaining wires).
 *
 * @param u       the k-qubit unitary; qubits[i] is the circuit wire
 *                that the i-th (most significant) qubit of u acts on
 * @param qubits  circuit wires, each in [0, n)
 * @param n_qubits total number of circuit qubits
 */
Matrix embedUnitary(const Matrix &u, std::span<const int> qubits,
                    int n_qubits);

inline Matrix
embedUnitary(const Matrix &u, std::initializer_list<int> qubits,
             int n_qubits)
{
    return embedUnitary(u, std::span<const int>(qubits), n_qubits);
}

} // namespace quest

#endif // QUEST_LINALG_EMBED_HH
