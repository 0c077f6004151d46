/**
 * @file
 * Dense embedding of a k-qubit unitary into an n-qubit space (the
 * U (x) I extension on an arbitrary wire subset): the textbook
 * reference the kernel, statevector and density-matrix tests compare
 * against. Builds the full 2^n x 2^n matrix, so it is meant for small
 * n only.
 */

#ifndef QUEST_TESTS_EMBED_REFERENCE_HH
#define QUEST_TESTS_EMBED_REFERENCE_HH

#include <initializer_list>
#include <span>
#include <vector>

#include "linalg/matrix.hh"
#include "util/logging.hh"

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
inline Matrix
embedUnitary(const Matrix &u, std::span<const int> qubits, int n_qubits)
{
    const size_t k = qubits.size();
    const size_t sub_dim = size_t{1} << k;
    const size_t dim = size_t{1} << n_qubits;
    QUEST_ASSERT(u.rows() == sub_dim && u.cols() == sub_dim,
                 "embedUnitary: unitary dim ", u.rows(),
                 " does not match qubit count ", k);
    for (int q : qubits) {
        QUEST_ASSERT(q >= 0 && q < n_qubits, "embedUnitary: bad wire ", q);
    }

    // Bit position (from LSB) of each of u's qubits in a full index.
    // Convention: qubit q is bit (n - 1 - q); u's qubit i is its bit
    // (k - 1 - i).
    std::vector<int> full_bit(k);
    for (size_t i = 0; i < k; ++i)
        full_bit[i] = n_qubits - 1 - qubits[i];

    auto sub_index = [&](size_t full) {
        size_t sub = 0;
        for (size_t i = 0; i < k; ++i) {
            size_t bit = (full >> full_bit[i]) & 1u;
            sub |= bit << (k - 1 - i);
        }
        return sub;
    };
    auto clear_sub_bits = [&](size_t full) {
        for (size_t i = 0; i < k; ++i)
            full &= ~(size_t{1} << full_bit[i]);
        return full;
    };
    auto compose = [&](size_t rest, size_t sub) {
        for (size_t i = 0; i < k; ++i) {
            size_t bit = (sub >> (k - 1 - i)) & 1u;
            rest |= bit << full_bit[i];
        }
        return rest;
    };

    Matrix result(dim, dim);
    for (size_t r = 0; r < dim; ++r) {
        size_t sr = sub_index(r);
        size_t rest = clear_sub_bits(r);
        for (size_t sc = 0; sc < sub_dim; ++sc) {
            Complex v = u(sr, sc);
            if (v == Complex(0.0, 0.0))
                continue;
            result(r, compose(rest, sc)) = v;
        }
    }
    return result;
}

inline Matrix
embedUnitary(const Matrix &u, std::initializer_list<int> qubits,
             int n_qubits)
{
    return embedUnitary(u, std::span<const int>(qubits), n_qubits);
}

} // namespace quest

#endif // QUEST_TESTS_EMBED_REFERENCE_HH
