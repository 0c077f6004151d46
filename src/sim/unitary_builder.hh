/**
 * @file
 * Full-circuit unitary construction for ground-truth unitaries and
 * the Full-mode certify (the Fig. 7 bound validation).
 *
 * Gates are applied in place to the rows of identity columns by the
 * slab kernel of ir/unitary_kernel.hh, O(2^k N^2) per k-qubit gate,
 * giving the same bytes as circuitUnitary. Both overloads build the
 * columns in 32-column slabs, each in private split re/im planes;
 * the pooled one hands the slabs to the pool's threads. Every column
 * is built on its own, so the result is bit-identical to the serial
 * build for any thread count.
 */

#ifndef QUEST_SIM_UNITARY_BUILDER_HH
#define QUEST_SIM_UNITARY_BUILDER_HH

#include "ir/circuit.hh"
#include "linalg/matrix.hh"

namespace quest {

class ThreadPool;

/**
 * Compute the unitary of a circuit (measurements ignored). Panics
 * above 14 qubits — the dense matrix would not fit in memory.
 */
Matrix buildUnitary(const Circuit &circuit);

/**
 * buildUnitary on @p pool's threads (null: serial). From 6 qubits up
 * (two slabs or more), the slabs are claimed through the pool's
 * cooperative parallelFor, so the caller builds them all itself when
 * the workers are busy. Beside the result it holds at most
 * pool->size() + 1 slab buffers, each 32 / 2^n of a matrix (an
 * eighth at 8 qubits, a 512th at 14).
 */
Matrix buildUnitary(const Circuit &circuit, ThreadPool *pool);

} // namespace quest

#endif // QUEST_SIM_UNITARY_BUILDER_HH
