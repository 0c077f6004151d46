/**
 * @file
 * The row kernel behind every dense circuit unitary: circuitUnitary
 * (block unitaries), buildUnitary and its pooled column-slab build
 * (sim/unitary_builder.hh).
 *
 * A k-qubit gate left-multiplies the unitary, mixing the rows whose
 * indices differ only in the gate's wire bits. Column j of U is
 * U|j>, so any block of columns can be built on its own, and every
 * element's arithmetic is the same whatever the block boundaries.
 *
 * Bit identity. Each new element starts at +0 and adds g(r,c) * x_c
 * for every nonzero g(r,c) in increasing c, each product written as
 * (ac - bd, ad + bc): what std::complex's operator* computes for
 * finite operands. One-qubit gates update row pairs in place, CX
 * swaps rows, and every other gate gathers its rows and recombines
 * them. The swap equals that arithmetic (0 + 1 * x == x) because the
 * working rows never hold -0 or a non-finite value: they start as
 * identity columns, and a sum that cancels rounds to +0.
 */

#ifndef QUEST_IR_UNITARY_KERNEL_HH
#define QUEST_IR_UNITARY_KERNEL_HH

#include <cstddef>

#include "ir/circuit.hh"
#include "linalg/matrix.hh"

namespace quest {

/**
 * Write columns [col0, col0 + width) of @p circuit's unitary into
 * @p out: 2^n rows of @p width entries each, row-major, so @p out
 * holds 2^n * width elements. Barrier and Measure are skipped. The
 * kernel allocates nothing beyond each gate's matrix.
 */
void unitaryColumns(const Circuit &circuit, size_t col0, size_t width,
                    Complex *out);

} // namespace quest

#endif // QUEST_IR_UNITARY_KERNEL_HH
