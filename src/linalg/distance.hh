/**
 * @file
 * Hilbert-Schmidt process-distance metrics (Sec. 2 of the paper).
 */

#ifndef QUEST_LINALG_DISTANCE_HH
#define QUEST_LINALG_DISTANCE_HH

#include <span>

#include "linalg/matrix.hh"

namespace quest {

/** Hilbert-Schmidt inner product Tr(U-dagger V). */
Complex hsInnerProduct(const Matrix &u, const Matrix &v);

/**
 * Hilbert-Schmidt process distance:
 * sqrt(max(0, 1 - |Tr(U-dagger V)|^2 / N^2)).
 *
 * Global-phase invariant; 0 means the unitaries are equivalent, 1 is
 * the maximum distance. Both operands must be square N x N.
 */
double hsDistance(const Matrix &u, const Matrix &v);

/**
 * hsDistance(u, vs[k]) into out[k] for every k, bit for bit when the
 * entries are finite: each pair keeps hsInnerProduct's element order
 * and operations, and a pass over u serves several pairs with one
 * accumulator each, so their add chains overlap instead of running
 * one after another. Every vs[k] must have u's shape, and out must
 * hold vs.size() entries.
 */
void hsDistances(const Matrix &u, std::span<const Matrix> vs,
                 std::span<double> out);

/**
 * The same distance computed from a precomputed trace value and
 * dimension (used by the synthesis cost function, which evaluates the
 * trace incrementally).
 */
double hsDistanceFromTrace(Complex trace, size_t dim);

} // namespace quest

#endif // QUEST_LINALG_DISTANCE_HH
