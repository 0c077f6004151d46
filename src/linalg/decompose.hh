/**
 * @file
 * One-qubit unitary decomposition (ZYZ / U3 angles).
 *
 * Used by the baseline optimizer's single-qubit fusion pass and by
 * synthesis when collapsing adjacent rotation gates.
 */

#ifndef QUEST_LINALG_DECOMPOSE_HH
#define QUEST_LINALG_DECOMPOSE_HH

#include <array>

#include "linalg/matrix.hh"

namespace quest {

/** Result of decomposing a 2x2 unitary: U = e^{i phase} U3(...). */
struct ZyzAngles
{
    double theta;
    double phi;
    double lambda;
    double phase;
};

/**
 * The standard U3 gate matrix:
 *   [[cos(t/2),            -e^{i l} sin(t/2)],
 *    [e^{i p} sin(t/2),  e^{i(p+l)} cos(t/2)]].
 */
Matrix makeU3(double theta, double phi, double lambda);

/** makeU3()'s entries, row-major, without a heap Matrix. */
std::array<Complex, 4> u3Entries(double theta, double phi,
                                 double lambda);

/**
 * Decompose an arbitrary 2x2 unitary into U3 angles plus a global
 * phase. The reconstruction e^{i phase} * makeU3(...) matches the
 * input elementwise to ~1e-12 for unitary input.
 */
ZyzAngles zyzDecompose(const Matrix &u);

} // namespace quest

#endif // QUEST_LINALG_DECOMPOSE_HH
