/**
 * @file
 * The U3 parameter derivatives, each written out on its own from the
 * U3 matrix: the independent reference for u3WithDerivatives
 * (synth/ansatz.hh) and for the tests' dense gradient.
 */

#ifndef QUEST_TESTS_U3_REFERENCE_HH
#define QUEST_TESTS_U3_REFERENCE_HH

#include <cmath>
#include <complex>

#include "linalg/matrix.hh"
#include "util/logging.hh"

namespace quest {

/**
 * Partial derivative of the U3 matrix with respect to parameter
 * @p which (0 theta, 1 phi, 2 lambda).
 */
inline Matrix
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

} // namespace quest

#endif // QUEST_TESTS_U3_REFERENCE_HH
