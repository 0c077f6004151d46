#include "linalg/decompose.hh"

#include <algorithm>
#include <cmath>

#include "util/logging.hh"

namespace quest {

std::array<Complex, 4>
u3Entries(double theta, double phi, double lambda)
{
    double c = std::cos(theta / 2.0);
    double s = std::sin(theta / 2.0);
    Complex eil = std::polar(1.0, lambda);
    Complex eip = std::polar(1.0, phi);
    return {Complex(c, 0.0), -eil * s, eip * s, eip * eil * c};
}

Matrix
makeU3(double theta, double phi, double lambda)
{
    const std::array<Complex, 4> e = u3Entries(theta, phi, lambda);
    Matrix m(2, 2);
    std::copy(e.begin(), e.end(), m.data().begin());
    return m;
}

ZyzAngles
zyzDecompose(const Matrix &u)
{
    QUEST_ASSERT(u.rows() == 2 && u.cols() == 2,
                 "zyzDecompose needs a 2x2 matrix");

    const double mag00 = std::abs(u(0, 0));
    const double mag10 = std::abs(u(1, 0));
    ZyzAngles a{};
    a.theta = 2.0 * std::atan2(mag10, mag00);

    constexpr double eps = 1e-12;
    if (mag10 < eps) {
        // theta ~ 0: only phi + lambda is defined; put it all in phi.
        a.lambda = 0.0;
        a.phase = std::arg(u(0, 0));
        a.phi = std::arg(u(1, 1)) - a.phase;
    } else if (mag00 < eps) {
        // theta ~ pi: U01 = -e^{i(phase+lambda)}, U10 = e^{i(phase+phi)}.
        a.lambda = 0.0;
        a.phase = std::arg(-u(0, 1));
        a.phi = std::arg(u(1, 0)) - a.phase;
    } else {
        a.phase = std::arg(u(0, 0));
        a.phi = std::arg(u(1, 0)) - a.phase;
        a.lambda = std::arg(-u(0, 1)) - a.phase;
    }
    return a;
}

} // namespace quest
