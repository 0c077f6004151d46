/**
 * Portable instantiation of the batched and one-lane kernel bodies:
 * the no-SIMD build's only tables and the fallback on hosts without
 * AVX2. Compiled with -ffp-contract=off like the SIMD units so a
 * toolchain that enables FMA globally cannot contract the complex
 * mul/add chains and break cross-engine bit-identity.
 */

#include "synth/batch/batch_kernels_impl.hh"
#include "synth/batch/batch_kernels_tables.hh"

namespace quest::kern::batch {

namespace {

struct VScalar
{
    using Reg = double;
    static constexpr size_t width = 1;
    static double load(const double *p) { return *p; }
    static void store(double *p, double x) { *p = x; }
    static double set1(double x) { return x; }
    static double zero() { return 0.0; }
    static double add(double a, double b) { return a + b; }
    static double sub(double a, double b) { return a - b; }
    static double mul(double a, double b) { return a * b; }
};

/**
 * Two adjacent columns per step in plain C++, for the one-lane
 * bodies. Both are loaded before either is stored, which lets the
 * compiler pack the pair into its native 2-wide vectors (SSE2,
 * NEON) where a one-double policy leaves it unable to rule out
 * aliasing between a row's source and destination. The operations
 * stay elementwise, so the values do not change.
 */
struct VPair
{
    struct Reg
    {
        double a, b;
    };
    static constexpr size_t width = 2;
    static Reg load(const double *p) { return {p[0], p[1]}; }
    static void store(double *p, Reg x)
    {
        p[0] = x.a;
        p[1] = x.b;
    }
    static Reg set1(double x) { return {x, x}; }
    static Reg zero() { return {0.0, 0.0}; }
    static Reg add(Reg x, Reg y) { return {x.a + y.a, x.b + y.b}; }
    static Reg sub(Reg x, Reg y) { return {x.a - y.a, x.b - y.b}; }
    static Reg mul(Reg x, Reg y) { return {x.a * y.a, x.b * y.b}; }

    static void addColumns(Reg (&sums)[4], const Reg (&t)[8])
    {
        // Sum 2i is sums[i].a, sum 2i+1 sums[i].b.
        for (size_t i = 0; i < 4; ++i) {
            sums[i].a += t[2 * i].a;
            sums[i].b += t[2 * i + 1].a;
        }
        for (size_t i = 0; i < 4; ++i) {
            sums[i].a += t[2 * i].b;
            sums[i].b += t[2 * i + 1].b;
        }
    }
};

} // namespace

const BatchKernelSet &
scalarBatchKernelsFor(size_t dim)
{
    return impl::tableForDim<VScalar>(dim);
}

const OneLaneKernelSet &
scalarOneLaneKernelsFor(size_t dim)
{
    return impl::laneTableForDim<VPair, VPair, VPair>(dim);
}

} // namespace quest::kern::batch
