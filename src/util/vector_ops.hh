/**
 * @file
 * The vector-ops policies every SIMD kernel body is templated on:
 * the instantiation evaluator's (synth/lane/lane_kernels_impl.hh)
 * and the dense-unitary slab kernels' (ir/unitary_kernel_impl.hh);
 * and fitAligned, the 64-byte plane base they load from.
 * Each kernel translation unit includes this under its own ISA flags
 * and gets the policies those flags allow:
 *
 *     VPair            always (portable C++)
 *     VSse2            x86-64 (SSE2 is its baseline)
 *     VAvx2            units compiled with -mavx2
 *     VAvx512          units compiled with -mavx512f
 *
 * A policy V provides:
 *     using Reg = ...;                   // one vector register
 *     static constexpr size_t width;     // lanes per register
 *     static Reg  load(const double *);  // unaligned
 *     static void store(double *, Reg);
 *     static Reg  set1(double);
 *     static Reg  zero();
 *     static Reg  add(Reg, Reg);
 *     static Reg  sub(Reg, Reg);
 *     static Reg  mul(Reg, Reg);
 * and reduceTraceT's register transpose:
 *     static void addColumns(Reg (&sums)[8 / width],
 *                            const Reg (&t)[8]);
 *                      // sum k += t[k][0], then t[k][1], ...
 *                      // t[k][width-1]
 * with sum k in lane k % width of register k / width. The vector
 * policies transpose t in registers (shuffles only move bits) so
 * that one lane-wise add per column feeds every sum, in the
 * reference's column order.
 *
 * Every operation is lane-wise and exactly rounded, so a body gives
 * the same bits under every policy, provided no multiply-add is
 * contracted into an FMA: kernel units are compiled with
 * -ffp-contract=off, and the policies spell mul, add and sub as
 * separate intrinsics.
 *
 * The policies live in an anonymous namespace: every kernel unit
 * gets its own copy, so each instantiation has internal linkage and
 * a body compiled with -mavx512f can never be merged into, and then
 * run by, another unit's table.
 */

#ifndef QUEST_UTIL_VECTOR_OPS_HH
#define QUEST_UTIL_VECTOR_OPS_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#if defined(__SSE2__)
#include <immintrin.h>
#endif

namespace quest::simd {

/**
 * Point @p base at the first 64-byte-aligned element of @p v, growing
 * @p v so at least @p n doubles follow it. Returns true when @p v had
 * to grow. A 64-byte base keeps every vector load/store within one
 * cache line; vector<double>'s own data() is only 16-byte aligned.
 * Plain operator new throughout: the allocation-probe tests override
 * only the plain operators.
 */
inline bool
fitAligned(std::vector<double> &v, double *&base, size_t n)
{
    // +7 doubles of slack so the aligned base still has room.
    const bool grew = v.size() < n + 7;
    if (grew)
        v.resize(n + 7);
    auto addr = reinterpret_cast<uintptr_t>(v.data());
    base = v.data() + ((-addr & 63) / sizeof(double));
    return grew;
}

namespace {

/**
 * Two adjacent columns per step in plain C++: the portable policy of
 * the column-vectorized bodies. Both are loaded before either is
 * stored, which lets the compiler pack the pair into its native
 * 2-wide vectors (SSE2, NEON) where a one-double policy leaves it
 * unable to rule out aliasing between a row's source and
 * destination. The operations stay elementwise, so the values do not
 * change.
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

#if defined(__SSE2__)

struct VSse2
{
    using Reg = __m128d;
    static constexpr size_t width = 2;
    static Reg load(const double *p) { return _mm_loadu_pd(p); }
    static void store(double *p, Reg x) { _mm_storeu_pd(p, x); }
    static Reg set1(double x) { return _mm_set1_pd(x); }
    static Reg zero() { return _mm_setzero_pd(); }
    static Reg add(Reg a, Reg b) { return _mm_add_pd(a, b); }
    static Reg sub(Reg a, Reg b) { return _mm_sub_pd(a, b); }
    static Reg mul(Reg a, Reg b) { return _mm_mul_pd(a, b); }

    static void addColumns(Reg (&sums)[4], const Reg (&t)[8])
    {
        // 2x2 transposes: columns 0 and 1 of rows 2i, 2i+1.
        for (size_t i = 0; i < 4; ++i) {
            sums[i] = add(sums[i], _mm_unpacklo_pd(t[2 * i], t[2 * i + 1]));
            sums[i] = add(sums[i], _mm_unpackhi_pd(t[2 * i], t[2 * i + 1]));
        }
    }
};

#endif // __SSE2__

#if defined(__AVX2__)

struct VAvx2
{
    using Reg = __m256d;
    static constexpr size_t width = 4;
    static Reg load(const double *p) { return _mm256_loadu_pd(p); }
    static void store(double *p, Reg x) { _mm256_storeu_pd(p, x); }
    static Reg set1(double x) { return _mm256_set1_pd(x); }
    static Reg zero() { return _mm256_setzero_pd(); }
    static Reg add(Reg a, Reg b) { return _mm256_add_pd(a, b); }
    static Reg sub(Reg a, Reg b) { return _mm256_sub_pd(a, b); }
    static Reg mul(Reg a, Reg b) { return _mm256_mul_pd(a, b); }

    static void addColumns(Reg (&sums)[2], const Reg (&t)[8])
    {
        for (size_t i = 0; i < 2; ++i) {
            // 4x4 transpose of rows q[0..3]: the 128-bit half h of
            // lo (hi) holds column 2h (2h+1) of a row pair.
            const Reg *q = t + 4 * i;
            const Reg lo01 = _mm256_unpacklo_pd(q[0], q[1]);
            const Reg hi01 = _mm256_unpackhi_pd(q[0], q[1]);
            const Reg lo23 = _mm256_unpacklo_pd(q[2], q[3]);
            const Reg hi23 = _mm256_unpackhi_pd(q[2], q[3]);
            const Reg cols[4] = {_mm256_permute2f128_pd(lo01, lo23, 0x20),
                                 _mm256_permute2f128_pd(hi01, hi23, 0x20),
                                 _mm256_permute2f128_pd(lo01, lo23, 0x31),
                                 _mm256_permute2f128_pd(hi01, hi23, 0x31)};
            for (const Reg &col : cols)
                sums[i] = add(sums[i], col);
        }
    }
};

#endif // __AVX2__

#if defined(__AVX512F__)

struct VAvx512
{
    using Reg = __m512d;
    static constexpr size_t width = 8;
    static Reg load(const double *p) { return _mm512_loadu_pd(p); }
    static void store(double *p, Reg x) { _mm512_storeu_pd(p, x); }
    static Reg set1(double x) { return _mm512_set1_pd(x); }
    static Reg zero() { return _mm512_setzero_pd(); }
    static Reg add(Reg a, Reg b) { return _mm512_add_pd(a, b); }
    static Reg sub(Reg a, Reg b) { return _mm512_sub_pd(a, b); }
    static Reg mul(Reg a, Reg b) { return _mm512_mul_pd(a, b); }

    // The maskz_ forms with a full mask are the plain shuffles, spelled
    // without the _mm512_undefined_pd that GCC 12 flags under
    // -Wuninitialized.
    static constexpr __mmask8 kAll = 0xFF;
    /** 128-bit blocks 0 and 2 of x, then of y. */
    static Reg evenBlocks(Reg x, Reg y)
    {
        return _mm512_maskz_shuffle_f64x2(kAll, x, y, 0x88);
    }
    /** 128-bit blocks 1 and 3 of x, then of y. */
    static Reg oddBlocks(Reg x, Reg y)
    {
        return _mm512_maskz_shuffle_f64x2(kAll, x, y, 0xDD);
    }

    static void addColumns(Reg (&sums)[1], const Reg (&t)[8])
    {
        // 8x8 transpose. Block q of e[p] (o[p]) holds column 2q
        // (2q+1) of rows 2p, 2p+1.
        Reg e[4], o[4];
        for (size_t p = 0; p < 4; ++p) {
            e[p] = _mm512_maskz_unpacklo_pd(kAll, t[2 * p], t[2 * p + 1]);
            o[p] = _mm512_maskz_unpackhi_pd(kAll, t[2 * p], t[2 * p + 1]);
        }
        // Columns {0,4}, {1,5}, {2,6}, {3,7} of rows 0-3 (f), 4-7 (g).
        const Reg f04 = evenBlocks(e[0], e[1]), g04 = evenBlocks(e[2], e[3]);
        const Reg f15 = evenBlocks(o[0], o[1]), g15 = evenBlocks(o[2], o[3]);
        const Reg f26 = oddBlocks(e[0], e[1]), g26 = oddBlocks(e[2], e[3]);
        const Reg f37 = oddBlocks(o[0], o[1]), g37 = oddBlocks(o[2], o[3]);
        // Whole columns, added in column order.
        const Reg cols[8] = {evenBlocks(f04, g04), evenBlocks(f15, g15),
                             evenBlocks(f26, g26), evenBlocks(f37, g37),
                             oddBlocks(f04, g04),  oddBlocks(f15, g15),
                             oddBlocks(f26, g26),  oddBlocks(f37, g37)};
        for (const Reg &col : cols)
            sums[0] = add(sums[0], col);
    }
};

#endif // __AVX512F__

} // namespace

} // namespace quest::simd

#endif // QUEST_UTIL_VECTOR_OPS_HH
