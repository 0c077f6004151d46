/**
 * @file
 * The 128- and 256-bit vector-ops policies (see batch_kernels_impl.hh)
 * shared by the AVX2 and AVX-512 kernel translation units, each of
 * which includes this under its own ISA flags. The anonymous
 * namespace gives every instantiation internal linkage, so the two
 * units' copies never merge.
 */

#ifndef QUEST_SYNTH_BATCH_BATCH_KERNELS_X86_HH
#define QUEST_SYNTH_BATCH_BATCH_KERNELS_X86_HH

#include <immintrin.h>

#include <cstddef>

namespace quest::kern::batch {

namespace {

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

} // namespace

} // namespace quest::kern::batch

#endif // QUEST_SYNTH_BATCH_BATCH_KERNELS_X86_HH
