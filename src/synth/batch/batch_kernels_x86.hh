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
};

} // namespace

} // namespace quest::kern::batch

#endif // QUEST_SYNTH_BATCH_BATCH_KERNELS_X86_HH
