/**
 * AVX-512 instantiation of the batched and one-lane kernel bodies:
 * one 8-wide __m512d register is the whole batch, and a one-lane row
 * of a dim >= 8 block is processed 8 columns at a time (narrower
 * rows use the 2- and 4-wide registers). Compiled with
 * -mavx512f -ffp-contract=off (see src/synth/CMakeLists.txt); the
 * QUEST_BATCH_COMPILE_AVX512 macro is only defined when those flags
 * are in effect.
 *
 * Separate mul/add/sub intrinsics, never _mm512_fmadd_pd: each
 * element must round exactly like the scalar kernels' uncontracted
 * arithmetic.
 */

#include "synth/batch/batch_kernels_tables.hh"

#if defined(QUEST_BATCH_COMPILE_AVX512)

#include <immintrin.h>

#include "synth/batch/batch_kernels_impl.hh"
#include "synth/batch/batch_kernels_x86.hh"

namespace quest::kern::batch {

namespace {

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

} // namespace

const BatchKernelSet *
avx512BatchKernelsFor(size_t dim)
{
    return &impl::tableForDim<VAvx512>(dim);
}

const OneLaneKernelSet *
avx512OneLaneKernelsFor(size_t dim)
{
    return &impl::laneTableForDim<VSse2, VAvx2, VAvx512>(dim);
}

} // namespace quest::kern::batch

#else // !QUEST_BATCH_COMPILE_AVX512

namespace quest::kern::batch {

const BatchKernelSet *
avx512BatchKernelsFor(size_t)
{
    return nullptr;
}

const OneLaneKernelSet *
avx512OneLaneKernelsFor(size_t)
{
    return nullptr;
}

} // namespace quest::kern::batch

#endif
