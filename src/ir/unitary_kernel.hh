/**
 * @file
 * The slab kernel behind every dense circuit unitary: circuitUnitary
 * (block unitaries), buildUnitary and its pooled slab build
 * (sim/unitary_builder.hh).
 *
 * A k-qubit gate left-multiplies the unitary, mixing the rows whose
 * indices differ only in the gate's wire bits. Column j of U is
 * U|j>, so any block of columns can be built on its own, and every
 * element's arithmetic is the same whatever the block boundaries.
 * A build splits the columns into slabs of at most kSlabColumns.
 *
 * Slab planes. A slab is held as two planes, real and imaginary
 * parts apart, each 2^n rows of `stride` doubles: the slab's width
 * rounded up to 8, so every row starts on a 64-byte line and holds a
 * whole number of registers of any width up to eight doubles. The
 * padding columns start at +0 and stay +0. One-qubit gates update row
 * pairs in place, CX swaps rows, and every other gate gathers its
 * rows and recombines them; each body steps along a row a register
 * at a time, so it runs across the slab's columns. The finished
 * planes are interleaved into the slab's columns of the matrix.
 *
 * Dispatch. The bodies are compiled three times (portable C++, AVX2,
 * AVX-512) from one template on the vector-ops policies of
 * util/vector_ops.hh, the ones the instantiation evaluators use, and
 * util::activeSimdIsa() picks the table once per process under the
 * same QUEST_SIMD override.
 *
 * Bit identity. Each new element starts at +0 and adds g(r,c) * x_c
 * for every nonzero g(r,c) in increasing c, each product written as
 * (ac - bd, ad + bc) with separate mul, add and sub: what
 * std::complex's operator* computes for finite operands, and the
 * arithmetic the golden unitary digests pin. Every operation is
 * lane-wise and exactly rounded, and the kernel units are compiled
 * with -ffp-contract=off, so no ISA and no -march can change a bit.
 * The CX swap equals that arithmetic (0 + 1 * x == x) because the
 * working rows never hold -0 or a non-finite value: they start as
 * identity columns, and a sum that cancels rounds to +0.
 */

#ifndef QUEST_IR_UNITARY_KERNEL_HH
#define QUEST_IR_UNITARY_KERNEL_HH

#include <array>
#include <cstddef>
#include <vector>

#include "ir/circuit.hh"
#include "linalg/matrix.hh"
#include "util/cpu.hh"

namespace quest {

/**
 * Columns per slab. An 8-qubit slab is then 128 KiB and stays in one
 * core's L2 while every gate passes over it; a unitary narrower than
 * a slab is one slab of its own width.
 */
inline constexpr size_t kSlabColumns = 32;

/** Arity of the widest gate (CCX). */
inline constexpr size_t kMaxArity = 3;
inline constexpr size_t kMaxSubDim = size_t{1} << kMaxArity;

/**
 * A gate that is neither one-qubit nor CX, prepared for the slab
 * kernel: new row r of each group = sum over its terms, in increasing
 * column order, of coef * old row col.
 */
struct MixGate
{
    struct Term
    {
        size_t col;
        double re, im;
    };
    size_t subDim = 0;                           //!< 2^k
    size_t mask = 0;                             //!< the gate's row bits
    std::array<size_t, kMaxSubDim> offsets{};    //!< row of sub-index s
    std::array<size_t, kMaxSubDim> termCount{};  //!< nonzeros of row r
    std::array<std::array<Term, kMaxSubDim>, kMaxSubDim> terms{};
};

/**
 * One ISA's slab kernels. Every body takes the unitary's dimension,
 * the plane stride and the two planes (see the file comment).
 */
struct SlabKernelSet
{
    /** One-qubit gate on row bit @p bit, indexed by its nonzero
     *  pattern: bit i set when g[i] of the row-major 2x2 is nonzero.
     *  @p g holds the four entries as (re, im) pairs. */
    using PairFn = void (*)(size_t dim, size_t stride, double *re,
                            double *im, size_t bit, const double *g);
    std::array<PairFn, 16> pair;

    /** CX: rows with the control bit set swap with their
     *  target-flipped partner. */
    void (*swap)(size_t dim, size_t stride, double *re, double *im,
                 size_t control, size_t target);

    /** Any other gate. */
    void (*mix)(size_t dim, size_t stride, double *re, double *im,
                const MixGate &gate);
};

/**
 * The slab kernels for @p isa, or nullptr when that ISA was compiled
 * out or the host lacks it. Test hook: the parity suite runs every
 * available table against the portable one.
 */
const SlabKernelSet *slabKernelsForIsa(util::SimdIsa isa);

/**
 * A circuit prepared for the slab kernel: each gate's wire bits and
 * nonzero coefficients, computed once per build and shared by every
 * slab. Barrier and Measure are dropped.
 */
class UnitaryPlan
{
  public:
    explicit UnitaryPlan(const Circuit &circuit);

    size_t dim() const { return dimension; }

    /** Slabs per unitary: 2^n / kSlabColumns, and at least one. */
    size_t slabCount() const;

    /**
     * Build slab @p s (columns [s * kSlabColumns, ...)) into those
     * columns of @p u, a dim() x dim() matrix, on the dispatched
     * kernels. @p planes is scratch, grown as needed: a caller that
     * builds several slabs passes the same vector.
     */
    void buildSlab(size_t s, Matrix &u, std::vector<double> &planes) const;

    /** The whole unitary, slab after slab on the calling thread. */
    Matrix unitary() const;

    /**
     * Columns [col0, col0 + width) into @p u on kernel table @p k:
     * buildSlab with any table and any column range (test hook).
     */
    void buildColumns(const SlabKernelSet &k, size_t col0, size_t width,
                      Matrix &u, std::vector<double> &planes) const;

  private:
    enum class Kind : unsigned char
    {
        Pair,
        Swap,
        Mix,
    };

    /** One gate: Pair reads bit, pattern and g; Swap reads bit (the
     *  control's) and target; Mix reads mixes[mix]. */
    struct Step
    {
        Kind kind;
        unsigned pattern = 0;
        size_t bit = 0;
        size_t target = 0;
        size_t mix = 0;
        std::array<double, 8> g{};
    };

    size_t dimension;
    std::vector<Step> steps;
    std::vector<MixGate> mixes;
};

} // namespace quest

#endif // QUEST_IR_UNITARY_KERNEL_HH
