/**
 * @file
 * Internal linkage between the per-ISA kernel translation units and
 * the dispatcher (batch_kernels.cc). Not part of the public API.
 */

#ifndef QUEST_SYNTH_BATCH_BATCH_KERNELS_TABLES_HH
#define QUEST_SYNTH_BATCH_BATCH_KERNELS_TABLES_HH

#include "synth/batch/batch_kernels.hh"

namespace quest::kern::batch {

/** Portable scalar tables; always available. */
const BatchKernelSet &scalarBatchKernelsFor(size_t dim);
const OneLaneKernelSet &scalarOneLaneKernelsFor(size_t dim);

/** AVX2 tables, or nullptr when compiled out (QUEST_SIMD=OFF or a
 *  non-x86 target). */
const BatchKernelSet *avx2BatchKernelsFor(size_t dim);
const OneLaneKernelSet *avx2OneLaneKernelsFor(size_t dim);

/** AVX-512 tables, or nullptr when compiled out. */
const BatchKernelSet *avx512BatchKernelsFor(size_t dim);
const OneLaneKernelSet *avx512OneLaneKernelsFor(size_t dim);

} // namespace quest::kern::batch

#endif // QUEST_SYNTH_BATCH_BATCH_KERNELS_TABLES_HH
