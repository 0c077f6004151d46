/**
 * @file
 * Internal linkage between the per-ISA kernel translation units and
 * the dispatcher (lane_kernels.cc). Not part of the public API.
 */

#ifndef QUEST_SYNTH_LANE_LANE_KERNELS_TABLES_HH
#define QUEST_SYNTH_LANE_LANE_KERNELS_TABLES_HH

#include "synth/lane/lane_kernels.hh"

namespace quest::kern::lane {

/** Portable scalar table; always available. */
const OneLaneKernelSet &scalarOneLaneKernelsFor(size_t dim);

/** AVX2 table, or nullptr when compiled out (QUEST_SIMD=OFF or a
 *  non-x86 target). */
const OneLaneKernelSet *avx2OneLaneKernelsFor(size_t dim);

/** AVX-512 table, or nullptr when compiled out. */
const OneLaneKernelSet *avx512OneLaneKernelsFor(size_t dim);

} // namespace quest::kern::lane

#endif // QUEST_SYNTH_LANE_LANE_KERNELS_TABLES_HH
