/**
 * @file
 * The one SIMD dispatch: a one-time host CPU feature probe and the
 * QUEST_SIMD runtime override, resolved to the ISA every SIMD kernel
 * table runs on. The instantiation evaluator
 * (synth/lane/lane_kernels.hh) and the dense-unitary slab kernels
 * (ir/unitary_kernel.hh) both dispatch on activeSimdIsa(), so one
 * process never mixes ISAs.
 *
 * Both probes run exactly once per process and cache their answer:
 * the CPUID read and the getenv() call are process-invariant, so the
 * dispatch they feed is deterministic for the lifetime of the run.
 * This file is on the static-analysis determinism allowlist for that
 * reason (docs/ANALYSIS.md) — keep any further environment reads
 * here, not in the synthesis layers.
 */

#ifndef QUEST_UTIL_CPU_HH
#define QUEST_UTIL_CPU_HH

namespace quest::util {

/** Which kernel implementation a table was compiled for. */
enum class SimdIsa
{
    Scalar,
    Avx2,
    Avx512,
};

/** Human-readable ISA name ("scalar" / "avx2" / "avx512"). */
const char *simdIsaName(SimdIsa isa);

/**
 * Whether @p isa's kernel units were compiled into this build (the
 * QUEST_SIMD CMake option, an x86-64 target and a compiler that takes
 * the -m flag; src/CMakeLists.txt) and the host runs them. The
 * portable kernels are always available.
 */
bool simdIsaAvailable(SimdIsa isa);

/**
 * The ISA the process-wide dispatch resolved to: the widest
 * available one, capped by the QUEST_SIMD environment variable, read
 * once:
 *
 *   scalar  — the portable kernels (no vector ISA) for every table;
 *             off, 0 and none mean the same
 *   avx2    — cap the dispatch at AVX2
 *   avx512  — request AVX-512 (falls back if the host lacks it)
 *
 * Unset or unrecognized values cap nothing. Cached after the first
 * call.
 */
SimdIsa activeSimdIsa();

} // namespace quest::util

#endif // QUEST_UTIL_CPU_HH
