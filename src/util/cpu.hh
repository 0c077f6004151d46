/**
 * @file
 * One-time host CPU feature probe and the QUEST_SIMD runtime
 * override, backing the ISA dispatch of both instantiation
 * evaluators' kernel tables, batched and one-lane
 * (synth/batch/batch_kernels.hh).
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

/** Instruction-set extensions the host CPU advertises. */
struct CpuFeatures
{
    bool avx2 = false;
    bool avx512f = false;
};

/** The host's features, probed once and cached. On non-x86 targets
 *  (or compilers without __builtin_cpu_supports) everything is
 *  false. */
const CpuFeatures &cpuFeatures();

/**
 * Parsed value of the QUEST_SIMD environment variable, read once.
 *
 *   scalar  — the portable scalar kernels (no vector ISA) for both
 *             evaluators; off, 0 and none mean the same
 *   avx2    — cap the dispatch at AVX2
 *   avx512  — request AVX-512 (falls back if the host lacks it)
 *
 * Unset or unrecognized values mean None: dispatch on cpuFeatures().
 */
enum class SimdOverride
{
    None,
    Scalar,
    Avx2,
    Avx512,
};

/** The cached QUEST_SIMD override (None when unset/unrecognized). */
SimdOverride simdOverride();

} // namespace quest::util

#endif // QUEST_UTIL_CPU_HH
