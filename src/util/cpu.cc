#include "util/cpu.hh"

#include <cstdlib>
#include <string>

namespace quest::util {

namespace {

/** Instruction-set extensions the host CPU advertises. */
struct CpuFeatures
{
    bool avx2 = false;
    bool avx512f = false;
};

/** The QUEST_SIMD environment variable (see activeSimdIsa). */
enum class SimdOverride
{
    None,
    Scalar,
    Avx2,
    Avx512,
};

/** On non-x86 targets (or compilers without __builtin_cpu_supports)
 *  every feature is false. */
CpuFeatures
probeCpu()
{
    CpuFeatures f;
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
    f.avx2 = __builtin_cpu_supports("avx2") != 0;
    f.avx512f = __builtin_cpu_supports("avx512f") != 0;
#endif
    return f;
}

SimdOverride
parseOverride()
{
    const char *raw = std::getenv("QUEST_SIMD");
    if (!raw)
        return SimdOverride::None;
    std::string v(raw);
    for (char &c : v)
        c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    if (v == "scalar" || v == "off" || v == "0" || v == "none")
        return SimdOverride::Scalar;
    if (v == "avx2")
        return SimdOverride::Avx2;
    if (v == "avx512" || v == "avx512f")
        return SimdOverride::Avx512;
    return SimdOverride::None;
}

const CpuFeatures &
cpuFeatures()
{
    static const CpuFeatures features = probeCpu();
    return features;
}

/** Widest available ISA, capped by the QUEST_SIMD override. */
SimdIsa
resolveIsa()
{
    switch (parseOverride()) {
      case SimdOverride::Scalar:
        return SimdIsa::Scalar;
      case SimdOverride::Avx2:
        return simdIsaAvailable(SimdIsa::Avx2) ? SimdIsa::Avx2
                                                : SimdIsa::Scalar;
      case SimdOverride::Avx512:
      case SimdOverride::None:
        break;
    }
    if (simdIsaAvailable(SimdIsa::Avx512))
        return SimdIsa::Avx512;
    if (simdIsaAvailable(SimdIsa::Avx2))
        return SimdIsa::Avx2;
    return SimdIsa::Scalar;
}

} // namespace

const char *
simdIsaName(SimdIsa isa)
{
    switch (isa) {
      case SimdIsa::Avx512:
        return "avx512";
      case SimdIsa::Avx2:
        return "avx2";
      case SimdIsa::Scalar:
        break;
    }
    return "scalar";
}

bool
simdIsaAvailable(SimdIsa isa)
{
    // The QUEST_SIMD_COMPILE_* macros are defined for this file
    // exactly when the kernel units of that ISA get their -m flags.
#if defined(QUEST_SIMD_COMPILE_AVX2)
    constexpr bool kAvx2Units = true;
#else
    constexpr bool kAvx2Units = false;
#endif
#if defined(QUEST_SIMD_COMPILE_AVX512)
    constexpr bool kAvx512Units = true;
#else
    constexpr bool kAvx512Units = false;
#endif
    switch (isa) {
      case SimdIsa::Avx512:
        return kAvx512Units && cpuFeatures().avx512f;
      case SimdIsa::Avx2:
        return kAvx2Units && cpuFeatures().avx2;
      case SimdIsa::Scalar:
        break;
    }
    return true;
}

SimdIsa
activeSimdIsa()
{
    static const SimdIsa isa = resolveIsa();
    return isa;
}

} // namespace quest::util
