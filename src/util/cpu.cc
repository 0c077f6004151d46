#include "util/cpu.hh"

#include <cstdlib>
#include <string>

namespace quest::util {

namespace {

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

} // namespace

const CpuFeatures &
cpuFeatures()
{
    static const CpuFeatures features = probeCpu();
    return features;
}

SimdOverride
simdOverride()
{
    static const SimdOverride value = parseOverride();
    return value;
}

} // namespace quest::util
