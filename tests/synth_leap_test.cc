/**
 * @file
 * LEAP synthesizer tests. Synthesis settings are kept lean so the
 * suite stays fast; quality assertions are correspondingly loose.
 * A fake cache hook feeds synthesize() loaded outputs that must fail
 * its deep validation.
 */

#include <gtest/gtest.h>

#include <functional>
#include <limits>
#include <numbers>
#include <optional>
#include <string>
#include <vector>

#include "algos/algorithms.hh"
#include "cache/codec.hh"
#include "ir/circuit.hh"
#include "ir/lower.hh"
#include "ir/qasm.hh"
#include "linalg/decompose.hh"
#include "linalg/distance.hh"
#include "obs/metrics.hh"
#include "synth/instantiater.hh"
#include "synth/leap_synthesizer.hh"
#include "synth/synth_cache.hh"
#include "util/names.hh"
#include "util/rng.hh"

namespace quest {
namespace {

constexpr double pi = std::numbers::pi;

SynthConfig
leanConfig()
{
    SynthConfig cfg;
    cfg.beamWidth = 1;
    cfg.inst.multistarts = 2;
    cfg.inst.lbfgs.maxIterations = 250;
    cfg.candidatesPerLevel = 4;
    cfg.maxLayers = 8;
    return cfg;
}

TEST(Instantiater, RecoversKnownAnsatzParams)
{
    Rng rng(1);
    Ansatz a = Ansatz::initialLayer(2);
    a.addLayer(0, 1);
    std::vector<double> truth(a.paramCount());
    for (double &v : truth)
        v = rng.uniform(-pi, pi);
    Matrix target = circuitUnitary(a.instantiate(truth));

    InstantiaterOptions opts;
    opts.multistarts = 4;
    InstantiationResult r = instantiate(target, a, rng, opts);
    EXPECT_LT(r.distance, 1e-4);
}

TEST(Instantiater, WarmStartAtOptimumStays)
{
    Rng rng(3);
    Ansatz a = Ansatz::initialLayer(2);
    std::vector<double> truth(a.paramCount());
    for (double &v : truth)
        v = rng.uniform(-pi, pi);
    Matrix target = circuitUnitary(a.instantiate(truth));

    InstantiaterOptions opts;
    opts.multistarts = 1;
    InstantiationResult r = instantiate(target, a, rng, opts, truth);
    EXPECT_LT(r.distance, 1e-6);
}

TEST(Leap, OneQubitTargetIsAnalytic)
{
    Matrix h = gateMatrix(Gate::h(0));
    LeapSynthesizer synth(leanConfig());
    SynthOutput out = synth.synthesize(h, 4);
    ASSERT_EQ(out.candidates.size(), 1u);
    EXPECT_EQ(out.best().cnotCount, 0);
    EXPECT_NEAR(out.best().distance, 0.0, 1e-7);
    EXPECT_NEAR(hsDistance(circuitUnitary(out.best().circuit), h), 0.0,
                1e-7);
}

TEST(Leap, ProductTargetNeedsNoCnots)
{
    Rng rng(5);
    Matrix u = kron(makeU3(0.3, 0.2, -0.4), makeU3(1.1, -0.7, 0.5));
    LeapSynthesizer synth(leanConfig());
    SynthOutput out = synth.synthesize(u, 4);
    const SynthCandidate &level0 = out.candidates.front();
    EXPECT_EQ(level0.cnotCount, 0);
    EXPECT_LT(level0.distance, 1e-4);
}

TEST(Leap, CnotTargetSynthesizesExactly)
{
    Matrix cx = gateMatrix(Gate::cx(0, 1));
    SynthConfig cfg = leanConfig();
    cfg.inst.multistarts = 4;
    LeapSynthesizer synth(cfg);
    SynthCandidate best = synth.synthesizeExact(cx, 1e-4, 3);
    EXPECT_LE(best.cnotCount, 1);
    EXPECT_LT(best.distance, 1e-4);
}

TEST(Leap, TwoQubitCircuitRoundTrip)
{
    // Synthesize the unitary of a small native circuit and verify
    // the result's unitary distance directly.
    Circuit c = lowerToNative(algos::tfim(2, 2));
    Matrix target = circuitUnitary(c);
    SynthConfig cfg = leanConfig();
    cfg.inst.multistarts = 4;
    LeapSynthesizer synth(cfg);
    SynthOutput out = synth.synthesize(target,
                                       static_cast<int>(c.cnotCount()));

    const SynthCandidate &best = out.best();
    EXPECT_LT(best.distance, 1e-3);
    EXPECT_LE(best.cnotCount, 3);  // any 2q unitary needs at most 3
    EXPECT_NEAR(hsDistance(circuitUnitary(best.circuit), target),
                best.distance, 1e-6);
}

TEST(Leap, CandidateMetadataIsConsistent)
{
    Circuit c = lowerToNative(algos::tfim(3, 2));
    Matrix target = circuitUnitary(c);
    LeapSynthesizer synth(leanConfig());
    SynthOutput out = synth.synthesize(target, 6);

    ASSERT_FALSE(out.candidates.empty());
    int last_cnots = -1;
    for (const SynthCandidate &cand : out.candidates) {
        EXPECT_GE(cand.cnotCount, last_cnots);  // sorted by level
        last_cnots = cand.cnotCount;
        EXPECT_EQ(cand.circuit.cnotCount(),
                  static_cast<size_t>(cand.cnotCount));
        EXPECT_NEAR(hsDistance(circuitUnitary(cand.circuit), target),
                    cand.distance, 1e-6);
    }
    // bestIndex points at the shortest exact candidate, or at the
    // minimum distance when nothing is exact.
    const SynthCandidate &best = out.best();
    if (best.distance < synth.config().exactEpsilon) {
        for (const SynthCandidate &cand : out.candidates) {
            if (cand.distance < synth.config().exactEpsilon) {
                EXPECT_LE(best.cnotCount, cand.cnotCount);
            }
        }
    } else {
        for (const SynthCandidate &cand : out.candidates)
            EXPECT_GE(cand.distance, best.distance - 1e-12);
    }
}

TEST(Leap, RespectsCnotBudget)
{
    Circuit c = lowerToNative(algos::tfim(3, 3));
    Matrix target = circuitUnitary(c);
    LeapSynthesizer synth(leanConfig());
    SynthOutput out = synth.synthesize(target, 3);
    for (const SynthCandidate &cand : out.candidates)
        EXPECT_LE(cand.cnotCount, 3);
}

TEST(Leap, DeterministicForSeed)
{
    Circuit c = lowerToNative(algos::tfim(2, 1));
    Matrix target = circuitUnitary(c);
    LeapSynthesizer synth(leanConfig());
    SynthOutput a = synth.synthesize(target, 3);
    SynthOutput b = synth.synthesize(target, 3);
    ASSERT_EQ(a.candidates.size(), b.candidates.size());
    for (size_t i = 0; i < a.candidates.size(); ++i)
        EXPECT_EQ(a.candidates[i].distance, b.candidates[i].distance);
}

TEST(Leap, ThreadedMatchesSerial)
{
    Circuit c = lowerToNative(algos::tfim(2, 2));
    Matrix target = circuitUnitary(c);
    SynthConfig serial = leanConfig();
    SynthConfig threaded = leanConfig();
    threaded.threads = 4;
    SynthOutput a = LeapSynthesizer(serial).synthesize(target, 4);
    SynthOutput b = LeapSynthesizer(threaded).synthesize(target, 4);
    ASSERT_EQ(a.candidates.size(), b.candidates.size());
    for (size_t i = 0; i < a.candidates.size(); ++i)
        EXPECT_EQ(a.candidates[i].distance, b.candidates[i].distance);
}

TEST(Leap, TopologyRestrictionRespected)
{
    Circuit c = lowerToNative(algos::tfim(3, 2));
    Matrix target = circuitUnitary(c);
    SynthConfig cfg = leanConfig();
    cfg.couplings = {{0, 1}, {1, 2}};  // line: no (0, 2) CNOTs
    LeapSynthesizer synth(cfg);
    SynthOutput out = synth.synthesize(target, 6);
    for (const SynthCandidate &cand : out.candidates) {
        for (const Gate &g : cand.circuit) {
            if (g.type != GateType::CX)
                continue;
            int lo = std::min(g.qubits[0], g.qubits[1]);
            int hi = std::max(g.qubits[0], g.qubits[1]);
            EXPECT_TRUE((lo == 0 && hi == 1) || (lo == 1 && hi == 2))
                << g.toString();
        }
    }
}

TEST(Leap, TopologyRestrictionStillSynthesizes)
{
    // A line-restricted search still finds low-distance candidates
    // for a line-structured target.
    Circuit c = lowerToNative(algos::tfim(3, 1));
    Matrix target = circuitUnitary(c);
    SynthConfig cfg = leanConfig();
    cfg.inst.multistarts = 4;
    cfg.couplings = {{0, 1}, {1, 2}};
    LeapSynthesizer synth(cfg);
    SynthOutput out = synth.synthesize(target, 6);
    EXPECT_LT(out.best().distance, 0.05);
}

TEST(Leap, SkeletonLineageRecoversOriginal)
{
    // With the skeleton hint the search contains the original CX
    // structure, so the full-budget level reaches (near-)zero
    // distance even when the generic schedules would not.
    Circuit c = lowerToNative(algos::vqe(4, 2, 31));
    Matrix target = circuitUnitary(c);
    std::vector<std::pair<int, int>> skeleton;
    for (const Gate &g : c)
        if (g.type == GateType::CX)
            skeleton.emplace_back(g.qubits[0], g.qubits[1]);

    SynthConfig cfg = leanConfig();
    cfg.inst.multistarts = 3;
    cfg.maxLayers = static_cast<int>(skeleton.size());
    LeapSynthesizer synth(cfg);
    SynthOutput out = synth.synthesize(
        target, static_cast<int>(skeleton.size()), &skeleton);
    EXPECT_LT(out.best().distance, 1e-3);
}

TEST(Leap, MaxLayersCapsExploration)
{
    Circuit c = lowerToNative(algos::tfim(3, 4));
    Matrix target = circuitUnitary(c);
    SynthConfig cfg = leanConfig();
    cfg.maxLayers = 3;
    LeapSynthesizer synth(cfg);
    SynthOutput out = synth.synthesize(target, 100);
    for (const SynthCandidate &cand : out.candidates)
        EXPECT_LE(cand.cnotCount, 3);
}

TEST(Leap, ReseedIntervalOneStillWorks)
{
    // Reseeding every level collapses the frontier to one node each
    // time (pure LEAP prefix freezing); synthesis must still make
    // progress and stay deterministic.
    Circuit c = lowerToNative(algos::tfim(2, 2));
    Matrix target = circuitUnitary(c);
    SynthConfig cfg = leanConfig();
    cfg.reseedInterval = 1;
    LeapSynthesizer synth(cfg);
    SynthOutput a = synth.synthesize(target, 4);
    SynthOutput b = synth.synthesize(target, 4);
    EXPECT_LT(a.best().distance, 0.2);
    ASSERT_EQ(a.candidates.size(), b.candidates.size());
    for (size_t i = 0; i < a.candidates.size(); ++i)
        EXPECT_EQ(a.candidates[i].distance, b.candidates[i].distance);
}

TEST(Leap, WideBeamCoversNarrowBeam)
{
    // A wider beam explores a superset of structures, so its best
    // distance can only match or improve the narrow beam's at equal
    // instantiation settings.
    Circuit c = lowerToNative(algos::tfim(2, 1));
    Matrix target = circuitUnitary(c);
    SynthConfig narrow = leanConfig();
    SynthConfig wide = leanConfig();
    wide.beamWidth = 3;
    double d_narrow =
        LeapSynthesizer(narrow).synthesize(target, 3).best().distance;
    double d_wide =
        LeapSynthesizer(wide).synthesize(target, 3).best().distance;
    EXPECT_LE(d_wide, d_narrow + 1e-6);
}

TEST(Leap, RejectsNonUnitaryTarget)
{
    Matrix bad(4, 4);
    bad(0, 0) = 2.0;
    LeapSynthesizer synth(leanConfig());
    EXPECT_DEATH(synth.synthesize(bad, 3), "unitary");
}

// ---- Deep validation of cache-loaded outputs. -----------------------

/** Serves one fixed output for every key and records the calls. */
class FakeCacheHook : public SynthCacheHook
{
  public:
    explicit FakeCacheHook(SynthOutput served) : served(std::move(served))
    {}

    std::optional<SynthOutput>
    load(const std::string &) override
    {
        return served;
    }

    void
    store(const std::string &key, const SynthOutput &) override
    {
        stored.push_back(key);
    }

    void
    invalidate(const std::string &key) override
    {
        invalidated.push_back(key);
    }

    SynthOutput served;
    std::vector<std::string> stored;
    std::vector<std::string> invalidated;
};

uint64_t
counterValue(const char *name)
{
    return obs::MetricsRegistry::global().counter(name).value();
}

/** Whether @p out survives a QSC1 payload encode/decode. */
bool
passesCodec(const SynthOutput &out)
{
    ByteWriter w;
    cache::encodeSynthOutput(w, out);
    ByteReader r(w.buffer());
    try {
        cache::decodeSynthOutput(r);
        return true;
    } catch (const SerializeError &) {
        return false;
    }
}

void
expectSameOutput(const SynthOutput &expected, const SynthOutput &actual)
{
    ASSERT_EQ(expected.candidates.size(), actual.candidates.size());
    EXPECT_EQ(expected.bestIndex, actual.bestIndex);
    for (size_t i = 0; i < expected.candidates.size(); ++i) {
        const SynthCandidate &e = expected.candidates[i];
        const SynthCandidate &a = actual.candidates[i];
        EXPECT_EQ(e.distance, a.distance) << "candidate " << i;
        EXPECT_EQ(e.cnotCount, a.cnotCount) << "candidate " << i;
        EXPECT_EQ(toQasm(e.circuit), toQasm(a.circuit)) << "candidate " << i;
    }
}

class LoadedOutputValidation : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        target = circuitUnitary(lowerToNative(algos::tfim(2, 2)));
        fresh = LeapSynthesizer(leanConfig()).synthesize(target, kCnots);
        ASSERT_GE(fresh.candidates.size(), 2u);
        key = synthesisCacheKey(target, kCnots, nullptr, leanConfig());
    }

    /** synthesize() of the fixture target through @p hook. */
    SynthOutput
    synthesizeServing(FakeCacheHook &hook)
    {
        SynthConfig cfg = leanConfig();
        cfg.cache = &hook;
        return LeapSynthesizer(cfg).synthesize(target, kCnots);
    }

    static constexpr int kCnots = 4;
    Matrix target;
    SynthOutput fresh;
    std::string key;
};

TEST_F(LoadedOutputValidation, CleanOutputIsServed)
{
    SynthOutput served = fresh;
    served.candidates.resize(1);  // distinguishable from a search
    served.bestIndex = 0;
    FakeCacheHook hook(served);
    const uint64_t hits = counterValue(names::kMetricSynthCacheHits);
    const uint64_t corrupt = counterValue(names::kMetricCacheCorrupt);

    expectSameOutput(served, synthesizeServing(hook));
    EXPECT_TRUE(hook.invalidated.empty());
    EXPECT_TRUE(hook.stored.empty());
    EXPECT_EQ(counterValue(names::kMetricSynthCacheHits), hits + 1);
    EXPECT_EQ(counterValue(names::kMetricCacheCorrupt), corrupt);
}

TEST_F(LoadedOutputValidation, EachBadOutputIsInvalidatedAndResynthesized)
{
    struct Corruption
    {
        const char *what;
        bool passesCodec; //!< the QSC1 decoder alone would accept it
        std::function<void(SynthOutput &)> apply;
    };
    const Corruption corruptions[] = {
        {"non-native gate", true,
         [](SynthOutput &o) {
             o.candidates.back().circuit.append(Gate::h(0));
         }},
        {"NaN angle", true,
         [](SynthOutput &o) {
             // Every candidate opens with a layer of U3s.
             Gate &u3 = o.candidates.back().circuit[0];
             ASSERT_EQ(u3.type, GateType::U3);
             u3.params[1] = std::numeric_limits<double>::quiet_NaN();
         }},
        {"wrong wire count", true,
         [](SynthOutput &o) {
             Circuit wide(3);
             wide.appendCircuit(o.candidates[0].circuit);
             o.candidates[0].circuit = std::move(wide);
         }},
        {"negative distance", true,
         [](SynthOutput &o) { o.candidates.back().distance = -1e-9; }},
        {"NaN distance", true,
         [](SynthOutput &o) {
             o.candidates[0].distance =
                 std::numeric_limits<double>::quiet_NaN();
         }},
        {"cnotCount contradicting its circuit", false,
         [](SynthOutput &o) { o.candidates.back().cnotCount += 1; }},
        {"bestIndex out of range", false,
         [](SynthOutput &o) { o.bestIndex = o.candidates.size(); }},
    };

    for (const Corruption &c : corruptions) {
        SCOPED_TRACE(c.what);
        SynthOutput bad = fresh;
        c.apply(bad);
        EXPECT_EQ(passesCodec(bad), c.passesCodec);

        FakeCacheHook hook(bad);
        const uint64_t corrupt = counterValue(names::kMetricCacheCorrupt);
        const uint64_t hits = counterValue(names::kMetricSynthCacheHits);
        const SynthOutput got = synthesizeServing(hook);

        EXPECT_EQ(hook.invalidated, std::vector<std::string>{key});
        EXPECT_EQ(hook.stored, std::vector<std::string>{key});
        EXPECT_EQ(counterValue(names::kMetricCacheCorrupt), corrupt + 1);
        EXPECT_EQ(counterValue(names::kMetricSynthCacheHits), hits);
        expectSameOutput(fresh, got);
    }
}

} // namespace
} // namespace quest
