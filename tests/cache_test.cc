#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <random>
#include <string>
#include <vector>

#include "cache/codec.hh"
#include "cache/synthesis_cache.hh"
#include "obs/metrics.hh"
#include "util/sha256.hh"

namespace quest::cache {
namespace {

namespace fs = std::filesystem;

fs::path
makeTempDir()
{
    std::string tmpl =
        (fs::temp_directory_path() / "quest-cache-test-XXXXXX").string();
    char *dir = mkdtemp(tmpl.data());
    EXPECT_NE(dir, nullptr);
    return fs::path(dir);
}

/** RAII removal of a test cache directory. */
struct TempDir
{
    fs::path path = makeTempDir();
    ~TempDir()
    {
        std::error_code ec;
        fs::remove_all(path, ec);
    }
};

uint64_t
counterValue(const char *name)
{
    return obs::MetricsRegistry::global().counter(name).value();
}

/** All GateType enumerators, via the frozen wire-format table. */
std::vector<GateType>
allGateTypes()
{
    std::vector<GateType> types;
    for (int code = 0;; ++code) {
        try {
            types.push_back(gateTypeFromCode(static_cast<uint8_t>(code)));
        } catch (const SerializeError &) {
            break;
        }
    }
    return types;
}

std::vector<int>
randomDistinctWires(std::mt19937_64 &rng, int n_qubits, int arity)
{
    std::vector<int> all(n_qubits);
    for (int i = 0; i < n_qubits; ++i)
        all[i] = i;
    std::shuffle(all.begin(), all.end(), rng);
    all.resize(static_cast<size_t>(arity));
    return all;
}

/** A random structurally-valid circuit drawing from every gate type
 *  (measurements appended as the required trailing suffix). */
Circuit
randomCircuit(std::mt19937_64 &rng, int n_qubits, size_t n_gates)
{
    static const std::vector<GateType> types = allGateTypes();
    Circuit c(n_qubits);
    for (size_t i = 0; i < n_gates; ++i) {
        GateType type;
        do {
            type = types[rng() % types.size()];
        } while (type == GateType::Measure ||
                 gateArity(type) > n_qubits);

        int arity = gateArity(type);
        if (type == GateType::Barrier)
            arity = 1 + static_cast<int>(rng() % n_qubits);
        std::vector<int> wires =
            randomDistinctWires(rng, n_qubits, arity);

        std::vector<double> params(
            static_cast<size_t>(gateParamCount(type)));
        std::uniform_real_distribution<double> angle(-6.4, 6.4);
        for (double &p : params)
            p = angle(rng);

        c.append(Gate(type, std::move(wires), std::move(params)));
    }
    if (rng() % 2 == 0) {
        for (int q = 0; q < n_qubits; ++q)
            if (rng() % 2 == 0)
                c.append(Gate::measure(q));
    }
    return c;
}

void
expectSameCircuit(const Circuit &a, const Circuit &b)
{
    ASSERT_EQ(a.numQubits(), b.numQubits());
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].type, b[i].type) << "gate " << i;
        EXPECT_EQ(a[i].qubits, b[i].qubits) << "gate " << i;
        ASSERT_EQ(a[i].params.size(), b[i].params.size()) << "gate " << i;
        for (size_t p = 0; p < a[i].params.size(); ++p) {
            // Bitwise, not value, equality: the replay guarantee.
            EXPECT_EQ(std::memcmp(&a[i].params[p], &b[i].params[p],
                                  sizeof(double)),
                      0)
                << "gate " << i << " param " << p;
        }
    }
}

void
expectSameOutput(const SynthOutput &a, const SynthOutput &b)
{
    ASSERT_EQ(a.candidates.size(), b.candidates.size());
    EXPECT_EQ(a.bestIndex, b.bestIndex);
    for (size_t i = 0; i < a.candidates.size(); ++i) {
        expectSameCircuit(a.candidates[i].circuit,
                          b.candidates[i].circuit);
        EXPECT_EQ(std::memcmp(&a.candidates[i].distance,
                              &b.candidates[i].distance, sizeof(double)),
                  0);
        EXPECT_EQ(a.candidates[i].cnotCount, b.candidates[i].cnotCount);
    }
}

/** A random native {U3, CX} circuit — the shape of real synthesis
 *  candidates, which is what cache entries always hold. */
Circuit
randomNativeCircuit(std::mt19937_64 &rng, int n_qubits, size_t n_gates)
{
    Circuit c(n_qubits);
    std::uniform_real_distribution<double> angle(-6.4, 6.4);
    for (size_t i = 0; i < n_gates; ++i) {
        if (n_qubits >= 2 && rng() % 2 == 0) {
            auto wires = randomDistinctWires(rng, n_qubits, 2);
            c.append(Gate::cx(wires[0], wires[1]));
        } else {
            c.append(Gate::u3(static_cast<int>(rng() % n_qubits),
                              angle(rng), angle(rng), angle(rng)));
        }
    }
    return c;
}

/** A synthetic but store-valid synthesis output. */
SynthOutput
makeOutput(std::mt19937_64 &rng, int n_qubits = 3,
           size_t n_candidates = 3)
{
    SynthOutput out;
    std::uniform_real_distribution<double> dist(0.0, 0.5);
    for (size_t i = 0; i < n_candidates; ++i) {
        SynthCandidate c;
        c.circuit = randomNativeCircuit(rng, n_qubits, 4 + rng() % 8);
        c.distance = dist(rng);
        c.cnotCount = static_cast<int>(c.circuit.cnotCount());
        out.candidates.push_back(std::move(c));
    }
    out.bestIndex = rng() % n_candidates;
    return out;
}

std::string
keyFor(const std::string &tag)
{
    return Sha256::hexDigest(tag);
}

std::vector<uint8_t>
readAll(const fs::path &path)
{
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in.good());
    return std::vector<uint8_t>(std::istreambuf_iterator<char>(in),
                                std::istreambuf_iterator<char>());
}

void
writeAll(const fs::path &path, const std::vector<uint8_t> &bytes)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char *>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
    ASSERT_TRUE(out.good());
}

// ---- Codec ----------------------------------------------------------

TEST(Codec, GateCodeTableIsABijection)
{
    const std::vector<GateType> types = allGateTypes();
    EXPECT_EQ(types.size(), 26u); // every GateType enumerator
    for (GateType t : types)
        EXPECT_EQ(gateTypeFromCode(gateTypeCode(t)), t);
    EXPECT_THROW(gateTypeFromCode(static_cast<uint8_t>(types.size())),
                 SerializeError);
}

TEST(Codec, RandomCircuitsRoundTrip)
{
    std::mt19937_64 rng(2024);
    std::vector<Circuit> inputs;
    for (int iter = 0; iter < 100; ++iter) {
        const int n = 1 + static_cast<int>(rng() % 4);
        inputs.push_back(randomCircuit(rng, n, rng() % 24));
    }
    // One more input: a barrier across five wires, more than a Gate
    // holds inline.
    Circuit wide(5);
    wide.append(Gate::u3(0, 0.1, -0.2, 0.3));
    wide.append(Gate::barrier({4, 0, 3, 1, 2}));
    wide.append(Gate::cx(2, 4));
    inputs.push_back(wide);

    for (const Circuit &original : inputs) {
        ByteWriter w;
        encodeCircuit(w, original);
        ByteReader r(w.buffer());
        const Circuit back = decodeCircuit(r);
        EXPECT_TRUE(r.atEnd());
        expectSameCircuit(original, back);
    }
}

TEST(Codec, SynthOutputsRoundTrip)
{
    std::mt19937_64 rng(4);
    for (int iter = 0; iter < 50; ++iter) {
        const SynthOutput original =
            makeOutput(rng, 1 + static_cast<int>(rng() % 4),
                       1 + rng() % 5);
        ByteWriter w;
        encodeSynthOutput(w, original);
        ByteReader r(w.buffer());
        expectSameOutput(original, decodeSynthOutput(r));
    }
}

TEST(Codec, RejectsMalformedCircuits)
{
    // Unknown gate code.
    {
        ByteWriter w;
        w.u32(2); // qubits
        w.u32(1); // gates
        w.u8(250);
        w.u8(1);
        w.u8(0);
        ByteReader r(w.buffer());
        EXPECT_THROW(decodeCircuit(r), SerializeError);
    }
    // Arity mismatch for CX.
    {
        ByteWriter w;
        w.u32(2);
        w.u32(1);
        w.u8(gateTypeCode(GateType::CX));
        w.u8(1);
        w.u8(0);
        w.i32(0);
        ByteReader r(w.buffer());
        EXPECT_THROW(decodeCircuit(r), SerializeError);
    }
    // Wire out of range.
    {
        ByteWriter w;
        w.u32(2);
        w.u32(1);
        w.u8(gateTypeCode(GateType::H));
        w.u8(1);
        w.u8(0);
        w.i32(5);
        ByteReader r(w.buffer());
        EXPECT_THROW(decodeCircuit(r), SerializeError);
    }
    // Duplicate wires on a CX.
    {
        ByteWriter w;
        w.u32(2);
        w.u32(1);
        w.u8(gateTypeCode(GateType::CX));
        w.u8(2);
        w.u8(0);
        w.i32(1);
        w.i32(1);
        ByteReader r(w.buffer());
        EXPECT_THROW(decodeCircuit(r), SerializeError);
    }
    // Truncated mid-gate.
    {
        ByteWriter w;
        w.u32(2);
        w.u32(1);
        w.u8(gateTypeCode(GateType::RZ));
        w.u8(1);
        w.u8(1);
        w.i32(0);
        // missing the f64 parameter
        ByteReader r(w.buffer());
        EXPECT_THROW(decodeCircuit(r), SerializeError);
    }
    // Zero-wire circuit.
    {
        ByteWriter w;
        w.u32(0);
        w.u32(0);
        ByteReader r(w.buffer());
        EXPECT_THROW(decodeCircuit(r), SerializeError);
    }
}

TEST(Codec, RejectsMalformedOutputs)
{
    std::mt19937_64 rng(5);
    const SynthOutput good = makeOutput(rng);

    // Empty candidate set.
    {
        ByteWriter w;
        w.u32(0);
        w.u64(0);
        ByteReader r(w.buffer());
        EXPECT_THROW(decodeSynthOutput(r), SerializeError);
    }
    // Out-of-range best index.
    {
        SynthOutput bad = good;
        bad.bestIndex = bad.candidates.size() + 3;
        ByteWriter w;
        encodeSynthOutput(w, bad);
        ByteReader r(w.buffer());
        EXPECT_THROW(decodeSynthOutput(r), SerializeError);
    }
    // Trailing bytes.
    {
        ByteWriter w;
        encodeSynthOutput(w, good);
        w.u8(0);
        ByteReader r(w.buffer());
        EXPECT_THROW(decodeSynthOutput(r), SerializeError);
    }
    // CNOT-count field contradicting the circuit.
    {
        SynthOutput bad = good;
        bad.candidates[0].cnotCount += 1;
        ByteWriter w;
        encodeSynthOutput(w, bad);
        ByteReader r(w.buffer());
        EXPECT_THROW(decodeSynthOutput(r), SerializeError);
    }
    // A hostile candidate count must throw, not allocate.
    {
        ByteWriter w;
        w.u32(0xfffffff0u);
        ByteReader r(w.buffer());
        EXPECT_THROW(decodeSynthOutput(r), SerializeError);
    }
}

// ---- Disk store -----------------------------------------------------

TEST(SynthesisCache, StoreThenLoadRoundTrips)
{
    TempDir tmp;
    SynthesisCache cache({.dir = tmp.path.string()});
    std::mt19937_64 rng(11);

    const std::string key = keyFor("round-trip");
    EXPECT_FALSE(cache.load(key).has_value());

    const SynthOutput out = makeOutput(rng);
    cache.store(key, out);
    EXPECT_TRUE(fs::exists(cache.entryPath(key)));

    const auto loaded = cache.load(key);
    ASSERT_TRUE(loaded.has_value());
    expectSameOutput(out, *loaded);

    const auto s = cache.stats();
    EXPECT_EQ(s.entries, 1u);
    EXPECT_EQ(s.bytes, fs::file_size(cache.entryPath(key)));
}

TEST(SynthesisCache, InvalidateRemovesTheEntry)
{
    TempDir tmp;
    SynthesisCache cache({.dir = tmp.path.string()});
    std::mt19937_64 rng(12);

    const std::string key = keyFor("invalidate");
    cache.store(key, makeOutput(rng));
    ASSERT_TRUE(cache.load(key).has_value());
    cache.invalidate(key);
    EXPECT_FALSE(cache.load(key).has_value());
    EXPECT_EQ(cache.stats().entries, 0u);
}

TEST(SynthesisCache, RejectsNonKeys)
{
    TempDir tmp;
    SynthesisCache cache({.dir = tmp.path.string()});
    std::mt19937_64 rng(13);
    EXPECT_FALSE(cache.load("not-a-key").has_value());
    cache.store("not-a-key", makeOutput(rng));
    EXPECT_EQ(cache.stats().entries, 0u);
    EXPECT_FALSE(isCacheKey("abc"));
    EXPECT_FALSE(isCacheKey(std::string(64, 'g')));
    EXPECT_TRUE(isCacheKey(keyFor("x")));
}

/** Corrupt one entry on disk, then assert a load degrades to a miss,
 *  removes the file, bumps @p expected_counter, and a re-store heals
 *  the cache. */
void
expectMissAndRepair(
    SynthesisCache &cache, const std::string &key, const SynthOutput &out,
    const char *expected_counter,
    const std::function<void(const fs::path &)> &damage)
{
    cache.store(key, out);
    const fs::path path = cache.entryPath(key);
    ASSERT_TRUE(fs::exists(path));
    damage(path);

    const uint64_t before = counterValue(expected_counter);
    const uint64_t misses_before = counterValue("quest.cache.miss");
    EXPECT_FALSE(cache.load(key).has_value());
    EXPECT_EQ(counterValue(expected_counter), before + 1);
    EXPECT_EQ(counterValue("quest.cache.miss"), misses_before + 1);
    EXPECT_FALSE(fs::exists(path)) << "damaged entry not removed";

    // Miss-and-repair: the caller re-synthesizes and stores again.
    cache.store(key, out);
    const auto healed = cache.load(key);
    ASSERT_TRUE(healed.has_value());
    expectSameOutput(out, *healed);
}

TEST(SynthesisCache, TruncatedEntryIsACorruptMiss)
{
    TempDir tmp;
    SynthesisCache cache({.dir = tmp.path.string()});
    std::mt19937_64 rng(21);
    expectMissAndRepair(
        cache, keyFor("truncated"), makeOutput(rng), "quest.cache.corrupt",
        [](const fs::path &path) {
            auto bytes = readAll(path);
            bytes.resize(bytes.size() / 2);
            writeAll(path, bytes);
        });
}

TEST(SynthesisCache, HeaderOnlyEntryIsACorruptMiss)
{
    TempDir tmp;
    SynthesisCache cache({.dir = tmp.path.string()});
    std::mt19937_64 rng(22);
    expectMissAndRepair(
        cache, keyFor("header-only"), makeOutput(rng),
        "quest.cache.corrupt", [](const fs::path &path) {
            auto bytes = readAll(path);
            bytes.resize(8); // not even a whole header
            writeAll(path, bytes);
        });
}

TEST(SynthesisCache, FlippedPayloadByteIsACorruptMiss)
{
    TempDir tmp;
    SynthesisCache cache({.dir = tmp.path.string()});
    std::mt19937_64 rng(23);
    expectMissAndRepair(
        cache, keyFor("bitflip"), makeOutput(rng), "quest.cache.corrupt",
        [](const fs::path &path) {
            auto bytes = readAll(path);
            ASSERT_GT(bytes.size(), SynthesisCache::kHeaderSize);
            bytes.back() ^= 0x40;
            writeAll(path, bytes);
        });
}

TEST(SynthesisCache, BadMagicIsACorruptMiss)
{
    TempDir tmp;
    SynthesisCache cache({.dir = tmp.path.string()});
    std::mt19937_64 rng(24);
    expectMissAndRepair(
        cache, keyFor("magic"), makeOutput(rng), "quest.cache.corrupt",
        [](const fs::path &path) {
            auto bytes = readAll(path);
            bytes[0] = 'X';
            writeAll(path, bytes);
        });
}

TEST(SynthesisCache, FutureFormatVersionIsAStaleMiss)
{
    TempDir tmp;
    SynthesisCache cache({.dir = tmp.path.string()});
    std::mt19937_64 rng(25);
    expectMissAndRepair(
        cache, keyFor("version"), makeOutput(rng), "quest.cache.stale",
        [](const fs::path &path) {
            auto bytes = readAll(path);
            // The u32 version field sits right after the magic.
            bytes[4] = static_cast<uint8_t>(
                SynthesisCache::kFormatVersion + 1);
            writeAll(path, bytes);
        });
}

TEST(SynthesisCache, EntryUnderTheWrongKeyIsACorruptMiss)
{
    TempDir tmp;
    SynthesisCache cache({.dir = tmp.path.string()});
    std::mt19937_64 rng(26);

    const std::string key_a = keyFor("a");
    const std::string key_b = keyFor("b");
    cache.store(key_a, makeOutput(rng));

    // A would-be collision: key B's slot holds key A's entry.
    std::error_code ec;
    fs::create_directories(cache.entryPath(key_b).parent_path(), ec);
    fs::copy_file(cache.entryPath(key_a), cache.entryPath(key_b),
                  fs::copy_options::overwrite_existing, ec);
    ASSERT_FALSE(ec);

    const uint64_t corrupt = counterValue("quest.cache.corrupt");
    EXPECT_FALSE(cache.load(key_b).has_value());
    EXPECT_EQ(counterValue("quest.cache.corrupt"), corrupt + 1);
    EXPECT_FALSE(fs::exists(cache.entryPath(key_b)));
    // The genuine entry is untouched.
    EXPECT_TRUE(cache.load(key_a).has_value());
}

TEST(SynthesisCache, GcEvictsOldestFirst)
{
    TempDir tmp;
    // maxBytes = 0: no automatic eviction during the setup stores.
    SynthesisCache cache({.dir = tmp.path.string(), .maxBytes = 0});
    std::mt19937_64 rng(31);

    const std::string keys[] = {keyFor("g0"), keyFor("g1"), keyFor("g2")};
    for (const auto &key : keys)
        cache.store(key, makeOutput(rng));

    // Stagger mtimes explicitly (store order is not reliable at
    // filesystem timestamp granularity): g1 oldest, then g0, g2 newest.
    // QUEST_ANALYZE_OK(determinism.clock, determinism.fs-order): staging GC mtime inputs
    const auto now = fs::file_time_type::clock::now();
    using std::chrono::hours;
    // QUEST_ANALYZE_OK(determinism.fs-order): staging GC mtime inputs
    fs::last_write_time(cache.entryPath(keys[1]), now - hours(2));
    // QUEST_ANALYZE_OK(determinism.fs-order): staging GC mtime inputs
    fs::last_write_time(cache.entryPath(keys[0]), now - hours(1));
    // QUEST_ANALYZE_OK(determinism.fs-order): staging GC mtime inputs
    fs::last_write_time(cache.entryPath(keys[2]), now);

    const uint64_t total = cache.stats().bytes;
    const uint64_t newest = fs::file_size(cache.entryPath(keys[2]));
    const uint64_t evicted_before = counterValue("quest.cache.evict");

    // Asking for just the newest entry's size must drop the two
    // older ones.
    EXPECT_EQ(cache.gc(newest), 2u);
    EXPECT_EQ(counterValue("quest.cache.evict"), evicted_before + 2);
    EXPECT_FALSE(fs::exists(cache.entryPath(keys[0])));
    EXPECT_FALSE(fs::exists(cache.entryPath(keys[1])));
    EXPECT_TRUE(fs::exists(cache.entryPath(keys[2])));

    // A target above the current size evicts nothing.
    EXPECT_EQ(cache.gc(total), 0u);
}

TEST(SynthesisCache, StoresStayUnderTheSizeBudget)
{
    TempDir tmp;
    std::mt19937_64 rng(32);

    // Find a typical entry size, then budget for about two entries.
    SynthesisCache probe({.dir = tmp.path.string(), .maxBytes = 0});
    probe.store(keyFor("probe"), makeOutput(rng));
    const uint64_t entry_size = probe.stats().bytes;
    probe.clear();

    SynthesisCache cache({.dir = tmp.path.string(),
                          .maxBytes = 3 * entry_size,
                          .gcHysteresis = 0.5});
    for (int i = 0; i < 12; ++i)
        cache.store(keyFor("budget-" + std::to_string(i)),
                    makeOutput(rng));
    EXPECT_LE(cache.stats().bytes, 3 * entry_size);
    EXPECT_GE(cache.stats().entries, 1u);
}

TEST(SynthesisCache, ClearRemovesEverything)
{
    TempDir tmp;
    SynthesisCache cache({.dir = tmp.path.string()});
    std::mt19937_64 rng(33);
    for (int i = 0; i < 4; ++i)
        cache.store(keyFor("clear-" + std::to_string(i)),
                    makeOutput(rng));
    EXPECT_EQ(cache.clear(), 4u);
    EXPECT_EQ(cache.stats().entries, 0u);
    EXPECT_EQ(cache.stats().bytes, 0u);
}

TEST(SynthesisCache, VerifyAllFlagsAndRemovesDamage)
{
    TempDir tmp;
    SynthesisCache cache({.dir = tmp.path.string()});
    std::mt19937_64 rng(34);

    const std::string good_key = keyFor("audit-good");
    const std::string bad_key = keyFor("audit-bad");
    cache.store(good_key, makeOutput(rng));
    cache.store(bad_key, makeOutput(rng));

    EXPECT_TRUE(cache.verifyAll(false).clean());

    auto bytes = readAll(cache.entryPath(bad_key));
    bytes.back() ^= 0xff;
    writeAll(cache.entryPath(bad_key), bytes);

    const auto report = cache.verifyAll(false);
    EXPECT_EQ(report.ok, 1u);
    ASSERT_EQ(report.corrupt.size(), 1u);
    EXPECT_TRUE(fs::exists(cache.entryPath(bad_key)));

    const auto removing = cache.verifyAll(true);
    EXPECT_EQ(removing.corrupt.size(), 1u);
    EXPECT_FALSE(fs::exists(cache.entryPath(bad_key)));
    EXPECT_TRUE(cache.verifyAll(false).clean());
    EXPECT_EQ(cache.stats().entries, 1u);
}

TEST(SynthesisCache, ConcurrentWritersNeverProduceATornEntry)
{
    TempDir tmp;
    std::mt19937_64 rng(41);

    // Deterministic shared payloads, derived identically in parent
    // and children.
    constexpr int kKeys = 4;
    std::vector<std::string> keys;
    std::vector<SynthOutput> outputs;
    for (int k = 0; k < kKeys; ++k) {
        keys.push_back(keyFor("race-" + std::to_string(k)));
        std::mt19937_64 key_rng(1000 + k);
        outputs.push_back(makeOutput(key_rng));
    }

    constexpr int kWriters = 4;
    std::vector<pid_t> children;
    for (int w = 0; w < kWriters; ++w) {
        const pid_t pid = fork();
        ASSERT_GE(pid, 0);
        if (pid == 0) {
            // Child: hammer the shared directory. Any parse failure
            // of a loaded entry would surface as a miss (never a
            // crash); since all writers store identical bytes per
            // key, every successful load must round-trip exactly.
            SynthesisCache mine({.dir = tmp.path.string()});
            bool ok = true;
            for (int iter = 0; iter < 50 && ok; ++iter) {
                const int k = (iter + w) % kKeys;
                mine.store(keys[k], outputs[k]);
                const auto loaded = mine.load(keys[k]);
                if (loaded) {
                    ok = loaded->candidates.size() ==
                             outputs[k].candidates.size() &&
                         loaded->bestIndex == outputs[k].bestIndex;
                }
            }
            _exit(ok ? 0 : 1);
        }
        children.push_back(pid);
    }

    for (pid_t pid : children) {
        int status = 0;
        ASSERT_EQ(waitpid(pid, &status, 0), pid);
        EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0)
            << "writer " << pid << " failed";
    }

    // After the dust settles every entry is whole and loadable.
    SynthesisCache cache({.dir = tmp.path.string()});
    EXPECT_TRUE(cache.verifyAll(false).clean());
    EXPECT_EQ(cache.stats().entries, static_cast<uint64_t>(kKeys));
    for (int k = 0; k < kKeys; ++k) {
        const auto loaded = cache.load(keys[k]);
        ASSERT_TRUE(loaded.has_value());
        expectSameOutput(outputs[k], *loaded);
    }
}

} // namespace
} // namespace quest::cache
