#include "cache/synthesis_cache.hh"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <fstream>
#include <sstream>
#include <system_error>
#include <utility>

#include "cache/codec.hh"
#include "obs/metrics.hh"
#include "resilience/fault.hh"
#include "util/logging.hh"
#include "util/serialize.hh"
#include "util/sha256.hh"
#include "verify/verifier.hh"
#include "util/names.hh"
#include "util/annotations.hh"

namespace quest::cache {

namespace fs = std::filesystem;

namespace {

obs::Counter &
hitCounter()
{
    static auto &c = obs::MetricsRegistry::global().counter(names::kMetricCacheHit);
    return c;
}

obs::Counter &
missCounter()
{
    static auto &c = obs::MetricsRegistry::global().counter(names::kMetricCacheMiss);
    return c;
}

obs::Counter &
corruptCounter()
{
    static auto &c =
        obs::MetricsRegistry::global().counter(names::kMetricCacheCorrupt);
    return c;
}

obs::Counter &
staleCounter()
{
    static auto &c =
        obs::MetricsRegistry::global().counter(names::kMetricCacheStale);
    return c;
}

obs::Counter &
evictCounter()
{
    static auto &c =
        obs::MetricsRegistry::global().counter(names::kMetricCacheEvict);
    return c;
}

obs::Counter &
storeFailedCounter()
{
    static auto &c =
        obs::MetricsRegistry::global().counter(names::kMetricCacheStoreFailed);
    return c;
}

int
hexNibble(char c)
{
    if (c >= '0' && c <= '9')
        return c - '0';
    if (c >= 'a' && c <= 'f')
        return c - 'a' + 10;
    return -1;
}

/** Decode 64 lower-case hex characters into 32 bytes; false on any
 *  non-hex character. */
bool
keyToDigest(const std::string &key, uint8_t out[32])
{
    if (key.size() != 64)
        return false;
    for (size_t i = 0; i < 32; ++i) {
        const int hi = hexNibble(key[2 * i]);
        const int lo = hexNibble(key[2 * i + 1]);
        if (hi < 0 || lo < 0)
            return false;
        out[i] = static_cast<uint8_t>((hi << 4) | lo);
    }
    return true;
}

/** Read a whole file into @p out; false if it cannot be opened. */
bool
readFile(const fs::path &path, std::vector<uint8_t> &out)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return false;
    std::ostringstream buf;
    buf << in.rdbuf();
    if (!in && !in.eof())
        return false;
    const std::string &s = buf.str();
    out.assign(s.begin(), s.end());
    return true;
}

/** One entry found by a directory walk. */
struct EntryInfo
{
    fs::path path;
    uint64_t size = 0;
    // QUEST_ANALYZE_OK(determinism.fs-order): GC recency bookkeeping only
    fs::file_time_type mtime;
};

/** All published entries under @p objects (never throws). */
std::vector<EntryInfo>
listEntries(const fs::path &objects)
{
    QUEST_RESULT_NEUTRAL("GC walk: which entries get evicted affects "
                         "only cache hit rates, never a result");
    std::vector<EntryInfo> entries;
    std::error_code ec;
    fs::recursive_directory_iterator it(objects, ec), end;
    for (; !ec && it != end; it.increment(ec)) {
        std::error_code fec;
        if (!it->is_regular_file(fec) || it->path().extension() != ".qsc")
            continue;
        EntryInfo info;
        info.path = it->path();
        info.size = it->file_size(fec);
        if (fec)
            continue;
        info.mtime = it->last_write_time(fec);
        if (fec)
            continue;
        entries.push_back(std::move(info));
    }
    return entries;
}

/** The cache key an entry file at @p path claims to store (shard
 *  directory + stem), or "" if the layout does not match. */
std::string
keyFromPath(const fs::path &path)
{
    const std::string shard = path.parent_path().filename().string();
    const std::string stem = path.stem().string();
    const std::string key = shard + stem;
    return isCacheKey(key) ? key : std::string();
}

} // namespace

bool
isCacheKey(const std::string &key)
{
    if (key.size() != 64)
        return false;
    for (char c : key) {
        if (hexNibble(c) < 0)
            return false;
    }
    return true;
}

SynthesisCache::SynthesisCache(CacheConfig config) : cfg(std::move(config))
{
    QUEST_ASSERT(!cfg.dir.empty(), "synthesis cache needs a directory");
}

fs::path
SynthesisCache::entryPath(const std::string &key) const
{
    return fs::path(cfg.dir) / "objects" / key.substr(0, 2) /
           (key.substr(2) + ".qsc");
}

std::optional<SynthOutput>
SynthesisCache::parseEntry(const fs::path &path,
                           const std::string &expected_key, std::string *why)
{
    try {
        std::vector<uint8_t> raw;
        if (QUEST_FAULT_POINT(names::kFaultCacheLoadRead) ||
            !readFile(path, raw)) {
            *why = "unreadable";
            return std::nullopt;
        }

        ByteReader r(raw);
        uint8_t magic[4];
        r.bytes(magic, sizeof(magic));
        if (std::memcmp(magic, kMagic, sizeof(kMagic)) != 0)
            throw SerializeError("bad magic");

        const uint32_t version = r.u32();
        if (version != kFormatVersion) {
            *why = "stale: format version " + std::to_string(version) +
                   ", expected " + std::to_string(kFormatVersion);
            return std::nullopt;
        }

        uint8_t stored_digest[Sha256::kDigestSize];
        r.bytes(stored_digest, sizeof(stored_digest));
        uint8_t expected_digest[Sha256::kDigestSize];
        if (!keyToDigest(expected_key, expected_digest) ||
            std::memcmp(stored_digest, expected_digest,
                        sizeof(stored_digest)) != 0) {
            throw SerializeError("key digest mismatch");
        }

        const uint64_t payload_len = r.u64();
        const uint64_t checksum = r.u64();
        if (payload_len != r.remaining())
            throw SerializeError(
                "payload length " + std::to_string(payload_len) +
                " does not match file (" + std::to_string(r.remaining()) +
                " bytes after header)");

        const uint8_t *payload = raw.data() + r.position();
        if (fnv1a64(payload, payload_len) != checksum)
            throw SerializeError("payload checksum mismatch");

        ByteReader pr(payload, payload_len);
        return decodeSynthOutput(pr);
    } catch (const std::exception &e) {
        // SerializeError from the codec, plus anything else decoding
        // hostile bytes can throw (e.g. bad_alloc on absurd counts).
        *why = e.what();
        return std::nullopt;
    }
}

std::optional<SynthOutput>
SynthesisCache::load(const std::string &key)
{
    if (!isCacheKey(key)) {
        missCounter().increment();
        return std::nullopt;
    }

    const fs::path path = entryPath(key);
    std::error_code ec;
    if (!fs::exists(path, ec)) {
        missCounter().increment();
        return std::nullopt;
    }

    std::string why;
    auto out = parseEntry(path, key, &why);
    if (!out) {
        const bool stale = why.rfind("stale:", 0) == 0;
        (stale ? staleCounter() : corruptCounter()).increment();
        missCounter().increment();
        warn("synthesis cache: dropping ", stale ? "stale" : "corrupt",
             " entry ", path.string(), " (", why, ")");
        removeEntry(path);
        return std::nullopt;
    }

    hitCounter().increment();
    QUEST_RESULT_NEUTRAL("recency touch feeds GC eviction order only; "
                         "the returned entry is unchanged");
    // Recency refresh is best effort; a hit on a read-only cache is
    // still a hit.
    fs::last_write_time(path, fs::file_time_type::clock::now(), ec);
    return out;
}

void
SynthesisCache::store(const std::string &key, const SynthOutput &out)
{
    if (!isCacheKey(key) || out.candidates.empty())
        return;

    ByteWriter w;
    w.bytes(kMagic, sizeof(kMagic));
    w.u32(kFormatVersion);
    uint8_t digest[Sha256::kDigestSize];
    if (!keyToDigest(key, digest))
        return;
    w.bytes(digest, sizeof(digest));

    ByteWriter payload;
    try {
        encodeSynthOutput(payload, out);
    } catch (const std::exception &e) {
        warn("synthesis cache: refusing to store unencodable output (",
             e.what(), ")");
        return;
    }
    w.u64(payload.size());
    w.u64(fnv1a64(payload.buffer().data(), payload.size()));
    w.bytes(payload.buffer().data(), payload.size());

    const fs::path path = entryPath(key);
    const fs::path tmp_dir = fs::path(cfg.dir) / "tmp";
    std::error_code ec;
    fs::create_directories(path.parent_path(), ec);
    fs::create_directories(tmp_dir, ec);
    if (QUEST_FAULT_POINT(names::kFaultCacheStoreEnospc))
        ec = std::make_error_code(std::errc::no_space_on_device);
    if (ec) {
        storeFailedCounter().increment();
        warn("synthesis cache: cannot create ", tmp_dir.string(), ": ",
             ec.message());
        return;
    }

    // Unique per (process, call) so concurrent writers never collide;
    // the final rename is atomic, so readers only ever see whole
    // entries and the last writer wins.
    static std::atomic<uint64_t> tmp_serial{0};
    const fs::path tmp =
        tmp_dir / (key.substr(0, 8) + "-" + std::to_string(::getpid()) +
                   "-" + std::to_string(tmp_serial.fetch_add(1)) + ".tmp");
    {
        std::ofstream f(tmp, std::ios::binary | std::ios::trunc);
        f.write(reinterpret_cast<const char *>(w.buffer().data()),
                static_cast<std::streamsize>(w.size()));
        if (QUEST_FAULT_POINT(names::kFaultCacheStoreShortWrite))
            f.setstate(std::ios::failbit);
        if (!f) {
            storeFailedCounter().increment();
            warn("synthesis cache: short write to ", tmp.string());
            f.close();
            fs::remove(tmp, ec);
            return;
        }
    }
    if (QUEST_FAULT_POINT(names::kFaultCacheStoreRename))
        ec = std::make_error_code(std::errc::io_error);
    else
        fs::rename(tmp, path, ec);
    if (ec) {
        storeFailedCounter().increment();
        warn("synthesis cache: cannot publish ", path.string(), ": ",
             ec.message());
        fs::remove(tmp, ec);
        return;
    }

    maybeGc();
}

void
SynthesisCache::invalidate(const std::string &key)
{
    if (isCacheKey(key))
        removeEntry(entryPath(key));
}

void
SynthesisCache::removeEntry(const fs::path &path)
{
    std::error_code ec;
    fs::remove(path, ec);
}

CacheStats
SynthesisCache::stats() const
{
    CacheStats s;
    for (const EntryInfo &e : listEntries(fs::path(cfg.dir) / "objects")) {
        ++s.entries;
        s.bytes += e.size;
    }
    return s;
}

size_t
SynthesisCache::gc(uint64_t target_bytes)
{
    std::vector<EntryInfo> entries =
        listEntries(fs::path(cfg.dir) / "objects");
    std::sort(entries.begin(), entries.end(),
              [](const EntryInfo &a, const EntryInfo &b) {
                  return a.mtime < b.mtime;
              });

    uint64_t total = 0;
    for (const EntryInfo &e : entries)
        total += e.size;

    size_t removed = 0;
    for (const EntryInfo &e : entries) {
        if (total <= target_bytes)
            break;
        std::error_code ec;
        if (fs::remove(e.path, ec)) {
            total -= e.size;
            ++removed;
            evictCounter().increment();
        }
    }
    return removed;
}

void
SynthesisCache::maybeGc()
{
    if (cfg.maxBytes == 0)
        return;
    if (stats().bytes <= cfg.maxBytes)
        return;
    const auto target = static_cast<uint64_t>(
        static_cast<double>(cfg.maxBytes) * cfg.gcHysteresis);
    const size_t removed = gc(target);
    debugLog("synthesis cache: evicted ", removed,
             " entries to stay under ", cfg.maxBytes, " bytes");
}

size_t
SynthesisCache::clear()
{
    size_t removed = 0;
    for (const EntryInfo &e : listEntries(fs::path(cfg.dir) / "objects")) {
        std::error_code ec;
        if (fs::remove(e.path, ec))
            ++removed;
    }
    std::error_code ec;
    fs::remove_all(fs::path(cfg.dir) / "tmp", ec);
    return removed;
}

CacheVerifyReport
SynthesisCache::verifyAll(bool remove_corrupt)
{
    CacheVerifyReport report;
    // Entries hold synthesis outputs, so candidates must satisfy the
    // same structural contract load-time validation enforces: native
    // {U3, CX} circuits with no pseudo-ops.
    CircuitVerifyOptions vopts;
    vopts.requireNative = true;
    vopts.allowPseudoOps = false;
    const CircuitVerifier verifier(vopts);

    for (const EntryInfo &e : listEntries(fs::path(cfg.dir) / "objects")) {
        std::error_code rel_ec;
        const std::string rel =
            fs::relative(e.path, fs::path(cfg.dir), rel_ec).string();
        const std::string name =
            (rel_ec || rel.empty()) ? e.path.string() : rel;

        std::string why;
        const std::string key = keyFromPath(e.path);
        std::optional<SynthOutput> out;
        if (key.empty())
            why = "misplaced entry (path does not spell a cache key)";
        else
            out = parseEntry(e.path, key, &why);

        if (out) {
            for (size_t i = 0; i < out->candidates.size() && why.empty();
                 ++i) {
                const VerifyReport vr =
                    verifier.verify(out->candidates[i].circuit);
                if (!vr.ok())
                    why = "candidate " + std::to_string(i) + ": " +
                          vr.issues.front().toString();
            }
        }

        if (why.empty()) {
            ++report.ok;
        } else {
            report.corrupt.push_back(name + ": " + why);
            if (remove_corrupt)
                removeEntry(e.path);
        }
    }
    return report;
}

} // namespace quest::cache
