/**
 * @file
 * Disk-backed, content-addressed, versioned store for synthesis
 * results — the persistent half of QUEST's synthesis caching.
 *
 * Entries live under <dir>/objects/<k0k1>/<k2..63>.qsc, where the
 * 64-hex-character key is the SHA-256 digest from synthesisCacheKey.
 * Each entry is a self-describing binary file (magic, version, key
 * digest, payload length, FNV-1a payload checksum, codec payload —
 * see docs/FORMATS.md) so `tools/quest_cache verify` can audit a
 * cache with nothing but the directory.
 *
 * Concurrency and fault model: many processes may read and write one
 * cache directory concurrently. Writes go to <dir>/tmp and are
 * published with an atomic rename, so readers only ever see complete
 * files. Anything wrong with an entry — missing, truncated, bad
 * magic, stale version, checksum mismatch, undecodable payload —
 * degrades to a miss (counted in quest.cache.* metrics) and the bad
 * entry is removed; no cache state can ever crash a run or change
 * its output. Size is bounded by an LRU budget approximated with
 * entry mtimes (refreshed on hit): stores opportunistically evict
 * oldest-first down to a hysteresis fraction of the budget.
 */

#ifndef QUEST_CACHE_SYNTHESIS_CACHE_HH
#define QUEST_CACHE_SYNTHESIS_CACHE_HH

#include <cstdint>
#include <filesystem>
#include <optional>
#include <string>
#include <vector>

#include "synth/synth_cache.hh"

namespace quest::cache {

/** Store settings. */
struct CacheConfig
{
    /** Root directory (created on first use). */
    std::string dir;

    /** LRU size budget over entry payload files; 0 = unbounded. */
    uint64_t maxBytes = uint64_t{1} << 30;

    /** After exceeding maxBytes, evict down to this fraction of it
     *  so stores do not GC on every call at the boundary. */
    double gcHysteresis = 0.8;
};

/** Aggregate on-disk state. */
struct CacheStats
{
    uint64_t entries = 0;
    uint64_t bytes = 0;
};

/** Result of a full-cache audit. */
struct CacheVerifyReport
{
    size_t ok = 0;

    /** Entry-relative paths with the reason each failed. */
    std::vector<std::string> corrupt;

    bool clean() const { return corrupt.empty(); }
};

/** The disk store. Implements the synthesizer's cache hook. */
class SynthesisCache : public SynthCacheHook
{
  public:
    /** On-disk container format version (header field). */
    static constexpr uint32_t kFormatVersion = 1;

    /** Entry file magic: "QSC1". */
    static constexpr uint8_t kMagic[4] = {'Q', 'S', 'C', '1'};

    /** Entry header size in bytes (magic + version + key digest +
     *  payload length + payload checksum). */
    static constexpr size_t kHeaderSize = 4 + 4 + 32 + 8 + 8;

    explicit SynthesisCache(CacheConfig config);

    /** @name SynthCacheHook */
    /// @{
    std::optional<SynthOutput> load(const std::string &key) override;
    void store(const std::string &key, const SynthOutput &out) override;
    void invalidate(const std::string &key) override;
    /// @}

    /** Entry count and total bytes (walks the directory). */
    CacheStats stats() const;

    /**
     * Evict oldest entries (by mtime) until total size is at most
     * @p target_bytes. Returns the number of entries removed.
     */
    size_t gc(uint64_t target_bytes);

    /** Remove every entry and temp file. Returns entries removed. */
    size_t clear();

    /**
     * Fully parse every entry: header, checksum, payload decode, and
     * a structural CircuitVerifier pass over every candidate. With
     * @p remove_corrupt, failing entries are deleted.
     */
    CacheVerifyReport verifyAll(bool remove_corrupt);

    const CacheConfig &config() const { return cfg; }

    /** Published path of @p key's entry. */
    std::filesystem::path entryPath(const std::string &key) const;

  private:
    /** Parse one entry file; returns the decoded output or a failure
     *  reason (no metrics side effects). */
    static std::optional<SynthOutput>
    parseEntry(const std::filesystem::path &path,
               const std::string &expected_key, std::string *why);

    void maybeGc();
    void removeEntry(const std::filesystem::path &path);

    CacheConfig cfg;
};

/** True iff @p key is a plausible entry key (64 hex characters). */
bool isCacheKey(const std::string &key);

} // namespace quest::cache

#endif // QUEST_CACHE_SYNTHESIS_CACHE_HH
