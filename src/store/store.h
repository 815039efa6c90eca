// Durable content-addressed campaign-result store.
//
// The explorer, CI and any future campaign service re-run byte-identical
// campaigns constantly; the determinism discipline of PRs 1-5 (bit-exact
// NetlistCampaignResults at any backend/lane/thread count) makes their
// results safe to memoize on disk. This store is engineered in the spirit
// of the paper's self-checking data-paths: every entry carries its own
// check, and corruption is *detected and survived* — never trusted, never
// fatal. Nix's libstore (hash-keyed immutable entries, integrity-verified
// on read) is the architectural exemplar.
//
// Layout (one directory, flat):
//   <dir>/<32-hex-fingerprint>.entry     committed entries
//   <dir>/corrupt/<name>.<n>             quarantined entries (evidence)
//   <dir>/*.tmp.<pid>.<seq>              in-flight writes
//
// Entry format (all integers little-endian):
//   u64 magic "SCKSTORE" | u32 format version | u32 reserved(0)
//   u64 fingerprint.hi | u64 fingerprint.lo   (echoed key: a renamed or
//                                              hash-colliding file misses)
//   u64 payload length | payload (the wire codec's NetlistCampaignResult
//                                 encoding, hls/serialize.h)
//   u64 FNV-1a checksum over everything before it
// (a sealed frame of common/codec.h, the framing wire and journal share)
//
// Robustness contract:
//  - writes are crash-safe: payload lands in a unique temp file, is
//    fsync'd, then rename(2)'d into place — readers see an old entry or a
//    complete new one, never a torn write;
//  - concurrent writers are safe: deterministic results mean racing
//    writers carry identical bytes, and rename is atomic, so whichever
//    commit lands last leaves a valid entry (a loser's rename cannot tear
//    the winner's);
//  - reads verify magic, version, length, fingerprint echo and checksum;
//    ANY mismatch quarantines the entry into corrupt/ (kept as evidence,
//    counted in CacheStats::corrupt) and reports a miss — the caller
//    recomputes, it never crashes and never consumes bad data;
//  - an unusable store (dir cannot be created, entries cannot be written)
//    degrades to uncached execution with one stderr warning — the store
//    is an accelerator, losing it costs time, not correctness.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "hls/netlist_campaign.h"
#include "store/fingerprint.h"

namespace sck::store {

/// On-disk entry format generation. Bump on any serialization change:
/// entries of another version are quarantined on read (version-mismatch
/// rejection) and rewritten fresh.
/// v2: the payload is the wire's NetlistCampaignResult encoding (fu_index
/// as i32, no longer a sign-extended u64).
inline constexpr std::uint32_t kStoreFormatVersion = 2;

/// Store health counters, reported next to the exploration report. The
/// counters describe cache behaviour only — by construction they cannot
/// influence a single result bit (hits are byte-identical to recomputes).
struct CacheStats {
  std::uint64_t hits = 0;    ///< entries served after full verification
  std::uint64_t misses = 0;  ///< absent entries (recomputed + stored)
  std::uint64_t corrupt = 0;  ///< entries quarantined on a failed check
  std::uint64_t evicted = 0;  ///< entries removed by trim()
  std::uint64_t write_failures = 0;  ///< failed commits (entry not cached)
  bool degraded = false;  ///< store unusable; running fully uncached

  friend bool operator==(const CacheStats&, const CacheStats&) = default;
};

/// Versioned, length-prefixed, checksummed serialization of one campaign
/// result — the full entry image including header and trailing checksum.
/// Exposed for the adversarial store tests (bit-flip / truncate / replay).
[[nodiscard]] std::vector<unsigned char> serialize_entry(
    const Fingerprint& key, const hls::NetlistCampaignResult& value);

/// Strict inverse of serialize_entry: verifies magic, version, payload
/// length, fingerprint echo and checksum, and bounds-checks every field
/// read. Returns std::nullopt on ANY inconsistency (never throws, never
/// aborts on malformed bytes).
[[nodiscard]] std::optional<hls::NetlistCampaignResult> deserialize_entry(
    const Fingerprint& key, const std::vector<unsigned char>& bytes);

/// The persistent store. All methods are thread-safe (campaign workers
/// load and save concurrently) and none of them ever throws or aborts on
/// I/O or data faults — every failure path degrades to "miss".
class CampaignStore {
 public:
  /// Opens (creating if needed) the store at `dir`. On failure the store
  /// is permanently degraded: loads miss, saves no-op, one warning is
  /// printed to stderr.
  explicit CampaignStore(std::string dir);

  CampaignStore(const CampaignStore&) = delete;
  CampaignStore& operator=(const CampaignStore&) = delete;

  /// Verified lookup. A hit returns the stored result (checksum, version
  /// and key echo all verified); a failed verification quarantines the
  /// entry under corrupt/ and counts as a miss.
  [[nodiscard]] std::optional<hls::NetlistCampaignResult> load(
      const Fingerprint& key);

  /// Atomic commit (temp file + fsync + rename). Returns false — after
  /// one stderr warning, at most — when the entry could not be written;
  /// the store stays usable for reads either way.
  bool save(const Fingerprint& key, const hls::NetlistCampaignResult& value);

  /// Evicts committed entries AND stale shard journals, oldest
  /// modification time first, until the store holds at most `max_bytes`
  /// of entry+journal payload. Files of pinned fingerprints (see pin())
  /// are excluded from both the budget and the eviction — a live
  /// campaign's write-ahead journal must never be evicted under it.
  /// Returns the number of files evicted. Quarantined evidence under
  /// corrupt/ is not counted against the budget and never evicted here.
  std::size_t trim(std::uint64_t max_bytes);

  /// Pin a fingerprint for the duration of an in-flight campaign: trim()
  /// will not evict its entry or journal until unpin(). Pins nest (a
  /// fingerprint pinned twice needs two unpins — concurrent clients may
  /// attach to one campaign).
  void pin(const Fingerprint& key);
  void unpin(const Fingerprint& key);
  /// True while `key` holds at least one pin (exposed for tests).
  [[nodiscard]] bool pinned(const Fingerprint& key) const;

  /// Sibling path of one campaign's shard journal
  /// ("<dir>/<fingerprint>.journal") — the daemon parks journals next to
  /// the entries so one directory budget governs both.
  [[nodiscard]] std::string journal_path(const Fingerprint& key) const;

  /// Snapshot of the counters (consistent enough for reporting; the
  /// counters are monotone atomics).
  [[nodiscard]] CacheStats stats() const;

  [[nodiscard]] bool degraded() const { return degraded_; }
  [[nodiscard]] const std::string& dir() const { return dir_; }

  /// Committed path of one entry ("<dir>/<fingerprint>.entry").
  [[nodiscard]] std::string entry_path(const Fingerprint& key) const;

 private:
  /// Move a failed entry under corrupt/ (unique name), falling back to
  /// deletion, then to leaving it in place — re-detected next read, still
  /// only a miss. Counts CacheStats::corrupt once per call.
  void quarantine(const std::string& path, const char* reason);
  void warn_write_failure_once(const std::string& detail);

  std::string dir_;
  bool degraded_ = false;
  mutable std::mutex pins_mutex_;
  std::map<std::pair<std::uint64_t, std::uint64_t>, int> pins_;
  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> misses_{0};
  std::atomic<std::uint64_t> corrupt_{0};
  std::atomic<std::uint64_t> evicted_{0};
  std::atomic<std::uint64_t> write_failures_{0};
  std::atomic<bool> warned_write_{false};
  std::atomic<std::uint64_t> temp_seq_{0};
};

/// The conventional environment hook: benches, examples and CI enable the
/// store by exporting SCK_STORE_DIR=<dir>. Returns "" (store off) when the
/// variable is unset or empty.
[[nodiscard]] std::string store_dir_from_env();

}  // namespace sck::store
