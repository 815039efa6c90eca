// Crash-durable shard-level write-ahead journal of the campaign service.
//
// The campaign daemon journals every reduced shard result the moment it
// lands, so a daemon that dies mid-campaign (crash, SIGKILL, power loss)
// can resume from the completed shards instead of recomputing them: on
// the next submission of the same campaign fingerprint the recovered
// per-job stats are spliced back into their grid-index slots and only the
// missing shards are rescheduled — the final NetlistCampaignResult is
// byte-identical to an uninterrupted run because the slots never cared
// WHEN (or by whom) they were filled.
//
// Layout (one file per in-flight campaign, next to the store entries):
//   <dir>/<32-hex-fingerprint>.journal
//
// File format (all integers little-endian), following the CampaignStore
// entry discipline — every region carries its own checksum and nothing is
// ever trusted unverified:
//
//   header:  u64 magic "SCKJRNL\0" | u32 format version | u32 reserved(0)
//            u64 fingerprint.hi | u64 fingerprint.lo   (echoed key)
//            u64 job_count                             (universe geometry)
//            u64 FNV-1a checksum over the bytes above
//   record:  u64 body length | body | u64 FNV-1a checksum over length+body
//            body = u64 shard_id | u64 base | u64 count
//                   | count x (4 x u64 CampaignStats)
// Both are sealed frames of common/codec.h; the stats use the shared
// CampaignStats visit (hls/serialize.h).
//
// Robustness contract:
//  - appends are atomic-or-truncated: each record is written in one
//    write(2) and fsync'd; a crash mid-append leaves a torn tail that
//    recovery TRUNCATES (drops and recomputes) — torn or bit-flipped
//    records are never trusted, and nothing after the first bad record is
//    either (a desynchronized stream cannot be resynced, exactly like the
//    wire FrameBuffer);
//  - a journal whose header does not verify, or echoes a different
//    fingerprint or job count, is RESET: the whole file is discarded and
//    the campaign recomputes from zero (fingerprint mismatch means it was
//    never this campaign's journal to begin with);
//  - duplicate shard records (a pre-crash re-queue can legally produce
//    them) are deduplicated on recovery, first record wins — determinism
//    makes the copies byte-identical anyway;
//  - an unusable journal (directory not writable, append fails) degrades
//    to journal-less execution with one stderr warning: resumability is
//    an accelerator, losing it costs recompute time, never correctness.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "fault/stats.h"
#include "store/fingerprint.h"

namespace sck::store {

/// On-disk journal format generation. Bump on any layout change: journals
/// of another version are reset on open (full recompute, never a wrong
/// resume).
inline constexpr std::uint32_t kJournalFormatVersion = 1;

/// One recovered shard: the per-job stats slice [base, base + per_job
/// .size()) exactly as the pre-crash daemon merged it.
struct JournalShard {
  std::uint64_t shard_id = 0;
  std::uint64_t base = 0;
  std::vector<fault::CampaignStats> per_job;
};

/// What open() found on disk.
struct JournalRecovery {
  std::vector<JournalShard> shards;  ///< valid record prefix, deduplicated
  std::size_t duplicates = 0;        ///< records dropped as duplicates
  std::uint64_t truncated_bytes = 0;  ///< torn/corrupt tail cut off
  bool reset = false;  ///< header mismatch: journal discarded entirely
};

/// Exposed for the adversarial journal tests (truncate-at-every-byte,
/// bit-flip, duplicate and mismatch suites build files byte by byte).
[[nodiscard]] std::vector<unsigned char> serialize_journal_header(
    const Fingerprint& key, std::uint64_t job_count);
[[nodiscard]] std::vector<unsigned char> serialize_journal_record(
    std::uint64_t shard_id, std::uint64_t base,
    std::span<const fault::CampaignStats> per_job);

/// The write-ahead journal of ONE campaign. Not thread-safe by itself —
/// the daemon's single event loop is the only writer.
class ShardJournal {
 public:
  /// Opens (creating, recovering or resetting) the journal at `path` for
  /// the campaign identified by `key` over `job_count` fault jobs.
  /// recovery() describes everything that was salvaged; the file is left
  /// positioned for appends (valid prefix kept, tail truncated).
  ShardJournal(std::string path, const Fingerprint& key,
               std::uint64_t job_count);
  ~ShardJournal();

  ShardJournal(const ShardJournal&) = delete;
  ShardJournal& operator=(const ShardJournal&) = delete;

  [[nodiscard]] const JournalRecovery& recovery() const { return recovery_; }
  [[nodiscard]] const std::string& path() const { return path_; }
  /// False when the journal could not be created/written: the campaign
  /// runs journal-less (one stderr warning), results stay correct.
  [[nodiscard]] bool usable() const { return fd_ >= 0; }

  /// Durably append one reduced shard result (single write + fsync).
  /// False (after one warning) when the record could not be committed —
  /// the shard simply is not resumable.
  bool append(std::uint64_t shard_id, std::uint64_t base,
              std::span<const fault::CampaignStats> per_job);

  /// The campaign finalized: the journal has served its purpose, remove
  /// it from disk (close + unlink).
  void remove();

 private:
  std::string path_;
  int fd_ = -1;
  bool warned_ = false;
  JournalRecovery recovery_;
};

}  // namespace sck::store
