#include "store/journal.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <set>
#include <utility>

#include "common/codec.h"
#include "hls/serialize.h"

namespace sck::store {

namespace {

/// "SCKJRNL\0" as a little-endian u64.
constexpr std::uint64_t kJournalMagic = 0x004C4E524A'4B4353ULL;

/// Record body prefix: shard_id + base + count.
constexpr std::size_t kRecordFixedBytes = 8 + 8 + 8;
constexpr std::size_t kStatsBytes = 4 * 8;

[[nodiscard]] bool write_all(int fd, const unsigned char* data,
                             std::size_t size) {
  std::size_t done = 0;
  while (done < size) {
    const ssize_t n = ::write(fd, data + done, size - done);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    done += static_cast<std::size_t>(n);
  }
  return true;
}

}  // namespace

std::vector<unsigned char> serialize_journal_header(const Fingerprint& key,
                                                    std::uint64_t job_count) {
  return codec::seal(kJournalMagic, kJournalFormatVersion, std::uint32_t{0},
                     key, job_count);
}

std::vector<unsigned char> serialize_journal_record(
    std::uint64_t shard_id, std::uint64_t base,
    std::span<const fault::CampaignStats> per_job) {
  // Sealed over the length prefix AND the body: a torn length cannot steer
  // recovery into misparsing the tail as a fresh record.
  return codec::seal(codec::encode(shard_id, base, per_job));
}

ShardJournal::ShardJournal(std::string path, const Fingerprint& key,
                           std::uint64_t job_count)
    : path_(std::move(path)) {
  fd_ = ::open(path_.c_str(), O_RDWR | O_CREAT, 0644);
  if (fd_ < 0) {
    std::fprintf(stderr,
                 "[journal] WARNING: cannot open '%s' (%s); campaign will "
                 "not be resumable\n",
                 path_.c_str(), std::strerror(errno));
    return;
  }

  // Read the whole file for recovery.
  std::vector<unsigned char> bytes;
  {
    unsigned char buf[1 << 16];
    for (;;) {
      const ssize_t n = ::read(fd_, buf, sizeof buf);
      if (n < 0) {
        if (errno == EINTR) continue;
        bytes.clear();  // unreadable: treat as empty, rewrite below
        break;
      }
      if (n == 0) break;
      bytes.insert(bytes.end(), buf, buf + n);
    }
  }

  const std::vector<unsigned char> want_header =
      serialize_journal_header(key, job_count);

  // Validate the header byte for byte (it is a pure function of
  // key/job_count, so equality == magic+version+key+geometry+checksum all
  // match). Anything else — including a pre-existing empty file — is a
  // reset: never resume from a journal that was not provably ours.
  std::size_t valid = 0;
  if (bytes.size() >= want_header.size() &&
      std::equal(want_header.begin(), want_header.end(), bytes.begin())) {
    valid = want_header.size();
    std::set<std::uint64_t> seen;
    while (valid < bytes.size()) {
      const auto rest = std::span<const unsigned char>(bytes).subspan(valid);
      std::uint64_t body = 0;
      codec::Reader length(rest);
      length(body);
      // A torn length prefix fails the read. Bound the body before trusting
      // it: a record can describe at most the whole job universe.
      if (!length.ok() || body < kRecordFixedBytes ||
          body > kRecordFixedBytes + job_count * kStatsBytes) {
        break;
      }
      if (rest.size() < 8 + body + 8) break;  // torn record or checksum
      std::optional<codec::Reader> r =
          codec::unseal(rest.first(8 + static_cast<std::size_t>(body) + 8));
      if (!r) break;  // bit rot / torn rewrite: nothing after it is trusted
      JournalShard shard;
      (*r)(body, shard.shard_id, shard.base, shard.per_job);
      if (!r->done()) break;  // the count must fill the body exactly
      if (shard.base > job_count ||
          shard.per_job.size() > job_count - shard.base) {
        break;
      }
      valid += 8 + static_cast<std::size_t>(body) + 8;
      if (!seen.insert(shard.shard_id).second) {
        ++recovery_.duplicates;  // pre-crash re-queue duplicate: first wins
        continue;
      }
      recovery_.shards.push_back(std::move(shard));
    }
    recovery_.truncated_bytes = bytes.size() - valid;
  } else if (!bytes.empty()) {
    recovery_.reset = true;
    recovery_.truncated_bytes = bytes.size();
  }

  if (valid == 0) {
    // Fresh file, or a reset: start over with our own header.
    if (::ftruncate(fd_, 0) != 0 ||
        ::lseek(fd_, 0, SEEK_SET) != 0 ||
        !write_all(fd_, want_header.data(), want_header.size()) ||
        ::fsync(fd_) != 0) {
      std::fprintf(stderr,
                   "[journal] WARNING: cannot initialize '%s' (%s); "
                   "campaign will not be resumable\n",
                   path_.c_str(), std::strerror(errno));
      ::close(fd_);
      fd_ = -1;
    }
    return;
  }

  // Keep the valid prefix, drop the torn/corrupt tail, append after it.
  if (recovery_.truncated_bytes > 0) {
    if (::ftruncate(fd_, static_cast<off_t>(valid)) != 0) {
      // Cannot cut the bad tail: appends would interleave with garbage and
      // the NEXT recovery would stop at the garbage anyway — run
      // journal-less instead of risking it.
      std::fprintf(stderr,
                   "[journal] WARNING: cannot truncate torn tail of '%s'; "
                   "campaign will not be resumable\n",
                   path_.c_str());
      ::close(fd_);
      fd_ = -1;
      return;
    }
  }
  if (::lseek(fd_, static_cast<off_t>(valid), SEEK_SET) < 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

ShardJournal::~ShardJournal() {
  if (fd_ >= 0) ::close(fd_);
}

bool ShardJournal::append(std::uint64_t shard_id, std::uint64_t base,
                          std::span<const fault::CampaignStats> per_job) {
  if (fd_ < 0) return false;
  const std::vector<unsigned char> record =
      serialize_journal_record(shard_id, base, per_job);
  if (!write_all(fd_, record.data(), record.size()) || ::fsync(fd_) != 0) {
    if (!warned_) {
      warned_ = true;
      std::fprintf(stderr,
                   "[journal] WARNING: append to '%s' failed (%s); this "
                   "shard will not be resumable\n",
                   path_.c_str(), std::strerror(errno));
    }
    return false;
  }
  return true;
}

void ShardJournal::remove() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  (void)::unlink(path_.c_str());
}

}  // namespace sck::store
