// Payload-mutation fuzz of the one byte codec (common/codec.h). The
// bit-flip and truncation suites of the wire, store and journal only show
// that the checksum rejects damage; this suite gets PAST the checksum. It
// mutates the payload bytes of every wire message type, a store entry and
// a journal record, reseals the FNV-1a trailer so the frame verifies, and
// decodes:
//  - the decoders must never abort (the sanitizer CI job runs this suite
//    with its rotating seed), whatever the payload claims;
//  - any payload they accept must re-encode to the identical bytes — the
//    encoding is canonical, so a decoder cannot silently normalize, clamp
//    or drop a field.
//
// Seeds: a fixed seed always runs; CI adds one rotating seed via the
// SCK_FUZZ_SEED environment variable, exactly like test_backend_differential
// (the effective seed is echoed so failures reproduce).
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "common/codec.h"
#include "common/rng.h"
#include "hls/builder.h"
#include "hls/netlist_campaign.h"
#include "netlist_test_util.h"
#include "service/wire.h"
#include "store/journal.h"
#include "store/store.h"

namespace sck {
namespace {

namespace fs = std::filesystem;
using Bytes = std::vector<unsigned char>;

/// One sealed artifact under test: `sealed` is a valid frame whose bytes
/// [payload_begin, size - trailer) are mutated; `reencode` decodes a
/// resealed mutant and returns its re-encoding (nullopt when rejected).
struct Target {
  std::string name;
  Bytes sealed;
  std::size_t payload_begin = 0;
  std::function<std::optional<Bytes>(const Bytes&)> reencode;
};

void reseal(Bytes& frame) {
  const std::size_t body = frame.size() - codec::kTrailerBytes;
  const std::uint64_t sum = codec::fnv1a({frame.data(), body});
  for (std::size_t i = 0; i < codec::kTrailerBytes; ++i) {
    frame[body + i] = static_cast<unsigned char>(sum >> (8 * i));
  }
}

template <class Payload>
Target wire_target(std::string name, service::MsgType type, const Payload& p,
                   Bytes (*encode)(const Payload&),
                   std::optional<Payload> (*decode)(
                       std::span<const unsigned char>)) {
  Target t;
  t.name = "wire/" + std::move(name);
  t.sealed = service::encode_frame(type, encode(p));
  t.payload_begin = service::kFrameHeaderBytes;
  t.reencode = [type, encode, decode](const Bytes& mutant) -> std::optional<Bytes> {
    // Only payload bytes were touched and the trailer resealed: the frame
    // layer must hand the payload through.
    const std::optional<service::Frame> frame = service::decode_frame(mutant);
    EXPECT_TRUE(frame.has_value());
    if (!frame) return std::nullopt;
    const std::optional<Payload> got = decode(frame->payload);
    if (!got) return std::nullopt;
    return service::encode_frame(type, encode(*got));
  };
  return t;
}

[[nodiscard]] std::vector<Target> targets(const fs::path& dir) {
  const hls::Dfg graph = hls::ced(hls::build_fir(hls::FirSpec{{1, 2, 3}, 4}),
                                  hls::CedStyle::kClassBased);
  const hls::Netlist netlist = hls::synthesize(
      graph, hls::ResourceConstraints::min_area(), "fuzz_fixture");
  hls::NetlistCampaignOptions options;
  options.samples_per_fault = 4;
  options.stream = hls::StreamMode::kShared;
  options.backend = hls::NetlistBackend::kIncremental;
  options.duration = fault::FaultDuration::kTransient;
  options.transient_samples = 2;
  options.seu_faults = true;
  const hls::NetlistCampaignResult result =
      hls::run_netlist_campaign(graph, netlist, options);
  const std::vector<hls::FaultJob> jobs =
      hls::enumerate_fault_jobs(netlist, options);
  const std::vector<fault::CampaignStats> per_job = {
      {1, 2, 3, 4}, {0, 0, 6, 0}, {9, 8, 7, 6}};

  std::vector<Target> out;
  out.push_back(wire_target(
      "hello", service::MsgType::kHello,
      service::HelloPayload{"w0", 256},
      &service::encode_hello, &service::decode_hello));
  out.push_back(wire_target("hello_ack", service::MsgType::kHelloAck,
                            service::HelloAckPayload{7},
                            &service::encode_hello_ack,
                            &service::decode_hello_ack));
  out.push_back(wire_target(
      "campaign_setup", service::MsgType::kCampaignSetup,
      service::CampaignSetupPayload{3, {graph, netlist, options}},
      &service::encode_campaign_setup, &service::decode_campaign_setup));
  // Head and SEU tail of the universe: both job kinds in one payload.
  service::ShardRequestPayload request{3, 1, 4, {jobs.begin(), jobs.begin() + 6}};
  request.jobs.push_back(jobs.back());
  out.push_back(wire_target("shard_request", service::MsgType::kShardRequest,
                            request, &service::encode_shard_request,
                            &service::decode_shard_request));
  out.push_back(wire_target(
      "shard_result", service::MsgType::kShardResult,
      service::ShardResultPayload{3, 1, 4, per_job, 0.125},
      &service::encode_shard_result, &service::decode_shard_result));
  service::CampaignResponsePayload response;
  response.campaign_id = 3;
  response.ok = true;
  response.result = result;
  response.stats.shards_total = 2;
  response.stats.seconds = 1.5;
  response.stats.per_worker = {{"w0", 512, 3, 3000, 0.7, false}};
  out.push_back(wire_target("campaign_response",
                            service::MsgType::kCampaignResponse, response,
                            &service::encode_campaign_response,
                            &service::decode_campaign_response));
  out.push_back(wire_target("error", service::MsgType::kError,
                            std::string("worker lost"), &service::encode_error,
                            &service::decode_error));

  // Store entry: header is magic, version + reserved, key echo, length.
  const store::Fingerprint key{0x0123456789ABCDEFULL, 0xFEDCBA9876543210ULL};
  Target entry;
  entry.name = "store/entry";
  entry.sealed = store::serialize_entry(key, result);
  entry.payload_begin = 8 + 4 + 4 + 16 + 8;
  entry.reencode = [key](const Bytes& mutant) -> std::optional<Bytes> {
    const std::optional<hls::NetlistCampaignResult> got =
        store::deserialize_entry(key, mutant);
    if (!got) return std::nullopt;
    return store::serialize_entry(key, *got);
  };
  out.push_back(std::move(entry));

  // Journal record behind a valid header, recovered through ShardJournal.
  constexpr std::uint64_t kJobs = 1 << 16;
  Target record;
  record.name = "journal/record";
  record.sealed = store::serialize_journal_record(5, 40, per_job);
  record.payload_begin = 8;  // behind the body length prefix
  const fs::path path = dir / "fuzz.journal";
  record.reencode = [key, path](const Bytes& mutant) -> std::optional<Bytes> {
    Bytes file = store::serialize_journal_header(key, kJobs);
    file.insert(file.end(), mutant.begin(), mutant.end());
    {
      std::ofstream f(path, std::ios::binary | std::ios::trunc);
      f.write(reinterpret_cast<const char*>(file.data()),
              static_cast<std::streamsize>(file.size()));
    }
    const store::ShardJournal journal(path.string(), key, kJobs);
    if (journal.recovery().shards.empty()) return std::nullopt;
    const store::JournalShard& shard = journal.recovery().shards.front();
    return store::serialize_journal_record(shard.shard_id, shard.base,
                                           shard.per_job);
  };
  out.push_back(std::move(record));
  return out;
}

/// Values that steer counts, enums, indices and widths to their edges.
constexpr std::uint64_t kInteresting[] = {
    0, 1, 2, 3, 0x7F, 0xFF, 0x7FFFFFFF, 0x80000000, 0xFFFFFFFF,
    0x7FFFFFFFFFFFFFFFULL, 0xFFFFFFFFFFFFFFFFULL};

void mutate(Bytes& frame, std::size_t begin, Xoshiro256& rng) {
  const std::size_t end = frame.size() - codec::kTrailerBytes;
  const std::size_t span = end - begin;
  const int edits = 1 + static_cast<int>(rng.bounded(3));
  for (int e = 0; e < edits; ++e) {
    const std::size_t at = begin + rng.bounded(span);
    switch (rng.bounded(3)) {
      case 0:  // one bit
        frame[at] ^= static_cast<unsigned char>(1u << rng.bounded(8));
        break;
      case 1:  // one byte
        frame[at] = static_cast<unsigned char>(rng.next());
        break;
      default: {  // a 4- or 8-byte little-endian edge value
        const std::uint64_t v =
            kInteresting[rng.bounded(std::size(kInteresting))];
        const std::size_t width = rng.bounded(2) == 0 ? 4 : 8;
        for (std::size_t i = 0; i < width && at + i < end; ++i) {
          frame[at + i] = static_cast<unsigned char>(v >> (8 * i));
        }
        break;
      }
    }
  }
  reseal(frame);
}

void run_codec_fuzz(std::uint64_t seed) {
  const fs::path dir = fs::path(::testing::TempDir()) /
                       ("sck_codec_fuzz_" + std::to_string(seed));
  fs::remove_all(dir);
  fs::create_directories(dir);
  Xoshiro256 rng(seed);
  for (const Target& t : targets(dir)) {
    SCOPED_TRACE(t.name);
    // The unmutated frame round-trips: the harness itself is sound.
    const std::optional<Bytes> self = t.reencode(t.sealed);
    ASSERT_TRUE(self.has_value());
    ASSERT_EQ(*self, t.sealed);

    // File-backed journal recovery is slower; everything else is in memory.
    const int iterations = t.name == "journal/record" ? 1000 : 10000;
    int accepted = 0;
    for (int i = 0; i < iterations; ++i) {
      Bytes mutant = t.sealed;
      mutate(mutant, t.payload_begin, rng);
      const std::optional<Bytes> again = t.reencode(mutant);
      if (!again) continue;
      ++accepted;
      ASSERT_EQ(*again, mutant)
          << "accepted payload re-encodes differently (iteration " << i
          << ", seed " << seed << ")";
    }
    std::cout << "[ FUZZ     ] " << t.name << ": " << accepted << "/"
              << iterations << " mutants accepted\n";
  }
  fs::remove_all(dir);
}

TEST(CodecFuzz, FixedSeed) { run_codec_fuzz(0xC0DEC2026ULL); }

TEST(CodecFuzz, RotatingSeedFromEnvironment) {
  // CI exports SCK_FUZZ_SEED=<run number>; locally the variable is usually
  // unset and this test collapses to a second fixed seed. Reproduce a
  // failure with SCK_FUZZ_SEED=<value> ctest -R test_codec_fuzz.
  std::uint64_t seed = 0xD1FFULL;
  if (const char* env = std::getenv("SCK_FUZZ_SEED")) {
    seed = std::strtoull(env, nullptr, 10);
  }
  const std::uint64_t mixed = seed * 0x9E3779B97F4A7C15ULL + 0xC0DECULL;
  std::cout << "[ SEED     ] SCK_FUZZ_SEED=" << seed << " (mixed: " << mixed
            << ")\n";
  run_codec_fuzz(mixed);
}

}  // namespace
}  // namespace sck
