#include "service/wire.h"

#include "common/assert.h"
#include "common/codec.h"
#include "hls/serialize.h"

namespace sck::service {

// ---------------------------------------------------------------------------
// Payload field descriptions (common/codec.h); the campaign types' visits
// live in hls/serialize.h. Found by argument-dependent lookup, so they sit
// in this namespace rather than an anonymous one.

template <class V, codec::Is<HelloPayload> T>
void visit(V& v, T& p) {
  auto& [worker_name, native_lanes] = p;
  v(worker_name, native_lanes);
}

template <class V, codec::Is<HelloAckPayload> T>
void visit(V& v, T& p) {
  auto& [worker_id] = p;
  v(worker_id);
}

namespace {

/// CampaignSliceRunner's preconditions: the netlist ports mirror the
/// graph's.
[[nodiscard]] bool ports_match(const hls::Dfg& graph,
                               const hls::Netlist& netlist) {
  if (netlist.input_names.size() != graph.inputs().size() ||
      netlist.outputs.size() != graph.outputs().size()) {
    return false;
  }
  for (std::size_t i = 0; i < netlist.outputs.size(); ++i) {
    if (graph.node(graph.outputs()[i]).name != netlist.outputs[i].name) {
      return false;
    }
  }
  return true;
}

}  // namespace

template <class V, codec::Is<CampaignPayload> T>
void visit(V& v, T& c) {
  auto& [graph, netlist, options] = c;
  v(graph, netlist, options);
  if constexpr (V::kDecodes) {
    if (v.ok()) v.check(ports_match(graph, netlist));
  }
}

template <class V, codec::Is<CampaignSetupPayload> T>
void visit(V& v, T& p) {
  auto& [campaign_id, campaign] = p;
  v(campaign_id, campaign);
}

template <class V, codec::Is<ShardRequestPayload> T>
void visit(V& v, T& p) {
  auto& [campaign_id, shard_id, base, jobs] = p;
  v(campaign_id, shard_id, base, jobs);
}

template <class V, codec::Is<ShardResultPayload> T>
void visit(V& v, T& p) {
  auto& [campaign_id, shard_id, base, per_job, seconds] = p;
  v(campaign_id, shard_id, base, per_job, seconds);
}

template <class V, codec::Is<WorkerShardStats> T>
void visit(V& v, T& w) {
  auto& [worker, lanes, shards, samples, seconds, lost] = w;
  v(worker, lanes, shards, samples, seconds, lost);
}

template <class V, codec::Is<ShardStats> T>
void visit(V& v, T& s) {
  auto& [shards_total, shards_executed, shards_requeued, shards_journaled,
         shards_resumed, workers, workers_lost, workers_quarantined,
         served_from_cache, seconds, samples_per_sec, per_worker] = s;
  v(shards_total, shards_executed, shards_requeued, shards_journaled,
    shards_resumed, workers, workers_lost, workers_quarantined,
    served_from_cache, seconds, samples_per_sec, per_worker);
}

template <class V, codec::Is<CampaignResponsePayload> T>
void visit(V& v, T& p) {
  auto& [campaign_id, ok, error, result, stats] = p;
  v(campaign_id, ok, error, result, stats);
}

// ---------------------------------------------------------------------------
// Frame layer: a sealed frame whose checksum is verified first.

std::vector<unsigned char> encode_frame(MsgType type,
                                        std::span<const unsigned char> payload) {
  SCK_EXPECTS(payload.size() <= kMaxFramePayload);
  return codec::seal(kWireMagic, kWireProtocolVersion,
                     static_cast<std::uint32_t>(type), payload);
}

std::optional<Frame> decode_frame(std::span<const unsigned char> bytes) {
  std::optional<codec::Reader> r = codec::unseal(bytes);
  if (!r) return std::nullopt;
  std::uint64_t magic = 0;
  std::uint32_t version = 0;
  std::uint32_t type_raw = 0;
  std::span<const unsigned char> payload;
  (*r)(magic, version, type_raw, payload);
  if (!r->done() || magic != kWireMagic || version != kWireProtocolVersion ||
      type_raw < 1 || type_raw > kMaxMsgType ||
      payload.size() > kMaxFramePayload) {
    return std::nullopt;
  }
  return Frame{static_cast<MsgType>(type_raw), {payload.begin(), payload.end()}};
}

std::optional<Frame> FrameBuffer::next() {
  if (!error_.empty()) return std::nullopt;
  if (bytes_.size() < kFrameHeaderBytes) return std::nullopt;

  // Validate the fixed header as soon as it is complete: a bad magic,
  // foreign protocol version or oversized length prefix poisons the
  // stream BEFORE any payload is buffered or allocated.
  codec::Reader r({bytes_.data(), kFrameHeaderBytes});
  std::uint64_t magic = 0;
  std::uint32_t version = 0;
  std::uint32_t type_raw = 0;
  std::uint64_t length = 0;
  r(magic, version, type_raw, length);
  if (magic != kWireMagic) {
    error_ = "wire: bad frame magic (desynchronized stream?)";
    return std::nullopt;
  }
  if (version != kWireProtocolVersion) {
    error_ = "wire: protocol version mismatch (got " +
             std::to_string(version) + ", want " +
             std::to_string(kWireProtocolVersion) + ")";
    return std::nullopt;
  }
  if (type_raw < 1 || type_raw > kMaxMsgType) {
    error_ = "wire: unknown message type " + std::to_string(type_raw);
    return std::nullopt;
  }
  if (length > kMaxFramePayload) {
    error_ = "wire: oversized payload length prefix (" +
             std::to_string(length) + " bytes)";
    return std::nullopt;
  }

  const std::size_t total = kFrameHeaderBytes +
                            static_cast<std::size_t>(length) +
                            kFrameChecksumBytes;
  if (bytes_.size() < total) return std::nullopt;  // need more bytes

  const std::optional<Frame> frame =
      decode_frame(std::span<const unsigned char>(bytes_.data(), total));
  if (!frame.has_value()) {
    error_ = "wire: frame checksum mismatch";
    return std::nullopt;
  }
  bytes_.erase(bytes_.begin(),
               bytes_.begin() + static_cast<std::ptrdiff_t>(total));
  return frame;
}

// ---------------------------------------------------------------------------
// Payload codecs: the canonical encoding of each payload's visit. Decoders
// require the payload to be FULLY consumed: trailing garbage is rejected,
// not ignored.

std::vector<unsigned char> encode_hello(const HelloPayload& p) {
  return codec::encode(p);
}

std::optional<HelloPayload> decode_hello(
    std::span<const unsigned char> payload) {
  return codec::decode<HelloPayload>(payload);
}

std::vector<unsigned char> encode_hello_ack(const HelloAckPayload& p) {
  return codec::encode(p);
}

std::optional<HelloAckPayload> decode_hello_ack(
    std::span<const unsigned char> payload) {
  return codec::decode<HelloAckPayload>(payload);
}

std::vector<unsigned char> encode_campaign_setup(
    const CampaignSetupPayload& p) {
  return codec::encode(p);
}

std::optional<CampaignSetupPayload> decode_campaign_setup(
    std::span<const unsigned char> payload) {
  return codec::decode<CampaignSetupPayload>(payload);
}

std::vector<unsigned char> encode_shard_request(const ShardRequestPayload& p) {
  return codec::encode(p);
}

std::optional<ShardRequestPayload> decode_shard_request(
    std::span<const unsigned char> payload) {
  return codec::decode<ShardRequestPayload>(payload);
}

std::vector<unsigned char> encode_shard_result(const ShardResultPayload& p) {
  return codec::encode(p);
}

std::optional<ShardResultPayload> decode_shard_result(
    std::span<const unsigned char> payload) {
  return codec::decode<ShardResultPayload>(payload);
}

std::vector<unsigned char> encode_campaign_response(
    const CampaignResponsePayload& p) {
  return codec::encode(p);
}

std::optional<CampaignResponsePayload> decode_campaign_response(
    std::span<const unsigned char> payload) {
  return codec::decode<CampaignResponsePayload>(payload);
}

std::vector<unsigned char> encode_error(const std::string& msg) {
  return codec::encode(msg);
}

std::optional<std::string> decode_error(
    std::span<const unsigned char> payload) {
  return codec::decode<std::string>(payload);
}

}  // namespace sck::service
