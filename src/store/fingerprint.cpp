#include "store/fingerprint.h"

#include <vector>

#include "common/assert.h"
#include "hls/serialize.h"
#include "hw/fault_site.h"

namespace sck::store {

namespace {

/// SplitMix64 finalizer: FNV-1a diffuses low-to-high only, so without a
/// final avalanche two inputs differing late in the stream would produce
/// visibly related fingerprints.
[[nodiscard]] std::uint64_t mix(std::uint64_t x) {
  x ^= x >> 30;
  x *= 0xBF58476D1CE4E5B9ULL;
  x ^= x >> 27;
  x *= 0x94D049BB133111EBULL;
  x ^= x >> 31;
  return x;
}

/// Two-lane FNV-1a/64 digest with a SplitMix64 finalizer: the byte sink
/// campaign_fingerprint streams canonical encodings into. Collisions are
/// not adversarially hard (this is a cache key, not a security boundary) —
/// every store entry therefore echoes its full fingerprint and payload
/// checksum, so a colliding or misplaced entry is rejected on read rather
/// than trusted.
class FingerprintHasher {
 public:
  void write(const unsigned char* data, std::size_t n) {
    a_ = codec::fnv1a({data, n}, a_);
    b_ = codec::fnv1a({data, n}, b_);
  }

  [[nodiscard]] Fingerprint finish() const {
    // Cross-couple the lanes so the pair behaves like one 128-bit digest
    // rather than two correlated 64-bit ones.
    Fingerprint fp;
    fp.hi = mix(a_ + 0x9E3779B97F4A7C15ULL * b_);
    fp.lo = mix(b_ ^ mix(a_));
    return fp;
  }

 private:
  std::uint64_t a_ = codec::kFnvBasis;
  std::uint64_t b_ = 0x6C62272E07BB0142ULL;  ///< second lane, distinct basis
};

}  // namespace

std::string to_string(const Fingerprint& fp) {
  static constexpr char kHex[] = "0123456789abcdef";
  std::string s;
  s.reserve(32);
  for (const std::uint64_t word : {fp.hi, fp.lo}) {
    for (int shift = 60; shift >= 0; shift -= 4) {
      s += kHex[(word >> shift) & 0xF];
    }
  }
  return s;
}

Fingerprint campaign_fingerprint(const hls::Dfg& graph,
                                 const hls::ExecPlan& plan,
                                 const hls::NetlistCampaignOptions& options) {
  SCK_EXPECTS(plan.netlist != nullptr);
  hls::NetlistCampaignOptions hashed = options;
  std::apply(
      [&hashed](auto... field) {
        ((hashed.*field = hls::NetlistCampaignOptions{}.*field), ...);
      },
      kResultInvariantOptions);

  codec::Writer<FingerprintHasher> h;
  h(kFingerprintVersion, graph, *plan.netlist, hashed, plan);
  // The complete per-FU stuck-at universe, enumerated exactly like the
  // campaign's job list (pre-stride): the set of faults the counters are
  // reduced over.
  const hls::FuBank probe(*plan.netlist);
  for (std::size_t f = 0; f < plan.netlist->fus.size(); ++f) {
    h(probe.fault_universe(static_cast<int>(f)));
  }
  return h.sink().finish();
}

}  // namespace sck::store
