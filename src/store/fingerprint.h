// Stable campaign fingerprints — the content address of the result store.
//
// A campaign's NetlistCampaignResult is a pure function of (reference
// graph, synthesized netlist, compiled execution plan, fault universe,
// the result-shaping campaign options) — the determinism discipline of
// the differential suites proves the backend, lane packing and thread
// count cannot change a single bit. The fingerprint digests exactly that
// tuple into a 128-bit key by streaming the CANONICAL ENCODING of each
// input (the visits of hls/serialize.h, the same field descriptions the
// wire codec ships) through a two-lane FNV-1a hasher, so the same campaign
// maps to the same on-disk entry on every platform.
//
// POISONING HAZARD: anything that changes the numerical result of a
// campaign but is NOT hashed here would silently alias distinct campaigns
// onto one cache slot. Hashing whole visits closes that by construction: a
// member added to a visited struct fails the build until its visit names
// it, and from then on it is both shipped and hashed. The only omissions
// are the named kResultInvariantOptions. The converse (hashing something
// irrelevant) only costs misses. When the hashed inputs change, bump
// kFingerprintVersion so every stale entry misses instead of colliding
// (tests/test_store.cpp pins golden fingerprint values to make accidental
// drift loud).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <tuple>

#include "common/codec.h"
#include "hls/dfg.h"
#include "hls/netlist_campaign.h"
#include "hls/netlist_exec.h"

namespace sck::store {

/// Hashed-input enumeration generation. Bump when campaign_fingerprint
/// starts hashing different inputs (or the same inputs differently):
/// every entry written under the old enumeration then misses cleanly.
/// v3: hashes the canonical encodings, including the netlist register
/// table that sizes and names the SEU universe.
inline constexpr std::uint64_t kFingerprintVersion = 3;

/// The options the fingerprint leaves out — reset to their defaults before
/// hashing — because the differential suites prove they cannot change a
/// result bit; hashing them would only split the cache.
inline constexpr std::tuple kResultInvariantOptions{
    &hls::NetlistCampaignOptions::threads,
    &hls::NetlistCampaignOptions::backend,
    &hls::NetlistCampaignOptions::lanes};

/// 128-bit content address of one campaign.
struct Fingerprint {
  std::uint64_t hi = 0;
  std::uint64_t lo = 0;

  friend bool operator==(const Fingerprint&, const Fingerprint&) = default;
};

/// 32 lowercase hex digits, hi first — the on-disk entry name.
[[nodiscard]] std::string to_string(const Fingerprint& fp);

template <class V, codec::Is<Fingerprint> T>
void visit(V& v, T& fp) {
  auto& [hi, lo] = fp;
  v(hi, lo);
}

/// The campaign key: hashes, in this order, kFingerprintVersion, the
/// reference graph (semantics + input widths that shape the stimuli), the
/// whole netlist (FU identities, whose names are part of the per-unit
/// breakdown; the register table, whose widths and names size and name
/// the SEU universe; ports, state loads and microcode), the campaign
/// options minus kResultInvariantOptions, the compiled plan (the executed
/// structure) and the complete per-FU stuck-at universe. `plan` must be
/// compiled from the netlist the campaign will run (plan.netlist is the
/// netlist hashed).
[[nodiscard]] Fingerprint campaign_fingerprint(
    const hls::Dfg& graph, const hls::ExecPlan& plan,
    const hls::NetlistCampaignOptions& options);

}  // namespace sck::store
