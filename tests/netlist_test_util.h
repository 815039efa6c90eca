// Shared helpers for the netlist-backend differential suites
// (test_netlist_batch / test_netlist_incremental / test_backend_differential):
// one synthesis recipe, ONE definition of campaign-result equality (so a
// new NetlistCampaignResult/CampaignStats field cannot be silently dropped
// from a subset of the comparisons), a fault-by-fault re-derivation of the
// whole campaign and one block-at-a-time re-derivation of the sampled
// campaign.
#pragma once

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/rng.h"
#include "fault/outcome.h"
#include "fault/stats.h"
#include "hls/bind.h"
#include "hls/dfg.h"
#include "hls/expand_sck.h"
#include "hls/netlist.h"
#include "hls/netlist_campaign.h"
#include "hls/netlist_sim.h"
#include "hls/schedule.h"

namespace sck::hls {

/// Schedule + bind + netlist under `rc` (fully unconstrained = ASAP, the
/// min-latency recipe; any limit = min-area list scheduling).
inline Netlist synthesize(const Dfg& g, const ResourceConstraints& rc,
                          const std::string& name) {
  Schedule s = (rc.addsub < 0 && rc.mul < 0 && rc.cmp < 0 && rc.divrem < 0)
                   ? schedule_asap(g)
                   : schedule_list(g, rc);
  validate_schedule(g, s, rc);
  Binding b = bind(g, s, rc);
  validate_binding(g, s, b);
  return generate_netlist(g, s, b, name);
}

inline Dfg ced(const Dfg& g, CedStyle style) {
  CedOptions opt;
  opt.style = style;
  return insert_ced(g, opt);
}

/// Bit-exact NetlistCampaignResult equality under the suites' historical
/// name — delegates to the library's member-wise operator==
/// (hls/netlist_campaign.h), so every field is always compared.
inline bool same_campaign_result(const NetlistCampaignResult& x,
                                 const NetlistCampaignResult& y) {
  return x == y;
}

/// A netlist campaign re-derived fault by fault from its definition, with
/// nothing shared with the runner but the job list, the duration hashes
/// and the slice reduction. The input stream is restated here (sample k
/// draws each graph input, in graph order, from one Xoshiro256 keyed by
/// (seed, k), bounded by the input's width); every job replays it through
/// a NetlistSim of its own, name-keyed, and checks each sample against a
/// fresh Dfg::eval of that sample, output by output name. The runner
/// builds one reference table per campaign and compares by position on
/// every backend; run_netlist_campaign must equal this on all of them.
inline NetlistCampaignResult per_fault_campaign(
    const Dfg& g, const Netlist& nl, const NetlistCampaignOptions& opt) {
  using InputMap = std::unordered_map<std::string, std::uint64_t>;
  std::vector<InputMap> stream(
      static_cast<std::size_t>(opt.samples_per_fault));
  for (int k = 0; k < opt.samples_per_fault; ++k) {
    Xoshiro256 rng(opt.seed ^ 0xD1B54A32D192ED03ULL ^
                   ((static_cast<std::uint64_t>(k) + 1) *
                    0x9E3779B97F4A7C15ULL));
    for (const NodeId in : g.inputs()) {
      const Node& n = g.node(in);
      stream[static_cast<std::size_t>(k)][n.name] =
          rng.bounded(Word{1} << n.width);
    }
  }

  const std::vector<FaultJob> jobs = enumerate_fault_jobs(nl, opt);
  std::vector<fault::CampaignStats> per_job(jobs.size());
  NetlistSim sim(nl);
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    const FaultJob& job = jobs[j];
    const bool seu = job.kind == FaultKind::kSeu;
    std::vector<std::uint64_t> ref_state(g.state_regs().size(), 0);
    sim.reset();
    for (int k = 0; k < opt.samples_per_fault; ++k) {
      if (!seu) {
        sim.set_fu_fault(job.fu, fault_active_at(opt, j, k)
                                     ? job.site
                                     : hw::FaultSite{});
      } else if (k == seu_flip_sample(opt, j)) {
        sim.flip_register_bit(job.fu, job.seu_bit);
      }
      const InputMap& in = stream[static_cast<std::size_t>(k)];
      const auto got = sim.step_sample(in);
      const auto want = g.eval(in, ref_state);
      bool erroneous = false;
      for (const auto& [name, value] : want.outputs) {
        if (name != "error" && got.at(name) != value) erroneous = true;
      }
      const auto error = got.find("error");
      const bool detected = error != got.end() && error->second != 0;
      per_job[j].record(fault::classify(erroneous, !detected));
    }
    if (!seu) sim.set_fu_fault(job.fu, hw::FaultSite{});
  }
  return reduce_campaign_slices(nl, jobs, per_job);
}

/// A sampled campaign re-derived one block at a time from its definition:
/// the seeded Fisher–Yates permutation of the job list, per-job stats from
/// ONE batched run_jobs call over the permuted prefix of up to max_jobs
/// jobs, the Wilson stop rule applied at every block boundary in order,
/// and the reduction of the stopping prefix in global job-index order.
/// run_sampled_netlist_campaign must equal this at any thread count, lane
/// width and backend, however far ahead of the stop rule it evaluates.
inline SampledNetlistCampaignResult blockwise_sampled_campaign(
    const Dfg& g, const Netlist& nl, NetlistCampaignOptions opt,
    const SampledCampaignOptions& sampling) {
  opt.backend = NetlistBackend::kBatched;
  const CampaignSliceRunner runner(g, nl, opt);
  const std::size_t universe = runner.jobs().size();
  std::vector<std::uint64_t> perm(universe);
  std::iota(perm.begin(), perm.end(), std::uint64_t{0});
  Xoshiro256 rng(sampling.sample_seed);
  for (std::size_t i = universe; i > 1; --i) {
    const auto j = static_cast<std::size_t>(rng.bounded(i));
    std::swap(perm[i - 1], perm[j]);
  }
  const std::size_t cap = sampling.max_jobs == 0
                              ? universe
                              : std::min(universe, sampling.max_jobs);
  std::vector<fault::CampaignStats> per_sampled(cap);
  runner.run_jobs(std::span<const std::uint64_t>(perm.data(), cap),
                  per_sampled);

  SampledNetlistCampaignResult r;
  r.universe_jobs = universe;
  std::uint64_t detected = 0;
  std::size_t done = 0;
  while (done < cap) {
    const std::size_t end = std::min(cap, done + sampling.block);
    for (; done < end; ++done) {
      if (per_sampled[done].detections() > 0) ++detected;
    }
    r.detection_coverage = fault::wilson_interval(detected, done, sampling.z);
    if (r.detection_coverage.half_width() <= sampling.target_half_width) {
      r.converged = true;
      break;
    }
  }
  r.sampled_jobs = done;

  std::vector<std::size_t> order(done);
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(),
            [&](std::size_t a, std::size_t b) { return perm[a] < perm[b]; });
  std::vector<FaultJob> jobs;
  std::vector<fault::CampaignStats> stats;
  for (const std::size_t idx : order) {
    jobs.push_back(runner.jobs()[perm[idx]]);
    stats.push_back(per_sampled[idx]);
  }
  r.result = reduce_campaign_slices(runner.netlist(), jobs, stats);
  return r;
}

}  // namespace sck::hls
