// Workload `sampled`: run_sampled_netlist_campaign on
// matvec/sck/min_latency/w16 with transient faults (window 4) and
// register-bit SEUs, blocks of 256 and a target Wilson half-width of
// 0.005. One setup, then long shared streams replayed over permuted job
// ids with active-window replay: this is where hls/hw/fault execution
// shows. Bypasses the explorer's sweep, the service and the store.
#include <memory>
#include <numeric>
#include <optional>

#include "bench.h"
#include "codesign/explorer.h"
#include "codesign/kernel.h"
#include "common/rng.h"
#include "fault/parallel.h"
#include "hw/plane.h"

namespace perfbench {
namespace {

using sck::fault::CampaignStats;
using sck::hls::SampledNetlistCampaignResult;

constexpr int kSamplesPerFault = 128;

sck::hls::NetlistCampaignOptions campaign_options(const Config& cfg) {
  sck::hls::NetlistCampaignOptions o;
  o.samples_per_fault = kSamplesPerFault;
  o.seed = derive_seed(cfg.seed, 1);
  o.threads = cfg.threads;
  o.stream = sck::hls::StreamMode::kShared;
  o.backend = sck::hls::NetlistBackend::kIncremental;
  o.duration = sck::fault::FaultDuration::kTransient;
  o.transient_samples = 4;
  o.seu_faults = true;
  return o;
}

sck::hls::SampledCampaignOptions sampling_options(const Config& cfg) {
  sck::hls::SampledCampaignOptions s;
  s.sample_seed = derive_seed(cfg.seed, 2);
  s.block = 256;
  s.target_half_width = 0.005;
  return s;
}

/// The sampling permutation run_sampled_netlist_campaign documents:
/// Fisher-Yates over the job list from a Xoshiro256 seeded by sample_seed.
std::vector<std::uint64_t> permutation(std::size_t universe,
                                       std::uint64_t sample_seed) {
  std::vector<std::uint64_t> perm(universe);
  std::iota(perm.begin(), perm.end(), std::uint64_t{0});
  sck::Xoshiro256 rng(sample_seed);
  for (std::size_t i = universe; i > 1; --i) {
    const auto j = static_cast<std::size_t>(rng.bounded(i));
    std::swap(perm[i - 1], perm[j]);
  }
  return perm;
}

/// Reduces the evaluated prefix in global job order, as the sampled
/// campaign does.
sck::hls::NetlistCampaignResult reduce_prefix(
    const sck::hls::CampaignSliceRunner& runner,
    const std::vector<std::uint64_t>& perm,
    const std::vector<CampaignStats>& per_sampled, std::size_t evaluated) {
  std::vector<std::size_t> order(evaluated);
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(),
            [&](std::size_t a, std::size_t b) { return perm[a] < perm[b]; });
  std::vector<sck::hls::FaultJob> jobs;
  std::vector<CampaignStats> stats;
  jobs.reserve(evaluated);
  stats.reserve(evaluated);
  for (const std::size_t idx : order) {
    jobs.push_back(runner.jobs()[perm[idx]]);
    stats.push_back(per_sampled[idx]);
  }
  return sck::hls::reduce_campaign_slices(runner.netlist(), jobs, stats);
}

/// The sampled campaign from per-job stats in permutation order: the
/// Wilson stop rule checked at every block boundary, then the reduction.
SampledNetlistCampaignResult assemble(
    const sck::hls::CampaignSliceRunner& runner,
    const sck::hls::SampledCampaignOptions& sampling,
    const std::vector<std::uint64_t>& perm,
    const std::vector<CampaignStats>& per_sampled) {
  SampledNetlistCampaignResult r;
  r.universe_jobs = perm.size();
  std::uint64_t detected = 0;
  std::size_t done = 0;
  while (done < per_sampled.size()) {
    const std::size_t count = std::min(sampling.block, perm.size() - done);
    for (std::size_t j = done; j < done + count; ++j) {
      if (per_sampled[j].detections() > 0) ++detected;
    }
    done += count;
    r.detection_coverage =
        sck::fault::wilson_interval(detected, done, sampling.z);
    if (r.detection_coverage.half_width() <= sampling.target_half_width) break;
  }
  r.sampled_jobs = done;
  r.converged = done > 0 && r.detection_coverage.half_width() <=
                                sampling.target_half_width;
  r.result = reduce_prefix(runner, perm, per_sampled, done);
  return r;
}

/// run_sampled_netlist_campaign replayed through the hls layer's public
/// calls, one span around each: the traced form of one campaign.
SampledNetlistCampaignResult traced_campaign(
    const sck::hls::Dfg& graph, const sck::hls::Netlist& netlist,
    const sck::hls::NetlistCampaignOptions& options,
    const sck::hls::SampledCampaignOptions& sampling, Tracer& tracer,
    Outcome& out) {
  std::unique_ptr<sck::hls::CampaignSliceRunner> runner;
  {
    Tracer::Span span(tracer, "hls.runner_setup_s");
    runner = std::make_unique<sck::hls::CampaignSliceRunner>(graph, netlist,
                                                             options);
  }
  const std::vector<std::uint64_t> perm =
      permutation(runner->jobs().size(), sampling.sample_seed);
  std::vector<CampaignStats> per_sampled(perm.size());
  std::uint64_t detected = 0;
  std::uint64_t batches = 0;
  std::uint64_t blocks = 0;
  SampledNetlistCampaignResult r;
  r.universe_jobs = perm.size();
  const std::size_t evaluated = sck::fault::run_blocks_until(
      perm.size(), sampling.block,
      [&](std::size_t at, std::size_t count) {
        {
          Tracer::Span span(tracer, "hls.execute_s");
          runner->run_jobs(
              std::span<const std::uint64_t>(perm.data() + at, count),
              std::span<CampaignStats>(per_sampled.data() + at, count));
        }
        ++blocks;
        batches += batches_for(count, runner->lanes());
        for (std::size_t j = at; j < at + count; ++j) {
          if (per_sampled[j].detections() > 0) ++detected;
        }
      },
      [&](std::size_t done) {
        r.detection_coverage =
            sck::fault::wilson_interval(detected, done, sampling.z);
        return r.detection_coverage.half_width() <=
               sampling.target_half_width;
      });
  r.sampled_jobs = evaluated;
  r.converged = evaluated > 0 && r.detection_coverage.half_width() <=
                                     sampling.target_half_width;
  {
    Tracer::Span span(tracer, "hls.reduce_s");
    r.result = reduce_prefix(*runner, perm, per_sampled, evaluated);
  }
  out.layer["hls.jobs"] = static_cast<double>(evaluated);
  out.layer["hls.samples"] = static_cast<double>(r.result.aggregate.total());
  out.layer["hls.batches"] = static_cast<double>(batches);
  out.layer["hls.lane_fill"] =
      static_cast<double>(evaluated) /
      (static_cast<double>(batches) * static_cast<double>(runner->lanes()));
  out.layer["fault.blocks"] = static_cast<double>(blocks);
  return r;
}

}  // namespace

Outcome run_sampled(const Config& cfg, Tracer& tracer) {
  Outcome out;
  out.lanes = sck::hw::resolve_lanes(0);
  const sck::codesign::KernelRegistry registry =
      sck::codesign::builtin_registry();
  const sck::codesign::DesignPoint point{"matvec",
                                         sck::codesign::Variant::kSck,
                                         /*min_area=*/false, 16};
  const sck::hls::NetlistCampaignOptions options = campaign_options(cfg);
  const sck::hls::SampledCampaignOptions sampling = sampling_options(cfg);

  std::unique_ptr<sck::codesign::Explorer> explorer;
  measure_setup(tracer, out, [&] {
    explorer.reset();
    const double t0 = now_s();
    explorer = std::make_unique<sck::codesign::Explorer>(
        registry, sck::codesign::ExplorerOptions{});
    synthesize(*explorer, {point}, tracer);
    return now_s() - t0;
  });

  std::optional<SampledNetlistCampaignResult> first;
  const std::vector<std::string> digests =
      timed_loop(cfg, tracer, out, 3, [&](bool traced) {
        const sck::hls::Dfg& graph = explorer->reference_graph(point);
        const sck::hls::Netlist& netlist =
            explorer->synthesize(point).netlist;
        SampledNetlistCampaignResult r =
            traced ? traced_campaign(graph, netlist, options, sampling,
                                     tracer, out)
                   : sck::hls::run_sampled_netlist_campaign(
                         graph, netlist, options, sampling);
        out.samples_per_op = r.result.aggregate.total();
        const std::string digest = Digest().add(r).hex();
        if (!first.has_value()) first = std::move(r);
        return digest;
      });
  out.info["sampled_jobs"] = static_cast<double>(first->sampled_jobs);
  out.info["universe_jobs"] = static_cast<double>(first->universe_jobs);
  out.info["coverage_lo"] = first->detection_coverage.lo;
  out.info["coverage_hi"] = first->detection_coverage.hi;
  out.attempted = digests.size();
  out.digests["campaign"] = digests.front();

  const sck::hls::Dfg& graph = explorer->reference_graph(point);
  const sck::hls::Netlist& netlist = explorer->synthesize(point).netlist;
  const std::vector<std::uint64_t> perm =
      permutation(first->universe_jobs, sampling.sample_seed);
  if (cfg.trace) {
    measure_plans({&netlist}, options.seu_faults, out);

    // The same blocks at one thread, for the parallel efficiency.
    sck::hls::NetlistCampaignOptions one = options;
    one.threads = 1;
    const sck::hls::CampaignSliceRunner runner(graph, netlist, one);
    std::vector<CampaignStats> per_sampled(first->sampled_jobs);
    const double t0 = now_s();
    for (std::size_t at = 0; at < per_sampled.size(); at += sampling.block) {
      const std::size_t count =
          std::min(sampling.block, per_sampled.size() - at);
      runner.run_jobs(
          std::span<const std::uint64_t>(perm.data() + at, count),
          std::span<CampaignStats>(per_sampled.data() + at, count));
    }
    const double execute_1 = now_s() - t0;
    out.layer["fault.parallel_efficiency"] =
        execute_1 / (cfg.threads * median(out.span_s["hls.execute_s"]));
  }

  // Correctness gate: the evaluated prefix re-run on the batched backend
  // (no golden trace, no cone replay) in one call — per-job stats do not
  // depend on how jobs are grouped — then the stop rule and reduction
  // re-derived from those stats: the rule may not fire before the prefix
  // ends, and must have fired at its end unless the universe ran out.
  sck::hls::NetlistCampaignOptions batched = options;
  batched.backend = sck::hls::NetlistBackend::kBatched;
  const sck::hls::CampaignSliceRunner runner(graph, netlist, batched);
  std::vector<CampaignStats> per_sampled(first->sampled_jobs);
  runner.run_jobs(std::span<const std::uint64_t>(perm.data(),
                                                 per_sampled.size()),
                  per_sampled);
  const std::string want =
      Digest().add(assemble(runner, sampling, perm, per_sampled)).hex();
  out.digests["gate_batched"] = want;
  if (!first->converged && first->sampled_jobs < first->universe_jobs) {
    out.fail("sampled campaign stopped before converging");
  }
  for (std::size_t i = 0; i < digests.size(); ++i) {
    if (digests[i] != want) {
      out.fail("campaign " + std::to_string(i) + " digest " + digests[i] +
               " != batched reference " + want);
    }
  }
  return out;
}

}  // namespace perfbench
