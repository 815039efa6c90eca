// Workload `explore`: Explorer::run over builtin_registry() x {plain, sck,
// embedded} x {min_area, min_latency} at w16 — 36 campaigns of very
// different sizes, so fixed per-campaign costs (runner setup, pool
// spin-up, reduction) sit beside execution. Shared-stream incremental
// coverage, stride 1, no SW leg, no store, point_threads 1. Bypasses the
// service and the store.
#include <memory>

#include "bench.h"
#include "codesign/explorer.h"
#include "codesign/kernel.h"
#include "hw/plane.h"

namespace perfbench {
namespace {

using sck::codesign::DesignPoint;
using sck::codesign::Explorer;
using sck::codesign::ExplorerOptions;

constexpr int kSamplesPerFault = 64;

/// The scientific payload of one sweep.
struct Sweep {
  std::vector<sck::fault::CampaignStats> stats;
  std::vector<std::uint64_t> faults;
  std::vector<std::size_t> frontier;

  [[nodiscard]] std::uint64_t samples() const {
    std::uint64_t n = 0;
    for (const auto& s : stats) n += s.total();
    return n;
  }
  [[nodiscard]] std::string digest(
      const std::vector<DesignPoint>& points) const {
    Digest d;
    for (std::size_t i = 0; i < points.size(); ++i) {
      d.add(sck::codesign::to_string(points[i])).add(stats[i]).add(faults[i]);
    }
    for (const std::size_t f : frontier) d.add(static_cast<std::uint64_t>(f));
    return d.hex();
  }
};

Sweep from_report(const sck::codesign::ExplorationReport& report) {
  Sweep s;
  for (const auto& p : report.points) {
    s.stats.push_back(p.stats);
    s.faults.push_back(p.faults);
  }
  s.frontier = report.frontier;
  return s;
}

ExplorerOptions explorer_options(const Config& cfg) {
  ExplorerOptions eo;
  eo.campaign.samples_per_fault = kSamplesPerFault;
  eo.campaign.seed = derive_seed(cfg.seed, 1);
  eo.campaign.fault_stride = 1;
  eo.campaign.threads = cfg.threads;
  eo.point_threads = 1;
  eo.sw_samples = 0;
  return eo;
}

/// The campaign options Explorer::run derives for its coverage leg
/// (report_version 2: shared stream, incremental backend, no dropping).
sck::hls::NetlistCampaignOptions managed_options(const ExplorerOptions& eo) {
  sck::hls::NetlistCampaignOptions o = eo.campaign;
  o.stream = sck::hls::StreamMode::kShared;
  o.backend = sck::hls::NetlistBackend::kIncremental;
  o.fault_dropping = false;
  return o;
}

/// Explorer::run's coverage leg replayed through the hls layer's public
/// calls, one span around each: the traced form of one sweep.
Sweep traced_sweep(Explorer& explorer, const std::vector<DesignPoint>& points,
                   const sck::hls::NetlistCampaignOptions& options,
                   Tracer& tracer, Outcome& out) {
  Sweep sweep;
  std::uint64_t jobs = 0;
  std::uint64_t batches = 0;
  std::vector<sck::codesign::ParetoMetrics> metrics;
  for (const DesignPoint& point : points) {
    const sck::codesign::SynthesizedPoint& design = explorer.synthesize(point);
    const sck::hls::Dfg& graph = explorer.reference_graph(point);
    std::unique_ptr<sck::hls::CampaignSliceRunner> runner;
    {
      Tracer::Span span(tracer, "hls.runner_setup_s");
      runner = std::make_unique<sck::hls::CampaignSliceRunner>(
          graph, design.netlist, options);
    }
    std::vector<sck::fault::CampaignStats> per_job(runner->jobs().size());
    {
      Tracer::Span span(tracer, "hls.execute_s");
      runner->run_slice(0, per_job.size(), per_job);
    }
    sck::hls::NetlistCampaignResult result;
    {
      Tracer::Span span(tracer, "hls.reduce_s");
      result = sck::hls::reduce_campaign_slices(runner->netlist(),
                                                runner->jobs(), per_job);
    }
    jobs += per_job.size();
    batches += batches_for(per_job.size(), runner->lanes());
    sweep.stats.push_back(result.aggregate);
    sweep.faults.push_back(result.fault_universe_size);
    metrics.push_back({design.report.slices,
                       static_cast<double>(design.report.steps),
                       result.aggregate.coverage()});
  }
  sweep.frontier = sck::codesign::pareto_frontier(metrics);
  out.layer["hls.jobs"] = static_cast<double>(jobs);
  out.layer["hls.samples"] = static_cast<double>(sweep.samples());
  out.layer["hls.batches"] = static_cast<double>(batches);
  out.layer["hls.lane_fill"] =
      static_cast<double>(jobs) /
      (static_cast<double>(batches) * static_cast<double>(out.lanes));
  out.layer["fault.blocks"] = static_cast<double>(points.size());
  return sweep;
}

}  // namespace

Outcome run_explore(const Config& cfg, Tracer& tracer) {
  Outcome out;
  out.lanes = sck::hw::resolve_lanes(0);
  const sck::codesign::KernelRegistry registry =
      sck::codesign::builtin_registry();
  sck::codesign::DesignGrid grid;
  grid.kernels = registry.names();
  const std::vector<DesignPoint> points = grid.points();
  const ExplorerOptions eo = explorer_options(cfg);
  const sck::hls::NetlistCampaignOptions managed = managed_options(eo);

  // Setup: synthesis and reference graphs of every point on a fresh
  // explorer, whose caches then serve the timed loop.
  std::unique_ptr<Explorer> explorer;
  measure_setup(tracer, out, [&] {
    explorer.reset();
    const double t0 = now_s();
    explorer = std::make_unique<Explorer>(registry, eo);
    synthesize(*explorer, points, tracer);
    return now_s() - t0;
  });

  // The traced run alternates the untraced sweep with its traced replay,
  // so both are measured under the same conditions.
  const std::vector<std::string> digests =
      timed_loop(cfg, tracer, out, 3, [&](bool traced) {
        const Sweep sweep =
            traced ? traced_sweep(*explorer, points, managed, tracer, out)
                   : from_report(explorer->run(points));
        out.samples_per_op = sweep.samples();
        return sweep.digest(points);
      });
  out.attempted = digests.size();
  out.digests["sweep"] = digests.front();

  if (cfg.trace) {
    // Plan compile and cone build on their own, and the execute leg at one
    // thread for the parallel efficiency.
    std::vector<const sck::hls::Netlist*> netlists;
    for (const DesignPoint& point : points) {
      netlists.push_back(&explorer->synthesize(point).netlist);
    }
    measure_plans(netlists, false, out);

    sck::hls::NetlistCampaignOptions one = managed;
    one.threads = 1;
    double execute_1 = 0.0;
    for (const DesignPoint& point : points) {
      const sck::hls::CampaignSliceRunner runner(
          explorer->reference_graph(point),
          explorer->synthesize(point).netlist, one);
      std::vector<sck::fault::CampaignStats> per_job(runner.jobs().size());
      const double t0 = now_s();
      runner.run_slice(0, per_job.size(), per_job);
      execute_1 += now_s() - t0;
    }
    const double execute_n = median(out.span_s["hls.execute_s"]);
    out.layer["fault.parallel_efficiency"] =
        execute_1 / (cfg.threads * execute_n);
  }

  // Correctness gate: the same grid through the batched backend on the
  // same shared stream (an independent engine: no golden trace, no cone
  // replay). Every sweep, untraced or traced, must match it.
  ExplorerOptions gate = eo;
  gate.legacy_streams = true;  // run `campaign` verbatim
  gate.campaign.stream = sck::hls::StreamMode::kShared;
  gate.campaign.backend = sck::hls::NetlistBackend::kBatched;
  Explorer reference(registry, gate);
  const std::string want = from_report(reference.run(points)).digest(points);
  out.digests["gate_batched"] = want;
  for (std::size_t i = 0; i < digests.size(); ++i) {
    if (digests[i] != want) {
      out.fail("sweep " + std::to_string(i) + " digest " + digests[i] +
               " != batched reference " + want);
    }
  }
  return out;
}

}  // namespace perfbench
