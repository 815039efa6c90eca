// Duration-model and sampled-campaign suite for the netlist engine.
//
// Three battlegrounds:
//
//  1. REGRESSION: the permanent-fault campaign must be byte-identical to
//     the pre-duration engine. The pinned aggregates below were captured
//     from the flagship FIR design BEFORE the duration/SEU work landed —
//     a failure here means the refactor changed history, not just added
//     to it.
//  2. SEMANTICS: the duration models must mean what they claim — full
//     intermittent duty collapses to permanent, zero duty to fault-free,
//     transient windows produce golden samples outside the window, SEU
//     jobs extend the universe by exactly the architectural register
//     bits — and all of it deterministically (same options, same bytes).
//  3. SAMPLING: confidence-interval campaigns must stop at a seed-stable
//     block boundary regardless of thread count, report a sane Wilson
//     interval, and reduce to EXACTLY the exhaustive result when the
//     whole universe is evaluated.
#include <gtest/gtest.h>

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "codesign/flow.h"
#include "common/rng.h"
#include "fault/duration.h"
#include "fault/stats.h"
#include "hls/builder.h"
#include "hls/expand_sck.h"
#include "hls/netlist_campaign.h"
#include "netlist_test_util.h"

namespace sck::hls {
namespace {

// ---- fixtures --------------------------------------------------------------

/// The repository's end-to-end flagship (examples/campaign_daemon.cpp):
/// self-checking FIR, class-based CED, min-area binding — 9232 fault jobs.
struct FlagshipDesign {
  Dfg graph;
  Netlist netlist;

  FlagshipDesign() {
    const FirSpec spec{{3, -5, 7, -5, 3}, 8};
    CedOptions ced_opt;
    ced_opt.style = CedStyle::kClassBased;
    graph = insert_ced(build_fir(spec), ced_opt);
    netlist = codesign::synthesize_fir(spec, codesign::Variant::kSck,
                                       /*min_area=*/true)
                  .netlist;
  }
};

/// Small fixture for the semantic and sampling tests (same recipe as the
/// service suites): fast enough to sweep backends and thread counts.
struct SmallDesign {
  Dfg graph;
  Netlist netlist;

  SmallDesign() {
    graph = ced(build_fir(FirSpec{{1, 2, 3}, 4}), CedStyle::kClassBased);
    netlist = synthesize(graph, ResourceConstraints::min_area(),
                         "duration_fixture");
  }
};

[[nodiscard]] NetlistCampaignOptions incremental_options(int samples,
                                                         std::uint64_t seed) {
  NetlistCampaignOptions opt;
  opt.samples_per_fault = samples;
  opt.seed = seed;
  opt.stream = StreamMode::kShared;
  opt.backend = NetlistBackend::kIncremental;
  return opt;
}

// ---- 1. permanent-fault byte-identity with the pre-duration engine ---------

TEST(DurationRegression, PermanentSharedIncrementalPinsPreDurationEngine) {
  // Captured from the engine at the previous PR's head: flagship FIR,
  // shared stream, incremental backend, 8 samples, seed 0x2005.
  const FlagshipDesign d;
  const NetlistCampaignResult r = run_netlist_campaign(
      d.graph, d.netlist, incremental_options(/*samples=*/8, 0x2005));
  EXPECT_EQ(r.fault_universe_size, 9232u);
  EXPECT_EQ(r.per_unit.size(), 16u);
  EXPECT_EQ(r.aggregate.silent_correct, 41711u);
  EXPECT_EQ(r.aggregate.detected_correct, 25827u);
  EXPECT_EQ(r.aggregate.detected_erroneous, 6318u);
  EXPECT_EQ(r.aggregate.masked, 0u);
}

// ---- 2. duration-model semantics -------------------------------------------

TEST(DurationSemantics, FullDutyIntermittentEqualsPermanent) {
  // duty = 1000‰ arms the fault at every sample — indistinguishable from
  // kPermanent, bit for bit, on every backend.
  const SmallDesign d;
  for (const NetlistBackend backend :
       {NetlistBackend::kScalar, NetlistBackend::kBatched,
        NetlistBackend::kIncremental}) {
    NetlistCampaignOptions opt = incremental_options(/*samples=*/5, 0xD0);
    opt.backend = backend;
    const NetlistCampaignResult permanent =
        run_netlist_campaign(d.graph, d.netlist, opt);
    opt.duration = fault::FaultDuration::kIntermittent;
    opt.duty_permille = 1000;
    const NetlistCampaignResult full_duty =
        run_netlist_campaign(d.graph, d.netlist, opt);
    EXPECT_TRUE(same_campaign_result(permanent, full_duty))
        << "backend " << static_cast<int>(backend);
  }
}

TEST(DurationSemantics, ZeroDutyIntermittentIsFaultFree) {
  // duty = 0‰ never arms the fault: every sample of every job runs golden
  // hardware, so the whole campaign is silent-correct.
  const SmallDesign d;
  NetlistCampaignOptions opt = incremental_options(/*samples=*/4, 0xD1);
  opt.duration = fault::FaultDuration::kIntermittent;
  opt.duty_permille = 0;
  const NetlistCampaignResult r = run_netlist_campaign(d.graph, d.netlist, opt);
  EXPECT_EQ(r.aggregate.silent_correct,
            r.fault_universe_size * 4u);
  EXPECT_EQ(r.aggregate.detected_correct, 0u);
  EXPECT_EQ(r.aggregate.detected_erroneous, 0u);
  EXPECT_EQ(r.aggregate.masked, 0u);
}

TEST(DurationSemantics, TransientWindowsLieStrictlyInsidePermanentActivity) {
  // A transient fault is a permanent fault masked to a window, so its
  // campaign can only move detections toward silent-correct — and with
  // window length == stream length it must still differ from zero
  // activity. Sanity-bound the monotone direction rather than pinning
  // arbitrary constants.
  const SmallDesign d;
  NetlistCampaignOptions opt = incremental_options(/*samples=*/6, 0xD2);
  const NetlistCampaignResult permanent =
      run_netlist_campaign(d.graph, d.netlist, opt);
  opt.duration = fault::FaultDuration::kTransient;
  opt.transient_samples = 2;
  const NetlistCampaignResult transient =
      run_netlist_campaign(d.graph, d.netlist, opt);
  EXPECT_EQ(transient.fault_universe_size, permanent.fault_universe_size);
  EXPECT_GE(transient.aggregate.silent_correct,
            permanent.aggregate.silent_correct);
  EXPECT_GT(transient.aggregate.detections(), 0u);
  EXPECT_LE(transient.aggregate.detections(),
            permanent.aggregate.detections());
}

TEST(DurationSemantics, TransientFirstActiveSampleIsTheWindowStart) {
  // first_active_sample returns the transient window start in closed
  // form; pin it against the definition — the first sample k at which
  // fault_active_at holds — including windows that run past the last
  // sample and streams shorter than the window.
  NetlistCampaignOptions opt;
  opt.duration = fault::FaultDuration::kTransient;
  const FaultJob stuck_at;
  std::size_t past_the_end = 0;
  for (const std::uint64_t seed : {0x0ULL, 0x2005ULL, 0xD5ULL, ~0ULL}) {
    opt.seed = seed;
    for (const int samples : {1, 2, 7, 32}) {
      opt.samples_per_fault = samples;
      for (const int window : {1, 3, 8, 40}) {
        opt.transient_samples = window;
        for (std::uint64_t f = 0; f < 64; ++f) {
          int want = samples;
          for (int k = 0; k < samples; ++k) {
            if (fault_active_at(opt, f, k)) {
              want = k;
              break;
            }
          }
          ASSERT_EQ(first_active_sample(opt, stuck_at, f), want)
              << "seed " << seed << ", samples " << samples << ", window "
              << window << ", fault " << f;
          ASSERT_LT(want, samples);  // a transient always activates
          if (want + window > samples) ++past_the_end;
        }
      }
    }
  }
  EXPECT_GT(past_the_end, 0u);
}

TEST(DurationSemantics, DeterministicAcrossRunsAndThreads) {
  const SmallDesign d;
  NetlistCampaignOptions opt = incremental_options(/*samples=*/5, 0xD3);
  opt.duration = fault::FaultDuration::kIntermittent;
  opt.duty_permille = 400;
  opt.seu_faults = true;
  const NetlistCampaignResult anchor =
      run_netlist_campaign(d.graph, d.netlist, opt);
  for (const int threads : {1, 2, 8}) {
    opt.threads = threads;
    EXPECT_TRUE(same_campaign_result(
        anchor, run_netlist_campaign(d.graph, d.netlist, opt)))
        << threads << " threads";
  }
}

TEST(DurationSemantics, SeuJobsExtendTheUniverseByRegisterBits) {
  // options.seu_faults appends one job per (architectural register, bit):
  // the universe grows by exactly sum(reg widths) and each register shows
  // up as its own pseudo-unit in the per-unit breakdown.
  const SmallDesign d;
  NetlistCampaignOptions opt = incremental_options(/*samples=*/5, 0xD4);
  const NetlistCampaignResult base =
      run_netlist_campaign(d.graph, d.netlist, opt);
  opt.seu_faults = true;
  const NetlistCampaignResult with_seu =
      run_netlist_campaign(d.graph, d.netlist, opt);

  std::uint64_t reg_bits = 0;
  for (const RegisterInfo& reg : d.netlist.regs) {
    reg_bits += static_cast<std::uint64_t>(reg.width);
  }
  ASSERT_GT(reg_bits, 0u);
  EXPECT_EQ(with_seu.fault_universe_size,
            base.fault_universe_size + reg_bits);
  EXPECT_EQ(with_seu.per_unit.size(),
            base.per_unit.size() + d.netlist.regs.size());
  // The stuck-at prefix of the reduction is untouched by the SEU suffix.
  for (std::size_t u = 0; u < base.per_unit.size(); ++u) {
    EXPECT_EQ(with_seu.per_unit[u], base.per_unit[u]) << "unit " << u;
  }
  // An SEU is a one-shot state corruption on otherwise golden hardware:
  // nothing is erroneous before the flip, so some strikes must be visible
  // (detected or erroneous) for the dimension to be meaningful.
  std::uint64_t seu_total = 0;
  for (std::size_t u = base.per_unit.size(); u < with_seu.per_unit.size();
       ++u) {
    seu_total += with_seu.per_unit[u].stats.total();
  }
  EXPECT_EQ(seu_total, reg_bits * 5u);
}

// ---- 3. confidence-interval sampled campaigns ------------------------------

TEST(SampledCampaign, FullUniverseEqualsExhaustive) {
  // An unreachable target makes the sampler evaluate every job; the
  // job-index-ordered reduction must then be bit-identical to
  // run_netlist_campaign.
  const SmallDesign d;
  const NetlistCampaignOptions opt = incremental_options(/*samples=*/4, 0xE0);
  const NetlistCampaignResult exhaustive =
      run_netlist_campaign(d.graph, d.netlist, opt);
  SampledCampaignOptions sampling;
  sampling.target_half_width = 1e-12;
  const SampledNetlistCampaignResult sampled =
      run_sampled_netlist_campaign(d.graph, d.netlist, opt, sampling);
  EXPECT_EQ(sampled.sampled_jobs, sampled.universe_jobs);
  EXPECT_FALSE(sampled.converged);
  EXPECT_TRUE(same_campaign_result(exhaustive, sampled.result));
}

TEST(SampledCampaign, EarlyStopIsDeterministicAcrossThreadsAndBackends) {
  // A loose target stops after a prefix of blocks. The evaluated prefix,
  // the Wilson interval and the reduced result must be byte-identical at
  // every thread count and across backends — threads run ahead of the
  // stop rule over several blocks at once, but the stop decision walks
  // the block boundaries in order and ignores everything past the first
  // that stops.
  const SmallDesign d;
  NetlistCampaignOptions opt = incremental_options(/*samples=*/4, 0xE1);
  SampledCampaignOptions sampling;
  sampling.block = 128;
  sampling.target_half_width = 0.08;
  const SampledNetlistCampaignResult anchor =
      run_sampled_netlist_campaign(d.graph, d.netlist, opt, sampling);
  EXPECT_TRUE(anchor.converged);
  EXPECT_LT(anchor.sampled_jobs, anchor.universe_jobs);
  EXPECT_EQ(anchor.sampled_jobs % sampling.block, 0u);

  for (const int threads : {2, 8}) {
    opt.threads = threads;
    const SampledNetlistCampaignResult r =
        run_sampled_netlist_campaign(d.graph, d.netlist, opt, sampling);
    EXPECT_EQ(r.sampled_jobs, anchor.sampled_jobs) << threads << " threads";
    EXPECT_EQ(r.detection_coverage.point, anchor.detection_coverage.point);
    EXPECT_EQ(r.detection_coverage.lo, anchor.detection_coverage.lo);
    EXPECT_EQ(r.detection_coverage.hi, anchor.detection_coverage.hi);
    EXPECT_TRUE(same_campaign_result(anchor.result, r.result))
        << threads << " threads";
  }
  opt.threads = 0;
  opt.backend = NetlistBackend::kScalar;
  const SampledNetlistCampaignResult scalar =
      run_sampled_netlist_campaign(d.graph, d.netlist, opt, sampling);
  EXPECT_EQ(scalar.sampled_jobs, anchor.sampled_jobs);
  EXPECT_TRUE(same_campaign_result(anchor.result, scalar.result));
}

TEST(SampledCampaign, WilsonIntervalIsSaneAndCoversTheTruth) {
  const SmallDesign d;
  const NetlistCampaignOptions opt = incremental_options(/*samples=*/4, 0xE2);
  // Ground truth: fraction of jobs with at least one detection.
  const CampaignSliceRunner runner(d.graph, d.netlist, opt);
  std::vector<fault::CampaignStats> per_job(runner.jobs().size());
  runner.run_slice(0, per_job.size(), per_job);
  std::uint64_t detected = 0;
  for (const fault::CampaignStats& s : per_job) {
    if (s.detections() > 0) ++detected;
  }
  const double truth =
      static_cast<double>(detected) / static_cast<double>(per_job.size());

  SampledCampaignOptions sampling;
  sampling.block = 96;
  sampling.target_half_width = 0.06;
  const SampledNetlistCampaignResult r =
      run_sampled_netlist_campaign(d.graph, d.netlist, opt, sampling);
  ASSERT_TRUE(r.converged);
  const fault::WilsonInterval& ci = r.detection_coverage;
  EXPECT_GE(ci.lo, 0.0);
  EXPECT_LE(ci.hi, 1.0);
  EXPECT_LE(ci.lo, ci.point);
  EXPECT_LE(ci.point, ci.hi);
  EXPECT_LE(ci.half_width(), sampling.target_half_width);
  // z = 1.96 → the interval should cover the exhaustive truth here (a
  // deterministic fixture, not a probabilistic assertion: these seeds are
  // pinned, so this either always passes or the estimator is wrong).
  EXPECT_GE(truth, ci.lo);
  EXPECT_LE(truth, ci.hi);
}

TEST(SampledCampaign, MaxJobsCapsTheSample) {
  const SmallDesign d;
  const NetlistCampaignOptions opt = incremental_options(/*samples=*/4, 0xE3);
  SampledCampaignOptions sampling;
  sampling.block = 64;
  sampling.target_half_width = 1e-12;  // never converges on its own
  sampling.max_jobs = 192;
  const SampledNetlistCampaignResult r =
      run_sampled_netlist_campaign(d.graph, d.netlist, opt, sampling);
  EXPECT_EQ(r.sampled_jobs, 192u);
  EXPECT_FALSE(r.converged);
  EXPECT_EQ(r.result.fault_universe_size, 192u);
}

TEST(SampledCampaign, LookAheadMatchesBlockwiseDerivation) {
  // run_sampled_netlist_campaign evaluates whole blocks ahead of the stop
  // rule; the result must equal the block-at-a-time re-derivation for
  // every thread count, including a block that is not a multiple of the
  // lane width, a stop that fires inside the first look-ahead, and a
  // max_jobs cap that is not a multiple of the block.
  const SmallDesign d;
  NetlistCampaignOptions opt = incremental_options(/*samples=*/4, 0xE5);
  opt.duration = fault::FaultDuration::kTransient;
  opt.transient_samples = 2;
  opt.seu_faults = true;
  struct Case {
    std::size_t block;
    double target_half_width;
    std::size_t max_jobs;
    std::size_t stops_below;  ///< 0 = unchecked
  };
  // The smallest look-ahead is 1 thread x 64 lanes x 4 = 256 jobs, rounded
  // up to whole blocks. Target 0.08 stops at 192 jobs, inside the first
  // look-ahead of every configuration; target 0.04 stops at 672, inside a
  // later one at 64 lanes.
  for (const Case c : {Case{96, 0.08, 0, 256}, Case{64, 1e-12, 200, 0},
                       Case{96, 0.04, 0, 0}}) {
    SampledCampaignOptions sampling;
    sampling.block = c.block;
    sampling.target_half_width = c.target_half_width;
    sampling.max_jobs = c.max_jobs;
    const SampledNetlistCampaignResult want =
        blockwise_sampled_campaign(d.graph, d.netlist, opt, sampling);
    if (c.max_jobs != 0) {
      EXPECT_EQ(want.sampled_jobs, c.max_jobs);
      EXPECT_FALSE(want.converged);
    } else {
      EXPECT_TRUE(want.converged);
      EXPECT_LT(want.sampled_jobs, want.universe_jobs);
    }
    if (c.stops_below != 0) {
      EXPECT_LT(want.sampled_jobs, c.stops_below);
    }
    for (const int lanes : {64, 512}) {
      opt.lanes = lanes;
      for (const int threads : {1, 2, 8}) {
        opt.threads = threads;
        const SampledNetlistCampaignResult r =
            run_sampled_netlist_campaign(d.graph, d.netlist, opt, sampling);
        EXPECT_EQ(r, want) << "block " << c.block << ", target "
                           << c.target_half_width << ", max_jobs "
                           << c.max_jobs << ", " << lanes << " lanes, "
                           << threads << " threads";
      }
    }
  }
}

TEST(SampledCampaign, SampleSeedSelectsTheSubset) {
  // Different sample seeds evaluate different prefixes of different
  // permutations; the per-campaign stimuli stay fixed, so the reduced
  // totals differ while each remains internally deterministic.
  const SmallDesign d;
  const NetlistCampaignOptions opt = incremental_options(/*samples=*/4, 0xE4);
  SampledCampaignOptions a;
  a.block = 64;
  a.max_jobs = 256;
  a.target_half_width = 1e-12;
  SampledCampaignOptions b = a;
  b.sample_seed = a.sample_seed + 1;
  const SampledNetlistCampaignResult ra =
      run_sampled_netlist_campaign(d.graph, d.netlist, opt, a);
  const SampledNetlistCampaignResult rb =
      run_sampled_netlist_campaign(d.graph, d.netlist, opt, b);
  const SampledNetlistCampaignResult ra2 =
      run_sampled_netlist_campaign(d.graph, d.netlist, opt, a);
  EXPECT_TRUE(same_campaign_result(ra.result, ra2.result));
  EXPECT_FALSE(same_campaign_result(ra.result, rb.result));
}

TEST(CampaignSliceRunner, RunJobsOnShuffledIdsMatchesRunSlice) {
  // run_jobs evaluates unsorted ids in global job order and scatters the
  // stats back: every slot must hold exactly what run_slice computes for
  // that job, on every backend and lane width, for id lists longer and
  // shorter than one batch.
  const SmallDesign d;
  NetlistCampaignOptions opt = incremental_options(/*samples=*/4, 0xE6);
  opt.duration = fault::FaultDuration::kTransient;
  opt.transient_samples = 2;
  opt.seu_faults = true;
  opt.threads = 2;
  for (const NetlistBackend backend :
       {NetlistBackend::kScalar, NetlistBackend::kBatched,
        NetlistBackend::kIncremental}) {
    opt.backend = backend;
    for (const int lanes : {64, 512}) {
      opt.lanes = lanes;
      const CampaignSliceRunner runner(d.graph, d.netlist, opt);
      const std::size_t universe = runner.jobs().size();
      std::vector<fault::CampaignStats> want(universe);
      runner.run_slice(0, universe, want);

      std::vector<std::uint64_t> ids(universe);
      for (std::uint64_t i = 0; i < universe; ++i) ids[i] = i;
      Xoshiro256 rng(0x5A5A + static_cast<std::uint64_t>(lanes));
      for (std::size_t i = universe; i > 1; --i) {
        std::swap(ids[i - 1], ids[static_cast<std::size_t>(rng.bounded(i))]);
      }
      for (const std::size_t count :
           {universe, std::size_t{300}, std::size_t{37}, std::size_t{1}}) {
        ASSERT_LE(count, universe);
        const std::span<const std::uint64_t> prefix(ids.data(), count);
        std::vector<fault::CampaignStats> got(count);
        runner.run_jobs(prefix, got);
        for (std::size_t i = 0; i < count; ++i) {
          ASSERT_EQ(got[i], want[prefix[i]])
              << "backend " << static_cast<int>(backend) << ", " << lanes
              << " lanes, " << count << " ids, slot " << i;
        }
      }
    }
  }
}

}  // namespace
}  // namespace sck::hls
