// Differential suites for the netlist execution backends: the 64-lane
// bit-plane backend (NetlistBatchSim, lane = one injected fault) must be
// lane-for-lane identical to the scalar interpreter across the FULL FU
// fault universe of the synthesized netlists, and the batched campaign
// driver must produce bit-identical results to the scalar one at any
// thread count. These tests are the contract that lets every campaign
// default to the batched engine.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.h"
#include "hls/builder.h"
#include "hls/expand_sck.h"
#include "hls/netlist.h"
#include "hls/netlist_campaign.h"
#include "hls/netlist_exec.h"
#include "hls/netlist_sim.h"
#include "hls/schedule.h"
#include "hw/batch.h"
#include "netlist_test_util.h"
#include "pack_test_util.h"

namespace sck::hls {
namespace {

/// Per-lane stream seeding: every lane gets its own stimuli, which drives
/// the batched simulator harder than the campaigns' broadcast stream.
std::uint64_t stream_seed(std::uint64_t seed, std::uint64_t fault_index) {
  return seed ^ ((fault_index + 1) * 0x9E3779B97F4A7C15ULL);
}

/// Prove lane exactness: for every fault of every FU of `nl`, the batched
/// backend's lane must reproduce the scalar interpreter's outputs on an
/// identical per-lane input stream, sample by sample. Faults are packed
/// 64 per batch exactly like the campaign driver.
void expect_lane_exact(const Dfg& g, const Netlist& nl, int samples,
                       std::uint64_t seed) {
  NetlistSim scalar(nl);
  NetlistBatchSim batch(nl);
  const int data_width = nl.data_width;

  std::vector<std::pair<int, hw::FaultSite>> jobs;
  for (std::size_t f = 0; f < nl.fus.size(); ++f) {
    for (const hw::FaultSite& site :
         scalar.fu_fault_universe(static_cast<int>(f))) {
      jobs.emplace_back(static_cast<int>(f), site);
    }
  }
  ASSERT_FALSE(jobs.empty());

  const std::size_t num_inputs = nl.input_names.size();
  const std::size_t num_outputs = nl.outputs.size();
  std::vector<Word> in(num_inputs);
  std::vector<Word> out(num_outputs);
  std::vector<hw::BatchWord> bin(num_inputs);
  std::vector<hw::BatchWord> bout(num_outputs);
  std::vector<Word> lane_vals(hw::kLanes, 0);

  for (std::size_t base = 0; base < jobs.size(); base += hw::kLanes) {
    const int lanes = static_cast<int>(
        std::min<std::size_t>(hw::kLanes, jobs.size() - base));

    // Per-lane input streams, generated once and fed to both backends.
    // inputs[k][i][lane]
    std::vector<std::vector<std::vector<Word>>> inputs(
        static_cast<std::size_t>(samples),
        std::vector<std::vector<Word>>(
            num_inputs, std::vector<Word>(static_cast<std::size_t>(lanes))));
    for (int lane = 0; lane < lanes; ++lane) {
      Xoshiro256 rng(stream_seed(seed, base + static_cast<std::size_t>(lane)));
      for (int k = 0; k < samples; ++k) {
        for (std::size_t i = 0; i < num_inputs; ++i) {
          inputs[static_cast<std::size_t>(k)][i]
                [static_cast<std::size_t>(lane)] =
                    rng.bounded(Word{1} << data_width);
        }
      }
    }

    // Scalar replay: one fault at a time. expected[k][o][lane]
    std::vector<std::vector<std::vector<Word>>> expected(
        static_cast<std::size_t>(samples),
        std::vector<std::vector<Word>>(
            num_outputs, std::vector<Word>(static_cast<std::size_t>(lanes))));
    for (int lane = 0; lane < lanes; ++lane) {
      const auto& [fu, site] = jobs[base + static_cast<std::size_t>(lane)];
      scalar.set_fu_fault(fu, site);
      scalar.reset();
      for (int k = 0; k < samples; ++k) {
        for (std::size_t i = 0; i < num_inputs; ++i) {
          in[i] = inputs[static_cast<std::size_t>(k)][i]
                        [static_cast<std::size_t>(lane)];
        }
        scalar.step_sample_indexed(in, out);
        for (std::size_t o = 0; o < num_outputs; ++o) {
          expected[static_cast<std::size_t>(k)][o]
                  [static_cast<std::size_t>(lane)] = out[o];
        }
      }
      scalar.set_fu_fault(fu, hw::FaultSite{});
    }

    // Batched run: all 64 faults in lock-step.
    batch.clear_lane_faults();
    for (int lane = 0; lane < lanes; ++lane) {
      const auto& [fu, site] = jobs[base + static_cast<std::size_t>(lane)];
      batch.add_lane_fault(fu, site, hw::LaneMask{1} << lane);
    }
    batch.reset();
    for (int k = 0; k < samples; ++k) {
      for (std::size_t i = 0; i < num_inputs; ++i) {
        for (int lane = 0; lane < lanes; ++lane) {
          lane_vals[static_cast<std::size_t>(lane)] =
              inputs[static_cast<std::size_t>(k)][i]
                    [static_cast<std::size_t>(lane)];
        }
        bin[i] = hw::pack(std::span<const Word>(lane_vals.data(),
                                                static_cast<std::size_t>(lanes)),
                          data_width);
      }
      batch.step_sample_batch(bin, bout);
      for (std::size_t o = 0; o < num_outputs; ++o) {
        for (int lane = 0; lane < lanes; ++lane) {
          const Word got = hw::lane_value(bout[o], lane, data_width);
          const Word want = expected[static_cast<std::size_t>(k)][o]
                                    [static_cast<std::size_t>(lane)];
          ASSERT_EQ(got, want)
              << "batch " << base << " lane " << lane << " ("
              << nl.fus[static_cast<std::size_t>(
                            jobs[base + static_cast<std::size_t>(lane)].first)]
                     .name
              << " "
              << hw::to_string(
                     jobs[base + static_cast<std::size_t>(lane)].second)
              << ") sample " << k << " output " << nl.outputs[o].name;
        }
      }
    }
  }
}

TEST(NetlistBatch, FirClassBasedLaneExactWidth4) {
  const Dfg g = ced(build_fir(FirSpec{{3, -5, 7}, 4}), CedStyle::kClassBased);
  expect_lane_exact(g, synthesize(g, ResourceConstraints::min_area(), "fir4"),
                    6, 0xF1);
}

TEST(NetlistBatch, FirClassBasedLaneExactWidth8) {
  const Dfg g =
      ced(build_fir(FirSpec{{3, -5, 7, -5, 3}, 8}), CedStyle::kClassBased);
  expect_lane_exact(g, synthesize(g, ResourceConstraints::min_area(), "fir8"),
                    4, 0xF2);
}

TEST(NetlistBatch, FirEmbeddedLaneExactWidth8) {
  const Dfg g = ced(build_fir(FirSpec{{2, 3, -5, 7}, 8}), CedStyle::kEmbedded);
  expect_lane_exact(g, synthesize(g, ResourceConstraints::min_area(), "fire8"),
                    4, 0xF3);
}

TEST(NetlistBatch, IirLaneExactWidth4) {
  const Dfg g =
      ced(build_iir_biquad(IirBiquadSpec{3, -2, 1, 1, -1, 4}),
          CedStyle::kClassBased);
  expect_lane_exact(g, synthesize(g, ResourceConstraints::min_area(), "iir4"),
                    6, 0xF4);
}

TEST(NetlistBatch, IirLaneExactWidth8) {
  const Dfg g =
      ced(build_iir_biquad(IirBiquadSpec{3, -2, 1, 1, -1, 8}),
          CedStyle::kClassBased);
  expect_lane_exact(g, synthesize(g, ResourceConstraints::min_area(), "iir8"),
                    4, 0xF5);
}

TEST(NetlistBatch, PlainFirNoErrorOutputLaneExact) {
  // Plain netlists exercise the no-error-output path of the backends.
  const Dfg g = build_fir(FirSpec{{1, -2, 3}, 8});
  expect_lane_exact(g, synthesize(g, ResourceConstraints::min_area(), "firp"),
                    4, 0xF6);
}

TEST(NetlistBatch, DivisionKernelLaneExactWidth4) {
  // Covers the divider's batch path plus the Eq/IsZero comparator glue.
  Dfg g;
  const NodeId a = g.input("a", 4);
  const NodeId b = g.input("b", 4);
  (void)g.output("q", g.op(Op::kDiv, {a, b}, 4));
  (void)g.output("r", g.op(Op::kRem, {a, b}, 4));
  g.validate();
  const Dfg c = ced(g, CedStyle::kClassBased);
  expect_lane_exact(c, synthesize(c, ResourceConstraints::min_area(), "dm4"),
                    8, 0xF7);
}

// ---- campaign driver: backend identity and thread invariance --------------
// (same_campaign_result comes from netlist_test_util.h — ONE definition of
// result equality shared by every differential suite.)

TEST(NetlistBatchCampaign, BatchedMatchesScalarAtAnyThreadCount) {
  const FirSpec spec{{2, 3, -5, 7}, 8};
  const Dfg plain = build_fir(spec);
  for (const Dfg& g : {plain, ced(plain, CedStyle::kClassBased)}) {
    const Netlist nl = synthesize(g, ResourceConstraints::min_area(), "c");

    NetlistCampaignOptions opt;
    opt.samples_per_fault = 8;
    opt.fault_stride = 5;  // subsample for test speed
    opt.seed = 0xBA7C;

    opt.backend = NetlistBackend::kScalar;
    opt.threads = 1;
    const auto scalar_r = run_netlist_campaign(g, nl, opt);
    EXPECT_GT(scalar_r.aggregate.total(), 0u);

    opt.backend = NetlistBackend::kBatched;
    for (const int threads : {1, 2, 8}) {
      opt.threads = threads;
      const auto batched_r = run_netlist_campaign(g, nl, opt);
      EXPECT_TRUE(same_campaign_result(scalar_r, batched_r))
          << "batched campaign diverged at " << threads << " thread(s)";
    }
  }
}

TEST(NetlistBatchCampaign, StrideOneBatchedMatchesScalar) {
  // Full (unstrided) universe on a small design: every fault goes through
  // the lane packing, including the partial final batch.
  const Dfg g =
      ced(build_fir(FirSpec{{1, 2}, 4}), CedStyle::kClassBased);
  const Netlist nl = synthesize(g, ResourceConstraints::min_area(), "s1");

  NetlistCampaignOptions opt;
  opt.samples_per_fault = 6;
  opt.seed = 0x51DE;

  opt.backend = NetlistBackend::kScalar;
  const auto scalar_r = run_netlist_campaign(g, nl, opt);
  opt.backend = NetlistBackend::kBatched;
  opt.threads = 3;
  const auto batched_r = run_netlist_campaign(g, nl, opt);
  EXPECT_TRUE(same_campaign_result(scalar_r, batched_r));
  EXPECT_GT(scalar_r.aggregate.observable_errors(), 0u);
}

}  // namespace
}  // namespace sck::hls
