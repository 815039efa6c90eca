#include "hls/netlist_campaign.h"

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/assert.h"
#include "fault/batch.h"
#include "fault/outcome.h"
#include "fault/parallel.h"
#include "hls/netlist_exec.h"

namespace sck::hls {

namespace {

// Decoupling salts for the hash-derived duration decisions: each decision
// family draws from its own (seed ^ salt) stream so transient windows, the
// intermittent duty and SEU flip samples never correlate with each other
// or with the operand-stream keying below.
constexpr std::uint64_t kTransientSalt = 0xB5297A4D3C2E9F17ULL;
constexpr std::uint64_t kIntermittentSalt = 0x2545F4914F6CDD1DULL;
constexpr std::uint64_t kSeuSalt = 0x9E6C63D0876A9A4FULL;

/// First sample of fault `fault_index`'s kTransient window: one hash,
/// uniform over the stream.
[[nodiscard]] int transient_start(const NetlistCampaignOptions& options,
                                  std::uint64_t fault_index) {
  return static_cast<int>(
      fault::duration_hash(options.seed ^ kTransientSalt, fault_index) %
      static_cast<std::uint64_t>(options.samples_per_fault));
}

/// Per-sample seed derivation: one stream keyed by (seed, sample index),
/// identical for every fault, so the campaign is invariant under the
/// thread count, the lane packing, the dynamic schedule AND the slice
/// partition a distributed run chooses (the Xoshiro constructor
/// SplitMix-expands the mixed value).
[[nodiscard]] std::uint64_t sample_stream_seed(std::uint64_t seed,
                                               std::uint64_t sample_index) {
  return seed ^ 0xD1B54A32D192ED03ULL ^
         ((sample_index + 1) * 0x9E3779B97F4A7C15ULL);
}

/// Materialise the shared input stream (samples x graph inputs,
/// sample-major), each value bounded by its input's width.
[[nodiscard]] std::vector<Word> make_shared_stream(
    const Dfg& graph, const NetlistCampaignOptions& options) {
  const std::size_t num_inputs = graph.inputs().size();
  std::vector<Word> stream(
      static_cast<std::size_t>(options.samples_per_fault) * num_inputs);
  for (int k = 0; k < options.samples_per_fault; ++k) {
    Xoshiro256 rng(sample_stream_seed(options.seed,
                                      static_cast<std::uint64_t>(k)));
    for (std::size_t i = 0; i < num_inputs; ++i) {
      const Node& n = graph.node(graph.inputs()[i]);
      stream[static_cast<std::size_t>(k) * num_inputs + i] =
          rng.bounded(Word{1} << n.width);
    }
  }
  return stream;
}

/// The fault-free reference table: Dfg::eval once per sample of the shared
/// stream from the all-zero register state (samples x graph outputs,
/// sample-major, each value truncated to its output's width). Output i of
/// the netlist is output i of the graph — the netlist builder preserves
/// the graph's output order — so every backend compares by position.
[[nodiscard]] std::vector<Word> make_reference_table(
    const Dfg& graph, const Netlist& netlist,
    std::span<const Word> shared_stream, int samples) {
  const std::size_t num_inputs = graph.inputs().size();
  const std::size_t num_outputs = graph.outputs().size();
  SCK_EXPECTS(netlist.outputs.size() == num_outputs);
  for (std::size_t i = 0; i < num_outputs; ++i) {
    SCK_EXPECTS(graph.node(graph.outputs()[i]).name ==
                netlist.outputs[i].name);
  }
  std::vector<Word> table(static_cast<std::size_t>(samples) * num_outputs);
  std::vector<std::uint64_t> state(graph.state_regs().size(), 0);
  std::unordered_map<std::string, std::uint64_t> in;
  for (std::size_t k = 0; k < static_cast<std::size_t>(samples); ++k) {
    for (std::size_t i = 0; i < num_inputs; ++i) {
      in[graph.node(graph.inputs()[i]).name] =
          shared_stream[k * num_inputs + i];
    }
    const auto want = graph.eval(in, state);
    for (std::size_t i = 0; i < num_outputs; ++i) {
      const Node& n = graph.node(graph.outputs()[i]);
      table[k * num_outputs + i] = trunc(want.outputs.at(n.name), n.width);
    }
  }
  return table;
}

/// Broadcast rows of the reference table (one value per graph output,
/// sample-major) to every lane of `planes`, element for element.
template <typename P>
void broadcast_reference(const Dfg& graph, std::span<const Word> values,
                         std::span<hw::BatchWordT<P>> planes) {
  const std::size_t num_outputs = graph.outputs().size();
  for (std::size_t v = 0; v < values.size(); ++v) {
    const Node& n = graph.node(graph.outputs()[v % num_outputs]);
    planes[v] = hw::broadcast_word<P>(values[v], n.width);
  }
}

/// One injected-fault run on the scalar backend: the campaign-wide shared
/// stream through the faulty netlist, each sample's outputs checked by
/// position against the campaign's reference table. Handles the duration
/// model internally — the stuck-at site is armed exactly on the samples
/// fault_active_at says so, and SEU jobs flip their register bit once at
/// the hash-derived sample. The sim must arrive fault-free and is returned
/// fault-free.
fault::CampaignStats run_one_fault(NetlistSim& sim,
                                   const NetlistCampaignOptions& options,
                                   const FaultJob& job,
                                   std::uint64_t fault_index,
                                   std::span<const Word> shared_stream,
                                   std::span<const Word> want_values) {
  const std::int32_t error_output = sim.plan().error_output;
  const std::size_t num_inputs = sim.netlist().input_names.size();
  const std::size_t num_outputs = sim.netlist().outputs.size();
  fault::CampaignStats stats;
  sim.reset();
  const bool seu = job.kind == FaultKind::kSeu;
  const int flip_at = seu ? seu_flip_sample(options, fault_index) : -1;
  bool armed = false;
  std::vector<Word> out(num_outputs, 0);
  for (int k = 0; k < options.samples_per_fault; ++k) {
    if (seu) {
      if (k == flip_at) {
        sim.flip_register_bit(static_cast<int>(job.fu), job.seu_bit);
      }
    } else {
      const bool want_armed = fault_active_at(options, fault_index, k);
      if (want_armed != armed) {
        sim.set_fu_fault(static_cast<int>(job.fu),
                         want_armed ? job.site : hw::FaultSite{});
        armed = want_armed;
      }
    }
    const auto sample = static_cast<std::size_t>(k);
    sim.step_sample_indexed(
        shared_stream.subspan(sample * num_inputs, num_inputs), out);
    const std::span<const Word> want =
        want_values.subspan(sample * num_outputs, num_outputs);

    bool erroneous = false;
    for (std::size_t i = 0; i < num_outputs; ++i) {
      if (static_cast<std::int32_t>(i) == error_output) continue;
      if (out[i] != want[i]) erroneous = true;
    }
    const bool detected =
        error_output >= 0 && out[static_cast<std::size_t>(error_output)] != 0;
    stats.record(fault::classify(erroneous, /*check_passed=*/!detected));
  }
  if (armed) sim.set_fu_fault(static_cast<int>(job.fu), hw::FaultSite{});
  return stats;
}

/// Sample k's fault activity on a W-fault batch whose lane L runs job
/// lane_ids[L]: re-arms the stuck-at lanes when the duration model's
/// active set changes (never under kPermanent, where add_lane_fault armed
/// every stuck lane for the whole stream), and flips the register bit of
/// every SEU lane whose upset falls on k. `armed` carries the armed-lane
/// mask from one sample to the next.
template <typename P, typename Sim>
void apply_sample_faults(Sim& sim, std::span<const FaultJob> jobs,
                         std::span<const std::uint64_t> lane_ids,
                         const NetlistCampaignOptions& options, int k,
                         bool any_seu, P& armed) {
  const int lanes = static_cast<int>(lane_ids.size());
  if (options.duration != fault::FaultDuration::kPermanent) {
    P now{};
    for (int lane = 0; lane < lanes; ++lane) {
      const std::uint64_t gi = lane_ids[static_cast<std::size_t>(lane)];
      if (jobs[gi].kind != FaultKind::kSeu &&
          fault_active_at(options, gi, k)) {
        now |= hw::plane_bit<P>(lane);
      }
    }
    if (!(now == armed)) {
      sim.arm_lane_faults(now);
      armed = now;
    }
  }
  if (any_seu) {
    for (int lane = 0; lane < lanes; ++lane) {
      const std::uint64_t gi = lane_ids[static_cast<std::size_t>(lane)];
      const FaultJob& job = jobs[gi];
      if (job.kind == FaultKind::kSeu && seu_flip_sample(options, gi) == k) {
        sim.flip_register_bit(static_cast<int>(job.fu), job.seu_bit,
                              hw::plane_bit<P>(lane));
      }
    }
  }
}

/// One sample's verdict on every lane: erroneous where a data output
/// differs from its reference plane (`want`, by output position; the
/// error output is the check, not data), detected where the error output
/// is raised.
template <typename P>
[[nodiscard]] fault::LaneVerdictT<P> sample_verdict(
    std::span<const hw::BatchWordT<P>> outputs,
    std::span<const hw::BatchWordT<P>> want, std::int32_t error_output) {
  P erroneous{};
  for (std::size_t i = 0; i < outputs.size(); ++i) {
    if (static_cast<std::int32_t>(i) == error_output) continue;
    erroneous |= hw::differing_lanes(outputs[i], want[i]);
  }
  const P detected = error_output >= 0
                         ? outputs[static_cast<std::size_t>(error_output)][0]
                         : P{};
  return {erroneous, detected};
}

/// One W-fault batch on the bit-plane backend: lane L runs job
/// lane_ids[L] on the campaign-wide shared stream, broadcast to every
/// lane, and classifies against the reference planes `want_planes`
/// (samples x outputs). Stuck-at lanes are re-armed per sample from the
/// duration model (pure hash of the global id, so the armed pattern is
/// grouping-invariant) and SEU lanes flip their register bit at their
/// hash-derived sample. Writes lane L's stats into out[L] — per-lane
/// classification is exactly the scalar classify(), so the slot contents
/// match run_one_fault bit for bit at every lane width and every id
/// grouping.
template <typename P>
void run_fault_batch(const Dfg& graph, NetlistBatchSimT<P>& sim,
                     std::span<const FaultJob> jobs,
                     std::span<const std::uint64_t> lane_ids,
                     const NetlistCampaignOptions& options,
                     std::span<const Word> shared_stream,
                     std::span<const hw::BatchWordT<P>> want_planes,
                     std::span<fault::CampaignStats> out) {
  const std::size_t num_inputs = graph.inputs().size();
  const std::size_t num_outputs = sim.plan().outputs.size();
  const int lanes = static_cast<int>(lane_ids.size());

  sim.clear_lane_faults();
  P armed{};
  bool any_seu = false;
  for (int lane = 0; lane < lanes; ++lane) {
    const FaultJob& job = jobs[lane_ids[static_cast<std::size_t>(lane)]];
    if (job.kind == FaultKind::kSeu) {
      any_seu = true;  // flips are applied per sample
    } else {
      sim.add_lane_fault(static_cast<int>(job.fu), job.site,
                         hw::plane_bit<P>(lane));
      armed |= hw::plane_bit<P>(lane);
    }
  }
  sim.reset();

  std::vector<hw::BatchWordT<P>> in(num_inputs);
  std::vector<hw::BatchWordT<P>> batch_out(num_outputs);
  for (int k = 0; k < options.samples_per_fault; ++k) {
    apply_sample_faults(sim, jobs, lane_ids, options, k, any_seu, armed);
    const auto sample = static_cast<std::size_t>(k);
    for (std::size_t i = 0; i < num_inputs; ++i) {
      in[i] = hw::broadcast_word<P>(shared_stream[sample * num_inputs + i],
                                    graph.node(graph.inputs()[i]).width);
    }
    sim.step_sample_batch(in, batch_out);

    const fault::LaneVerdictT<P> verdict = sample_verdict<P>(
        batch_out, want_planes.subspan(sample * num_outputs, num_outputs),
        sim.plan().error_output);
    for (int lane = 0; lane < lanes; ++lane) {
      out[static_cast<std::size_t>(lane)].record(
          fault::lane_outcome(verdict, lane));
    }
  }
}

/// One W-fault batch on the incremental backend (lane L runs job
/// lane_ids[L]): replay the union fan-out cone of the batch's faults over
/// the precomputed golden trace, classifying against the reference planes.
/// Duration-model extensions:
///   - samples before the batch's earliest possible divergence (the
///     minimum first_active_sample over its lanes) are not simulated at
///     all — every lane is provably golden there, so the precomputed
///     `golden_outcome` of each skipped sample is recorded verbatim and
///     the register file is preloaded from the trace at the window start;
///   - stuck-at lanes are re-armed per sample (LUT tables only — the
///     union cone is never shrunk, because a disarmed lane's residual
///     state divergence still needs its cone replayed);
///   - SEU lanes flip their register bit at their hash-derived sample.
/// With fault dropping, a lane retires after its first detected sample
/// (recorded, then excluded); once every lane retired the batch ends
/// early.
template <typename P>
void run_incremental_batch(NetlistIncrementalSimT<P>& sim,
                           const GoldenTrace& trace,
                           std::span<const hw::BatchWordT<P>> want_planes,
                           std::span<const fault::Outcome> golden_outcome,
                           std::span<const FaultJob> jobs,
                           std::span<const std::uint64_t> lane_ids,
                           const NetlistCampaignOptions& options,
                           std::span<fault::CampaignStats> out) {
  const std::size_t num_outputs = sim.plan().outputs.size();
  const int lanes = static_cast<int>(lane_ids.size());

  sim.clear_lane_faults();
  P armed{};
  bool any_seu = false;
  int start_k = options.samples_per_fault;
  for (int lane = 0; lane < lanes; ++lane) {
    const std::uint64_t gi = lane_ids[static_cast<std::size_t>(lane)];
    const FaultJob& job = jobs[gi];
    if (job.kind == FaultKind::kSeu) {
      sim.add_lane_seu(static_cast<int>(job.fu), job.seu_bit,
                       hw::plane_bit<P>(lane));
      any_seu = true;
    } else {
      sim.add_lane_fault(static_cast<int>(job.fu), job.site,
                         hw::plane_bit<P>(lane));
      armed |= hw::plane_bit<P>(lane);
    }
    start_k = std::min(start_k, first_active_sample(options, job, gi));
  }
  sim.reset();

  // Prefix skip: before start_k no lane can diverge — record the
  // precomputed fault-free outcome of each sample without simulating.
  for (int k = 0; k < start_k; ++k) {
    for (int lane = 0; lane < lanes; ++lane) {
      out[static_cast<std::size_t>(lane)].record(golden_outcome[k]);
    }
  }
  if (start_k >= options.samples_per_fault) return;
  if (start_k > 0) sim.preload_golden_registers(trace, start_k);

  std::vector<hw::BatchWordT<P>> batch_out(num_outputs);
  P active = hw::plane_prefix<P>(lanes);
  for (int k = start_k; k < options.samples_per_fault; ++k) {
    apply_sample_faults(sim, jobs, lane_ids, options, k, any_seu, armed);
    sim.replay_sample(trace, k, batch_out);

    const fault::LaneVerdictT<P> verdict = sample_verdict<P>(
        batch_out,
        want_planes.subspan(static_cast<std::size_t>(k) * num_outputs,
                            num_outputs),
        sim.plan().error_output);
    for (int lane = 0; lane < lanes; ++lane) {
      if (hw::plane_test(active, lane)) {
        out[static_cast<std::size_t>(lane)].record(
            fault::lane_outcome(verdict, lane));
      }
    }

    if (options.fault_dropping) {
      const P retire = verdict.check_failed & active;
      if (hw::plane_any(retire)) {
        active &= ~retire;
        if (!hw::plane_any(active)) break;
        sim.set_active_lanes(active);
      }
    }
  }
}

}  // namespace

bool fault_active_at(const NetlistCampaignOptions& options,
                     std::uint64_t fault_index, int sample) {
  switch (options.duration) {
    case fault::FaultDuration::kPermanent:
      return true;
    case fault::FaultDuration::kTransient: {
      const int start = transient_start(options, fault_index);
      return sample >= start && sample < start + options.transient_samples;
    }
    case fault::FaultDuration::kIntermittent:
      return fault::duration_hash(options.seed ^ kIntermittentSalt,
                                  fault_index,
                                  static_cast<std::uint64_t>(sample)) %
                 1000 <
             options.duty_permille;
  }
  SCK_UNREACHABLE();
}

int seu_flip_sample(const NetlistCampaignOptions& options,
                    std::uint64_t fault_index) {
  return static_cast<int>(
      fault::duration_hash(options.seed ^ kSeuSalt, fault_index) %
      static_cast<std::uint64_t>(options.samples_per_fault));
}

int first_active_sample(const NetlistCampaignOptions& options,
                        const FaultJob& job, std::uint64_t fault_index) {
  if (job.kind == FaultKind::kSeu) return seu_flip_sample(options, fault_index);
  // A transient window is never empty (transient_samples > 0) and starts
  // inside the stream, so its start is the first active sample.
  if (options.duration == fault::FaultDuration::kTransient) {
    return transient_start(options, fault_index);
  }
  for (int k = 0; k < options.samples_per_fault; ++k) {
    if (fault_active_at(options, fault_index, k)) return k;
  }
  return options.samples_per_fault;
}

std::vector<FaultJob> enumerate_fault_jobs(
    const Netlist& netlist, const NetlistCampaignOptions& options) {
  SCK_EXPECTS(options.fault_stride > 0);
  std::vector<FaultJob> jobs;
  const FuBank probe(netlist);
  for (std::size_t f = 0; f < netlist.fus.size(); ++f) {
    const auto universe = probe.fault_universe(static_cast<int>(f));
    // Checker-side units host no faults.
    for (std::size_t i = 0; i < universe.size();
         i += static_cast<std::size_t>(options.fault_stride)) {
      jobs.push_back(FaultJob{static_cast<std::int32_t>(f), universe[i]});
    }
  }
  // SEU rows after every stuck-at row: one job per (register, bit), in
  // register-index-major order, stride applied per register exactly like
  // per-FU stuck-at striding.
  if (options.seu_faults) {
    for (std::size_t r = 0; r < netlist.regs.size(); ++r) {
      for (int b = 0; b < netlist.regs[r].width;
           b += options.fault_stride) {
        FaultJob job;
        job.fu = static_cast<std::int32_t>(r);
        job.kind = FaultKind::kSeu;
        job.seu_bit = b;
        jobs.push_back(job);
      }
    }
  }
  return jobs;
}

NetlistCampaignResult reduce_campaign_slices(
    const Netlist& netlist, std::span<const FaultJob> jobs,
    std::span<const fault::CampaignStats> per_job) {
  SCK_EXPECTS(jobs.size() == per_job.size());
  NetlistCampaignResult result;
  std::vector<std::int64_t> unit_of_fu(netlist.fus.size(), -1);
  std::vector<std::int64_t> unit_of_reg(netlist.regs.size(), -1);
  // Jobs are unit-major (enumerate_fault_jobs walks FUs in index order,
  // then registers for SEU rows), so first-appearance order of an FU in
  // the job list IS the sequential sweep's per-unit order — and every FU
  // with a non-empty (strided) universe appears, because stride always
  // keeps site 0. SEU rows reduce into "seu:<register>" pseudo-units
  // indexed AFTER the real FUs (fu_index = fus.size() + reg — kept
  // non-negative so the wire codec's index validation holds for them too).
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    std::size_t slot = 0;
    if (jobs[j].kind == FaultKind::kSeu) {
      const auto r = static_cast<std::size_t>(jobs[j].fu);
      SCK_EXPECTS(r < netlist.regs.size());
      if (unit_of_reg[r] < 0) {
        unit_of_reg[r] = static_cast<std::int64_t>(result.per_unit.size());
        UnitCoverage unit;
        unit.fu_index = static_cast<int>(netlist.fus.size() + r);
        unit.fu_name = "seu:" + netlist.regs[r].name;
        result.per_unit.push_back(std::move(unit));
      }
      slot = static_cast<std::size_t>(unit_of_reg[r]);
    } else {
      const auto f = static_cast<std::size_t>(jobs[j].fu);
      SCK_EXPECTS(f < netlist.fus.size());
      if (unit_of_fu[f] < 0) {
        unit_of_fu[f] = static_cast<std::int64_t>(result.per_unit.size());
        UnitCoverage unit;
        unit.fu_index = jobs[j].fu;
        unit.fu_name = netlist.fus[f].name;
        result.per_unit.push_back(std::move(unit));
      }
      slot = static_cast<std::size_t>(unit_of_fu[f]);
    }
    UnitCoverage& unit = result.per_unit[slot];
    unit.stats += per_job[j];
    ++unit.faults;
    result.aggregate += per_job[j];
    ++result.fault_universe_size;
  }
  return result;
}

/// All campaign-wide shared state, computed once at runner construction.
struct CampaignSliceRunner::Impl {
  Dfg graph;
  Netlist netlist;
  NetlistCampaignOptions options;
  ExecPlan plan;  ///< plan.netlist points at this Impl's own netlist copy
  int lane_width = 0;
  std::vector<FaultJob> jobs;
  std::vector<Word> shared_stream;  ///< samples x graph inputs
  std::vector<Word> want_values;    ///< reference table, samples x outputs
  // Incremental backend only: cones + golden trace.
  std::unique_ptr<FaultCones> cones;
  GoldenTrace trace;
  /// Per-sample outcome of a fault-free lane, classified once through the
  /// incremental path itself: what the prefix skip records for samples
  /// before a batch's earliest possible divergence.
  std::vector<fault::Outcome> golden_outcome;
};

CampaignSliceRunner::CampaignSliceRunner(const Dfg& graph,
                                         const Netlist& netlist,
                                         const NetlistCampaignOptions& options)
    : impl_([&] {
        SCK_EXPECTS(options.samples_per_fault > 0);
        SCK_EXPECTS(options.fault_stride > 0);
        SCK_EXPECTS(options.transient_samples > 0);
        SCK_EXPECTS(options.duty_permille <= 1000);
        SCK_EXPECTS(netlist.input_names.size() == graph.inputs().size());
        SCK_EXPECTS((!options.fault_dropping ||
                     options.backend == NetlistBackend::kIncremental) &&
                    "fault dropping is an incremental-backend feature");

        auto impl = std::make_unique<Impl>();
        impl->graph = graph;
        impl->netlist = netlist;
        impl->options = options;
        // Warm the copy's topo-order cache before any worker thread reads
        // it (Dfg::topo_order fills lazily and unsynchronized).
        (void)impl->graph.topo_order();

        // Compile the execution plan ONCE against the runner's own netlist
        // copy and share it const across every slice and worker context.
        impl->plan = compile_execution_plan(impl->netlist);
        impl->lane_width = hw::resolve_lanes(options.lanes);
        impl->jobs = enumerate_fault_jobs(impl->netlist, options);

        // The shared input stream every fault replays, and the fault-free
        // reference outputs every backend classifies against: both depend
        // only on (graph, seed, sample index), so both are built once.
        impl->shared_stream = make_shared_stream(impl->graph, options);
        impl->want_values = make_reference_table(
            impl->graph, impl->netlist, impl->shared_stream,
            options.samples_per_fault);

        if (options.backend == NetlistBackend::kIncremental) {
          // The fault-free netlist execution happens ONCE per campaign:
          // the golden trace (scalar replay recording every wire).
          impl->cones = std::make_unique<FaultCones>(
              impl->plan, /*include_seu=*/options.seu_faults);
          impl->trace = record_golden_trace(impl->plan, impl->shared_stream,
                                            options.samples_per_fault);

          // Classify one fault-free lane per sample, once, through the
          // incremental replay path itself (empty cone: pure splicing).
          // The prefix skip of run_incremental_batch records these
          // outcomes verbatim — by construction exactly what simulating a
          // never-diverged lane would have recorded.
          const std::size_t num_outputs = impl->netlist.outputs.size();
          NetlistIncrementalSim gsim(impl->plan, *impl->cones);
          std::vector<hw::BatchWordT<hw::Plane64>> go(num_outputs);
          std::vector<hw::BatchWordT<hw::Plane64>> want(num_outputs);
          impl->golden_outcome.reserve(
              static_cast<std::size_t>(options.samples_per_fault));
          for (int k = 0; k < options.samples_per_fault; ++k) {
            gsim.replay_sample(impl->trace, k, go);
            broadcast_reference<hw::Plane64>(
                impl->graph,
                std::span<const Word>(impl->want_values)
                    .subspan(static_cast<std::size_t>(k) * num_outputs,
                             num_outputs),
                want);
            impl->golden_outcome.push_back(fault::lane_outcome(
                sample_verdict<hw::Plane64>(go, want, impl->plan.error_output),
                0));
          }
        }
        return impl;
      }()) {}

CampaignSliceRunner::~CampaignSliceRunner() = default;

const Dfg& CampaignSliceRunner::graph() const { return impl_->graph; }
const Netlist& CampaignSliceRunner::netlist() const { return impl_->netlist; }
const ExecPlan& CampaignSliceRunner::plan() const { return impl_->plan; }
const NetlistCampaignOptions& CampaignSliceRunner::options() const {
  return impl_->options;
}
const std::vector<FaultJob>& CampaignSliceRunner::jobs() const {
  return impl_->jobs;
}
int CampaignSliceRunner::lanes() const { return impl_->lane_width; }

void CampaignSliceRunner::run_slice(std::uint64_t base, std::size_t count,
                                    std::span<fault::CampaignStats> out) const {
  SCK_EXPECTS(base <= impl_->jobs.size() &&
              count <= impl_->jobs.size() - base);
  std::vector<std::uint64_t> ids(count);
  std::iota(ids.begin(), ids.end(), base);
  run_jobs(ids, out);
}

void CampaignSliceRunner::run_jobs(std::span<const std::uint64_t> ids,
                                   std::span<fault::CampaignStats> out) const {
  const Impl& im = *impl_;
  SCK_EXPECTS(out.size() == ids.size());
  for (const std::uint64_t id : ids) SCK_EXPECTS(id < im.jobs.size());
  if (ids.empty()) return;
  if (!std::is_sorted(ids.begin(), ids.end())) {
    // Group the ids by global job index before forming W-lane batches:
    // the job list is unit-major, so neighbouring ids share FUs and each
    // batch's union cone stays local. Per-job stats depend only on the
    // global id, so evaluating in this order and scattering the stats
    // back to their slots changes no result.
    std::vector<std::size_t> order(ids.size());
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::sort(order.begin(), order.end(),
              [&](std::size_t a, std::size_t b) { return ids[a] < ids[b]; });
    std::vector<std::uint64_t> sorted(ids.size());
    for (std::size_t i = 0; i < order.size(); ++i) sorted[i] = ids[order[i]];
    std::vector<fault::CampaignStats> stats(ids.size());
    run_jobs(sorted, stats);
    for (std::size_t i = 0; i < order.size(); ++i) out[order[i]] = stats[i];
    return;
  }
  const std::span<const FaultJob> jobs(im.jobs);
  const NetlistCampaignOptions& options = im.options;

  if (options.backend == NetlistBackend::kScalar) {
    // Shard one fault per job; each worker owns a simulator over the
    // shared plan (units are stateful via set_fault).
    fault::parallel_shard(
        ids.size(), options.threads, [&im] { return NetlistSim(im.plan); },
        [&](NetlistSim& sim, std::size_t j) {
          out[j] = run_one_fault(sim, options, jobs[ids[j]], ids[j],
                                 im.shared_stream, im.want_values);
        });
    return;
  }
  // Both bit-plane backends shard W-fault batches; each worker owns a
  // simulator over the shared plan. The lane width only sizes the batches
  // — per-job slots and the job-order reduction are width-invariant.
  hw::dispatch_plane(im.lane_width, [&]<typename P>(std::type_identity<P>) {
    constexpr std::size_t kW = hw::PlaneTraits<P>::kLanes;
    const std::size_t batches = (ids.size() + kW - 1) / kW;
    const auto lanes_of = [&](std::size_t b) {
      return std::min(kW, ids.size() - b * kW);
    };
    // Broadcast the reference table to this width's planes (per call —
    // one call per campaign single-host, one per shard on a service
    // worker).
    std::vector<hw::BatchWordT<P>> want_planes(im.want_values.size());
    broadcast_reference<P>(im.graph, im.want_values, want_planes);

    if (options.backend == NetlistBackend::kBatched) {
      fault::parallel_shard(
          batches, options.threads,
          [&im] { return NetlistBatchSimT<P>(im.plan); },
          [&](NetlistBatchSimT<P>& sim, std::size_t b) {
            run_fault_batch<P>(im.graph, sim, jobs,
                               ids.subspan(b * kW, lanes_of(b)), options,
                               im.shared_stream, want_planes,
                               out.subspan(b * kW, lanes_of(b)));
          });
    } else {
      fault::parallel_shard(
          batches, options.threads,
          [&im] { return NetlistIncrementalSimT<P>(im.plan, *im.cones); },
          [&](NetlistIncrementalSimT<P>& sim, std::size_t b) {
            run_incremental_batch<P>(sim, im.trace, want_planes,
                                     im.golden_outcome, jobs,
                                     ids.subspan(b * kW, lanes_of(b)),
                                     options,
                                     out.subspan(b * kW, lanes_of(b)));
          });
    }
  });
}

NetlistCampaignResult run_netlist_campaign(
    const Dfg& graph, const Netlist& netlist,
    const NetlistCampaignOptions& options) {
  const CampaignSliceRunner runner(graph, netlist, options);
  std::vector<fault::CampaignStats> per_job(runner.jobs().size());
  runner.run_slice(0, per_job.size(), per_job);
  return reduce_campaign_slices(runner.netlist(), runner.jobs(), per_job);
}

SampledNetlistCampaignResult run_sampled_netlist_campaign(
    const Dfg& graph, const Netlist& netlist,
    const NetlistCampaignOptions& options,
    const SampledCampaignOptions& sampling) {
  SCK_EXPECTS(sampling.block > 0);
  SCK_EXPECTS(sampling.target_half_width > 0.0);
  SCK_EXPECTS(sampling.z > 0.0);
  const CampaignSliceRunner runner(graph, netlist, options);
  const std::size_t universe = runner.jobs().size();

  // Seeded Fisher–Yates permutation of the job list: the evaluation order
  // is a pure function of (universe size, sample_seed) — the stimulus seed
  // stays out of it, so the same campaign can be resampled independently.
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
  SampledNetlistCampaignResult report;
  report.universe_jobs = universe;

  // Each run_jobs call evaluates a look-ahead of whole blocks — enough for
  // every thread to execute several full W-lane batches — and the stop
  // rule is then applied at each block boundary in order. The stop
  // decision only ever sees the prefix up to a block boundary, so every
  // thread/lane/backend configuration stops after the same number of
  // jobs; the stats of jobs evaluated past the stopping boundary are
  // discarded. The look-ahead stays bounded, because the work discarded
  // past the stop and the peak memory of a call both grow with it.
  const std::size_t ahead_jobs =
      static_cast<std::size_t>(fault::resolve_threads(options.threads)) *
      static_cast<std::size_t>(runner.lanes()) * 4;
  const std::size_t blocks_ahead = (ahead_jobs - 1) / sampling.block + 1;
  std::uint64_t detected_faults = 0;
  std::size_t counted = 0;
  const std::size_t sampled = fault::run_blocks_until(
      cap, sampling.block,
      [&](std::size_t at, std::size_t count) {
        runner.run_jobs(
            std::span<const std::uint64_t>(perm.data() + at, count),
            std::span<fault::CampaignStats>(per_sampled.data() + at, count));
      },
      [&](std::size_t done) {
        for (; counted < done; ++counted) {
          if (per_sampled[counted].detections() > 0) ++detected_faults;
        }
        report.detection_coverage = fault::wilson_interval(
            detected_faults, static_cast<std::uint64_t>(done), sampling.z);
        return report.detection_coverage.half_width() <=
               sampling.target_half_width;
      },
      blocks_ahead);

  report.sampled_jobs = sampled;
  report.converged = sampled > 0 && report.detection_coverage.half_width() <=
                                         sampling.target_half_width;

  // Reduce the sampled prefix in GLOBAL job-index order, not permutation
  // order: the report is then byte-identical for any configuration that
  // sampled the same prefix — and equals run_netlist_campaign's result
  // exactly when the whole universe was evaluated.
  std::vector<std::size_t> order(sampled);
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(),
            [&](std::size_t a, std::size_t b) { return perm[a] < perm[b]; });
  std::vector<FaultJob> sampled_jobs;
  sampled_jobs.reserve(sampled);
  std::vector<fault::CampaignStats> sampled_stats;
  sampled_stats.reserve(sampled);
  for (const std::size_t idx : order) {
    sampled_jobs.push_back(runner.jobs()[perm[idx]]);
    sampled_stats.push_back(per_sampled[idx]);
  }
  report.result =
      reduce_campaign_slices(runner.netlist(), sampled_jobs, sampled_stats);
  return report;
}

}  // namespace sck::hls
