// Workload `submit`: an in-process CampaignDaemon with a fresh store
// directory (so the shard journal is on), two in-process workers at one
// thread each, and the client on the main thread — 4 threads and 3
// loopback connections. A closed loop of rounds: each round is one cold
// submission of fir/sck/min_area/w16 with a fresh stimulus seed, then a
// warm resubmission of the same campaign, served from the store. The only
// workload through wire, socket, scheduler, journal and store; writes
// (journal append with fsync per shard, entry save) sit beside reads
// (verified load).
#include <filesystem>
#include <memory>
#include <optional>
#include <thread>

#include "bench.h"
#include "codesign/explorer.h"
#include "codesign/kernel.h"
#include "hls/netlist_exec.h"
#include "hw/plane.h"
#include "service/client.h"
#include "service/daemon.h"
#include "service/wire.h"
#include "service/worker.h"
#include "store/fingerprint.h"
#include "store/journal.h"
#include "store/store.h"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using sck::hls::NetlistCampaignOptions;
using sck::hls::NetlistCampaignResult;
using sck::service::ServiceCampaignResult;

constexpr int kSamplesPerFault = 32;
constexpr int kWorkers = 2;
constexpr int kShardJobs = 512;
constexpr int kMeasureReps = 5;

/// Daemon loop thread plus worker threads; stops and joins on destruction.
class Service {
 public:
  Service(const std::string& store_dir, int worker_threads) : daemon_([&] {
    sck::service::ServiceOptions so;
    so.listen = "tcp:127.0.0.1:0";
    so.shard_jobs = kShardJobs;
    so.store_dir = store_dir;
    return so;
  }()) {
    std::string error;
    if (!daemon_.start(&error)) {
      error_ = "daemon start: " + error;
      return;
    }
    loop_ = std::thread([this] { daemon_.run(); });
    for (int w = 0; w < kWorkers; ++w) {
      workers_.emplace_back([this, w, worker_threads] {
        sck::service::WorkerOptions wo;
        wo.connect = daemon_.address();
        wo.name = "perfbench-w" + std::to_string(w);
        wo.threads = worker_threads;
        (void)sck::service::run_worker(wo);
      });
    }
    // Ready once every worker's hello has been accepted.
    const double deadline = now_s() + 30.0;
    while (daemon_.counters().workers_joined < kWorkers) {
      if (now_s() > deadline) {
        error_ = "workers did not join";
        return;
      }
      std::this_thread::yield();
    }
  }
  ~Service() {
    if (loop_.joinable()) {
      daemon_.stop();
      loop_.join();
    }
    for (std::thread& t : workers_) t.join();
  }
  Service(const Service&) = delete;
  Service& operator=(const Service&) = delete;

  [[nodiscard]] const std::string& error() const { return error_; }
  [[nodiscard]] const std::string& address() const {
    return daemon_.address();
  }
  [[nodiscard]] sck::service::DaemonCounters counters() const {
    return daemon_.counters();
  }

 private:
  sck::service::CampaignDaemon daemon_;
  std::thread loop_;
  std::vector<std::thread> workers_;
  std::string error_;
};

NetlistCampaignOptions round_options(const Config& cfg, std::uint64_t round,
                                     int threads) {
  NetlistCampaignOptions o;
  o.samples_per_fault = kSamplesPerFault;
  o.seed = derive_seed(cfg.seed, 100 + round);
  o.threads = threads;
  o.stream = sck::hls::StreamMode::kShared;
  o.backend = sck::hls::NetlistBackend::kIncremental;
  return o;
}

[[nodiscard]] std::size_t files_in(const fs::path& dir) {
  std::error_code ec;
  if (!fs::is_directory(dir, ec)) return 0;
  std::size_t n = 0;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    (void)entry;
    ++n;
  }
  return n;
}

/// One cold submission's frames re-encoded and decoded from the benchmark:
/// the request, one setup per worker, every shard request and result, and
/// the response.
struct WireCost {
  double encode_s = 0.0;
  double decode_s = 0.0;
  std::uint64_t bytes = 0;
  bool ok = true;
};

WireCost measure_wire(const sck::hls::Dfg& graph,
                      const sck::hls::Netlist& netlist,
                      const NetlistCampaignOptions& options,
                      const std::vector<sck::hls::FaultJob>& jobs,
                      const std::vector<sck::fault::CampaignStats>& per_job,
                      const ServiceCampaignResult& response) {
  namespace svc = sck::service;
  const svc::CampaignSetupPayload request{0, {graph, netlist, options}};
  svc::CampaignSetupPayload setup = request;
  setup.campaign_id = 1;
  std::vector<svc::ShardRequestPayload> shard_requests;
  std::vector<svc::ShardResultPayload> shard_results;
  for (std::size_t base = 0; base < jobs.size(); base += kShardJobs) {
    const auto from = static_cast<std::ptrdiff_t>(base);
    const auto to =
        static_cast<std::ptrdiff_t>(std::min(jobs.size(), base + kShardJobs));
    const std::uint64_t shard = shard_requests.size();
    shard_requests.push_back(
        {1, shard, base, {jobs.begin() + from, jobs.begin() + to}});
    shard_results.push_back(
        {1, shard, base, {per_job.begin() + from, per_job.begin() + to}, 0.0});
  }
  svc::CampaignResponsePayload resp;
  resp.ok = true;
  resp.result = response.result;
  resp.stats = response.stats;

  WireCost cost;
  std::vector<std::pair<svc::MsgType, std::vector<unsigned char>>> frames;
  const auto frame = [&frames](svc::MsgType type,
                               const std::vector<unsigned char>& payload) {
    frames.emplace_back(type, svc::encode_frame(type, payload));
  };
  double t0 = now_s();
  frame(svc::MsgType::kCampaignRequest, svc::encode_campaign_setup(request));
  for (int w = 0; w < kWorkers; ++w) {
    frame(svc::MsgType::kCampaignSetup, svc::encode_campaign_setup(setup));
  }
  for (std::size_t i = 0; i < shard_requests.size(); ++i) {
    frame(svc::MsgType::kShardRequest,
          svc::encode_shard_request(shard_requests[i]));
    frame(svc::MsgType::kShardResult,
          svc::encode_shard_result(shard_results[i]));
  }
  frame(svc::MsgType::kCampaignResponse, svc::encode_campaign_response(resp));
  cost.encode_s = now_s() - t0;

  t0 = now_s();
  for (const auto& [type, bytes] : frames) {
    cost.bytes += bytes.size();
    const std::optional<svc::Frame> f = svc::decode_frame(bytes);
    if (!f.has_value() || f->type != type) {
      cost.ok = false;
      continue;
    }
    switch (type) {
      case svc::MsgType::kCampaignRequest:
      case svc::MsgType::kCampaignSetup:
        cost.ok &= svc::decode_campaign_setup(f->payload).has_value();
        break;
      case svc::MsgType::kShardRequest:
        cost.ok &= svc::decode_shard_request(f->payload).has_value();
        break;
      case svc::MsgType::kShardResult:
        cost.ok &= svc::decode_shard_result(f->payload).has_value();
        break;
      default:
        cost.ok &= svc::decode_campaign_response(f->payload).has_value();
        break;
    }
  }
  cost.decode_s = now_s() - t0;
  return cost;
}

/// The store operations of one cold and one warm submission, replayed
/// from the benchmark on a temporary store: fingerprint, the journal appends
/// of every shard (each with its fsync), the entry save and the verified
/// load.
struct StoreCost {
  double fingerprint_s = 0.0;
  double journal_append_s = 0.0;
  double save_s = 0.0;
  double load_s = 0.0;
  bool ok = true;
};

StoreCost measure_store(sck::store::CampaignStore& store,
                        const sck::hls::Dfg& graph,
                        const sck::hls::ExecPlan& plan,
                        const NetlistCampaignOptions& options,
                        const std::vector<sck::fault::CampaignStats>& per_job,
                        const NetlistCampaignResult& result) {
  StoreCost cost;
  double t0 = now_s();
  const sck::store::Fingerprint fp =
      sck::store::campaign_fingerprint(graph, plan, options);
  cost.fingerprint_s = now_s() - t0;
  {
    sck::store::ShardJournal journal(store.journal_path(fp), fp,
                                     per_job.size());
    t0 = now_s();
    std::uint64_t shard = 0;
    for (std::size_t base = 0; base < per_job.size();
         base += kShardJobs, ++shard) {
      const std::size_t n = std::min<std::size_t>(kShardJobs,
                                                  per_job.size() - base);
      cost.ok &= journal.append(
          shard, base,
          std::span<const sck::fault::CampaignStats>(per_job.data() + base,
                                                     n));
    }
    cost.journal_append_s = now_s() - t0;
    journal.remove();
  }
  t0 = now_s();
  cost.ok &= store.save(fp, result);
  cost.save_s = now_s() - t0;
  t0 = now_s();
  const std::optional<NetlistCampaignResult> loaded = store.load(fp);
  cost.load_s = now_s() - t0;
  cost.ok &= loaded.has_value() && *loaded == result;
  return cost;
}

}  // namespace

Outcome run_submit(const Config& cfg, Tracer& tracer) {
  Outcome out;
  out.lanes = sck::hw::resolve_lanes(0);
  const sck::codesign::KernelRegistry registry =
      sck::codesign::builtin_registry();
  const sck::codesign::DesignPoint point{"fir", sck::codesign::Variant::kSck,
                                         /*min_area=*/true, 16};
  const int worker_threads = cfg.threads;

  // Setup: synthesis, reference graph, daemon bind and worker hellos on a
  // fresh store. Each repetition retires the previous service first; the
  // last one's daemon and store serve every round of the timed loop.
  std::unique_ptr<sck::codesign::Explorer> explorer;
  std::unique_ptr<Service> service;
  fs::path store_dir;
  int reps = 0;
  std::string setup_error;
  std::uint64_t campaigns = 0;
  std::uint64_t cached = 0;
  std::size_t corrupt = 0;
  const auto retire = [&] {
    if (service != nullptr) {
      const sck::service::DaemonCounters c = service->counters();
      campaigns += c.campaigns_completed;
      cached += c.campaigns_cached;
      service.reset();
    }
    if (!store_dir.empty()) {
      corrupt += files_in(store_dir / "corrupt");
      fs::remove_all(store_dir);
    }
  };
  measure_setup(tracer, out, [&] {
    retire();
    explorer.reset();
    store_dir = fs::path(cfg.workdir) / ("store-" + std::to_string(reps++));
    const double t0 = now_s();
    explorer = std::make_unique<sck::codesign::Explorer>(
        registry, sck::codesign::ExplorerOptions{});
    synthesize(*explorer, {point}, tracer);
    service = std::make_unique<Service>(store_dir.string(), worker_threads);
    if (setup_error.empty()) setup_error = service->error();
    return now_s() - t0;
  });

  // Timed closed loop of rounds.
  std::vector<std::string> cold_digests;
  std::vector<std::string> warm_digests;
  std::vector<double> cold_ms;
  std::vector<double> warm_ms;
  std::vector<double> daemon_s;
  std::vector<double> client_overhead_s;
  std::vector<double> busy_frac;
  std::vector<double> sched_idle_s;
  std::uint64_t requeued = 0;
  std::uint64_t journaled = 0;
  std::uint64_t shards = 0;
  std::optional<ServiceCampaignResult> first_cold;
  out.host_before = host_ticks();
  const double start = now_s();
  for (std::uint64_t round = 0; setup_error.empty(); ++round) {
    const bool traced = cfg.trace && round % 2 == 1;
    const sck::hls::Dfg& graph = explorer->reference_graph(point);
    const sck::hls::Netlist& netlist = explorer->synthesize(point).netlist;
    const NetlistCampaignOptions options =
        round_options(cfg, round, worker_threads);
    std::string error;
    tracer.begin_op();
    const double t0 = now_s();
    std::optional<ServiceCampaignResult> cold;
    std::optional<ServiceCampaignResult> warm;
    std::optional<Tracer::Span> span;
    if (traced) span.emplace(tracer, "submit.cold");
    cold = sck::service::run_remote_campaign(service->address(), graph,
                                             netlist, options, &error);
    const double t_cold = now_s() - t0;
    span.reset();
    if (traced) span.emplace(tracer, "submit.warm");
    warm = sck::service::run_remote_campaign(service->address(), graph,
                                             netlist, options, &error);
    span.reset();
    const double dt = now_s() - t0;
    const OpSpans spans = tracer.end_op(dt);
    if (traced) {
      out.add_spans(spans, dt);
    } else {
      out.op_s.push_back(dt);
    }
    out.attempted += 2;
    cold_ms.push_back(1e3 * t_cold);
    warm_ms.push_back(1e3 * (dt - t_cold));

    if (!cold.has_value() || cold->stats.served_from_cache) {
      out.fail("round " + std::to_string(round) + " cold: " +
               (cold.has_value() ? "served from cache" : error));
      cold_digests.emplace_back();
    } else {
      const sck::service::ShardStats& s = cold->stats;
      cold_digests.push_back(Digest().add(cold->result).hex());
      out.samples_per_op = cold->result.aggregate.total();
      daemon_s.push_back(s.seconds);
      client_overhead_s.push_back(t_cold - s.seconds);
      double busy = 0.0;
      double busiest = 0.0;
      for (const auto& w : s.per_worker) {
        busy += w.seconds;
        busiest = std::max(busiest, w.seconds);
      }
      busy_frac.push_back(busy / (kWorkers * s.seconds));
      sched_idle_s.push_back(s.seconds - busiest);
      requeued += s.shards_requeued;
      journaled += s.shards_journaled;
      shards += s.shards_total;
      if (s.shards_requeued != 0) {
        out.fail("round " + std::to_string(round) + " cold requeued shards");
      }
      if (!first_cold.has_value()) first_cold = std::move(cold);
    }
    if (!warm.has_value() || !warm->stats.served_from_cache ||
        warm->stats.shards_requeued != 0) {
      out.fail("round " + std::to_string(round) + " warm: " +
               (warm.has_value() ? "not served from the store" : error));
      warm_digests.emplace_back();
    } else {
      warm_digests.push_back(Digest().add(warm->result).hex());
    }
    if (files_in(store_dir / "corrupt") != 0) {
      out.fail("round " + std::to_string(round) + ": corrupt store entries");
    }
    out.note_rss(round + 1);
    if (time_up(start, cfg.seconds, round + 1, cfg.trace ? 24 : 12)) break;
  }
  out.host_after = host_ticks();
  retire();
  const std::uint64_t rounds = cold_ms.size();
  out.attempted = std::max<std::uint64_t>(out.attempted, 1);
  if (!setup_error.empty()) {
    out.fail(setup_error);
    return out;
  }
  const sck::hls::Dfg& graph = explorer->reference_graph(point);
  const sck::hls::Netlist& netlist = explorer->synthesize(point).netlist;

  const Tail cold_tail = tail(cold_ms);
  const Tail warm_tail = tail(warm_ms);
  out.info["rounds"] = static_cast<double>(rounds);
  out.info["submit_cold_ms.p50"] = median(cold_ms);
  out.info["submit_cold_ms.tail"] = cold_tail.value;
  out.info["submit_cold_ms.tail_pct"] = cold_tail.percentile;
  out.info["submit_warm_ms.p50"] = median(warm_ms);
  out.info["submit_warm_ms.tail"] = warm_tail.value;
  out.info["submit_warm_ms.tail_pct"] = warm_tail.percentile;
  out.digests["round0_cold"] = cold_digests.front();
  out.digests["round0_warm"] = warm_digests.front();
  if (!first_cold.has_value()) return out;

  const auto per_round = [rounds](std::uint64_t n) {
    return static_cast<double>(n) / static_cast<double>(rounds);
  };
  out.layer["submit_cold_ms.p50"] = median(cold_ms);
  out.layer["submit_cold_ms.tail"] = cold_tail.value;
  out.layer["submit_cold_ms.tail_pct"] = cold_tail.percentile;
  out.layer["submit_cold_ms.samples"] = static_cast<double>(cold_ms.size());
  out.layer["submit_warm_ms.p50"] = median(warm_ms);
  out.layer["submit_warm_ms.tail"] = warm_tail.value;
  out.layer["submit_warm_ms.tail_pct"] = warm_tail.percentile;
  out.layer["submit_warm_ms.samples"] = static_cast<double>(warm_ms.size());
  out.layer["service.daemon_s"] = median(daemon_s);
  out.layer["service.client_overhead_s"] = median(client_overhead_s);
  out.layer["service.worker_busy_frac"] = median(busy_frac);
  out.layer["service.sched_idle_s"] = median(sched_idle_s);
  out.layer["service.shards"] = per_round(shards);
  out.layer["service.shards_requeued"] = per_round(requeued);
  out.layer["store.shards_journaled"] = per_round(journaled);
  out.layer["store.hits"] = per_round(cached);
  out.layer["store.misses"] = per_round(campaigns - cached);
  out.layer["store.corrupt"] = static_cast<double>(corrupt);
  out.layer["fault.blocks"] = per_round(shards);

  if (cfg.trace) {
    // Round 0's campaign on a single host at one thread: the per-job stats
    // the wire and journal replays carry, and the serial execute time for
    // the parallel efficiency of the two workers.
    const NetlistCampaignOptions options0 = round_options(cfg, 0, 1);
    const sck::hls::CampaignSliceRunner runner(graph, netlist, options0);
    std::vector<sck::fault::CampaignStats> per_job(runner.jobs().size());
    double t0 = now_s();
    runner.run_slice(0, per_job.size(), per_job);
    const double execute_1 = now_s() - t0;
    out.layer["fault.parallel_efficiency"] =
        execute_1 / (kWorkers * median(daemon_s));
    out.layer["hls.jobs"] = static_cast<double>(per_job.size());
    out.layer["hls.samples"] =
        static_cast<double>(first_cold->result.aggregate.total());
    std::uint64_t batches = 0;
    for (std::size_t base = 0; base < per_job.size(); base += kShardJobs) {
      batches += batches_for(
          std::min<std::size_t>(kShardJobs, per_job.size() - base),
          runner.lanes());
    }
    out.layer["hls.batches"] = static_cast<double>(batches);
    out.layer["hls.lane_fill"] =
        static_cast<double>(per_job.size()) /
        (static_cast<double>(batches) * static_cast<double>(runner.lanes()));
    const NetlistCampaignResult single = sck::hls::reduce_campaign_slices(
        runner.netlist(), runner.jobs(), per_job);
    if (Digest().add(single).hex() != cold_digests.front()) {
      out.fail("round 0 single-host slices differ from the service result");
    }

    std::vector<double> encode_s, decode_s, fingerprint_s, journal_s, save_s,
        load_s;
    std::uint64_t wire_bytes = 0;
    const fs::path replay_dir = fs::path(cfg.workdir) / "replay-store";
    {
      sck::store::CampaignStore store(replay_dir.string());
      const sck::hls::ExecPlan& plan = runner.plan();
      for (int rep = 0; rep < kMeasureReps; ++rep) {
        const WireCost wire = measure_wire(graph, netlist, options0,
                                           runner.jobs(), per_job,
                                           *first_cold);
        encode_s.push_back(wire.encode_s);
        decode_s.push_back(wire.decode_s);
        wire_bytes = wire.bytes;
        if (!wire.ok) out.fail("wire replay did not decode");
        // A fresh fingerprint per repetition, so every save is a new entry.
        NetlistCampaignOptions key = options0;
        key.seed = derive_seed(cfg.seed, 1000 + rep);
        const StoreCost st = measure_store(store, graph, plan, key, per_job,
                                           single);
        fingerprint_s.push_back(st.fingerprint_s);
        journal_s.push_back(st.journal_append_s);
        save_s.push_back(st.save_s);
        load_s.push_back(st.load_s);
        if (!st.ok) out.fail("store replay failed");
      }
    }
    fs::remove_all(replay_dir);
    out.layer["service.encode_s"] = median(encode_s);
    out.layer["service.decode_s"] = median(decode_s);
    out.layer["service.wire_bytes"] = static_cast<double>(wire_bytes);
    out.layer["store.fingerprint_s"] = median(fingerprint_s);
    out.layer["store.journal_append_s"] = median(journal_s);
    out.layer["store.save_s"] = median(save_s);
    out.layer["store.load_s"] = median(load_s);
  }

  // Correctness gate: every round, cold and warm, against the single-host
  // run_netlist_campaign of the same options.
  for (std::uint64_t round = 0; round < rounds; ++round) {
    const std::string want = Digest()
                                 .add(sck::hls::run_netlist_campaign(
                                     graph, netlist,
                                     round_options(cfg, round, cfg.nproc)))
                                 .hex();
    if (cold_digests[round] != want && !cold_digests[round].empty()) {
      out.fail("round " + std::to_string(round) + " cold result differs");
    }
    if (warm_digests[round] != want && !warm_digests[round].empty()) {
      out.fail("round " + std::to_string(round) + " warm result differs");
    }
  }
  return out;
}

}  // namespace perfbench
