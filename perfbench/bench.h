// Shared pieces of the repo benchmark: run configuration, the in-memory
// span tracer, result digests, order statistics and the per-workload
// outcome record that main.cpp turns into metrics.
//
// Spans are recorded only in the benchmark's own code, around calls into
// each layer's public functions; the library itself carries no spans.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "codesign/explorer.h"
#include "fault/stats.h"
#include "hls/netlist_campaign.h"

namespace perfbench {

[[nodiscard]] inline double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Config {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Campaign threads (explore, sampled) or per-worker threads (submit).
  int threads = 1;
  /// nproc: the ceiling for every thread and connection count.
  int nproc = 1;
  /// Working directory inside the checkout (store directories, journals).
  std::string workdir;
};

/// Input seed of one independent stream of a workload, derived from the
/// --seed argument.
[[nodiscard]] std::uint64_t derive_seed(std::uint64_t seed,
                                        std::uint64_t stream);

/// Per-name span totals of one operation plus the share of its wall time
/// that no top-level span covers.
struct OpSpans {
  std::map<std::string, double> seconds;
  double uncovered_frac = 0.0;
};

/// In-memory span recorder for the traced run. Single-threaded: every
/// span is opened on the benchmark's main thread, so top-level spans never
/// overlap and their summed durations are the covered time.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  [[nodiscard]] bool enabled() const { return enabled_; }

  class Span {
   public:
    Span(Tracer& tracer, const char* name);
    ~Span();
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

   private:
    Tracer* tracer_ = nullptr;
    std::size_t index_ = 0;
  };

  /// Opens a new operation; spans until end_op belong to it.
  void begin_op();
  /// Closes the current operation, whose wall time was `wall` seconds.
  OpSpans end_op(double wall);
  /// Writes every recorded span as JSON lines (op, name, parent, start,
  /// end in seconds from the first span). False on I/O failure.
  [[nodiscard]] bool dump(const std::string& path) const;

 private:
  struct Record {
    const char* name = "";
    double start = 0.0;
    double end = 0.0;
    std::int64_t parent = -1;
    std::uint64_t op = 0;
  };
  bool enabled_ = false;
  std::vector<Record> records_;
  std::size_t op_begin_ = 0;
  std::uint64_t op_ = 0;
  std::int64_t open_ = -1;
};

/// FNV-1a/64 over a canonical byte image of simulated results. Equal
/// digests across runs, thread counts and backends are the determinism
/// gate; the hex string goes into the run's detail record.
class Digest {
 public:
  Digest& add(std::uint64_t v);
  Digest& add(double v);
  Digest& add(std::string_view s);
  Digest& add(const sck::fault::CampaignStats& s);
  Digest& add(const sck::hls::NetlistCampaignResult& r);
  Digest& add(const sck::hls::SampledNetlistCampaignResult& r);
  [[nodiscard]] std::string hex() const;

 private:
  std::uint64_t h_ = 0xCBF29CE484222325ULL;
};

[[nodiscard]] double median(std::vector<double> v);

/// Tail of a latency sample: the highest percentile with at least ten
/// samples beyond it (0 when there are ten samples or fewer).
struct Tail {
  double value = 0.0;
  double percentile = 0.0;
};
[[nodiscard]] Tail tail(std::vector<double> v);

/// Cumulative CPU time of the whole host (every CPU, clock ticks) from
/// /proc/stat, and this process's own CPU time. Sampled before and after
/// the timed loop, the differences tell a run on a loaded host from a quiet
/// one; `ok` is false where /proc/stat cannot be read.
struct HostTicks {
  std::uint64_t total = 0;
  std::uint64_t idle = 0;
  std::uint64_t iowait = 0;
  std::uint64_t steal = 0;
  double process_cpu_s = 0.0;
  bool ok = false;
};
[[nodiscard]] HostTicks host_ticks();

/// Host contention over the timed loop, as shares of the host's CPU time:
/// time stolen by the hypervisor, time waiting on I/O, and time busy with
/// other processes. A run is contended when steal or other processes take
/// more than the thresholds below; its times are not comparable with a
/// quiet run's.
struct Contention {
  double steal_frac = 0.0;
  double iowait_frac = 0.0;
  double others_busy_frac = 0.0;
  bool known = false;
  bool contended = false;
};
inline constexpr double kContendedSteal = 0.05;
inline constexpr double kContendedOthers = 0.25;
[[nodiscard]] Contention contention(const HostTicks& before,
                                    const HostTicks& after);

/// Operations covered by peak_rss_mb.
inline constexpr std::size_t kRssOps = 10;

/// What one workload run measured. main.cpp turns it into the metrics of
/// BENCHMARK.json: end-to-end ones from the untraced run, per-layer ones
/// from the traced run.
struct Outcome {
  std::vector<double> setup_s;      ///< one entry per setup repetition
  std::vector<double> op_s;         ///< untraced operations
  std::vector<double> traced_op_s;  ///< traced operations (trace run)
  std::vector<double> uncovered_frac;  ///< per traced operation
  /// Faulty samples simulated by one operation (aggregate.total()).
  std::uint64_t samples_per_op = 0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;  ///< first few, for the detail record
  /// Per-layer metrics this workload exercises, by BENCHMARK.json name.
  std::map<std::string, double> layer;
  /// Per-operation span totals by span name (main.cpp takes medians).
  std::map<std::string, std::vector<double>> span_s;
  std::map<std::string, std::string> digests;
  /// Extra numbers for the detail record (untraced latencies, sizes).
  std::map<std::string, double> info;
  int lanes = 0;
  /// Host CPU counters at the start and end of the timed loop.
  HostTicks host_before;
  HostTicks host_after;

  /// Peak RSS is read after the first kRssOps operations (or all of them,
  /// if fewer ran), so it covers a fixed amount of work, not --seconds.
  void note_rss(std::size_t ops_done);
  void fail(std::string why) {
    ++failed;
    if (failures.size() < 8) failures.push_back(std::move(why));
  }
  void add_spans(const OpSpans& spans, double wall) {
    traced_op_s.push_back(wall);
    uncovered_frac.push_back(spans.uncovered_frac);
    for (const auto& [name, s] : spans.seconds) span_s[name].push_back(s);
  }
};

/// Compiles each netlist's plan and builds its fault cones on their own
/// (the work CampaignSliceRunner's constructor does), a few times, and
/// records hls.plan_compile_s and hls.cones_s (medians of the per-repeat
/// sums over `netlists`) with the plan and cone counters.
void measure_plans(const std::vector<const sck::hls::Netlist*>& netlists,
                   bool seu, Outcome& out);

/// Plane-width batches a run_jobs call over `jobs` jobs executes.
[[nodiscard]] inline std::uint64_t batches_for(std::uint64_t jobs,
                                               int lanes) {
  const auto w = static_cast<std::uint64_t>(lanes);
  return (jobs + w - 1) / w;
}

/// Peak resident set size of this process so far, in MiB.
[[nodiscard]] double peak_rss_mb();

/// True once `seconds` have passed since `start` and at least `min_ops`
/// operations ran.
[[nodiscard]] inline bool time_up(double start, double seconds,
                                  std::size_t ops, std::size_t min_ops) {
  return ops >= min_ops && now_s() - start >= seconds;
}

/// Set-up repetitions before the timed loop; setup_s is their median.
inline constexpr int kSetupReps = 40;

/// Runs a workload's set-up kSetupReps times before the timed loop. `once`
/// performs one set-up, leaving the state the timed loop uses, and returns
/// the seconds it took; the last repetition's state serves the whole loop.
template <typename F>
void measure_setup(Tracer& tracer, Outcome& out, F&& once) {
  for (int rep = 0; rep < kSetupReps; ++rep) {
    tracer.begin_op();
    const double dt = once();
    out.setup_s.push_back(dt);
    for (const auto& [name, s] : tracer.end_op(dt).seconds) {
      out.span_s[name].push_back(s);
    }
  }
}

/// Synthesizes each point on `explorer` and warms its reference graph:
/// the codesign share of every workload's set-up, one span per point.
void synthesize(sck::codesign::Explorer& explorer,
                const std::vector<sck::codesign::DesignPoint>& points,
                Tracer& tracer);

/// The timed loop of a workload whose operation yields a result digest.
/// Runs `op(traced)` for cfg.seconds (at least `min_ops` times, or twice
/// that in the traced run, where every second operation is traced),
/// recording operation times, spans, peak RSS and host contention. Returns
/// the digests in order.
template <typename Op>
std::vector<std::string> timed_loop(const Config& cfg, Tracer& tracer,
                                    Outcome& out, std::size_t min_ops,
                                    Op&& op) {
  std::vector<std::string> digests;
  out.host_before = host_ticks();
  const double start = now_s();
  for (std::size_t done = 1;; ++done) {
    const bool traced = cfg.trace && done % 2 == 0;
    tracer.begin_op();
    const double t0 = now_s();
    digests.push_back(op(traced));
    const double dt = now_s() - t0;
    const OpSpans spans = tracer.end_op(dt);
    if (traced) {
      out.add_spans(spans, dt);
    } else {
      out.op_s.push_back(dt);
    }
    out.note_rss(done);
    if (time_up(start, cfg.seconds, done, cfg.trace ? 2 * min_ops : min_ops)) {
      out.host_after = host_ticks();
      return digests;
    }
  }
}

Outcome run_explore(const Config& cfg, Tracer& tracer);
Outcome run_sampled(const Config& cfg, Tracer& tracer);
Outcome run_submit(const Config& cfg, Tracer& tracer);

}  // namespace perfbench
