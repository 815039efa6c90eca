// perfbench: the repo benchmark binary. perfbench/run.py builds it
// and runs one workload per process:
//
//   perfbench --workload explore|sampled|submit --seed N --seconds S
//             --trace 0|1 --out result.json --workdir DIR [--commit SHA]
//             [--threads T]
//
// --threads sets the campaign threads of explore and sampled (default
// nproc) and the threads of each of submit's two workers (default 1).
//
// The untraced run (--trace 0) reports the end-to-end metrics of
// BENCHMARK.json; the traced run (--trace 1) reports the per-layer ones,
// every name for every workload (0 where the workload bypasses a layer).
// Every result is checked outside the timed region; the exit code is 0
// only when every check passed.
#include <sched.h>

#include <charconv>
#include <cpuid.h>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <iostream>
#include <string>
#include <string_view>

#include "bench.h"
#include "bench_json.h"

namespace {

using perfbench::Config;
using perfbench::Outcome;

struct MetricDef {
  const char* name;
  const char* unit;
};

/// BENCHMARK.json "per_layer", in order. Per-operation counters are per
/// sweep (explore), per sampled campaign (sampled) or per round (submit).
constexpr MetricDef kPerLayer[] = {
    {"codesign.synthesize_s", "s"},
    {"hls.runner_setup_s", "s"},
    {"hls.plan_compile_s", "s"},
    {"hls.cones_s", "s"},
    {"hls.execute_s", "s"},
    {"hls.reduce_s", "s"},
    {"hls.jobs", "count"},
    {"hls.samples", "count"},
    {"hls.plan_ops", "count"},
    {"hls.cone_ops_mean", "count"},
    {"hls.cone_fraction", "ratio"},
    {"hls.batches", "count"},
    {"hls.lane_fill", "ratio"},
    {"fault.parallel_efficiency", "ratio"},
    {"fault.blocks", "count"},
    {"service.daemon_s", "s"},
    {"service.client_overhead_s", "s"},
    {"service.worker_busy_frac", "ratio"},
    {"service.sched_idle_s", "s"},
    {"service.encode_s", "s"},
    {"service.decode_s", "s"},
    {"service.wire_bytes", "bytes"},
    {"service.shards", "count"},
    {"service.shards_requeued", "count"},
    {"store.fingerprint_s", "s"},
    {"store.save_s", "s"},
    {"store.load_s", "s"},
    {"store.journal_append_s", "s"},
    {"store.hits", "count"},
    {"store.misses", "count"},
    {"store.corrupt", "count"},
    {"store.shards_journaled", "count"},
    {"submit_cold_ms.p50", "ms"},
    {"submit_cold_ms.tail", "ms"},
    {"submit_cold_ms.tail_pct", "%"},
    {"submit_cold_ms.samples", "count"},
    {"submit_warm_ms.p50", "ms"},
    {"submit_warm_ms.tail", "ms"},
    {"submit_warm_ms.tail_pct", "%"},
    {"submit_warm_ms.samples", "count"},
    {"failed_frac", "ratio"},
    {"hw.lanes", "count"},
    {"trace.wall_s", "s"},
    {"trace.overhead_frac", "ratio"},
    {"trace.uncovered_frac", "ratio"},
};

[[nodiscard]] std::string cpu_model() {
  unsigned regs[12] = {};
  for (unsigned i = 0; i < 3; ++i) {
    if (__get_cpuid(0x80000002U + i, &regs[4 * i], &regs[4 * i + 1],
                    &regs[4 * i + 2], &regs[4 * i + 3]) == 0) {
      return "unknown";
    }
  }
  char brand[49] = {};
  std::memcpy(brand, regs, 48);
  std::string s(brand);
  s.erase(0, s.find_first_not_of(' '));
  return s;
}

[[nodiscard]] int nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0) {
    return std::max(1, CPU_COUNT(&set));
  }
  return 1;
}

[[nodiscard]] const char* plane_isa() {
#if defined(__AVX512F__)
  return "avx512";
#elif defined(__AVX2__)
  return "avx2";
#else
  return "portable";
#endif
}

[[nodiscard]] bool parse_u64(std::string_view s, std::uint64_t& out) {
  const auto [p, ec] = std::from_chars(s.data(), s.data() + s.size(), out);
  return ec == std::errc() && p == s.data() + s.size();
}

[[nodiscard]] bool parse_double(const std::string& s, double& out) {
  char* end = nullptr;
  out = std::strtod(s.c_str(), &end);
  return !s.empty() && end == s.c_str() + s.size() && out > 0.0;
}

int usage(const char* why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload explore|sampled|submit "
               "--seed N --seconds S --trace 0|1 --out FILE --workdir DIR "
               "[--commit SHA] [--threads T]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Config cfg;
  cfg.nproc = nproc();
  std::string out_path;
  std::string commit = "unknown";
  std::uint64_t threads = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (i + 1 >= argc) return usage("missing value");
    const std::string value = argv[++i];
    std::uint64_t u = 0;
    if (arg == "--workload") {
      cfg.workload = value;
    } else if (arg == "--seed" && parse_u64(value, u)) {
      cfg.seed = u;
    } else if (arg == "--seconds" && parse_double(value, cfg.seconds)) {
    } else if (arg == "--trace" && (value == "0" || value == "1")) {
      cfg.trace = value == "1";
    } else if (arg == "--threads" && parse_u64(value, u) && u > 0) {
      threads = u;
    } else if (arg == "--out") {
      out_path = value;
    } else if (arg == "--workdir") {
      cfg.workdir = value;
    } else if (arg == "--commit") {
      commit = value;
    } else {
      return usage("bad argument");
    }
  }
  if (out_path.empty() || cfg.workdir.empty()) {
    return usage("--out and --workdir are required");
  }
  if (threads > static_cast<std::uint64_t>(cfg.nproc)) {
    return usage("--threads may not exceed nproc");
  }
  if (threads > 0) {
    cfg.threads = static_cast<int>(threads);
  } else {
    cfg.threads = cfg.workload == "submit" ? 1 : cfg.nproc;
  }

  perfbench::Tracer tracer(cfg.trace);
  Outcome out;
  std::filesystem::create_directories(cfg.workdir);
  if (cfg.workload == "explore") {
    out = perfbench::run_explore(cfg, tracer);
  } else if (cfg.workload == "sampled") {
    out = perfbench::run_sampled(cfg, tracer);
  } else if (cfg.workload == "submit") {
    out = perfbench::run_submit(cfg, tracer);
  } else {
    return usage("unknown workload");
  }

  using sck::bench::JsonValue;
  JsonValue metrics;
  const auto put = [&metrics](const char* name, double value,
                              const char* unit) {
    JsonValue m;
    m.set("value", value).set("unit", unit);
    metrics.set(name, std::move(m));
  };
  const double wall = perfbench::median(out.op_s);
  if (!cfg.trace) {
    put("setup_s", perfbench::median(out.setup_s), "s");
    put("wall_s", wall, "s");
    put("samples_per_s",
        wall > 0.0 ? static_cast<double>(out.samples_per_op) / wall : 0.0,
        "1/s");
    put("peak_rss_mb", out.info["peak_rss_mb"], "MB");
  } else {
    std::map<std::string, double> layer = out.layer;
    for (const auto& def : kPerLayer) {
      const auto it = out.span_s.find(def.name);
      if (it != out.span_s.end()) {
        layer[def.name] = perfbench::median(it->second);
      }
    }
    const double traced = perfbench::median(out.traced_op_s);
    layer["trace.wall_s"] = traced;
    layer["trace.overhead_frac"] = wall > 0.0 ? traced / wall - 1.0 : 0.0;
    layer["trace.uncovered_frac"] = perfbench::median(out.uncovered_frac);
    layer["failed_frac"] =
        out.attempted > 0 ? static_cast<double>(out.failed) /
                                static_cast<double>(out.attempted)
                          : 0.0;
    layer["hw.lanes"] = out.lanes;
    for (const auto& def : kPerLayer) {
      const auto it = layer.find(def.name);
      put(def.name, it == layer.end() ? 0.0 : it->second, def.unit);
      if (it != layer.end()) layer.erase(it);
    }
    for (const auto& [name, v] : layer) {
      std::cerr << "perfbench: unlisted per-layer metric " << name << "\n";
      out.fail("unlisted per-layer metric " + name);
    }
  }

  JsonValue detail;
  detail.set("workload", cfg.workload)
      .set("seed", cfg.seed)
      .set("seconds", cfg.seconds)
      .set("trace", cfg.trace)
      .set("threads", cfg.threads);
  JsonValue machine;
  machine.set("cpu_model", cpu_model())
      .set("nproc", cfg.nproc)
      .set("plane_isa", plane_isa())
      .set("lanes", out.lanes)
      .set("build_type", PERFBENCH_BUILD_TYPE)
      .set("build_flags", PERFBENCH_BUILD_FLAGS)
      .set("compiler", PERFBENCH_COMPILER)
      .set("git_commit", commit);
  detail.set("machine", std::move(machine));
  const perfbench::Contention host =
      perfbench::contention(out.host_before, out.host_after);
  JsonValue contention;
  contention.set("known", host.known)
      .set("steal_frac", host.steal_frac)
      .set("iowait_frac", host.iowait_frac)
      .set("others_busy_frac", host.others_busy_frac)
      .set("contended", host.contended);
  detail.set("host_contention", std::move(contention));
  JsonValue digests;
  for (const auto& [k, v] : out.digests) digests.set(k, v);
  detail.set("digests", std::move(digests));
  JsonValue info;
  for (const auto& [k, v] : out.info) info.set(k, v);
  info.set("operations", static_cast<std::uint64_t>(out.op_s.size()));
  info.set("traced_operations",
           static_cast<std::uint64_t>(out.traced_op_s.size()));
  info.set("samples_per_op", out.samples_per_op);
  detail.set("info", std::move(info));
  JsonValue op_s;
  for (const double s : out.op_s) op_s.push(s);
  detail.set("op_s", std::move(op_s));
  JsonValue failures;
  for (const std::string& f : out.failures) failures.push(f);
  detail.set("failures", std::move(failures));

  if (cfg.trace) {
    const std::string spans = out_path + ".spans.jsonl";
    if (!tracer.dump(spans)) out.fail("could not write " + spans);
  }
  const bool correct = out.failed == 0 && out.attempted > 0;
  JsonValue result;
  result.set("correct", correct)
      .set("attempted", out.attempted)
      .set("failed", out.failed)
      .set("metrics", std::move(metrics))
      .set("detail", std::move(detail));
  if (!result.save(out_path)) {
    std::cerr << "perfbench: cannot write " << out_path << "\n";
    return 1;
  }
  for (const std::string& f : out.failures) {
    std::cerr << "perfbench: FAILED " << f << "\n";
  }
  return correct ? 0 : 1;
}
