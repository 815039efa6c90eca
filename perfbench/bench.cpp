#include "bench.h"

#include <bit>
#include <cstdio>
#include <fstream>

#include <sys/resource.h>
#include <unistd.h>

#include "common/rng.h"
#include "hls/netlist_exec.h"

namespace perfbench {

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream) {
  sck::SplitMix64 sm(seed ^ (0x9E3779B97F4A7C15ULL * (stream + 1)));
  return sm.next();
}

Tracer::Span::Span(Tracer& tracer, const char* name) {
  if (!tracer.enabled_) return;
  tracer_ = &tracer;
  index_ = tracer.records_.size();
  tracer.records_.push_back(
      Record{name, now_s(), 0.0, tracer.open_, tracer.op_});
  tracer.open_ = static_cast<std::int64_t>(index_);
}

Tracer::Span::~Span() {
  if (tracer_ == nullptr) return;
  Record& r = tracer_->records_[index_];
  r.end = now_s();
  tracer_->open_ = r.parent;
}

void Tracer::begin_op() {
  ++op_;
  op_begin_ = records_.size();
}

OpSpans Tracer::end_op(double wall) {
  OpSpans out;
  double covered = 0.0;
  for (std::size_t i = op_begin_; i < records_.size(); ++i) {
    const Record& r = records_[i];
    out.seconds[r.name] += r.end - r.start;
    if (r.parent < static_cast<std::int64_t>(op_begin_)) {
      covered += r.end - r.start;
    }
  }
  out.uncovered_frac = wall > 0.0 ? std::max(0.0, 1.0 - covered / wall) : 0.0;
  op_begin_ = records_.size();
  return out;
}

bool Tracer::dump(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  const double t0 = records_.empty() ? 0.0 : records_.front().start;
  char line[256];
  for (const Record& r : records_) {
    std::snprintf(line, sizeof line,
                  "{\"op\": %llu, \"name\": \"%s\", \"parent\": %lld, "
                  "\"start\": %.9f, \"end\": %.9f}\n",
                  static_cast<unsigned long long>(r.op), r.name,
                  static_cast<long long>(r.parent), r.start - t0,
                  r.end - t0);
    out << line;
  }
  return static_cast<bool>(out);
}

Digest& Digest::add(std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h_ ^= (v >> (8 * i)) & 0xFF;
    h_ *= 0x100000001B3ULL;
  }
  return *this;
}

Digest& Digest::add(double v) { return add(std::bit_cast<std::uint64_t>(v)); }

Digest& Digest::add(std::string_view s) {
  add(static_cast<std::uint64_t>(s.size()));
  for (const char c : s) {
    h_ ^= static_cast<unsigned char>(c);
    h_ *= 0x100000001B3ULL;
  }
  return *this;
}

Digest& Digest::add(const sck::fault::CampaignStats& s) {
  return add(s.silent_correct)
      .add(s.detected_correct)
      .add(s.detected_erroneous)
      .add(s.masked);
}

Digest& Digest::add(const sck::hls::NetlistCampaignResult& r) {
  add(r.aggregate).add(r.fault_universe_size);
  add(static_cast<std::uint64_t>(r.per_unit.size()));
  for (const sck::hls::UnitCoverage& u : r.per_unit) {
    add(static_cast<std::uint64_t>(u.fu_index))
        .add(u.fu_name)
        .add(static_cast<std::uint64_t>(u.faults))
        .add(u.stats);
  }
  return *this;
}

Digest& Digest::add(const sck::hls::SampledNetlistCampaignResult& r) {
  return add(r.result)
      .add(r.sampled_jobs)
      .add(r.universe_jobs)
      .add(r.detection_coverage.point)
      .add(r.detection_coverage.lo)
      .add(r.detection_coverage.hi)
      .add(static_cast<std::uint64_t>(r.converged));
}

std::string Digest::hex() const {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(h_));
  return buf;
}

void measure_plans(const std::vector<const sck::hls::Netlist*>& netlists,
                   bool seu, Outcome& out) {
  constexpr int kReps = 5;
  std::vector<double> compile_s;
  std::vector<double> cones_s;
  std::uint64_t plan_ops = 0;
  std::uint64_t cones = 0;
  double cone_ops = 0.0;
  double cone_fraction = 0.0;
  for (int rep = 0; rep < kReps; ++rep) {
    compile_s.push_back(0.0);
    cones_s.push_back(0.0);
    plan_ops = cones = 0;
    cone_ops = cone_fraction = 0.0;
    for (const sck::hls::Netlist* netlist : netlists) {
      double t0 = now_s();
      const sck::hls::ExecPlan plan =
          sck::hls::compile_execution_plan(*netlist);
      compile_s.back() += now_s() - t0;
      t0 = now_s();
      const sck::hls::FaultCones fault_cones(plan, seu);
      cones_s.back() += now_s() - t0;
      plan_ops += plan.ops.size();
      const auto count = [&](std::span<const std::uint64_t> mask) {
        std::size_t ops = 0;
        for (const std::uint64_t w : mask) ops += std::popcount(w);
        ++cones;
        cone_ops += static_cast<double>(ops);
        cone_fraction +=
            static_cast<double>(ops) / static_cast<double>(plan.ops.size());
      };
      for (int fu = 0; fu < fault_cones.num_fus(); ++fu) {
        count(fault_cones.op_cone(fu));
      }
      if (fault_cones.has_seu_cones()) {
        for (std::int32_t reg = 0; reg < plan.num_regs; ++reg) {
          count(fault_cones.seu_op_cone(reg));
        }
      }
    }
  }
  out.layer["hls.plan_compile_s"] = median(compile_s);
  out.layer["hls.cones_s"] = median(cones_s);
  out.layer["hls.plan_ops"] = static_cast<double>(plan_ops);
  const double n = cones > 0 ? static_cast<double>(cones) : 1.0;
  out.layer["hls.cone_ops_mean"] = cone_ops / n;
  out.layer["hls.cone_fraction"] = cone_fraction / n;
}

void synthesize(sck::codesign::Explorer& explorer,
                const std::vector<sck::codesign::DesignPoint>& points,
                Tracer& tracer) {
  for (const sck::codesign::DesignPoint& point : points) {
    Tracer::Span span(tracer, "codesign.synthesize_s");
    (void)explorer.synthesize(point);
    (void)explorer.reference_graph(point).topo_order();
  }
}

HostTicks host_ticks() {
  HostTicks t;
  rusage ru{};
  if (getrusage(RUSAGE_SELF, &ru) == 0) {
    const auto secs = [](const timeval& tv) {
      return static_cast<double>(tv.tv_sec) +
             1e-6 * static_cast<double>(tv.tv_usec);
    };
    t.process_cpu_s = secs(ru.ru_utime) + secs(ru.ru_stime);
  }
  // First line: "cpu user nice system idle iowait irq softirq steal ...".
  std::ifstream in("/proc/stat");
  std::string cpu;
  std::uint64_t v[8] = {};
  if (!(in >> cpu) || cpu != "cpu") return t;
  for (std::uint64_t& x : v) {
    if (!(in >> x)) return t;
  }
  for (const std::uint64_t x : v) t.total += x;
  t.idle = v[3];
  t.iowait = v[4];
  t.steal = v[7];
  t.ok = true;
  return t;
}

Contention contention(const HostTicks& before, const HostTicks& after) {
  Contention c;
  if (!before.ok || !after.ok || after.total <= before.total) return c;
  const double ticks_per_s = static_cast<double>(sysconf(_SC_CLK_TCK));
  const double total = static_cast<double>(after.total - before.total);
  const double idle = static_cast<double>(after.idle - before.idle);
  const double iowait = static_cast<double>(after.iowait - before.iowait);
  const double steal = static_cast<double>(after.steal - before.steal);
  const double own =
      (after.process_cpu_s - before.process_cpu_s) * ticks_per_s;
  c.steal_frac = steal / total;
  c.iowait_frac = iowait / total;
  c.others_busy_frac =
      std::max(0.0, (total - idle - iowait - steal - own) / total);
  c.known = true;
  c.contended = c.steal_frac > kContendedSteal ||
                c.others_busy_frac > kContendedOthers;
  return c;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

void Outcome::note_rss(std::size_t ops_done) {
  if (ops_done <= kRssOps) info["peak_rss_mb"] = peak_rss_mb();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

Tail tail(std::vector<double> v) {
  if (v.size() <= 10) return {};
  std::sort(v.begin(), v.end());
  const std::size_t at = v.size() - 11;  // ten samples lie beyond v[at]
  return Tail{v[at], 100.0 * static_cast<double>(at + 1) /
                         static_cast<double>(v.size())};
}

}  // namespace perfbench
