// perfbench: ProtoPipe's benchmark binary.
//
//   perfbench --workload <netpipe_pair|fabric_collective>
//             --seed <n> --seconds <s> --trace <0|1>
//             [--tiny] [--inject-mismatch] [--trace-out <file.json>]
//
// One process, one thread, closed loop: each operation starts after the
// previous one ends. The untraced run (--trace 0) reports the end-to-end
// metrics; the traced run (--trace 1) measures half its time untraced and
// half with spans on, and reports the per-layer metrics plus the tracing
// overhead. The last line of stdout is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// Exit code 1 when any operation failed its checks, 2 on bad usage.
#include <sched.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <optional>
#include <string>
#include <vector>

#include "harness.h"

namespace perfbench {
namespace {

struct Args {
  std::string workload;
  RunConfig cfg;
  std::string trace_out;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <netpipe_pair|"
               "fabric_collective> --seed <n> --seconds <s> "
               "--trace <0|1> [--tiny] [--inject-mismatch] "
               "[--trace-out <file>]\n",
               why);
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  bool have_seed = false;
  bool have_seconds = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + arg).c_str());
      return argv[++i];
    };
    if (arg == "--workload") {
      a.workload = value();
    } else if (arg == "--seed") {
      a.cfg.seed = std::strtoull(value().c_str(), nullptr, 10);
      have_seed = true;
    } else if (arg == "--seconds") {
      a.cfg.seconds = std::strtod(value().c_str(), nullptr);
      have_seconds = true;
    } else if (arg == "--trace") {
      a.cfg.trace = value() != "0";
    } else if (arg == "--tiny") {
      a.cfg.tiny = true;
    } else if (arg == "--inject-mismatch") {
      a.cfg.inject_mismatch = true;
    } else if (arg == "--trace-out") {
      a.trace_out = value();
    } else {
      usage(("unknown argument " + arg).c_str());
    }
  }
  if (a.workload.empty() || !have_seed || !have_seconds) {
    usage("--workload, --seed and --seconds are required");
  }
  if (!(a.cfg.seconds > 0.0)) usage("--seconds must be positive");
  return a;
}

/// Each distinct operation's mean host time over its repeats. Operations
/// are deterministic simulations, so repeats differ only by host noise;
/// the program's cost distribution is that of these means, and the mean
/// blends the host's fast and slow spells (on the 4-vCPU host of NOTES.md
/// whole stretches of a run go about 1.4x slower) instead of letting a
/// percentile jump from one to the other.
std::vector<double> per_op_means(const std::vector<std::vector<double>>& by_id) {
  std::vector<double> out;
  for (const std::vector<double>& v : by_id) {
    if (v.empty()) continue;
    double sum = 0.0;
    for (double x : v) sum += x;
    out.push_back(sum / static_cast<double>(v.size()));
  }
  return out;
}

/// Everything one measured phase saw.
struct Phase {
  std::vector<double> op_ms;
  std::uint64_t failed = 0;
  double wall_s = 0.0;
  std::int64_t op_ns = 0;
  std::uint64_t events = 0;
  std::uint64_t messages = 0;
  std::uint64_t allocs = 0;
  std::uint64_t cycles = 0;
  std::vector<std::vector<double>> op_ms_by_id;  ///< per canonical id
  // RSS growth: within the first cycle (after its first operation) and
  // across the later cycles, with the messages sent in each window.
  std::int64_t rss_first_cycle = 0;
  std::uint64_t msgs_first_cycle = 0;
  std::int64_t rss_later_cycles = 0;
  std::uint64_t msgs_later_cycles = 0;
};

/// Moves the calling thread to the next of the CPUs it may use on each
/// next(), and restores its full CPU set when destroyed. On a shared host
/// the cores differ in speed and each keeps its speed for minutes while
/// the scheduler keeps a thread where it started, so without turns a
/// whole run lands on whichever core it started on (see NOTES.md).
class CpuRotation {
 public:
  CpuRotation() {
    CPU_ZERO(&all_);
    if (sched_getaffinity(0, sizeof all_, &all_) != 0) return;
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &all_)) cpus_.push_back(c);
    }
  }
  ~CpuRotation() {
    if (!cpus_.empty()) sched_setaffinity(0, sizeof all_, &all_);
  }
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  void next() {
    if (cpus_.size() < 2) return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus_[turn_++ % cpus_.size()], &one);
    sched_setaffinity(0, sizeof one, &one);
  }

 private:
  cpu_set_t all_;
  std::vector<int> cpus_;
  std::size_t turn_ = 0;
};

/// One batch of timed set-ups, appended to `out`: at least 7 and 1 s (at
/// most 1001), a quarter second on each CPU in turn. Each set-up but the
/// run's first replaces the previous one.
void time_setups(Workload& w, std::vector<double>& out) {
  CpuRotation cpus;
  double total = 0.0;
  double on_this_cpu = 0.25;
  for (int n = 0; n < 7 || (total < 1.0 && n < 1001); ++n) {
    if (on_this_cpu >= 0.25) {
      cpus.next();
      on_this_cpu = 0.0;
    }
    if (!out.empty()) w.teardown();
    const std::int64_t t0 = now_ns();
    w.setup();
    out.push_back(static_cast<double>(now_ns() - t0) / 1e9);
    total += out.back();
    on_this_cpu += out.back();
  }
}

class Runner {
 public:
  Runner(Workload& w, const RunConfig& cfg) : w_(w), cfg_(cfg) {}

  /// Runs whole cycles until `seconds` have passed (at least one cycle),
  /// so every operation carries the same weight in the statistics.
  Phase run_phase(double seconds) {
    Phase ph;
    const std::vector<std::size_t> order = w_.order();
    const std::size_t n = w_.cycle_length();
    ph.op_ms_by_id.resize(n);
    if (first_.empty()) first_.assign(n, std::nullopt);
    const std::int64_t t_start = now_ns();
    const std::uint64_t allocs0 = heap_allocs();
    std::int64_t rss_cycle_start = 0;
    std::int64_t rss_after_first_op = 0;
    CpuRotation cpus;
    for (;;) {
      cpus.next();
      w_.begin_cycle(static_cast<std::int64_t>(cycles_));
      for (std::size_t k = 0; k < n; ++k) {
        const std::size_t id = order[k];
        const bool corrupt =
            cfg_.inject_mismatch && op_seq_ == static_cast<std::int64_t>(n);
        OpResult r;
        const std::int64_t t0 = now_ns();
        {
          ScopedSpan span("op", op_seq_);
          try {
            r = w_.run_op(id, op_seq_, corrupt);
          } catch (const std::exception& e) {
            r.failure = std::string("unexpected exception: ") + e.what();
          }
        }
        const std::int64_t dt = now_ns() - t0;
        ++op_seq_;
        if (r.failure.empty()) {
          if (!first_[id]) {
            first_[id] = r.digest.h;
          } else if (*first_[id] != r.digest.h) {
            r.failure = "simulated output differs from this operation's "
                        "first run";
          }
        }
        if (!r.failure.empty()) {
          ++ph.failed;
          if (failures_.size() < 5) {
            failures_.push_back("op " + std::to_string(id) + ": " +
                                r.failure);
          }
        }
        ph.op_ms.push_back(static_cast<double>(dt) / 1e6);
        ph.op_ms_by_id[id].push_back(ph.op_ms.back());
        ph.op_ns += dt;
        ph.events += r.events;
        ph.messages += r.messages;
        if (ph.cycles > 0) {
          ph.msgs_later_cycles += r.messages;
        } else if (k == 0) {
          rss_after_first_op = static_cast<std::int64_t>(rss_bytes());
        } else {
          ph.msgs_first_cycle += r.messages;
        }
      }
      ++cycles_;
      if (++ph.cycles == 1) {
        rss_cycle_start = static_cast<std::int64_t>(rss_bytes());
        ph.rss_first_cycle = rss_cycle_start - rss_after_first_op;
      }
      const std::uint64_t min_cycles = cfg_.inject_mismatch ? 2 : 1;
      if (static_cast<double>(now_ns() - t_start) / 1e9 >= seconds &&
          ph.cycles >= min_cycles) {
        break;
      }
    }
    ph.rss_later_cycles =
        static_cast<std::int64_t>(rss_bytes()) - rss_cycle_start;
    ph.wall_s = static_cast<double>(now_ns() - t_start) / 1e9;
    ph.allocs = heap_allocs() - allocs0;
    return ph;
  }

  /// Digest of the first run of every operation, in canonical order.
  std::uint64_t sim_digest() const {
    Digest d;
    for (const auto& h : first_) d.add(h ? *h : 0);
    return d.h;
  }
  const std::vector<std::string>& failures() const { return failures_; }

 private:
  Workload& w_;
  const RunConfig& cfg_;
  std::vector<std::optional<std::uint64_t>> first_;
  std::vector<std::string> failures_;
  std::uint64_t cycles_ = 0;
  std::int64_t op_seq_ = 0;
};

void print_json(bool correct, std::uint64_t attempted, std::uint64_t failed,
                const Metrics& m) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  bool first = true;
  for (const Metric& x : m.all()) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g",
                  std::isfinite(x.value) ? x.value : 0.0);
    out += first ? "" : ", ";
    out += "\"" + x.name + "\": {\"value\": " + buf + ", \"unit\": \"" +
           x.unit + "\"}";
    first = false;
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

int run(const Args& args) {
  std::unique_ptr<Workload> w;
  if (args.workload == "netpipe_pair") {
    w = make_netpipe_pair(args.cfg);
  } else if (args.workload == "fabric_collective") {
    w = make_fabric_collective(args.cfg);
  } else {
    usage(("unknown workload " + args.workload).c_str());
  }

  // Set-up is timed in two batches, one before the measured phase (the
  // last set-up stays for it) and, untraced, one after it, so the median
  // samples the host at both ends of the run rather than only its first
  // second.
  std::vector<double> setup_s;
  time_setups(*w, setup_s);

  Runner runner(*w, args.cfg);
  Metrics m;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  if (!args.cfg.trace) {
    const Phase ph = runner.run_phase(args.cfg.seconds);
    time_setups(*w, setup_s);
    attempted = ph.op_ms.size();
    failed = ph.failed;
    const std::vector<double> means = per_op_means(ph.op_ms_by_id);
    double pct = 0.0;
    const double tail_ms = tail(means, 10, &pct);
    m.set("setup_s", median(setup_s), "s");
    m.set("ops_per_s", static_cast<double>(attempted) / ph.wall_s, "ops/s");
    m.set("op_ms_p50", median(means), "ms");
    m.set("op_ms_tail", tail_ms, "ms");
    m.set("peak_rss_mb", static_cast<double>(peak_rss_bytes()) / 1e6, "MB");
    m.set("success_share",
          1.0 - static_cast<double>(failed) / static_cast<double>(attempted),
          "fraction");
    std::printf("%s: %llu operations in %llu cycles, %.2f s measured; "
                "op_ms_p50 and op_ms_tail over the mean times of %zu "
                "distinct operations x %llu repeats; op_ms_tail = p%.2f "
                "(%zu operations beyond it)\n",
                args.workload.c_str(),
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(ph.cycles), ph.wall_s,
                means.size(), static_cast<unsigned long long>(ph.cycles),
                pct,
                means.size() - static_cast<std::size_t>(
                                   std::lround(pct / 100.0 * means.size())));
  } else {
    // Half untraced (the proxies: events, heap allocations, retained
    // memory, host ns per event), half with spans on.
    const Phase plain = runner.run_phase(args.cfg.seconds / 2);
    w->reset_layer_stats();
    tracer().enable(true);
    Phase traced;
    {
      ScopedSpan span("workload", -1);
      traced = runner.run_phase(args.cfg.seconds / 2);
    }
    tracer().enable(false);
    attempted = plain.op_ms.size() + traced.op_ms.size();
    failed = plain.failed + traced.failed;

    for (const auto& [name, unit] : layer_metric_units()) m.set(name, 0, unit);
    const auto ops = static_cast<double>(traced.op_ms.size());
    w->layer_metrics(m, traced.op_ms.size());
    m.set("simcore.events_per_op",
          static_cast<double>(plain.events) /
              static_cast<double>(plain.op_ms.size()),
          "count");
    m.set("simcore.ns_per_event",
          plain.events == 0 ? 0.0
                            : static_cast<double>(plain.op_ns) /
                                  static_cast<double>(plain.events),
          "ns");
    m.set("simcore.allocs_per_msg",
          plain.messages == 0 ? 0.0
                              : static_cast<double>(plain.allocs) /
                                    static_cast<double>(plain.messages),
          "count");
    const bool within = w->shares_state_within_cycle();
    const double grown = static_cast<double>(
        within ? plain.rss_first_cycle : plain.rss_later_cycles);
    const std::uint64_t msgs =
        within ? plain.msgs_first_cycle : plain.msgs_later_cycles;
    m.set("simcore.retained_bytes_per_msg",
          msgs == 0 ? 0.0 : grown / static_cast<double>(msgs), "B");

    const std::size_t spans = tracer().spans().size();
    m.set("trace.spans_per_op", static_cast<double>(spans) / ops, "count");
    for (const auto& [name, ns] : tracer().self_time()) {
      const std::string key = "trace.self_ms." + name;
      for (const auto& [known, unit] : layer_metric_units()) {
        if (known == key) m.set(key, static_cast<double>(ns) / 1e6 / ops, "ms");
      }
    }
    const double p_plain = median(per_op_means(plain.op_ms_by_id));
    const double p_traced = median(per_op_means(traced.op_ms_by_id));
    m.set("trace.overhead_op_ms", p_traced - p_plain, "ms");
    m.set("trace.overhead_share",
          p_plain > 0 ? (p_traced - p_plain) / p_plain : 0.0, "ratio");
    if (!args.trace_out.empty()) tracer().write_chrome_json(args.trace_out);

    const std::string extra_failure = w->traced_extras(m);
    attempted += 1;
    if (!extra_failure.empty()) {
      failed += 1;
      std::printf("FAILED traced probes: %s\n", extra_failure.c_str());
    }
    std::printf("%s (traced): %zu untraced + %zu traced operations, %zu "
                "spans\n",
                args.workload.c_str(), plain.op_ms.size(),
                traced.op_ms.size(), spans);
  }

  std::printf("sim_digest %s seed=%llu %016llx\n", args.workload.c_str(),
              static_cast<unsigned long long>(args.cfg.seed),
              static_cast<unsigned long long>(runner.sim_digest()));
  for (const std::string& f : runner.failures()) {
    std::printf("FAILED %s\n", f.c_str());
  }
  print_json(failed == 0, attempted, failed, m);
  return failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(perfbench::parse(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 3;
  }
}
