// Measurement harness shared by the benchmark's two workloads.
//
// The benchmark drives the simulator only through its public API, from
// outside: it times calls into each module, reads the counters the
// modules expose, and checks every simulated result. Nothing here is
// linked into the simulator itself.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

// ---- host clock, heap and memory probes -----------------------------------

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// operator new calls made by this process so far (alloc.cpp replaces the
/// global allocator with a counting one).
std::uint64_t heap_allocs();

/// Current and peak resident set size of this process, in bytes.
std::uint64_t rss_bytes();
std::uint64_t peak_rss_bytes();

/// SplitMix64: the benchmark's own seeded stream for input generation.
struct SplitMix64 {
  std::uint64_t x;
  std::uint64_t next() {
    x += 0x9e3779b97f4a7c15ULL;
    std::uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
};

/// 0..n-1 in a seeded Fisher-Yates order.
inline std::vector<std::size_t> seeded_permutation(std::size_t n,
                                                   std::uint64_t seed) {
  std::vector<std::size_t> v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = i;
  SplitMix64 rng{seed};
  for (std::size_t i = n; i > 1; --i) {
    std::swap(v[i - 1], v[rng.next() % i]);
  }
  return v;
}

// ---- simulated-output digest ------------------------------------------------

/// FNV-1a over the simulated values an operation produced. Two runs of
/// the same operation must produce the same digest, bit for bit.
struct Digest {
  std::uint64_t h = 0xcbf29ce484222325ULL;

  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xffu;
      h *= 0x100000001b3ULL;
    }
  }
  void add(std::int64_t v) { add(static_cast<std::uint64_t>(v)); }
  void add(int v) { add(static_cast<std::uint64_t>(static_cast<std::int64_t>(v))); }
  void add(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    add(bits);
  }
  void add(const std::string& s) {
    add(static_cast<std::uint64_t>(s.size()));
    for (unsigned char c : s) {
      h ^= c;
      h *= 0x100000001b3ULL;
    }
  }
};

// ---- spans (traced runs only) -----------------------------------------------

/// In-memory span recorder. Spans nest by one recorder-wide stack: every
/// span opens and closes on the benchmark's one thread, strictly nested,
/// so the stack gives each span its true parent. Off by default; every
/// call is a branch when off.
class Tracer {
 public:
  struct Span {
    const char* name;
    std::int64_t start_ns;
    std::int64_t end_ns;
    std::int32_t parent;  ///< index into spans(), -1 for a root
    std::int64_t op;      ///< operation id, -1 outside operations
  };

  void enable(bool on) {
    on_ = on;
    if (on) spans_.reserve(1 << 16);
  }

  std::int32_t begin(const char* name, std::int64_t op) {
    if (!on_) return -1;
    const auto id = static_cast<std::int32_t>(spans_.size());
    const std::int32_t parent = stack_.empty() ? -1 : stack_.back();
    spans_.push_back(Span{name, now_ns(), 0, parent, op});
    stack_.push_back(id);
    return id;
  }
  void end(std::int32_t id) {
    if (id < 0) return;
    spans_[static_cast<std::size_t>(id)].end_ns = now_ns();
    stack_.pop_back();
  }

  const std::vector<Span>& spans() const { return spans_; }

  /// Self time (span minus the time its children cover) summed per span
  /// name, in nanoseconds.
  std::vector<std::pair<std::string, std::int64_t>> self_time() const;

  /// Writes every span as Chrome trace-event JSON.
  void write_chrome_json(const std::string& path) const;

 private:
  bool on_ = false;
  std::vector<Span> spans_;
  std::vector<std::int32_t> stack_;
};

Tracer& tracer();

/// RAII span on the global tracer.
class ScopedSpan {
 public:
  ScopedSpan(const char* name, std::int64_t op)
      : id_(tracer().begin(name, op)) {}
  ~ScopedSpan() { tracer().end(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  std::int32_t id_;
};

// ---- metrics ------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

class Metrics {
 public:
  void set(const std::string& name, double value, const std::string& unit);
  const std::vector<Metric>& all() const { return items_; }

 private:
  std::vector<Metric> items_;
};

/// Median of `v` (copied and sorted).
double median(std::vector<double> v);

/// Highest percentile of `v` that still has at least `beyond` samples
/// above it; returns the value and writes the percentile (0-100).
double tail(std::vector<double> v, std::size_t beyond, double* percentile);

// ---- workloads ----------------------------------------------------------------

struct RunConfig {
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool tiny = false;             ///< self-test sizes
  bool inject_mismatch = false;  ///< corrupt one operation's output
};

/// What one operation produced. `failure` non-empty marks it failed.
struct OpResult {
  Digest digest;
  std::string failure;
  std::uint64_t events = 0;    ///< simulator events processed
  std::uint64_t messages = 0;  ///< library-level messages sent
};

/// One benchmark workload. Operations are numbered 0..cycle_length()-1
/// (canonical order); a cycle runs each once in order(). Every cycle
/// repeats the same operations, so their outputs must repeat exactly.
class Workload {
 public:
  virtual ~Workload() = default;
  /// Builds whatever the first operation needs. Timed (several times;
  /// each call replaces the previous set-up).
  virtual void setup() = 0;
  /// Drops what setup() built (untimed, between set-up repetitions).
  virtual void teardown() {}
  virtual std::size_t cycle_length() const = 0;
  /// Execution order of one cycle (a permutation of the canonical ids).
  virtual std::vector<std::size_t> order() const = 0;
  /// Called before each cycle (outside operation timing).
  virtual void begin_cycle(std::int64_t /*cycle*/) {}
  /// Runs operation `id`. With `corrupt` set, the workload perturbs the
  /// simulated output before checking it (the self-test's injected
  /// mismatch), so its own checks must flag the operation.
  virtual OpResult run_op(std::size_t id, std::int64_t op_seq,
                          bool corrupt) = 0;
  /// Workload-specific per-layer metrics, accumulated over the operations
  /// run since the last reset (the traced phase).
  virtual void reset_layer_stats() = 0;
  virtual void layer_metrics(Metrics& m, std::uint64_t ops) = 0;
  /// True when each cycle builds one long-lived simulation that all its
  /// operations share (memory retained by it shows within the first
  /// cycle); false when every operation builds and destroys its own.
  virtual bool shares_state_within_cycle() const { return false; }
  /// Extra probes of the traced run (not part of the measured loop).
  /// Returns a failure description, empty when every check held.
  virtual std::string traced_extras(Metrics& /*m*/) { return {}; }
};

std::unique_ptr<Workload> make_netpipe_pair(const RunConfig& cfg);
std::unique_ptr<Workload> make_fabric_collective(const RunConfig& cfg);

/// The chaos probe of netpipe_pair's traced run (chaos_probe.cpp): the
/// fault-plan corpus against the four chaos stacks, each run audited and
/// unaudited. Sets the chaos.* and audit.* metrics; returns a failure
/// description, empty when every check held.
std::string run_chaos_probe(const RunConfig& cfg, Metrics& m);

/// Names of every per-layer metric and its unit; a traced run of any
/// workload emits all of them (0 where the workload does not use the
/// layer).
const std::vector<std::pair<std::string, std::string>>& layer_metric_units();

}  // namespace perfbench
