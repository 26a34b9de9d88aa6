#include "harness.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <new>

// ---- counting global allocator ----------------------------------------------
//
// Every operator-new entry in the process bumps one relaxed atomic (the
// idiom of tests/test_packet_path.cpp). Deletes are not counted.

namespace {

std::atomic<std::uint64_t> g_heap_allocs{0};

void* counted_alloc(std::size_t n) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n != 0 ? n : 1)) return p;
  throw std::bad_alloc();
}

void* counted_alloc_aligned(std::size_t n, std::size_t align) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  const std::size_t size = (n + align - 1) / align * align;
  if (void* p = std::aligned_alloc(align, size != 0 ? size : align)) {
    return p;
  }
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new[](std::size_t n) { return counted_alloc(n); }
void* operator new(std::size_t n, std::align_val_t a) {
  return counted_alloc_aligned(n, static_cast<std::size_t>(a));
}
void* operator new[](std::size_t n, std::align_val_t a) {
  return counted_alloc_aligned(n, static_cast<std::size_t>(a));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace perfbench {

std::uint64_t heap_allocs() {
  return g_heap_allocs.load(std::memory_order_relaxed);
}

std::uint64_t rss_bytes() {
  std::ifstream f("/proc/self/statm");
  std::uint64_t size = 0;
  std::uint64_t resident = 0;
  f >> size >> resident;
  return resident * static_cast<std::uint64_t>(sysconf(_SC_PAGESIZE));
}

std::uint64_t peak_rss_bytes() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<std::uint64_t>(ru.ru_maxrss) * 1024u;  // KiB on Linux
}

// ---- tracer -----------------------------------------------------------------

Tracer& tracer() {
  static Tracer t;
  return t;
}

std::vector<std::pair<std::string, std::int64_t>> Tracer::self_time() const {
  // Children never overlap each other (one stack), so the time they
  // cover is the sum of their durations.
  std::vector<std::int64_t> child_ns(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      child_ns[static_cast<std::size_t>(s.parent)] += s.end_ns - s.start_ns;
    }
  }
  std::map<std::string, std::int64_t> by_name;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    by_name[s.name] += (s.end_ns - s.start_ns) - child_ns[i];
  }
  return {by_name.begin(), by_name.end()};
}

void Tracer::write_chrome_json(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return;
  const std::int64_t t0 = spans_.empty() ? 0 : spans_.front().start_ns;
  std::fprintf(f, "{\"traceEvents\":[\n");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"op\":%lld,"
                 "\"parent\":%d}}\n",
                 i == 0 ? "" : ",", s.name,
                 static_cast<double>(s.start_ns - t0) / 1e3,
                 static_cast<double>(s.end_ns - s.start_ns) / 1e3,
                 static_cast<long long>(s.op), s.parent);
  }
  std::fprintf(f, "]}\n");
  std::fclose(f);
}

// ---- metrics and statistics -------------------------------------------------

void Metrics::set(const std::string& name, double value,
                  const std::string& unit) {
  for (Metric& m : items_) {
    if (m.name == name) {
      m.value = value;
      m.unit = unit;
      return;
    }
  }
  items_.push_back(Metric{name, value, unit});
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double tail(std::vector<double> v, std::size_t beyond, double* percentile) {
  if (v.empty()) {
    if (percentile != nullptr) *percentile = 0.0;
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  // Index i has n-1-i samples above it; take the highest i with at least
  // `beyond` of them (the maximum when there are too few samples).
  const std::size_t i = n > beyond ? n - 1 - beyond : n - 1;
  if (percentile != nullptr) {
    *percentile = 100.0 * static_cast<double>(i + 1) / static_cast<double>(n);
  }
  return v[i];
}

// ---- the per-layer metric catalogue ---------------------------------------

const std::vector<std::pair<std::string, std::string>>& layer_metric_units() {
  static const std::vector<std::pair<std::string, std::string>> kUnits = {
      {"simcore.events_per_op", "count"},
      {"simcore.ns_per_event", "ns"},
      {"simcore.ns_per_event.n64", "ns"},
      {"simcore.allocs_per_msg", "count"},
      {"simcore.retained_bytes_per_msg", "B"},
      {"simcore.arena_live_after_op", "count"},
      {"simcore.shard4_speedup", "ratio"},
      {"fabric.build_ms", "ms"},
      {"fabric.route_table_bytes", "B"},
      {"fabric.pick_ns", "ns"},
      {"fabric.frames_per_op", "count"},
      {"fabric.peak_backlog", "count"},
      {"fabric.dropped", "count"},
      {"mp.barrier_ms", "ms"},
      {"mp.allreduce_ms", "ms"},
      {"mp.frags_per_msg", "count"},
      {"mp.rendezvous_per_op", "count"},
      {"simhw.bed_build_us", "us"},
      {"netpipe.tcp_ms", "ms"},
      {"netpipe.gm_ms", "ms"},
      {"netpipe.via_ms", "ms"},
      {"netpipe.points_per_op", "count"},
      {"tcpsim.segments_per_op", "count"},
      {"tcpsim.acks_per_segment", "ratio"},
      {"tcpsim.retransmits_per_op", "count"},
      {"chaos.tcp_ms", "ms"},
      {"chaos.mpich_ms", "ms"},
      {"chaos.gm_ms", "ms"},
      {"chaos.via_ms", "ms"},
      {"chaos.verdicts.clean", "count"},
      {"chaos.verdicts.recovered", "count"},
      {"chaos.verdicts.degraded", "count"},
      {"chaos.verdicts.failed", "count"},
      {"chaos.retransmits_per_run", "count"},
      {"audit.violations", "count"},
      {"audit.overhead_ratio", "ratio"},
      {"trace.self_ms.op", "ms"},
      {"trace.self_ms.build", "ms"},
      {"trace.self_ms.netpipe_run", "ms"},
      {"trace.self_ms.world_run", "ms"},
      {"trace.spans_per_op", "count"},
      {"trace.overhead_op_ms", "ms"},
      {"trace.overhead_share", "ratio"},
  };
  return kUnits;
}

}  // namespace perfbench
