// fabric_collective: ROADMAP item 3's regime. A 1024-rank fat-tree
// (FabricWorld, pentium4 hosts, default FabricConfig, one shard); one
// operation is one round: a dissemination barrier followed by a 16 KiB
// recursive-doubling allreduce, each run to completion.
//
// A cycle is one world serving rounds_per_world_ rounds. The world is kept
// across the rounds of a cycle, so whatever the simulator retains per
// message accumulates there (see NOTES.md, known defects), and rebuilt
// between cycles, so a run's memory does not depend on how many rounds
// the host managed to fit into its time.
#include <malloc.h>

#include <algorithm>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "harness.h"
#include "mp/collectives.h"
#include "mp/fabric_lib.h"
#include "simhw/presets.h"

namespace perfbench {
namespace {

using namespace pp;

constexpr std::uint64_t kAllreduceBytes = 16 << 10;

sim::Task<void> rank_task(mp::RingComm comm, sim::Simulator& sm, bool barrier,
                          sim::SimTime& first_in, sim::SimTime& last_out) {
  first_in = std::min(first_in, sm.now());
  if (barrier) {
    co_await mp::dissemination_barrier(comm);
  } else {
    co_await mp::doubling_allreduce(comm, kAllreduceBytes);
  }
  last_out = std::max(last_out, sm.now());
}

/// Totals read from outside the world after each collective.
struct Snapshot {
  std::uint64_t events = 0;
  std::uint64_t frags_sent = 0;
  std::uint64_t frags_received = 0;
  std::uint64_t bytes_sent = 0;
  std::uint64_t delivery_failures = 0;
  hw::fabric::Fabric::Totals fab;

  static Snapshot of(mp::FabricWorld& w) {
    Snapshot s;
    for (int i = 0; i < w.group().shards(); ++i) {
      s.events += w.group().shard(i).events_processed();
    }
    for (int r = 0; r < w.size(); ++r) {
      const netpipe::ProtocolCounters c = w.lib(r).protocol_counters();
      s.frags_sent += c.data_segments;
      s.frags_received += c.relay_fragments;
      s.bytes_sent += c.staged_bytes;
      s.delivery_failures += c.delivery_failures;
    }
    s.fab = w.fabric().totals();
    return s;
  }
};

/// One collective phase of a round, as simulated and as timed.
struct PhaseOutcome {
  sim::SimTime latency = 0;  ///< last rank out minus first rank in (sim)
  std::int64_t host_ns = 0;
  Snapshot before;
  Snapshot after;
  std::string failure;
};

PhaseOutcome run_collective(mp::FabricWorld& w, bool barrier,
                            std::int64_t op_seq) {
  PhaseOutcome out;
  out.before = Snapshot::of(w);
  sim::SimTime first_in = std::numeric_limits<sim::SimTime>::max();
  sim::SimTime last_out = 0;
  const std::int64_t t0 = now_ns();
  {
    ScopedSpan span("world_run", op_seq);
    for (int r = 0; r < w.size(); ++r) {
      w.spawn(r, rank_task(w.comm(r), w.simulator(r), barrier, first_in,
                           last_out),
              "r" + std::to_string(r));
    }
    w.run();
  }
  out.host_ns = now_ns() - t0;
  out.latency = last_out - first_in;
  out.after = Snapshot::of(w);

  std::uint64_t live = 0;
  sim::SimTime end = 0;
  for (int i = 0; i < w.group().shards(); ++i) {
    live += w.group().shard(i).packet_arena().live();
    end = std::max(end, w.group().shard(i).now());
  }
  if (live != 0) {
    out.failure = "packet-arena descriptors alive after the collective: " +
                  std::to_string(live);
  } else if (std::string v = w.fabric().conservation_violations(end);
             !v.empty()) {
    out.failure = "fabric conservation: " + v;
  } else if (out.after.fab.dropped != out.before.fab.dropped) {
    out.failure = "fabric dropped frames on a lossless configuration";
  }
  return out;
}

/// Everything one round produced.
struct Round {
  PhaseOutcome barrier;
  PhaseOutcome allreduce;
  Digest digest;
  std::uint64_t messages = 0;
  std::uint64_t frags = 0;
  std::string failure;
};

Round run_round(mp::FabricWorld& w, std::int64_t op_seq, bool corrupt) {
  Round r;
  r.barrier = run_collective(w, true, op_seq);
  r.allreduce = run_collective(w, false, op_seq);
  if (corrupt) r.barrier.latency += 1;
  r.failure = !r.barrier.failure.empty() ? r.barrier.failure
                                         : r.allreduce.failure;
  // Every barrier message is one byte (one fragment); every allreduce
  // message carries the whole vector. The libraries count fragments and
  // bytes, so the message counts follow from them.
  const std::uint64_t barrier_msgs =
      r.barrier.after.frags_sent - r.barrier.before.frags_sent;
  const std::uint64_t allreduce_msgs =
      (r.allreduce.after.bytes_sent - r.allreduce.before.bytes_sent) /
      kAllreduceBytes;
  r.messages = barrier_msgs + allreduce_msgs;
  r.frags = r.allreduce.after.frags_sent - r.barrier.before.frags_sent;
  for (const PhaseOutcome* p : {&r.barrier, &r.allreduce}) {
    r.digest.add(p->latency);
    r.digest.add(p->after.events - p->before.events);
    r.digest.add(p->after.frags_sent - p->before.frags_sent);
    r.digest.add(p->after.frags_received - p->before.frags_received);
    r.digest.add(p->after.bytes_sent - p->before.bytes_sent);
    r.digest.add(p->after.delivery_failures - p->before.delivery_failures);
    r.digest.add(p->after.fab.injected - p->before.fab.injected);
    r.digest.add(p->after.fab.delivered - p->before.fab.delivered);
    r.digest.add(p->after.fab.switched - p->before.fab.switched);
    r.digest.add(p->after.fab.dropped - p->before.fab.dropped);
  }
  return r;
}

std::size_t peak_backlog(mp::FabricWorld& w) {
  std::size_t peak = 0;
  for (std::size_t i = 0; i < w.fabric().link_count(); ++i) {
    peak = std::max(peak,
                    w.fabric().link(static_cast<std::int32_t>(i)).peak_backlog());
  }
  return peak;
}

class FabricCollective final : public Workload {
 public:
  explicit FabricCollective(const RunConfig& cfg)
      : cfg_(cfg),
        ranks_(cfg.tiny ? 16 : 1024),
        rounds_per_world_(cfg.tiny ? 2 : 8) {}

  void setup() override {
    world_ = build_world(ranks_, 1);
    world_fresh_ = true;
  }

  void teardown() override { world_.reset(); }

  std::size_t cycle_length() const override {
    return static_cast<std::size_t>(rounds_per_world_);
  }
  std::vector<std::size_t> order() const override {
    std::vector<std::size_t> v(cycle_length());
    for (std::size_t i = 0; i < v.size(); ++i) v[i] = i;
    return v;
  }
  bool shares_state_within_cycle() const override { return true; }

  void begin_cycle(std::int64_t /*cycle*/) override {
    if (world_fresh_) {
      world_fresh_ = false;
      return;
    }
    world_.reset();
    // Hand the freed world back to the kernel, so every cycle's world
    // faults its pages in like a fresh process's first world does.
    malloc_trim(0);
    world_ = build_world(ranks_, 1);
  }

  OpResult run_op(std::size_t id, std::int64_t op_seq, bool corrupt) override {
    Round r = run_round(*world_, op_seq, corrupt);
    OpResult out;
    out.digest = r.digest;
    out.failure = r.failure;
    out.events = r.allreduce.after.events - r.barrier.before.events;
    out.messages = r.messages;
    if (id == 1 && serial_round1_ == 0) serial_round1_ = r.digest.h;

    stats_.barrier_ns += r.barrier.host_ns;
    stats_.allreduce_ns += r.allreduce.host_ns;
    stats_.round_ns.push_back(
        static_cast<double>(r.barrier.host_ns + r.allreduce.host_ns));
    stats_.frames += r.allreduce.after.fab.injected -
                     r.barrier.before.fab.injected;
    stats_.dropped +=
        r.allreduce.after.fab.dropped - r.barrier.before.fab.dropped;
    stats_.frags += r.frags;
    stats_.messages += r.messages;
    stats_.peak_backlog = std::max(stats_.peak_backlog, peak_backlog(*world_));
    return out;
  }

  void reset_layer_stats() override { stats_ = Stats{}; }

  void layer_metrics(Metrics& m, std::uint64_t ops) override {
    const double n = static_cast<double>(std::max<std::uint64_t>(ops, 1));
    m.set("mp.barrier_ms", static_cast<double>(stats_.barrier_ns) / 1e6 / n,
          "ms");
    m.set("mp.allreduce_ms",
          static_cast<double>(stats_.allreduce_ns) / 1e6 / n, "ms");
    m.set("mp.frags_per_msg",
          stats_.messages == 0 ? 0.0
                               : static_cast<double>(stats_.frags) /
                                     static_cast<double>(stats_.messages),
          "count");
    m.set("fabric.frames_per_op", static_cast<double>(stats_.frames) / n,
          "count");
    m.set("fabric.peak_backlog", static_cast<double>(stats_.peak_backlog),
          "count");
    m.set("fabric.dropped", static_cast<double>(stats_.dropped), "count");
  }

  std::string traced_extras(Metrics& m) override {
    std::string failure;
    // Fabric construction alone (topology, switches, links, routes).
    std::vector<double> build_ms;
    for (int rep = 0; rep < 3; ++rep) {
      sim::Simulator s;
      hw::Cluster cluster(s);
      for (int h = 0; h < ranks_; ++h) {
        cluster.add_node(hw::presets::pentium4_pc());
      }
      const std::int64_t t0 = now_ns();
      {
        ScopedSpan span("build", -1);
        hw::fabric::Fabric fab(cluster, hw::fabric::FabricConfig{},
                               hw::fabric::FatTreeShape::fit(ranks_));
        build_ms.push_back(static_cast<double>(now_ns() - t0) / 1e6);
      }
    }
    m.set("fabric.build_ms", median(build_ms), "ms");

    const hw::fabric::Topology& topo = world_->fabric().topology();
    m.set("fabric.route_table_bytes",
          static_cast<double>(topo.vertices()) * topo.hosts() * 2.0, "B");
    m.set("fabric.pick_ns", pick_ns(topo), "ns");

    // The same round at N=64: host ns per event against N=1024.
    {
      auto small = build_world(std::min(ranks_, 64), 1);
      std::int64_t ns = 0;
      std::uint64_t events = 0;
      for (int i = 0; i < 20; ++i) {
        Round r = run_round(*small, -1, false);
        if (failure.empty()) failure = r.failure;
        if (i >= 2) {  // warm rounds only, as in the measured loop
          ns += r.barrier.host_ns + r.allreduce.host_ns;
          events += r.allreduce.after.events - r.barrier.before.events;
        }
      }
      m.set("simcore.ns_per_event.n64",
            events == 0 ? 0.0
                        : static_cast<double>(ns) / static_cast<double>(events),
            "ns");
    }

    // One warm round on 4 shards against the serial rounds; the sharded
    // round must simulate exactly what the serial one did.
    {
      auto sharded = build_world(ranks_, 4);
      run_round(*sharded, -1, false);
      Round r = run_round(*sharded, -1, false);
      if (failure.empty()) failure = r.failure;
      if (failure.empty() && r.digest.h != serial_round1_) {
        failure = "4-shard round differs from the serial round";
      }
      const double shard_ns =
          static_cast<double>(r.barrier.host_ns + r.allreduce.host_ns);
      m.set("simcore.shard4_speedup",
            shard_ns > 0 ? median(stats_.round_ns) / shard_ns : 0.0, "ratio");
    }
    return failure;
  }

 private:
  struct Stats {
    std::int64_t barrier_ns = 0;
    std::int64_t allreduce_ns = 0;
    std::vector<double> round_ns;
    std::uint64_t frames = 0;
    std::uint64_t dropped = 0;
    std::uint64_t frags = 0;
    std::uint64_t messages = 0;
    std::size_t peak_backlog = 0;
  };

  std::unique_ptr<mp::FabricWorld> build_world(int ranks, int shards) const {
    mp::FabricWorldOptions opt;
    opt.shards = shards;
    opt.host = hw::presets::pentium4_pc();
    opt.fabric.seed = cfg_.seed;
    ScopedSpan span("build", -1);
    return std::make_unique<mp::FabricWorld>(ranks, opt);
  }

  /// Mean host time of Topology::pick over every (switch, destination
  /// host) pair, with seeded sources.
  double pick_ns(const hw::fabric::Topology& topo) {
    ScopedSpan span("pick", -1);
    SplitMix64 rng{cfg_.seed};
    std::uint64_t sink = 0;
    std::uint64_t picks = 0;
    const std::int64_t t0 = now_ns();
    for (hw::fabric::VertexId v = topo.hosts(); v < topo.vertices(); ++v) {
      for (int dst = 0; dst < topo.hosts(); ++dst) {
        const int src = static_cast<int>(rng.next() %
                                         static_cast<std::uint64_t>(topo.hosts()));
        sink += static_cast<std::uint64_t>(topo.pick(v, src, dst, 0).link);
        ++picks;
      }
    }
    const std::int64_t dt = now_ns() - t0;
    pick_sink_ = sink;  // keeps the picks observable
    return picks == 0 ? 0.0
                      : static_cast<double>(dt) / static_cast<double>(picks);
  }

  RunConfig cfg_;
  int ranks_;
  int rounds_per_world_;
  std::unique_ptr<mp::FabricWorld> world_;
  bool world_fresh_ = false;
  std::uint64_t serial_round1_ = 0;
  std::uint64_t pick_sink_ = 0;
  Stats stats_;
};

}  // namespace

std::unique_ptr<Workload> make_fabric_collective(const RunConfig& cfg) {
  return std::make_unique<FabricCollective>(cfg);
}

}  // namespace perfbench
