// The chaos probe of netpipe_pair's traced run: the fixed fault-plan
// corpus (chaos::random_plan 1..500) against the four chaos::kScenarios
// stacks (TCP, MPICH, GM, VIA). Each scenario run is a ping-pong on
// chaos::chaos_run_options() under chaos::chaos_sweep_options()'s
// watchdog, classified by chaos::classify; every run is made twice, with
// and without the audit::Auditor attached.
//
// The scenario stacks are built here, mirroring src/chaos/chaos.cpp, so
// the probe can read the simulator's counters and packet arena before
// the bed is destroyed.
#include <algorithm>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "chaos/chaos.h"
#include "faults/config.h"
#include "faults/plan_io.h"
#include "gmsim/gm.h"
#include "harness.h"
#include "mp/gm_mpi.h"
#include "mp/mpich.h"
#include "mp/testbed.h"
#include "mp/via_mpi.h"
#include "netpipe/modules.h"
#include "rig.h"
#include "simhw/presets.h"
#include "simcore/simulator.h"
#include "sweep/sweep.h"
#include "viasim/via.h"

namespace perfbench {
namespace {

using namespace pp;
using chaos::Scenario;

// ---- scenario stacks (auditor attached before any protocol object) --------

class TcpRig final : public Rig {
 public:
  TcpRig(const faults::FaultPlan& plan, audit::Auditor* aud, bool mpich)
      : bed_(hw::presets::pentium4_pc(), hw::presets::netgear_ga620(),
             chaos::chaos_sysctl(!plan.empty())) {
    if (aud != nullptr) bed_.sim.set_auditor(aud);
    faults::apply(plan, bed_.cluster);
    if (mpich) {
      mp::MpichOptions o;
      o.p4_sockbufsize = 256 << 10;
      tp_ = hold_pair(mp::Mpich::create_pair(bed_, o));
      return;
    }
    auto [sa, sb] = bed_.socket_pair("chaos");
    for (tcp::Socket* s : {&sa, &sb}) {
      s->set_send_buffer(256 << 10);
      s->set_recv_buffer(256 << 10);
    }
    tp_.first = std::make_unique<netpipe::TcpTransport>(sa, "tcp");
    tp_.second = std::make_unique<netpipe::TcpTransport>(sb, "tcp");
  }
  sim::Simulator& sim() override { return bed_.sim; }
  netpipe::Transport& a() override { return *tp_.first; }
  netpipe::Transport& b() override { return *tp_.second; }

 private:
  mp::PairBed bed_;
  Transports tp_;
};

/// GM over Myrinet or Giganet VIA, with the delivery watchdog and attempt
/// cap armed when the plan injects faults.
class BypassRig final : public Rig {
 public:
  BypassRig(const faults::FaultPlan& plan, audit::Auditor* aud, bool gm)
      : cluster_(init(sim_, aud)),
        node_a_(cluster_.add_node(hw::presets::pentium4_pc())),
        node_b_(cluster_.add_node(hw::presets::pentium4_pc())) {
    if (gm) {
      gm::GmConfig gc;
      if (!plan.empty()) {
        gc.delivery_timeout = sim::microseconds(500.0);
        gc.max_delivery_attempts = 10;
      }
      gm_ = std::make_unique<gm::GmFabric>(
          cluster_, node_a_, node_b_, hw::presets::myrinet_pci64a(),
          hw::presets::back_to_back(), gc);
      faults::apply(plan, cluster_);
      tp_.first = std::make_unique<mp::GmTransport>(gm_->port_a());
      tp_.second = std::make_unique<mp::GmTransport>(gm_->port_b());
    } else {
      via::ViaConfig vc;
      if (!plan.empty()) {
        vc.delivery_timeout = sim::microseconds(500.0);
        vc.max_delivery_attempts = 10;
      }
      via_ = std::make_unique<via::ViaFabric>(
          cluster_, node_a_, node_b_, hw::presets::giganet_clan(),
          hw::presets::switched(), vc);
      faults::apply(plan, cluster_);
      tp_.first = std::make_unique<mp::ViaTransport>(via_->end_a());
      tp_.second = std::make_unique<mp::ViaTransport>(via_->end_b());
    }
  }
  sim::Simulator& sim() override { return sim_; }
  netpipe::Transport& a() override { return *tp_.first; }
  netpipe::Transport& b() override { return *tp_.second; }

 private:
  static sim::Simulator& init(sim::Simulator& s, audit::Auditor* aud) {
    if (aud != nullptr) s.set_auditor(aud);
    return s;
  }
  sim::Simulator sim_;
  hw::Cluster cluster_;
  hw::Node& node_a_;
  hw::Node& node_b_;
  std::unique_ptr<gm::GmFabric> gm_;
  std::unique_ptr<via::ViaFabric> via_;
  Transports tp_;
};

std::unique_ptr<Rig> build_rig(Scenario sc, const faults::FaultPlan& plan,
                               audit::Auditor* aud) {
  switch (sc) {
    case Scenario::kTcp: return std::make_unique<TcpRig>(plan, aud, false);
    case Scenario::kMpich: return std::make_unique<TcpRig>(plan, aud, true);
    case Scenario::kGm: return std::make_unique<BypassRig>(plan, aud, true);
    case Scenario::kVia: return std::make_unique<BypassRig>(plan, aud, false);
  }
  return nullptr;
}

/// What one scenario run exposed besides its JobResult.
struct JobProbe {
  std::uint64_t arena_live = 0;  ///< after a completed run
  audit::Summary audit;
};

/// One scenario run; `audited` attaches the oracle. Runs on the calling
/// thread under chaos::chaos_sweep_options()'s watchdog, with the sweep
/// executor's status mapping (sweep/sweep.cpp), so chaos::classify sees
/// the JobResult a chaos sweep would produce. (A one-job sweep::run_sweep
/// per run would add a pool thread's start and join to every run,
/// which chaos sweeps amortize over thousands of jobs.)
sweep::JobResult run_job(Scenario sc, const faults::FaultPlan& plan,
                         bool audited, JobProbe& probe) {
  const sweep::SweepOptions opt = chaos::chaos_sweep_options();
  sweep::JobResult jr;
  jr.label = chaos::to_string(sc);
  const int attempts = 1 + std::max(0, opt.watchdog_retries);
  for (int attempt = 0; attempt < attempts; ++attempt) {
    probe = JobProbe{};
    std::unique_ptr<audit::Auditor> aud;
    if (audited) {
      aud = std::make_unique<audit::Auditor>(
          faults::derive_seed(plan.seed, "audit"));
      aud->set_fault_plan(faults::to_text(plan));
    }
    const auto scale = static_cast<sim::SimTime>(1) << attempt;
    sim::ScopedSimLimits limits(
        opt.limits.sim_deadline * scale,
        opt.limits.event_budget * static_cast<std::uint64_t>(scale));
    std::unique_ptr<Rig> rig;
    try {
      rig = build_rig(sc, plan, aud.get());
      jr.result = netpipe::run_netpipe(rig->sim(), rig->a(), rig->b(),
                                       chaos::chaos_run_options());
      probe.arena_live = rig->sim().packet_arena().live();
      if (jr.result.audit) probe.audit = *jr.result.audit;
      jr.ok = true;
      jr.status = sweep::JobStatus::kOk;
      jr.error.clear();
      return jr;
    } catch (const sim::BudgetExceededError& e) {
      jr.status = sweep::JobStatus::kWatchdog;
      jr.error = e.what();
      if (aud) probe.audit = aud->finalize(audit::RunOutcome::kAborted);
      if (attempt + 1 < attempts) jr.retries += 1;
    } catch (const sim::ProtocolFailure& e) {
      jr.status = sweep::JobStatus::kFailed;
      jr.error = e.what();
      if (aud) probe.audit = aud->finalize(audit::RunOutcome::kFailed);
      break;
    } catch (const std::exception& e) {
      jr.status = sweep::JobStatus::kError;
      jr.error = e.what();
      if (aud) probe.audit = aud->finalize(audit::RunOutcome::kAborted);
      break;
    }
  }
  return jr;
}

Digest result_digest(const sweep::JobResult& jr) {
  Digest d;
  d.add(static_cast<int>(jr.status));
  d.add(jr.error);
  for (const netpipe::DataPoint& p : jr.result.points) {
    d.add(p.bytes);
    d.add(p.elapsed);
  }
  const netpipe::ProtocolCounters& c = jr.result.counters;
  for (std::uint64_t v :
       {c.data_segments, c.acks, c.retransmits, c.fast_retransmits,
        c.checksum_drops, c.reconnects, c.wire_drops, c.rendezvous_handshakes,
        c.rendezvous_retries, c.delivery_failures, c.staged_bytes,
        c.relay_fragments, c.rdma_transfers}) {
    d.add(v);
  }
  d.add(jr.result.max_mbps);
  return d;
}

}  // namespace

std::string run_chaos_probe(const RunConfig& cfg, Metrics& m) {
  // A fixed corpus (plan seeds 1..N, the numbering bench/chaos uses); the
  // run seed sets the order.
  std::vector<faults::FaultPlan> plans;
  const int n_plans = cfg.tiny ? 3 : 500;
  for (int i = 0; i < n_plans; ++i) {
    plans.push_back(chaos::random_plan(static_cast<std::uint64_t>(i) + 1));
  }
  // Fault-free throughput per stack: the degraded-verdict reference.
  double baseline[4] = {0, 0, 0, 0};
  for (Scenario sc : chaos::kScenarios) {
    JobProbe probe;
    const sweep::JobResult jr = run_job(sc, faults::FaultPlan{}, false, probe);
    baseline[static_cast<std::size_t>(sc)] = jr.ok ? jr.result.max_mbps : 0.0;
  }

  std::int64_t scenario_ns[4] = {0, 0, 0, 0};
  std::uint64_t scenario_runs[4] = {0, 0, 0, 0};
  std::int64_t audited_ns = 0;
  std::int64_t plain_ns = 0;
  std::map<std::string, std::uint64_t> verdicts;
  std::uint64_t violations = 0;
  std::uint64_t retransmits = 0;
  std::string failure;
  const std::vector<std::size_t> order = seeded_permutation(
      plans.size() * std::size(chaos::kScenarios), cfg.seed ^ 0xc4a05ULL);
  for (std::size_t k = 0; k < order.size(); ++k) {
    const faults::FaultPlan& plan = plans[order[k] / 4];
    const Scenario sc = chaos::kScenarios[order[k] % 4];
    const auto s = static_cast<std::size_t>(sc);
    // The same run with and without the oracle, alternating which goes
    // first; the oracle is observe-only, so both must simulate the same.
    sweep::JobResult jr[2];
    JobProbe probe[2];
    for (int turn = 0; turn < 2; ++turn) {
      const bool on = (turn + static_cast<int>(k)) % 2 == 1;
      const std::int64_t t0 = now_ns();
      jr[on] = run_job(sc, plan, on, probe[on]);
      const std::int64_t dt = now_ns() - t0;
      (on ? audited_ns : plain_ns) += dt;
      if (on) {
        scenario_ns[s] += dt;
        scenario_runs[s] += 1;
      }
    }
    if (cfg.inject_mismatch && k == 0) jr[1].result.max_mbps += 1.0;

    const chaos::Verdict v =
        chaos::classify(jr[1], baseline[s], &probe[1].audit);
    verdicts[chaos::to_string(v)] += 1;
    const audit::Summary& a = probe[1].audit;
    violations += a.violations;
    if (jr[1].ok) {
      retransmits += jr[1].result.counters.retransmits +
                     jr[1].result.counters.fast_retransmits;
    }

    const std::string what = std::string(chaos::to_string(sc)) + " plan " +
                             std::to_string(plan.seed);
    if (!failure.empty()) continue;
    if (result_digest(jr[0]).h != result_digest(jr[1]).h) {
      failure = what + ": audited run differs from the unaudited run";
    } else if (a.has_violations()) {
      failure = what + ": audit violations\n" + audit::report_text(a);
    } else if (!chaos::acceptable(v)) {
      failure = what + ": verdict " + chaos::to_string(v) + " (" +
                jr[1].error + ")";
    } else if (probe[0].arena_live != 0 || probe[1].arena_live != 0) {
      failure = what + ": packet-arena descriptors alive after the run";
    }
  }

  const char* names[] = {"chaos.tcp_ms", "chaos.mpich_ms", "chaos.gm_ms",
                         "chaos.via_ms"};
  for (std::size_t s = 0; s < 4; ++s) {
    m.set(names[s],
          scenario_runs[s] == 0
              ? 0.0
              : static_cast<double>(scenario_ns[s]) / 1e6 /
                    static_cast<double>(scenario_runs[s]),
          "ms");
  }
  for (const char* v : {"clean", "recovered", "degraded", "failed"}) {
    m.set(std::string("chaos.verdicts.") + v,
          static_cast<double>(verdicts[v]), "count");
  }
  m.set("chaos.retransmits_per_run",
        static_cast<double>(retransmits) / static_cast<double>(order.size()),
        "count");
  m.set("audit.violations", static_cast<double>(violations), "count");
  m.set("audit.overhead_ratio",
        plain_ns > 0 ? static_cast<double>(audited_ns) /
                           static_cast<double>(plain_ns)
                     : 0.0,
        "ratio");
  return failure;
}

}  // namespace perfbench
