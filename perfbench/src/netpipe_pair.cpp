// netpipe_pair: the paper's own workload. All 36 Fig 1-5 NetPIPE
// ping-pong curves, each on a fresh two-node bed; one operation is one
// curve. The curves are defined here (not borrowed from bench/) so the
// workload only changes when this file does.
#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <functional>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "gmsim/gm.h"
#include "harness.h"
#include "mp/gm_mpi.h"
#include "mp/lam.h"
#include "mp/mpich.h"
#include "mp/mpipro.h"
#include "mp/mplite.h"
#include "mp/pvm.h"
#include "mp/tcgmsg.h"
#include "mp/testbed.h"
#include "mp/via_mpi.h"
#include "netpipe/modules.h"
#include "netpipe/runner.h"
#include "rig.h"
#include "simhw/presets.h"
#include "viasim/via.h"

#ifndef PP_BENCH_GOLDEN_DIR
#error "build must define PP_BENCH_GOLDEN_DIR (see perfbench/CMakeLists.txt)"
#endif

namespace perfbench {
namespace {

using namespace pp;

enum Family { kTcp, kGm, kVia };

struct CurveDef {
  std::string fig;
  std::string label;
  Family family;
  std::function<std::unique_ptr<Rig>()> build;
};

// ---- rigs ---------------------------------------------------------------------

class BedRig final : public Rig {
 public:
  BedRig(const hw::HostConfig& host, const hw::NicConfig& nic,
         const tcp::Sysctl& sysctl,
         const std::function<Transports(mp::PairBed&)>& make)
      : bed_(host, nic, sysctl), tp_(make(bed_)) {}
  sim::Simulator& sim() override { return bed_.sim; }
  netpipe::Transport& a() override { return *tp_.first; }
  netpipe::Transport& b() override { return *tp_.second; }

 private:
  mp::PairBed bed_;
  Transports tp_;
};

/// Raw GM port-to-port, or an MPI over GM when `lib` is set.
class GmRig final : public Rig {
 public:
  GmRig(gm::RecvMode mode, const mp::GmMpiOptions* lib)
      : cluster_(sim_),
        node_a_(cluster_.add_node(hw::presets::pentium4_pc())),
        node_b_(cluster_.add_node(hw::presets::pentium4_pc())),
        fab_(cluster_, node_a_, node_b_, hw::presets::myrinet_pci64a(),
             hw::presets::back_to_back(), config(mode)) {
    if (lib == nullptr) {
      tp_.first = std::make_unique<mp::GmTransport>(fab_.port_a());
      tp_.second = std::make_unique<mp::GmTransport>(fab_.port_b());
    } else {
      tp_ = hold_pair(std::make_pair(
          std::make_unique<mp::GmMpi>(fab_.port_a(), 0, *lib),
          std::make_unique<mp::GmMpi>(fab_.port_b(), 1, *lib)));
    }
  }
  sim::Simulator& sim() override { return sim_; }
  netpipe::Transport& a() override { return *tp_.first; }
  netpipe::Transport& b() override { return *tp_.second; }

 private:
  static gm::GmConfig config(gm::RecvMode mode) {
    gm::GmConfig gc;
    gc.recv_mode = mode;
    return gc;
  }
  sim::Simulator sim_;
  hw::Cluster cluster_;
  hw::Node& node_a_;
  hw::Node& node_b_;
  gm::GmFabric fab_;
  Transports tp_;
};

/// TCP/IP over Myrinet's GM driver.
class IpOverGmRig final : public Rig {
 public:
  IpOverGmRig()
      : cluster_(sim_),
        node_a_(cluster_.add_node(hw::presets::pentium4_pc())),
        node_b_(cluster_.add_node(hw::presets::pentium4_pc())),
        link_(cluster_.connect(node_a_, node_b_,
                               hw::presets::myrinet_ip_over_gm(),
                               hw::presets::back_to_back())),
        stack_a_(node_a_, tcp::Sysctl::tuned()),
        stack_b_(node_b_, tcp::Sysctl::tuned()) {
    auto [xa, xb] = tcp::connect(stack_a_, stack_b_, link_);
    for (tcp::Socket* s : {&xa, &xb}) {
      s->set_send_buffer(512 << 10);
      s->set_recv_buffer(512 << 10);
    }
    tp_.first = std::make_unique<netpipe::TcpTransport>(xa, "IP over GM");
    tp_.second = std::make_unique<netpipe::TcpTransport>(xb, "IP over GM");
  }
  sim::Simulator& sim() override { return sim_; }
  netpipe::Transport& a() override { return *tp_.first; }
  netpipe::Transport& b() override { return *tp_.second; }

 private:
  sim::Simulator sim_;
  hw::Cluster cluster_;
  hw::Node& node_a_;
  hw::Node& node_b_;
  hw::Cluster::Duplex link_;
  tcp::TcpStack stack_a_;
  tcp::TcpStack stack_b_;
  Transports tp_;
};

/// Giganet cLAN hardware VIA or M-VIA over SysKonnect, raw or under an
/// MPI when `lib` is set.
class ViaRig final : public Rig {
 public:
  ViaRig(bool giganet, const mp::ViaMpiOptions& lib)
      : cluster_(sim_),
        node_a_(cluster_.add_node(hw::presets::pentium4_pc())),
        node_b_(cluster_.add_node(hw::presets::pentium4_pc())),
        fab_(cluster_, node_a_, node_b_,
             giganet ? hw::presets::giganet_clan()
                     : hw::presets::syskonnect_mvia(),
             giganet ? hw::presets::switched() : hw::presets::back_to_back(),
             config(giganet)) {
    tp_ = hold_pair(
        std::make_pair(std::make_unique<mp::ViaMpi>(fab_.end_a(), 0, lib),
                       std::make_unique<mp::ViaMpi>(fab_.end_b(), 1, lib)));
  }
  sim::Simulator& sim() override { return sim_; }
  netpipe::Transport& a() override { return *tp_.first; }
  netpipe::Transport& b() override { return *tp_.second; }

 private:
  static via::ViaConfig config(bool giganet) {
    via::ViaConfig vc;
    vc.personality = giganet ? via::ViaPersonality::giganet()
                             : via::ViaPersonality::mvia_sk98lin();
    return vc;
  }
  sim::Simulator sim_;
  hw::Cluster cluster_;
  hw::Node& node_a_;
  hw::Node& node_b_;
  via::ViaFabric fab_;
  Transports tp_;
};

// ---- the 36 curves of Figures 1-5 ---------------------------------------------

Transports raw_tcp(mp::PairBed& bed, std::uint32_t buf,
                   const std::string& label) {
  auto [sa, sb] = bed.socket_pair("rawtcp");
  for (tcp::Socket* s : {&sa, &sb}) {
    s->set_send_buffer(buf);
    s->set_recv_buffer(buf);
  }
  return {std::make_unique<netpipe::TcpTransport>(sa, label),
          std::make_unique<netpipe::TcpTransport>(sb, label)};
}

Transports mpich(mp::PairBed& bed) {
  mp::MpichOptions o;
  o.p4_sockbufsize = 256 << 10;
  return hold_pair(mp::Mpich::create_pair(bed, o));
}
Transports lam(mp::PairBed& bed) {
  mp::LamOptions o;
  o.mode = mp::LamMode::kC2cO;
  return hold_pair(mp::Lam::create_pair(bed, o));
}
Transports mpipro(mp::PairBed& bed) {
  mp::MpiProOptions o;
  o.tcp_long = 128 << 10;
  return hold_pair(mp::MpiPro::create_pair(bed, o));
}
Transports mplite(mp::PairBed& bed) {
  return hold_pair(mp::MpLite::create_pair(bed));
}
Transports pvm(mp::PairBed& bed) {
  mp::PvmOptions o;
  o.route = mp::PvmRoute::kDirect;
  o.encoding = mp::PvmEncoding::kInPlace;
  return hold_pair(mp::Pvm::create_pair(bed, o));
}
Transports tcgmsg(mp::PairBed& bed, std::uint32_t sock_buf) {
  mp::TcgmsgOptions o;
  if (sock_buf != 0) o.sr_sock_buf_size = sock_buf;
  return hold_pair(mp::Tcgmsg::create_pair(bed, o));
}

std::vector<CurveDef> make_curves() {
  std::vector<CurveDef> out;
  auto tcp_curve = [&out](const std::string& fig, const std::string& label,
                          hw::HostConfig host, hw::NicConfig nic,
                          std::function<Transports(mp::PairBed&)> make) {
    out.push_back(CurveDef{
        fig, label, kTcp,
        [host = std::move(host), nic = std::move(nic),
         make = std::move(make)]() -> std::unique_ptr<Rig> {
          return std::make_unique<BedRig>(host, nic, tcp::Sysctl::tuned(),
                                          make);
        }});
  };
  struct Gige {
    const char* fig;
    hw::HostConfig host;
    hw::NicConfig nic;
  };
  const Gige gige[] = {
      {"fig1", hw::presets::pentium4_pc(), hw::presets::netgear_ga620()},
      {"fig2", hw::presets::pentium4_pc(), hw::presets::trendnet_teg_pcitx()},
      {"fig3", hw::presets::compaq_ds20(),
       hw::presets::syskonnect_sk9843(9000)},
  };
  for (const Gige& g : gige) {
    const std::string fig = g.fig;
    tcp_curve(fig, "raw TCP", g.host, g.nic, [](mp::PairBed& bed) {
      return raw_tcp(bed, 512 << 10, "raw TCP");
    });
    if (fig == "fig2") {
      tcp_curve(fig, "raw TCP default", g.host, g.nic, [](mp::PairBed& bed) {
        return raw_tcp(bed, 64 << 10, "raw TCP default");
      });
    }
    tcp_curve(fig, "MPICH", g.host, g.nic, mpich);
    tcp_curve(fig, "LAM/MPI -O", g.host, g.nic, lam);
    if (fig != "fig3") tcp_curve(fig, "MPI/Pro", g.host, g.nic, mpipro);
    tcp_curve(fig, "MP_Lite", g.host, g.nic, mplite);
    tcp_curve(fig, "PVM", g.host, g.nic, pvm);
    tcp_curve(fig, "TCGMSG", g.host, g.nic,
              [](mp::PairBed& bed) { return tcgmsg(bed, 0); });
    if (fig == "fig2") {
      tcp_curve(fig, "TCGMSG 256k rebuild", g.host, g.nic,
                [](mp::PairBed& bed) { return tcgmsg(bed, 256 << 10); });
    }
    if (fig == "fig3") {
      tcp_curve(fig, "TCGMSG 128k rebuild", g.host, g.nic,
                [](mp::PairBed& bed) { return tcgmsg(bed, 128 << 10); });
      tcp_curve(fig, "MPI/Pro (model)", g.host, g.nic, mpipro);
    }
  }

  auto gm_curve = [&out](const std::string& label, gm::RecvMode mode,
                         std::optional<mp::GmMpiOptions> lib) {
    out.push_back(CurveDef{"fig4", label, kGm,
                           [mode, lib]() -> std::unique_ptr<Rig> {
                             return std::make_unique<GmRig>(
                                 mode, lib ? &*lib : nullptr);
                           }});
  };
  gm_curve("raw GM", gm::RecvMode::kPolling, std::nullopt);
  gm_curve("MPICH-GM", gm::RecvMode::kPolling, mp::GmMpi::mpich_gm());
  gm_curve("MPI/Pro-GM", gm::RecvMode::kPolling, mp::GmMpi::mpipro_gm());
  out.push_back(CurveDef{"fig4", "IP over GM", kTcp,
                         []() -> std::unique_ptr<Rig> {
                           return std::make_unique<IpOverGmRig>();
                         }});
  gm_curve("raw GM blocking", gm::RecvMode::kBlocking, std::nullopt);
  gm_curve("raw GM hybrid", gm::RecvMode::kHybrid, std::nullopt);

  auto via_curve = [&out](const std::string& label, bool giganet,
                          mp::ViaMpiOptions lib) {
    out.push_back(CurveDef{"fig5", label, kVia,
                           [giganet, lib]() -> std::unique_ptr<Rig> {
                             return std::make_unique<ViaRig>(giganet, lib);
                           }});
  };
  via_curve("MVICH Giganet", true, mp::ViaMpi::mvich());
  via_curve("MP_Lite Giganet", true, mp::ViaMpi::mplite_via());
  via_curve("MPI/Pro Giganet", true, mp::ViaMpi::mpipro_via());
  via_curve("MVICH M-VIA/sk", false, mp::ViaMpi::mvich());
  via_curve("MP_Lite M-VIA/sk", false, mp::ViaMpi::mplite_via());
  via_curve("MVICH without RPUT", true, mp::ViaMpi::mvich(false));
  return out;
}

// ---- golden curves --------------------------------------------------------------

/// tests/test_golden.cpp's tolerance: the runs are bit-deterministic, the
/// slack only absorbs the %.6g formatting of the .dat files.
constexpr double kGoldenRelTol = 1e-4;

struct GoldenRow {
  std::uint64_t bytes = 0;
  double time_us = 0.0;
  double mbps = 0.0;
};

/// Curve label -> golden file fragment, as bench/common.h's label_slug:
/// lowercase, every non-alphanumeric run collapsed to one '_', trimmed.
std::string slug(const std::string& label) {
  std::string s;
  bool sep = false;
  for (unsigned char c : label) {
    if (std::isalnum(c)) {
      if (sep && !s.empty()) s += '_';
      s += static_cast<char>(std::tolower(c));
      sep = false;
    } else {
      sep = true;
    }
  }
  return s;
}

std::vector<GoldenRow> read_golden(const std::string& path) {
  std::vector<GoldenRow> rows;
  std::ifstream f(path);
  std::string line;
  while (std::getline(f, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream is(line);
    GoldenRow r;
    if (is >> r.bytes >> r.time_us >> r.mbps) rows.push_back(r);
  }
  return rows;
}

bool close(double golden, double fresh) {
  return std::abs(fresh - golden) / std::max(std::abs(golden), 1e-12) <=
         kGoldenRelTol;
}

// ---- the workload -----------------------------------------------------------------

class NetpipePair final : public Workload {
 public:
  explicit NetpipePair(const RunConfig& cfg) : cfg_(cfg) {}

  void setup() override {
    curves_ = make_curves();
    golden_.assign(curves_.size(), {});
    for (std::size_t i = 0; i < curves_.size(); ++i) {
      golden_[i] = read_golden(std::string(PP_BENCH_GOLDEN_DIR) + "/" +
                               curves_[i].fig + "_" +
                               slug(curves_[i].label) + ".dat");
    }
    // The golden configuration (one repeat, no warm-up) with the paper's
    // 1 MiB cap: every point up to test_golden's 256 KiB is the same
    // measurement and must match its golden row.
    opts_ = netpipe::RunOptions{};
    opts_.schedule.max_bytes = cfg_.tiny ? 4u << 10 : 1u << 20;
    opts_.repeats = 1;
    opts_.warmup = 0;
    order_ = seeded_permutation(curves_.size(), cfg_.seed);
  }

  std::size_t cycle_length() const override { return curves_.size(); }
  std::vector<std::size_t> order() const override { return order_; }

  OpResult run_op(std::size_t id, std::int64_t op_seq,
                  bool corrupt) override {
    const CurveDef& c = curves_[id];
    OpResult out;
    const std::int64_t t0 = now_ns();
    std::unique_ptr<Rig> rig;
    {
      ScopedSpan span("build", op_seq);
      rig = c.build();
    }
    const std::int64_t t1 = now_ns();
    netpipe::RunResult res;
    {
      ScopedSpan span("netpipe_run", op_seq);
      res = netpipe::run_netpipe(rig->sim(), rig->a(), rig->b(), opts_);
    }
    const std::int64_t t2 = now_ns();
    out.events = rig->sim().events_processed();
    const std::uint64_t live = rig->sim().packet_arena().live();
    rig.reset();

    if (corrupt && !res.points.empty()) res.points.front().elapsed += 1;

    out.messages = 2 * res.points.size() *
                   static_cast<std::uint64_t>(opts_.repeats + opts_.warmup);
    out.digest.add(c.fig + "/" + c.label);
    for (const netpipe::DataPoint& p : res.points) {
      out.digest.add(p.bytes);
      out.digest.add(p.elapsed);
    }
    add_counters(out.digest, res.counters);
    out.digest.add(res.max_mbps);

    if (live != 0) {
      out.failure = "packet-arena descriptors alive after the curve: " +
                    std::to_string(live);
    } else if (std::string why = golden_mismatch(id, res); !why.empty()) {
      out.failure = why;
    }

    stats_.build_ns += t1 - t0;
    stats_.family_ns[c.family] += t2 - t1;
    stats_.family_ops[c.family] += 1;
    stats_.points += res.points.size();
    stats_.rendezvous += res.counters.rendezvous_handshakes;
    stats_.segments += res.counters.data_segments;
    stats_.acks += res.counters.acks;
    stats_.retransmits += res.counters.retransmits +
                          res.counters.fast_retransmits;
    stats_.arena_live = std::max(stats_.arena_live, live);
    return out;
  }

  void reset_layer_stats() override { stats_ = Stats{}; }

  std::string traced_extras(Metrics& m) override {
    return run_chaos_probe(cfg_, m);
  }

  void layer_metrics(Metrics& m, std::uint64_t ops) override {
    const double n = static_cast<double>(std::max<std::uint64_t>(ops, 1));
    auto per = [](std::int64_t ns, std::uint64_t k) {
      return k == 0 ? 0.0 : static_cast<double>(ns) / 1e6 /
                                static_cast<double>(k);
    };
    m.set("simhw.bed_build_us",
          static_cast<double>(stats_.build_ns) / 1e3 / n, "us");
    m.set("netpipe.tcp_ms", per(stats_.family_ns[kTcp], stats_.family_ops[kTcp]),
          "ms");
    m.set("netpipe.gm_ms", per(stats_.family_ns[kGm], stats_.family_ops[kGm]),
          "ms");
    m.set("netpipe.via_ms", per(stats_.family_ns[kVia], stats_.family_ops[kVia]),
          "ms");
    m.set("netpipe.points_per_op", static_cast<double>(stats_.points) / n,
          "count");
    m.set("mp.rendezvous_per_op", static_cast<double>(stats_.rendezvous) / n,
          "count");
    m.set("tcpsim.segments_per_op", static_cast<double>(stats_.segments) / n,
          "count");
    m.set("tcpsim.acks_per_segment",
          stats_.segments == 0 ? 0.0
                               : static_cast<double>(stats_.acks) /
                                     static_cast<double>(stats_.segments),
          "ratio");
    m.set("tcpsim.retransmits_per_op",
          static_cast<double>(stats_.retransmits) / n, "count");
    m.set("simcore.arena_live_after_op",
          static_cast<double>(stats_.arena_live), "count");
  }

 private:
  struct Stats {
    std::int64_t build_ns = 0;
    std::int64_t family_ns[3] = {0, 0, 0};
    std::uint64_t family_ops[3] = {0, 0, 0};
    std::uint64_t points = 0;
    std::uint64_t rendezvous = 0;
    std::uint64_t segments = 0;
    std::uint64_t acks = 0;
    std::uint64_t retransmits = 0;
    std::uint64_t arena_live = 0;
  };

  static void add_counters(Digest& d, const netpipe::ProtocolCounters& c) {
    for (std::uint64_t v :
         {c.data_segments, c.acks, c.retransmits, c.fast_retransmits,
          c.checksum_drops, c.reconnects, c.wire_drops,
          c.rendezvous_handshakes, c.rendezvous_retries, c.delivery_failures,
          c.staged_bytes, c.relay_fragments, c.rdma_transfers}) {
      d.add(v);
    }
  }

  /// Compares the curve with its golden rows (the curves test_golden
  /// pins); empty when they agree or the curve has no golden file.
  std::string golden_mismatch(std::size_t id,
                              const netpipe::RunResult& res) const {
    const std::vector<GoldenRow>& golden = golden_[id];
    const std::size_t n = std::min(golden.size(), res.points.size());
    for (std::size_t i = 0; i < n; ++i) {
      const netpipe::DataPoint& p = res.points[i];
      // The perturbation above a schedule's cap is its closing point,
      // measured under different buffer sizing than the same size inside
      // a longer schedule; only self-test (small-cap) runs reach it.
      if (p.bytes > opts_.schedule.max_bytes) break;
      if (golden[i].bytes != p.bytes ||
          !close(golden[i].time_us, sim::to_microseconds(p.elapsed)) ||
          !close(golden[i].mbps, p.mbps())) {
        char buf[200];
        std::snprintf(buf, sizeof buf,
                      "%s %s differs from its golden curve at row %zu "
                      "(%llu B: golden %.6g us, measured %.6g us)",
                      curves_[id].fig.c_str(), curves_[id].label.c_str(), i,
                      static_cast<unsigned long long>(golden[i].bytes),
                      golden[i].time_us, sim::to_microseconds(p.elapsed));
        return buf;
      }
    }
    return {};
  }

  RunConfig cfg_;
  std::vector<CurveDef> curves_;
  std::vector<std::vector<GoldenRow>> golden_;
  netpipe::RunOptions opts_;
  std::vector<std::size_t> order_;
  Stats stats_;
};

}  // namespace

std::unique_ptr<Workload> make_netpipe_pair(const RunConfig& cfg) {
  return std::make_unique<NetpipePair>(cfg);
}

}  // namespace perfbench
