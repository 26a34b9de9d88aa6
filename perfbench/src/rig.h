// A two-node bed with a connected NetPIPE transport pair, shared by the
// netpipe_pair workload and the chaos probe.
#pragma once

#include <memory>
#include <utility>

#include "mp/adapters.h"
#include "netpipe/transport.h"
#include "simcore/simulator.h"

namespace perfbench {

using Transports = std::pair<std::unique_ptr<pp::netpipe::Transport>,
                             std::unique_ptr<pp::netpipe::Transport>>;

/// Everything one measurement needs. Derived rigs declare the simulator
/// and hardware first and the transports last, so the transports die
/// first.
class Rig {
 public:
  virtual ~Rig() = default;
  virtual pp::sim::Simulator& sim() = 0;
  virtual pp::netpipe::Transport& a() = 0;
  virtual pp::netpipe::Transport& b() = 0;
};

/// Keeps a library pair alive while exposing one endpoint as a NetPIPE
/// transport.
class HeldTransport final : public pp::netpipe::Transport {
 public:
  HeldTransport(std::shared_ptr<void> keep, pp::mp::Library& lib, int peer)
      : keep_(std::move(keep)), t_(lib, peer) {}

  pp::sim::Task<void> send(std::uint64_t b) override { return t_.send(b); }
  pp::sim::Task<void> recv(std::uint64_t b) override { return t_.recv(b); }
  std::string name() const override { return t_.name(); }
  pp::netpipe::ProtocolCounters counters() const override {
    return t_.counters();
  }

 private:
  std::shared_ptr<void> keep_;
  pp::mp::LibraryTransport t_;
};

/// Wraps a create_pair() result into a transport pair that owns it.
template <typename PairT>
Transports hold_pair(PairT pair) {
  auto shared = std::make_shared<PairT>(std::move(pair));
  auto ta = std::make_unique<HeldTransport>(shared, *shared->first, 1);
  auto tb = std::make_unique<HeldTransport>(shared, *shared->second, 0);
  return {std::move(ta), std::move(tb)};
}

}  // namespace perfbench
