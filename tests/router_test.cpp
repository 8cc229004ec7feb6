// Router-level protocol tests: manual wiring of routers and channels to
// verify credit-based backpressure, pipeline timing, ejection and wormhole
// continuity without a full network around them.
#include <gtest/gtest.h>

#include "shg/sim/router.hpp"

namespace shg::sim {
namespace {

/// Stub routing: always forward through port 0 on any VC.
class ForwardPort0 final : public RoutingFunction {
 public:
  explicit ForwardPort0(int num_vcs) : num_vcs_(num_vcs) {}
  std::size_t route(int, int, int, int,
                    std::span<RouteCandidate> out) const override {
    out[0] = RouteCandidate{0, 0, num_vcs_};
    return 1;
  }
  std::string name() const override { return "forward-port0"; }

 private:
  int num_vcs_;
};

SimConfig small_config() {
  SimConfig config;
  config.num_vcs = 2;
  config.buffer_depth_flits = 4;
  config.packet_size_flits = 1;
  return config;
}

Flit make_flit(int id, int dest, bool head, bool tail) {
  Flit flit;
  flit.packet_id = id;
  flit.dest = dest;
  flit.head = head;
  flit.tail = tail;
  return flit;
}

TEST(Router, LoopbackEjection) {
  // A router with no network ports: packets to itself leave via the local
  // ports, spread by packet id.
  const SimConfig config = small_config();
  ForwardPort0 routing(config.num_vcs);
  Router router(0, 0, 2, config, &routing);
  ASSERT_TRUE(router.try_inject(0, 0, make_flit(0, 0, true, true), 0));
  ASSERT_TRUE(router.try_inject(1, 0, make_flit(1, 0, true, true), 0));
  // Ready at cycle 1 (injection costs one router delay).
  router.allocate_phase(0);
  EXPECT_EQ(router.ejected().size(), 0u);
  router.allocate_phase(1);
  ASSERT_EQ(router.ejected().size(), 2u);
  // packet 0 -> local port 0, packet 1 -> local port 1 (id % locals).
  EXPECT_EQ(router.ejected()[0].packet_id, 0);
  EXPECT_EQ(router.ejected()[1].packet_id, 1);
}

TEST(Router, InjectRespectsBufferDepth) {
  const SimConfig config = small_config();
  ForwardPort0 routing(config.num_vcs);
  Router router(0, 0, 1, config, &routing);
  for (int i = 0; i < config.buffer_depth_flits; ++i) {
    EXPECT_TRUE(router.try_inject(0, 0, make_flit(i, 0, true, true), 0));
  }
  EXPECT_FALSE(router.try_inject(0, 0, make_flit(99, 0, true, true), 0));
  EXPECT_EQ(router.local_vc_space(0, 0), 0);
  EXPECT_EQ(router.local_vc_space(0, 1), config.buffer_depth_flits);
}

struct Pair {
  SimConfig config = {};
  ForwardPort0 routing{2};
  Router a{0, 1, 1, SimConfig{}, nullptr};
  Router b{1, 1, 1, SimConfig{}, nullptr};
  Channel ab{1};
  Channel ba{1};

  explicit Pair(int link_latency, SimConfig cfg)
      : config(cfg),
        routing(cfg.num_vcs),
        a(0, 1, 1, cfg, &routing),
        b(1, 1, 1, cfg, &routing),
        ab(link_latency),
        ba(link_latency) {
    // a's port 0 sends on ab, receives on ba; b mirrored.
    a.attach(0, &ba, &ab);
    b.attach(0, &ab, &ba);
  }

  void step(Cycle now) {
    a.deliver_phase(now);
    b.deliver_phase(now);
    a.allocate_phase(now);
    b.allocate_phase(now);
  }
};

TEST(Router, TwoRouterTimingWithLinkLatency) {
  // Inject at cycle 0 into a; one router delay (ready at 1), link latency 3
  // (arrive at 4), one router delay at b (ready 5) -> ejected at cycle 5.
  Pair pair(3, small_config());
  ASSERT_TRUE(pair.a.try_inject(0, 0, make_flit(0, 1, true, true), 0));
  for (Cycle now = 0; now <= 10; ++now) {
    pair.step(now);
    if (!pair.b.ejected().empty()) {
      EXPECT_EQ(now, 5);
      return;
    }
  }
  FAIL() << "flit never ejected";
}

TEST(Router, CreditBackpressureStallsSender) {
  // Stall router b (never run its allocate phase): a may send exactly
  // buffer_depth flits into b's input VC, then must stop.
  SimConfig config = small_config();
  config.packet_size_flits = 8;  // one long packet on one VC
  Pair pair(1, config);
  // Feed one 8-flit packet into a's local port as space permits (the NI's
  // job), while b never runs its allocate phase: its buffers fill, credits
  // stop flowing, and a must hold the remaining flits.
  int fed = 0;
  long long received = 0;
  for (Cycle now = 0; now <= 30; ++now) {
    if (fed < 8 &&
        pair.a.try_inject(0, 0, make_flit(0, 1, fed == 0, fed == 7), now)) {
      ++fed;
    }
    pair.a.deliver_phase(now);
    pair.b.deliver_phase(now);
    pair.a.allocate_phase(now);
    received = pair.b.buffered_flits();
  }
  EXPECT_EQ(fed, 8);
  EXPECT_EQ(received, config.buffer_depth_flits);
  EXPECT_EQ(pair.a.buffered_flits(), 8 - config.buffer_depth_flits);

  // Un-stall b: everything drains.
  bool saw_tail = false;
  for (Cycle now = 21; now <= 60; ++now) {
    pair.step(now);
    for (const Flit& flit : pair.b.ejected()) {
      if (flit.tail) saw_tail = true;
    }
    pair.b.ejected().clear();
  }
  EXPECT_TRUE(saw_tail);
  EXPECT_EQ(pair.a.buffered_flits(), 0);
  EXPECT_EQ(pair.b.buffered_flits(), 0);
}

TEST(Router, WormholePacketsDoNotInterleaveOnAnOutputVc) {
  // Two 4-flit packets from different input VCs toward the same output
  // port: flits observed at b must be per-packet contiguous within a VC
  // (the output VC is held until the tail passes).
  SimConfig config = small_config();
  config.packet_size_flits = 4;
  Pair pair(1, config);
  for (int f = 0; f < 4; ++f) {
    ASSERT_TRUE(pair.a.try_inject(0, 0, make_flit(0, 1, f == 0, f == 3), 0));
    ASSERT_TRUE(pair.a.try_inject(0, 1, make_flit(1, 1, f == 0, f == 3), 0));
  }
  std::vector<std::vector<int>> order_per_vc(2);
  for (Cycle now = 0; now <= 40; ++now) {
    pair.step(now);
    for (const Flit& flit : pair.b.ejected()) {
      order_per_vc[static_cast<std::size_t>(flit.vc < 1 ? 0 : 1)].push_back(
          flit.packet_id);
    }
    pair.b.ejected().clear();
  }
  int total = 0;
  for (const auto& order : order_per_vc) {
    total += static_cast<int>(order.size());
    // Within a VC, packet ids must be contiguous runs.
    for (std::size_t i = 2; i < order.size(); ++i) {
      if (order[i] == order[i - 2]) {
        EXPECT_EQ(order[i], order[i - 1])
            << "interleaved packets on one VC";
      }
    }
  }
  EXPECT_EQ(total, 8);
}

TEST(Router, RejectsInvalidConstruction) {
  const SimConfig config = small_config();
  ForwardPort0 routing(config.num_vcs);
  EXPECT_THROW(Router(0, 1, 0, config, &routing), Error);
  EXPECT_THROW(Router(0, 1, 1, config, nullptr), Error);
  Router ok(0, 1, 1, config, &routing);
  EXPECT_THROW(ok.attach(1, nullptr, nullptr), Error);
  EXPECT_THROW(ok.try_inject(1, 0, make_flit(0, 0, true, true), 0), Error);
  EXPECT_THROW(ok.try_inject(0, 9, make_flit(0, 0, true, true), 0), Error);
}

}  // namespace
}  // namespace shg::sim
