#include "shg/sim/simulator.hpp"

#include <algorithm>
#include <cmath>

#include "shg/sim/concentration.hpp"
#include "shg/sim/soa_network.hpp"
#include "shg/sim/stats.hpp"

namespace shg::sim {

namespace {

/// Smallest VC count the (topology, policy) combination is deadlock-free
/// with. SimConfig::validate() cannot see either, so the check lives at
/// simulator construction: without it an under-provisioned config used to
/// surface as a deep SHG_REQUIRE from a routing constructor or, worse, a
/// silent saturation hang.
int min_vcs_for(const topo::Topology& topo, const SimConfig& config) {
  if (effective_routing_policy(config) == RoutingPolicy::kUgal) {
    return kUgalEscapeVcs + 1;  // 2 escape classes + >= 1 adaptive VC
  }
  switch (topo.kind()) {
    case topo::Kind::kRing:
    case topo::Kind::kTorus:
    case topo::Kind::kFoldedTorus:
      return 2;  // dateline class pair
    case topo::Kind::kSlimNoc:
    case topo::Kind::kCustom:
      return 2;  // adaptive band + escape VC
    default:
      return 1;
  }
}

}  // namespace

std::size_t packet_reserve_hint(double packet_prob, Cycle generation_end,
                                int num_tiles, int endpoints_per_tile) {
  // All factors are non-negative, but their product at 64x64+, high rate
  // and long measurement phases can exceed what a size_t cast (UB for
  // values > SIZE_MAX) or an upfront reserve should see. Work in double,
  // add the 10% headroom, then clamp to a 16M-record ceiling — past that
  // the vector's geometric growth is cheaper than a mis-sized commit.
  constexpr double kMaxReserve = static_cast<double>(std::size_t{1} << 24);
  double expected = packet_prob * static_cast<double>(generation_end) *
                    static_cast<double>(num_tiles) *
                    static_cast<double>(endpoints_per_tile);
  if (!(expected > 0.0)) expected = 0.0;  // also catches NaN
  const double want = std::min(expected * 1.1, kMaxReserve);
  return static_cast<std::size_t>(want) + 256;
}

Simulator::Simulator(const topo::Topology& topo,
                     std::vector<int> link_latencies, SimConfig config,
                     const TrafficPattern& pattern, int endpoints_per_tile,
                     std::unique_ptr<RoutingFunction> routing,
                     std::shared_ptr<const RouteTable> shared_table,
                     std::unique_ptr<InjectionProcess> process)
    : topo_(&topo),
      link_latencies_(std::move(link_latencies)),
      config_(config),
      pattern_(&pattern),
      endpoints_per_tile_(endpoints_per_tile),
      routing_(std::move(routing)),
      route_table_(std::move(shared_table)),
      process_(std::move(process)) {
  // Concentrated topologies (make_concentrated_mesh) carry their factor;
  // adopt it so callers need not thread it into SimConfig separately.
  if (config_.concentration == 1 && topo.concentration() > 1) {
    config_.concentration = topo.concentration();
  }
  SHG_REQUIRE(topo.concentration() == 1 ||
                  topo.concentration() == config_.concentration,
              "topology and SimConfig disagree on the concentration factor");
  if (config_.concentration > 1) {
    SHG_REQUIRE(endpoints_per_tile_ == 1,
                "concentrated runs define the endpoint count through the "
                "concentration factor; pass endpoints_per_tile = 1");
    endpoints_per_tile_ = config_.concentration;
  }
  config_.validate();
  {
    const int min_vcs = min_vcs_for(topo, config_);
    SHG_REQUIRE(
        config_.num_vcs >= min_vcs,
        "SimConfig::num_vcs = " + std::to_string(config_.num_vcs) +
            " is too small: " +
            (effective_routing_policy(config_) == RoutingPolicy::kUgal
                 ? std::string("the ugal routing policy needs ") +
                       std::to_string(min_vcs) +
                       " VCs (2 escape classes + 1 adaptive)"
                 : "this topology family's deadlock-free routing "
                   "(dateline/escape classes) needs " +
                       std::to_string(min_vcs) + " VCs"));
  }
  if (process_ == nullptr) {
    process_ = make_bernoulli(config_.injection_rate /
                              static_cast<double>(config_.packet_size_flits));
  }
  const bool ugal =
      effective_routing_policy(config_) == RoutingPolicy::kUgal;
  if (route_table_ != nullptr) {
    SHG_REQUIRE(route_table_->num_vcs() == config_.num_vcs,
                "shared route table was built for a different VC count");
    SHG_REQUIRE(route_table_->matches(topo),
                "shared route table was built for a different topology");
    SHG_REQUIRE((route_table_->ugal_info() != nullptr) == ugal,
                "shared route table was built for a different routing "
                "policy (minimal vs ugal)");
  }
  // Live routing needs a routing function; a table run never consults one
  // (for table-based families its constructor redoes the all-pairs work the
  // shared table exists to amortize).
  if (route_table_ == nullptr && routing_ == nullptr) {
    routing_ = make_policy_routing(topo, config_);
  }
}

SimResult Simulator::run() {
  SoaEngine engine(*topo_, link_latencies_, config_, *pattern_,
                   endpoints_per_tile_, routing_.get(), route_table_.get(),
                   process_.get());
  const SimResult result = engine.run();
  last_ugal_nonminimal_ = engine.ugal_nonminimal();
  return result;
}

SimResult Simulator::run_reference() {
  Network network(*topo_, link_latencies_, config_, routing_.get(),
                  endpoints_per_tile_, route_table_.get());
  Prng rng(config_.seed);
  process_->reset();

  const Cycle generation_end = config_.warmup_cycles + config_.measure_cycles;
  const Cycle hard_end = generation_end + config_.drain_cycles;
  const double packet_prob =
      config_.injection_rate / static_cast<double>(config_.packet_size_flits);
  // Terminal addressing for concentrated fabrics; with concentration == 1
  // the classic tile addressing below stays byte-for-byte the seed path.
  const Concentration conc = Concentration::make(
      topo_->rows(), topo_->cols(), config_.concentration);
  const bool concentrated = config_.concentration > 1;

  // Reserve the packet log from the expected injection volume (every
  // injection process targets this mean rate) instead of a fixed guess, so
  // high-rate runs do not pay repeated geometric reallocations of a
  // multi-megabyte vector.
  std::vector<PacketRecord> packets;
  packets.reserve(packet_reserve_hint(packet_prob, generation_end,
                                      topo_->num_tiles(),
                                      endpoints_per_tile_));

  long long measured_created = 0;
  long long measured_ejected = 0;
  long long flits_ejected_in_window = 0;
  Distribution latencies(config_.latency_sample_cap);
  double hops_sum = 0.0;
  std::vector<double> source_latency_sum(
      static_cast<std::size_t>(topo_->num_tiles()), 0.0);
  std::vector<long long> source_packets(
      static_cast<std::size_t>(topo_->num_tiles()), 0);
  Cycle last_ejection = 0;

  // Reusable per-packet flit staging. Head/tail flags depend only on the
  // slot, so they are set once; the per-packet loop only fills the fields
  // that actually vary (id, endpoints, creation time).
  std::vector<Flit> scratch_flits(
      static_cast<std::size_t>(config_.packet_size_flits));
  for (int f = 0; f < config_.packet_size_flits; ++f) {
    scratch_flits[static_cast<std::size_t>(f)].head = f == 0;
    scratch_flits[static_cast<std::size_t>(f)].tail =
        f == config_.packet_size_flits - 1;
  }

  SimResult result;
  result.offered_rate = config_.injection_rate;

  Cycle now = 0;
  for (; now < hard_end; ++now) {
    // --- Packet generation (injection process per endpoint port) ---------
    if (now < generation_end) {
      for (int tile = 0; tile < network.num_tiles(); ++tile) {
        for (int port = 0; port < endpoints_per_tile_; ++port) {
          const int source = tile * endpoints_per_tile_ + port;
          if (!process_->inject(source, rng)) continue;
          int dest_tile;
          int eject_port = -1;
          if (concentrated) {
            // Patterns address terminals; a destination on the same tile
            // but a different terminal is real traffic (it still crosses
            // the router), only the exact self-terminal is a fixed point.
            const int src_terminal = conc.terminal(tile, port);
            const int dest_terminal = pattern_->dest(src_terminal, rng);
            if (dest_terminal == src_terminal) continue;
            dest_tile = conc.tile_of(dest_terminal);
            eject_port = conc.port_of(dest_terminal);
          } else {
            dest_tile = pattern_->dest(tile, rng);
            if (dest_tile == tile) continue;  // fixed point of a permutation
          }
          const int id = static_cast<int>(packets.size());
          const bool measured = now >= config_.warmup_cycles;
          packets.push_back(PacketRecord{now, -1, 0, measured});
          if (measured) ++measured_created;
          for (int f = 0; f < config_.packet_size_flits; ++f) {
            Flit& flit = scratch_flits[static_cast<std::size_t>(f)];
            flit.packet_id = id;
            flit.src = tile;
            flit.dest = dest_tile;
            flit.eject_port = eject_port;
            flit.create_cycle = now;
          }
          network.interface(tile).enqueue_packet(port, scratch_flits);
        }
      }
    }

    // --- One network cycle -------------------------------------------------
    network.step(now);

    // --- Harvest ejected flits ---------------------------------------------
    for (int tile = 0; tile < network.num_tiles(); ++tile) {
      auto& ejected = network.router(tile).ejected();
      for (const Flit& flit : ejected) {
        SHG_ASSERT(flit.dest == tile, "flit ejected at the wrong tile");
        last_ejection = now;
        if (now >= config_.warmup_cycles && now < generation_end) {
          ++flits_ejected_in_window;
        }
        if (!flit.tail) continue;
        auto& record = packets[static_cast<std::size_t>(flit.packet_id)];
        SHG_ASSERT(record.eject < 0, "packet ejected twice");
        record.eject = now;
        record.hops = flit.hops;
        if (record.measured) {
          ++measured_ejected;
          const double latency = static_cast<double>(now - record.create + 1);
          latencies.add(latency);
          hops_sum += record.hops;
          source_latency_sum[static_cast<std::size_t>(flit.src)] += latency;
          ++source_packets[static_cast<std::size_t>(flit.src)];
        }
      }
      ejected.clear();
    }

    // --- Termination checks --------------------------------------------------
    if (now >= generation_end) {
      if (measured_ejected == measured_created) break;
      // Deadlock/livelock watchdog: traffic in flight but nothing ejects.
      if (now - last_ejection > 20000 && network.flits_in_flight() > 0) {
        break;
      }
    }
  }

  last_ugal_nonminimal_ = network.ugal_nonminimal();
  result.cycles_run = now;
  result.measured_packets = measured_ejected;
  result.drained = measured_ejected == measured_created;
  result.accepted_rate =
      static_cast<double>(flits_ejected_in_window) /
      (static_cast<double>(config_.measure_cycles) *
       static_cast<double>(network.num_tiles()) *
       static_cast<double>(endpoints_per_tile_));
  if (measured_ejected > 0) {
    result.avg_packet_latency = latencies.mean();
    result.max_packet_latency = latencies.max();
    result.p50_packet_latency = latencies.percentile(0.50);
    result.p95_packet_latency = latencies.percentile(0.95);
    result.p99_packet_latency = latencies.percentile(0.99);
    result.avg_hops = hops_sum / static_cast<double>(measured_ejected);
    std::vector<double> per_source;
    for (std::size_t s = 0; s < source_packets.size(); ++s) {
      if (source_packets[s] > 0) {
        per_source.push_back(source_latency_sum[s] /
                             static_cast<double>(source_packets[s]));
      }
    }
    if (!per_source.empty()) {
      result.fairness = fairness_ratio(per_source);
    }
  }
  return result;
}

}  // namespace shg::sim
