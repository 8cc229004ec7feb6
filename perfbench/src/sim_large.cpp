// sim_large: one 32x32 SHG (SR = SC = {2,4}) under uniform Bernoulli
// traffic at 0.05 flits/cycle/port with 2 VCs and 4-flit buffers, from
// topology construction through Simulator::run. Construction is dominated
// by the dense route table; the run by the cycle loop.
#include <cmath>
#include <memory>
#include <optional>
#include <vector>

#include "bench.hpp"
#include "shg/sim/route_table.hpp"
#include "shg/sim/routing.hpp"
#include "shg/sim/simulator.hpp"
#include "shg/sim/traffic_spec.hpp"
#include "shg/topo/generators.hpp"

namespace perfbench {
namespace {

using namespace shg;

class SimLarge : public Workload {
 public:
  explicit SimLarge(int variant) {
    InputRng rng(0x5132ULL + static_cast<std::uint64_t>(variant));
    config_.seed = rng.next();
    config_.num_vcs = 2;
    config_.buffer_depth_flits = 4;
    config_.injection_rate = 0.05;
  }

  // Its memory-bound table build and cycle loop swing by up to a fifth
  // from one pass to the next under other load on the machine, more than
  // the other workloads do; five passes steady the median.
  std::size_t min_passes() const override { return 5; }

  Iteration iterate(Tracer* tracer) override {
    Iteration it;
    const Clock::time_point start = Clock::now();
    build(tracer);
    it.setup_s = seconds_since(start);
    sim::SimResult result;
    {
      Tracer::Scope span(tracer, "sim", "simulator.run");
      result = simulator_->run();
    }
    if (tracer != nullptr) run_s_ = tracer->last("simulator.run");
    {
      Tracer::Scope span(tracer, "bench", "validate");
      validate(result, it);
    }
    it.wall_s = seconds_since(start);
    return it;
  }

  void probe(Tracer& tracer, LayerMetrics& out, Iteration&) override {
    const double flit_hops = static_cast<double>(flit_hops_);
    out["route_table.build_s"] = tracer.last("route_table.build");
    out["sim.run_s"] = run_s_;
    out["sim.ns_per_router_cycle"] =
        run_s_ * 1e9 /
        (static_cast<double>(cycles_) * topology_->graph().num_nodes());
    out["sim.ns_per_flit_hop"] = run_s_ * 1e9 / flit_hops;
  }

 private:
  /// Topology plus Simulator construction. The route table is built first
  /// through the same routing call the Simulator would make, and handed to
  /// it as a shared table, so its time shows as its own span.
  void build(Tracer* tracer) {
    simulator_.reset();
    table_.reset();
    {
      Tracer::Scope span(tracer, "topo", "make_sparse_hamming");
      topology_.emplace(topo::make_sparse_hamming(32, 32, {2, 4}, {2, 4}));
    }
    latencies_.assign(
        static_cast<std::size_t>(topology_->graph().num_edges()), 1);
    pattern_ = sim::TrafficSpec::parse("uniform").make_pattern(32, 32);
    {
      Tracer::Scope span(tracer, "sim", "route_table.build");
      const auto routing = sim::make_policy_routing(*topology_, config_);
      table_ = std::make_shared<const sim::RouteTable>(*topology_, *routing,
                                                       config_.num_vcs);
    }
    Tracer::Scope span(tracer, "sim", "simulator.construct");
    simulator_ = std::make_unique<sim::Simulator>(
        *topology_, latencies_, config_, *pattern_, 1, nullptr, table_);
  }

  void validate(const sim::SimResult& r, Iteration& it) {
    Digest digest;
    for (double v : {r.offered_rate, r.accepted_rate, r.avg_packet_latency,
                     r.max_packet_latency, r.p50_packet_latency,
                     r.p95_packet_latency, r.p99_packet_latency, r.avg_hops,
                     r.fairness}) {
      digest.f64(v);
    }
    digest.u64(static_cast<std::uint64_t>(r.measured_packets));
    digest.u64(r.drained ? 1 : 0);
    digest.u64(static_cast<std::uint64_t>(r.cycles_run));
    it.digest = digest.value();
    if (!r.drained) fail(it, "simulation did not drain");
    const std::uint64_t flits =
        static_cast<std::uint64_t>(r.measured_packets) *
        static_cast<std::uint64_t>(config_.packet_size_flits);
    cycles_ = static_cast<std::uint64_t>(r.cycles_run);
    flit_hops_ = static_cast<std::uint64_t>(
        std::llround(static_cast<double>(flits) * r.avg_hops));
    it.work = static_cast<double>(flits);
    it.counters = {{"sim.cycles_run", cycles_},
                   {"sim.measured_flits", flits},
                   {"sim.flit_hops", flit_hops_},
                   {"route_table.rows", table_->num_rows()},
                   {"route_table.unique_rows", table_->num_unique_rows()},
                   {"route_table.bytes", table_->memory_bytes()}};
  }

  sim::SimConfig config_;
  std::optional<topo::Topology> topology_;
  std::vector<int> latencies_;
  std::unique_ptr<sim::TrafficPattern> pattern_;
  std::shared_ptr<const sim::RouteTable> table_;
  std::unique_ptr<sim::Simulator> simulator_;
  double run_s_ = 0.0;
  std::uint64_t cycles_ = 0;
  std::uint64_t flit_hops_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_sim_large(int variant) {
  return std::make_unique<SimLarge>(variant);
}

}  // namespace perfbench
