// campaign: the Figure-6-class experiment campaign at 16x16, run cold (no
// session) from spec to rendered JSON — the path users run most. Mesh,
// torus and SHG{4}/{2,5} x uniform/transpose/hotspot x four rates x three
// seeds drawn from the workload seed: 108 cells.
#include <cmath>
#include <memory>
#include <string>

#include "bench.hpp"
#include "shg/common/parallel.hpp"
#include "shg/eval/experiment.hpp"
#include "shg/serve/service.hpp"
#include "shg/sim/route_table.hpp"
#include "shg/sim/routing.hpp"
#include "shg/sim/simulator.hpp"
#include "shg/sim/traffic_spec.hpp"

namespace perfbench {
namespace {

using namespace shg;

class Campaign : public Workload {
 public:
  explicit Campaign(int variant) {
    InputRng rng(0xca3a16ULL + static_cast<std::uint64_t>(variant));
    for (int s = 0; s < 3; ++s) seeds_.push_back(1 + rng.next() % 1000000);
    params_.rows = 16;
    params_.cols = 16;
  }

  std::optional<double> setup_sample() override {
    const Clock::time_point start = Clock::now();
    const eval::ExperimentSpec spec = make_spec();
    return seconds_since(start);
  }

  Iteration iterate(Tracer* tracer) override {
    Iteration it;
    const Clock::time_point start = Clock::now();
    {
      Tracer::Scope span(tracer, "serve", "make_campaign_spec");
      spec_ = make_spec();
    }
    it.setup_s = seconds_since(start);
    {
      Tracer::Scope span(tracer, "eval", "run_experiment");
      report_ = eval::run_experiment(spec_);
    }
    std::string json;
    {
      Tracer::Scope span(tracer, "eval", "experiment_to_json");
      json = eval::experiment_to_json(report_);
    }
    {
      Tracer::Scope span(tracer, "bench", "validate");
      validate(json, it);
    }
    it.wall_s = seconds_since(start);
    return it;
  }

  void probe(Tracer& tracer, LayerMetrics& out, Iteration& checks) override {
    // The report gives no per-table or per-cell times, so rebuild each
    // topology's route table and replay every cell one at a time through
    // the same public calls run_experiment makes, checking each replayed
    // result against the report bit for bit.
    const int flits = spec_.config.sim.packet_size_flits;
    double tables_s = 0.0;
    std::vector<std::shared_ptr<const sim::RouteTable>> tables;
    for (std::size_t t = 0; t < spec_.topologies.size(); ++t) {
      const topo::Topology& topology = spec_.topologies[t].topology;
      const Clock::time_point start = Clock::now();
      {
        Tracer::Scope span(&tracer, "sim", "route_table.build");
        const auto routing = sim::make_policy_routing(topology, spec_.config.sim);
        tables.push_back(std::make_shared<const sim::RouteTable>(
            topology, *routing, spec_.config.sim.num_vcs));
      }
      tables_s += seconds_since(start);
      const eval::TableFootprint& reported = report_.route_tables.at(t);
      if (tables[t]->num_rows() != reported.rows ||
          tables[t]->num_unique_rows() != reported.unique_rows ||
          tables[t]->memory_bytes() != reported.bytes) {
        fail(checks, "rebuilt route table differs from the report's: " +
                         reported.topology);
      }
    }
    ++checks.attempted;

    std::vector<double> cell_s;
    double router_cycles = 0.0;
    double flit_hops = 0.0;
    const std::size_t traffic = spec_.traffic.size();
    const std::size_t rates = spec_.rates.size();
    const std::size_t seeds = spec_.seeds.size();
    for (std::size_t t = 0; t < spec_.topologies.size(); ++t) {
      const topo::Topology& topology = spec_.topologies[t].topology;
      const std::vector<int> latencies(
          static_cast<std::size_t>(topology.graph().num_edges()), 1);
      for (std::size_t w = 0; w < traffic; ++w) {
        const sim::TrafficSpec parsed =
            sim::TrafficSpec::parse(spec_.traffic[w].spec);
        const auto pattern = parsed.make_pattern(
            topology.rows(), topology.cols(), topology.concentration());
        for (std::size_t r = 0; r < rates; ++r) {
          const eval::ExperimentPoint& point =
              report_.points.at((t * traffic + w) * rates + r);
          for (std::size_t s = 0; s < seeds; ++s) {
            sim::SimConfig config = spec_.config.sim;
            config.injection_rate = spec_.rates[r];
            config.seed = spec_.seeds[s];
            sim::Simulator simulator(
                topology, latencies, config, *pattern,
                spec_.endpoints_per_tile, nullptr, tables[t],
                parsed.make_process(
                    config.injection_rate / config.packet_size_flits,
                    topology.num_tiles() * spec_.endpoints_per_tile));
            const Clock::time_point start = Clock::now();
            sim::SimResult result;
            {
              Tracer::Scope span(&tracer, "sim", "simulator.run");
              result = simulator.run();
            }
            cell_s.push_back(seconds_since(start));
            ++checks.attempted;
            if (!(result == point.runs.at(s))) {
              fail(checks, "replayed cell differs from the report: " +
                               point.topology + " " + point.traffic);
            }
            router_cycles += static_cast<double>(result.cycles_run) *
                             topology.graph().num_nodes();
            flit_hops += static_cast<double>(result.measured_packets) *
                         flits * result.avg_hops;
          }
        }
      }
    }
    double run_s = 0.0;
    for (double s : cell_s) run_s += s;
    out["route_table.build_s"] = tables_s;
    out["experiment.tables_s"] = tables_s;
    out["sim.run_s"] = run_s;
    out["sim.ns_per_router_cycle"] = run_s * 1e9 / router_cycles;
    out["sim.ns_per_flit_hop"] = run_s * 1e9 / flit_hops;
    out["experiment.cell_s.p50"] = median(cell_s);
    out["experiment.cell_s.max"] = percentile(cell_s, 1.0);
    out["experiment.parallel_efficiency"] =
        run_s / (max_threads() * tracer.last("run_experiment"));
    out["experiment.render_s"] = tracer.last("experiment_to_json");
  }

 private:
  eval::ExperimentSpec make_spec() const {
    eval::ExperimentSpec spec = serve::make_campaign_spec(params_);
    spec.seeds = seeds_;
    return spec;
  }

  void validate(const std::string& json, Iteration& it) const {
    Digest digest;
    digest.str(json);
    it.digest = digest.value();
    const int flits = spec_.config.sim.packet_size_flits;
    std::uint64_t cells = 0, cycles = 0, measured_flits = 0, flit_hops = 0;
    for (const eval::ExperimentPoint& point : report_.points) {
      if (!point.all_drained) {
        fail(it, "cell not drained: " + point.topology + " " + point.traffic);
      }
      for (const sim::SimResult& run : point.runs) {
        ++cells;
        cycles += static_cast<std::uint64_t>(run.cycles_run);
        measured_flits += static_cast<std::uint64_t>(run.measured_packets) *
                          static_cast<std::uint64_t>(flits);
        flit_hops += static_cast<std::uint64_t>(std::llround(
            static_cast<double>(run.measured_packets) * flits * run.avg_hops));
      }
    }
    std::uint64_t rows = 0, unique_rows = 0, bytes = 0;
    for (const eval::TableFootprint& table : report_.route_tables) {
      rows += table.rows;
      unique_rows += table.unique_rows;
      bytes += table.bytes;
    }
    it.work = static_cast<double>(measured_flits);
    it.counters = {{"experiment.cells", cells},
                   {"sim.cycles_run", cycles},
                   {"sim.measured_flits", measured_flits},
                   {"sim.flit_hops", flit_hops},
                   {"route_table.rows", rows},
                   {"route_table.unique_rows", unique_rows},
                   {"route_table.bytes", bytes}};
  }

  serve::CampaignParams params_;
  std::vector<std::uint64_t> seeds_;
  eval::ExperimentSpec spec_;
  eval::ExperimentReport report_;
};

}  // namespace

std::unique_ptr<Workload> make_campaign(int variant) {
  return std::make_unique<Campaign>(variant);
}

}  // namespace perfbench
