// dse_greedy: the paper's customization loop at 40x40 (1600 tiles) with a
// 40% area budget — incremental BFS screening, incremental global routing
// and the cost model, no simulation. KNC scenarios a and b (endpoint area
// and cores) with rows and cols overridden to 40; no input depends on the
// seed.
#include <memory>
#include <string>

#include "bench.hpp"
#include "shg/customize/search.hpp"
#include "shg/graph/shortest_paths.hpp"
#include "shg/model/cost_model.hpp"
#include "shg/phys/global_route.hpp"
#include "shg/tech/presets.hpp"
#include "shg/topo/generators.hpp"

namespace perfbench {
namespace {

using namespace shg;

void add_metrics(Digest& digest, const customize::CandidateMetrics& m) {
  digest.f64(m.area_overhead);
  digest.f64(m.avg_hops);
  digest.f64(m.diameter);
  digest.f64(m.throughput_bound);
}

void add_params(Digest& digest, const topo::ShgParams& params) {
  digest.u64(params.row_skips.size());
  for (int x : params.row_skips) digest.u64(static_cast<std::uint64_t>(x));
  digest.u64(params.col_skips.size());
  for (int x : params.col_skips) digest.u64(static_cast<std::uint64_t>(x));
}

// Rows and cols at 40 leave two distinct architectures: a and c (35 MGE,
// 1 core) and b and d (70 MGE, 2 cores), whose searches differ in cost and
// memory by tens of percent. Every pass therefore searches both, a then b,
// so the input is the same for every seed.
constexpr tech::KncScenario kScenarios[2] = {tech::KncScenario::kA,
                                             tech::KncScenario::kB};

class DseGreedy : public Workload {
 public:
  std::optional<double> setup_sample() override {
    const Clock::time_point start = Clock::now();
    setup(nullptr);
    return seconds_since(start);
  }

  Iteration iterate(Tracer* tracer) override {
    Iteration it;
    const Clock::time_point start = Clock::now();
    setup(tracer);
    it.setup_s = seconds_since(start);
    for (int k = 0; k < 2; ++k) {
      Tracer::Scope span(tracer, "customize", "customize_greedy");
      results_[k] = customize::customize_greedy(archs_[k], customize::Goal{0.40});
    }
    {
      Tracer::Scope span(tracer, "bench", "validate");
      validate(it);
    }
    it.wall_s = seconds_since(start);
    return it;
  }

  void probe(Tracer& tracer, LayerMetrics& out, Iteration& checks) override {
    // Each layer of the screening path on both final topologies; the
    // probes must reproduce the searches' own metrics bit for bit.
    const auto timed = [&](const char* metric, const char* layer,
                           const char* name, auto&& fn) {
      const Clock::time_point start = Clock::now();
      {
        Tracer::Scope span(&tracer, layer, name);
        fn();
      }
      out[metric] += seconds_since(start);
    };
    for (int k = 0; k < 2; ++k) {
      const tech::ArchParams& arch = archs_[k];
      const customize::SearchResult& result = results_[k];
      customize::CandidateMetrics screened;
      timed("screen.full_s", "customize", "screen_candidate", [&] {
        screened = customize::screen_candidate(arch, result.params);
      });
      const topo::Topology topology = topo::make_sparse_hamming(
          arch.rows, arch.cols, result.params.row_skips,
          result.params.col_skips);
      graph::DistanceSummary distances;
      timed("graph.distance_summary_s", "graph", "distance_summary",
            [&] { distances = graph::distance_summary(topology.graph()); });
      timed("phys.global_route_loads_s", "phys", "global_route_loads",
            [&] { phys::global_route_loads(topology); });
      model::ScreeningCost screening;
      timed("model.screening_cost_s", "model", "evaluate_screening_cost",
            [&] { screening = model::evaluate_screening_cost(arch, topology); });
      model::CostReport cost;
      timed("model.evaluate_cost_s", "model", "evaluate_cost",
            [&] { cost = model::evaluate_cost(arch, topology); });
      ++checks.attempted;
      if (!(screened == result.metrics) ||
          distances.avg_hops != result.metrics.avg_hops ||
          screening.area_overhead != result.metrics.area_overhead ||
          cost.area_overhead != result.cost.area_overhead) {
        fail(checks, "layer probes disagree with the search result");
      }
    }
  }

 private:
  /// The architectures and the searches' start points: the meshes'
  /// screening metrics, which each result's first history step must repeat.
  void setup(Tracer* tracer) {
    for (int k = 0; k < 2; ++k) {
      archs_[k] = tech::knc_scenario(kScenarios[k]);
      archs_[k].rows = 40;
      archs_[k].cols = 40;
      Tracer::Scope span(tracer, "customize", "screen_candidate.mesh");
      meshes_[k] = customize::screen_candidate(archs_[k], topo::ShgParams{});
    }
  }

  void validate(Iteration& it) const {
    Digest digest;
    std::uint64_t steps = 0, candidates = 0;
    for (int k = 0; k < 2; ++k) {
      const customize::SearchResult& result = results_[k];
      add_params(digest, result.params);
      add_metrics(digest, result.metrics);
      for (const customize::SearchStep& step : result.history) {
        add_params(digest, step.params);
        add_metrics(digest, step.metrics);
        digest.str(step.note);
        // Each iteration screens the parent plus one unused skip distance.
        candidates += static_cast<std::uint64_t>(
            (archs_[k].cols - 2 - static_cast<int>(step.params.row_skips.size())) +
            (archs_[k].rows - 2 - static_cast<int>(step.params.col_skips.size())));
      }
      if (result.history.empty() || !(result.history.front().metrics == meshes_[k])) {
        fail(it, "search did not start from the mesh's screening metrics");
        continue;
      }
      if (result.metrics.area_overhead > 0.40) {
        fail(it, "result exceeds the area budget");
      }
      steps += result.history.size() - 1;
    }
    it.digest = digest.value();
    it.work = static_cast<double>(candidates);
    it.counters = {{"dse.steps", steps}, {"dse.candidates", candidates}};
  }

  tech::ArchParams archs_[2];
  customize::CandidateMetrics meshes_[2];
  customize::SearchResult results_[2];
};

}  // namespace

std::unique_ptr<Workload> make_dse_greedy(int /*variant*/) {
  return std::make_unique<DseGreedy>();
}

}  // namespace perfbench
