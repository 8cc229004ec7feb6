// shg_perfbench: the end-to-end benchmark of the SHG toolchain.
//
//   shg_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                 --benchmark BENCHMARK.json --reference FILE --results DIR
//                 [--commit ID]
//   shg_perfbench --workload NAME --seed N --record
//
// Untraced (--trace 0): repeats passes of the workload for S seconds (and
// at least the workload's minimum number of passes) and prints the
// end-to-end metrics, as medians over passes. Traced (--trace 1): alternates untraced and traced passes for S
// seconds, then runs the workload's probes, and prints the per-layer
// metrics, per-layer self time and the tracing overhead (traced minus
// untraced pass wall time). Every pass is checked:
// its output digest and exact work counters must match the reference
// recorded for the seed's input variant, and the counters must repeat
// across passes. The last stdout line is the JSON result; a result file
// with the host stamp (and, traced, the span dump) goes to DIR.
// --record prints the reference line of one pass instead.
#include <sys/resource.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "bench.hpp"
#include "shg/common/parallel.hpp"
#include "shg/serve/json.hpp"

#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif
#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

/// Seeds map onto this many input variants, each with a recorded reference.
constexpr long long kVariants = 16;

struct MetricDef {
  std::string name;
  std::string unit;
};

/// The metrics BENCHMARK.json declares for this kind of run, in order.
std::vector<MetricDef> declared_metrics(const std::string& path, bool trace) {
  std::ifstream in(path);
  std::stringstream text;
  text << in.rdbuf();
  const shg::serve::JsonValue doc = shg::serve::JsonValue::parse(text.str());
  std::vector<MetricDef> defs;
  for (const shg::serve::JsonValue& metric :
       doc.find(trace ? "per_layer" : "end_to_end")->items()) {
    defs.push_back(
        {metric.find("name")->as_string(), metric.find("unit")->as_string()});
  }
  return defs;
}

struct Options {
  std::string workload;
  long long seed = 0;
  double seconds = 10.0;
  bool trace = false;
  bool record = false;
  std::string benchmark;
  std::string reference;
  std::string results;
  std::string commit = "unknown";
};

[[noreturn]] void usage(const char* message) {
  std::fprintf(stderr, "shg_perfbench: %s\n", message);
  std::exit(2);
}

Options parse_args(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--record") {
      options.record = true;
      continue;
    }
    if (i + 1 >= argc) usage(("missing value for " + arg).c_str());
    const std::string value = argv[++i];
    if (arg == "--workload") {
      options.workload = value;
    } else if (arg == "--seed") {
      options.seed = std::stoll(value);
    } else if (arg == "--seconds") {
      options.seconds = std::stod(value);
    } else if (arg == "--trace") {
      options.trace = value == "1";
    } else if (arg == "--benchmark") {
      options.benchmark = value;
    } else if (arg == "--reference") {
      options.reference = value;
    } else if (arg == "--results") {
      options.results = value;
    } else if (arg == "--commit") {
      options.commit = value;
    } else {
      usage(("unknown argument " + arg).c_str());
    }
  }
  if (options.workload.empty()) usage("--workload is required");
  if (!options.record && (options.benchmark.empty() ||
                          options.reference.empty() || options.results.empty())) {
    usage("--benchmark, --reference and --results are required");
  }
  return options;
}

std::unique_ptr<Workload> make_workload(const std::string& name, int variant) {
  if (name == "campaign") return make_campaign(variant);
  if (name == "sim_large") return make_sim_large(variant);
  if (name == "dse_greedy") return make_dse_greedy(variant);
  if (name == "serve_mix") return make_serve_mix(variant);
  usage(("unknown workload " + name).c_str());
}

std::string hex(std::uint64_t v) {
  char buffer[17];
  std::snprintf(buffer, sizeof(buffer), "%016llx",
                static_cast<unsigned long long>(v));
  return buffer;
}

/// Every digit of a measured value. A non-finite value (only a failed pass
/// divides by zero) prints as 0, so the result line stays valid JSON.
std::string num(double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.17g", v);
  return buffer;
}

std::string quote(const std::string& text) {
  std::string out = "\"";
  for (char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

/// "workload variant digest name=value ..." — one reference line.
std::string reference_line(const std::string& workload, int variant,
                           const Iteration& it) {
  std::string line = workload + " " + std::to_string(variant) + " " + hex(it.digest);
  for (const auto& [name, value] : it.counters) {
    line += " " + name + "=" + std::to_string(value);
  }
  return line;
}

/// The recorded reference line for (workload, variant), or "" if none.
std::string find_reference(const std::string& path, const std::string& workload,
                           int variant) {
  std::ifstream in(path);
  const std::string prefix = workload + " " + std::to_string(variant) + " ";
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(prefix, 0) == 0) return line;
  }
  return "";
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::string host_stamp(const Options& options) {
  return "{\"nproc\":" + std::to_string(sysconf(_SC_NPROCESSORS_ONLN)) +
         ",\"max_threads\":" + std::to_string(shg::max_threads()) +
         ",\"compiler\":" + quote(PERFBENCH_COMPILER) +
         ",\"build_type\":" + quote(PERFBENCH_BUILD_TYPE) +
         ",\"commit\":" + quote(options.commit) + "}";
}

struct Outcome {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<std::string> errors;

  void add(const Iteration& it) {
    attempted += it.attempted;
    failed += it.failed;
    errors.insert(errors.end(), it.errors.begin(), it.errors.end());
  }
};

/// Checks a pass against the reference and the run's first pass.
void check_pass(Iteration& it, const std::string& reference,
                const std::string& expected, const Iteration* first) {
  if (reference.empty()) {
    fail(it, "no recorded reference for this workload and seed");
  } else if (expected != reference) {
    fail(it, "output differs from the reference: got '" + expected +
                 "', want '" + reference + "'");
  }
  if (first != nullptr && it.counters != first->counters) {
    fail(it, "work counters differ between passes of one seed");
  }
}

int run(const Options& options) {
  const int variant =
      static_cast<int>(((options.seed % kVariants) + kVariants) % kVariants);
  std::unique_ptr<Workload> workload = make_workload(options.workload, variant);
  if (options.record) {
    const Iteration it = workload->iterate(nullptr);
    for (const std::string& error : it.errors) {
      std::fprintf(stderr, "shg_perfbench: %s\n", error.c_str());
    }
    if (it.failed != 0) return 1;
    std::printf("%s\n", reference_line(options.workload, variant, it).c_str());
    return 0;
  }
  const std::string reference =
      find_reference(options.reference, options.workload, variant);

  // Enough untraced passes that one slowed by a burst of load on the host
  // cannot move a median; a traced run needs one of each kind.
  const std::size_t min_passes = options.trace ? 2 : workload->min_passes();
  // Cheap set-ups are sampled up to 1000 times before the passes, in a
  // fresh process so every run starts from the same heap. Microsecond
  // timings need the count. Host load moves them by up to a half for
  // milliseconds at a time, so the samples come in bursts of 10 spread
  // over half a second.
  std::vector<double> setup_samples;
  const Clock::time_point sampling = Clock::now();
  while (!options.trace &&
         (setup_samples.size() < 5 ||
          (setup_samples.size() < 1000 && seconds_since(sampling) < 0.5))) {
    const std::optional<double> sample = workload->setup_sample();
    if (!sample) break;
    setup_samples.push_back(*sample);
    if (setup_samples.size() % 10 == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  }
  Tracer tracer;
  std::vector<Iteration> passes;
  std::vector<bool> traced;
  const Clock::time_point start = Clock::now();
  do {
    const bool trace_this = options.trace && passes.size() % 2 == 1;
    if (trace_this) {
      Tracer::Scope root(&tracer, "bench", "pass");
      passes.push_back(workload->iterate(&tracer));
    } else {
      passes.push_back(workload->iterate(nullptr));
    }
    traced.push_back(trace_this);
    Iteration& it = passes.back();
    check_pass(it, reference, reference_line(options.workload, variant, it),
               passes.size() > 1 ? &passes.front() : nullptr);
  } while (seconds_since(start) < options.seconds ||
           passes.size() < min_passes);

  Outcome outcome;
  for (const Iteration& it : passes) outcome.add(it);
  LayerMetrics values;
  if (!options.trace) {
    std::vector<double> walls, setups, rates, p50s, p99s;
    for (const Iteration& it : passes) {
      walls.push_back(it.wall_s);
      setups.push_back(it.setup_s);
      rates.push_back(it.work / (it.wall_s - it.setup_s));
      if (!it.op_ms.empty()) {
        p50s.push_back(median(it.op_ms));
        p99s.push_back(percentile(it.op_ms, 0.99));
      }
    }
    setups.insert(setups.end(), setup_samples.begin(), setup_samples.end());
    // Batch workloads have one operation per pass: the pass itself.
    std::vector<double> walls_ms;
    for (double wall : walls) walls_ms.push_back(wall * 1e3);
    values = {{"wall_s", median(walls)},
              {"setup_s", median(setups)},
              {"work_per_s", median(rates)},
              {"op_p50_ms", p50s.empty() ? median(walls_ms) : median(p50s)},
              {"op_p99_ms",
               p99s.empty() ? percentile(walls_ms, 0.99) : median(p99s)}};
  } else {
    // Peak RSS is a per-layer figure, taken before the probes: serve_mix's
    // varies by a third between runs (threads that parallel_for starts
    // inside the server's workers overlap differently each time), too much
    // for an end-to-end bound.
    values["process.peak_rss_mb"] = peak_rss_mb();
    Iteration checks;
    checks.attempted = 0;
    {
      Tracer::Scope root(&tracer, "bench", "probe");
      workload->probe(tracer, values, checks);
    }
    outcome.add(checks);
    std::vector<double> untraced_walls, traced_walls;
    const Iteration* last_traced = nullptr;
    for (std::size_t i = 0; i < passes.size(); ++i) {
      (traced[i] ? traced_walls : untraced_walls).push_back(passes[i].wall_s);
      if (traced[i]) last_traced = &passes[i];
    }
    for (const auto& [name, value] : last_traced->counters) {
      values[name] = static_cast<double>(value);
    }
    for (const auto& [name, seconds] : tracer.self_time("pass")) {
      values["self_s." + name] = seconds / traced_walls.size();
    }
    values["trace.overhead_s"] = median(traced_walls) - median(untraced_walls);
    values["trace.spans"] = static_cast<double>(tracer.spans().size());
  }

  // Emit what BENCHMARK.json declares, in its order. Per-layer metrics a
  // workload does not reach read 0; an end-to-end metric must be measured.
  const std::vector<MetricDef> defs =
      declared_metrics(options.benchmark, options.trace);
  for (const auto& [name, value] : values) {
    bool declared = false;
    for (const MetricDef& def : defs) declared |= name == def.name;
    if (!declared) {
      throw std::logic_error("undeclared metric " + name);
    }
  }
  std::vector<std::pair<std::string, double>> metrics;
  for (const MetricDef& def : defs) {
    const auto found = values.find(def.name);
    if (found == values.end() && !options.trace) {
      throw std::logic_error(std::string("unmeasured metric ") + def.name);
    }
    metrics.emplace_back(def.name, found == values.end() ? 0.0 : found->second);
  }

  // Human-readable summary, then the result file, then the JSON line.
  std::printf("%s seed=%lld variant=%d trace=%d passes=%zu\n",
              options.workload.c_str(), options.seed, variant,
              options.trace ? 1 : 0, passes.size());
  std::string metrics_json = "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const std::string& unit = defs[i].unit;  // metrics[i] is defs[i]
    std::printf("  %-34s %14.6g %s\n", metrics[i].first.c_str(),
                metrics[i].second, unit.c_str());
    if (i > 0) metrics_json += ",";
    metrics_json += quote(metrics[i].first) + ":{\"value\":" +
                    num(metrics[i].second) + ",\"unit\":" + quote(unit) + "}";
  }
  metrics_json += "}";
  for (const std::string& error : outcome.errors) {
    std::printf("  FAIL: %s\n", error.c_str());
  }

  std::ostringstream file;
  file << "{\"host\":" << host_stamp(options)
       << ",\"workload\":" << quote(options.workload)
       << ",\"seed\":" << options.seed << ",\"variant\":" << variant
       << ",\"trace\":" << (options.trace ? 1 : 0) << ",\"passes\":[";
  for (std::size_t i = 0; i < passes.size(); ++i) {
    const Iteration& it = passes[i];
    file << (i ? "," : "") << "{\"traced\":" << (traced[i] ? "true" : "false")
         << ",\"wall_s\":" << num(it.wall_s) << ",\"setup_s\":" << num(it.setup_s)
         << ",\"work\":" << num(it.work) << ",\"check\":"
         << quote(reference_line(options.workload, variant, it)) << "}";
  }
  file << "],\"metrics\":" << metrics_json << ",\"errors\":[";
  for (std::size_t i = 0; i < outcome.errors.size(); ++i) {
    file << (i ? "," : "") << quote(outcome.errors[i]);
  }
  file << "],\"spans\":[";
  const auto& spans = tracer.spans();
  for (std::size_t i = 0; i < spans.size(); ++i) {
    file << (i ? "," : "") << "{\"layer\":" << quote(spans[i].layer)
         << ",\"name\":" << quote(spans[i].name)
         << ",\"start_s\":" << num(spans[i].start_s)
         << ",\"end_s\":" << num(spans[i].end_s)
         << ",\"parent\":" << spans[i].parent << "}";
  }
  file << "]}\n";
  const std::string path = options.results + "/" + options.workload + "-seed" +
                           std::to_string(options.seed) + "-trace" +
                           (options.trace ? "1" : "0") + ".json";
  std::ofstream(path) << file.str();

  std::printf("{\"correct\":%s,\"attempted\":%zu,\"failed\":%zu,\"metrics\":%s}\n",
              outcome.failed == 0 ? "true" : "false", outcome.attempted,
              outcome.failed, metrics_json.c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(perfbench::parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "shg_perfbench: %s\n", e.what());
    return 1;
  }
}
