// Shared pieces of the end-to-end benchmark: the workload interface, the
// span tracer, exact-output digests and small statistics helpers.
//
// Every workload turns its seed into inputs with the benchmark's own
// generator (never the library's PRNG, so a library change cannot change
// the inputs), runs one pass of a user-visible path per `iterate()` call,
// and reports the pass's timings, its exact work counters and a digest of
// its outputs. main.cpp owns the run loop, the checks and the output.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstring>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// splitmix64: the benchmark's input generator.
class InputRng {
 public:
  explicit InputRng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  /// Uniform integer in [0, n).
  int below(int n) { return static_cast<int>(next() % static_cast<std::uint64_t>(n)); }

 private:
  std::uint64_t state_;
};

/// FNV-1a over the exact bytes of the outputs (doubles by bit pattern).
class Digest {
 public:
  void bytes(const void* data, std::size_t size) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < size; ++i) {
      hash_ = (hash_ ^ p[i]) * 0x100000001b3ULL;
    }
  }
  void str(const std::string& s) {
    u64(s.size());
    bytes(s.data(), s.size());
  }
  void u64(std::uint64_t v) { bytes(&v, sizeof(v)); }
  void f64(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    u64(bits);
  }
  std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

/// In-memory span recorder. A null Tracer* means "untraced": scopes then
/// cost one branch. Spans are recorded from one thread (the benchmark's
/// own), properly nested, so a span's children never overlap.
class Tracer {
 public:
  struct Span {
    std::string layer;
    std::string name;
    double start_s = 0.0;
    double end_s = 0.0;
    int parent = -1;
  };

  class Scope {
   public:
    Scope(Tracer* tracer, const char* layer, const char* name)
        : tracer_(tracer) {
      if (tracer_ != nullptr) index_ = tracer_->open(layer, name);
    }
    ~Scope() {
      if (tracer_ != nullptr) tracer_->close(index_);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
    int index_ = -1;
  };

  const std::vector<Span>& spans() const { return spans_; }

  /// Self time per layer (duration minus the children's durations) over
  /// the spans under roots named `root_name`.
  std::map<std::string, double> self_time(const std::string& root_name) const;

  /// Duration of the last span with this name; 0 if none.
  double last(const std::string& name) const;

 private:
  int open(const char* layer, const char* name);
  void close(int index);

  Clock::time_point epoch_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

/// Exact work counts of one pass, in a fixed order. Each is named after
/// the per-layer metric that reports it.
using Counters = std::vector<std::pair<std::string, std::uint64_t>>;

/// One pass of a workload: inputs to validated output.
struct Iteration {
  double wall_s = 0.0;   ///< the whole pass, set-up included
  double setup_s = 0.0;  ///< the set-up part of wall_s
  double work = 0.0;     ///< units of work_per_s done in the pass
  /// Latency of each user operation (serve requests), for per-pass
  /// percentiles; empty means the pass itself is the one operation.
  std::vector<double> op_ms;
  std::uint64_t digest = 0;  ///< checked against the recorded reference
  Counters counters;         ///< checked to repeat exactly
  std::size_t attempted = 1;
  std::size_t failed = 0;
  std::vector<std::string> errors;
};

/// Per-layer metrics a workload measures; unset ones read 0 (the layer is
/// not on that workload's path).
using LayerMetrics = std::map<std::string, double>;

class Workload {
 public:
  virtual ~Workload() = default;
  /// One pass; `tracer` null for untraced passes.
  virtual Iteration iterate(Tracer* tracer) = 0;
  /// Fewest untraced passes in a run, however long they take.
  virtual std::size_t min_passes() const { return 3; }
  /// Set-up alone, timed, or nothing when set-up takes seconds (the passes'
  /// own samples then suffice). main samples a cheap set-up many times in
  /// the fresh process, before the passes, so its median does not depend
  /// on the heap state the passes leave behind.
  virtual std::optional<double> setup_sample() { return std::nullopt; }
  /// Traced-run extras, after the passes: per-layer metrics of the last
  /// pass plus out-of-path probes (spans land under main's "probe" root).
  /// Probe output checks count into `checks`.
  virtual void probe(Tracer& tracer, LayerMetrics& out, Iteration& checks) = 0;
};

std::unique_ptr<Workload> make_campaign(int variant);
std::unique_ptr<Workload> make_sim_large(int variant);
std::unique_ptr<Workload> make_dse_greedy(int variant);
std::unique_ptr<Workload> make_serve_mix(int variant);

/// Nearest-rank percentile (q in (0, 1]) of unsorted samples; 0 if empty.
double percentile(std::vector<double> samples, double q);
/// Median (mean of the middle two for an even count); 0 if empty.
double median(std::vector<double> samples);

/// Adds a failure message to a pass's checks.
inline void fail(Iteration& it, std::string message) {
  ++it.failed;
  it.errors.push_back(std::move(message));
}

}  // namespace perfbench
