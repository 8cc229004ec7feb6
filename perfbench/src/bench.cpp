#include "bench.hpp"

#include <algorithm>
#include <cmath>

namespace perfbench {

int Tracer::open(const char* layer, const char* name) {
  Span span;
  span.layer = layer;
  span.name = name;
  span.parent = stack_.empty() ? -1 : stack_.back();
  span.start_s = seconds_since(epoch_);
  spans_.push_back(std::move(span));
  stack_.push_back(static_cast<int>(spans_.size()) - 1);
  return stack_.back();
}

void Tracer::close(int index) {
  spans_[static_cast<std::size_t>(index)].end_s = seconds_since(epoch_);
  stack_.pop_back();
}

std::map<std::string, double> Tracer::self_time(
    const std::string& root_name) const {
  // Spans are stored in open order, so a parent precedes its children and
  // one forward sweep resolves each span's root.
  std::vector<int> root(spans_.size(), -1);
  std::vector<double> self(spans_.size(), 0.0);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    self[i] = span.end_s - span.start_s;
    if (span.parent < 0) {
      root[i] = static_cast<int>(i);
    } else {
      const auto parent = static_cast<std::size_t>(span.parent);
      root[i] = root[parent];
      self[parent] -= span.end_s - span.start_s;
    }
  }
  std::map<std::string, double> by_layer;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[static_cast<std::size_t>(root[i])].name == root_name) {
      by_layer[spans_[i].layer] += self[i];
    }
  }
  return by_layer;
}

double Tracer::last(const std::string& name) const {
  for (auto it = spans_.rbegin(); it != spans_.rend(); ++it) {
    if (it->name == name) return it->end_s - it->start_s;
  }
  return 0.0;
}

double percentile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double rank = std::ceil(q * static_cast<double>(samples.size()));
  const std::size_t index =
      rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return samples[std::min(index, samples.size() - 1)];
}

double median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2]
                    : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

}  // namespace perfbench
