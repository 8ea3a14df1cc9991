#include "trace.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <unordered_map>
#include <utility>

#include "util.hpp"

namespace perfbench {

const char* layer_name(Layer layer) {
  static constexpr const char* kNames[kLayerCount] = {
      "gen", "partition", "net",     "noise",   "ent",   "des",
      "sched", "scenario", "runtime", "obs",   "common"};
  return kNames[static_cast<std::size_t>(layer)];
}

std::uint32_t Tracer::next_id() {
  const std::lock_guard<std::mutex> lock(mu_);
  return next_id_++;
}

std::uint32_t Tracer::next_trace() {
  const std::lock_guard<std::mutex> lock(mu_);
  return next_trace_++;
}

void Tracer::record(const Span& span) {
  const std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(span);
}

std::vector<Span> Tracer::spans() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

std::size_t Tracer::size() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

bool Tracer::write_chrome_json(const std::string& path) const {
  const std::vector<Span> all = spans();
  std::ofstream out(path);
  if (!out) return false;
  out << "{\"traceEvents\":[";
  char buf[512];
  for (std::size_t i = 0; i < all.size(); ++i) {
    const Span& s = all[i];
    std::snprintf(buf, sizeof buf,
                  "%s\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\","
                  "\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":%u,"
                  "\"args\":{\"id\":%u,\"parent\":%u,\"trace\":%u}}",
                  i == 0 ? "" : ",", s.name, layer_name(s.layer),
                  static_cast<double>(s.start_ns) * 1e-3,
                  static_cast<double>(s.end_ns - s.start_ns) * 1e-3,
                  s.thread, s.id, s.parent, s.trace);
    out << buf;
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

std::uint32_t thread_index() {
  static std::atomic<std::uint32_t> next{0};
  thread_local const std::uint32_t index = next.fetch_add(1);
  return index;
}

ScopedSpan::ScopedSpan(Tracer* tracer, std::uint32_t trace,
                       std::uint32_t parent, Layer layer, const char* name)
    : tracer_(tracer) {
  if (tracer_ == nullptr) return;
  span_.id = tracer_->next_id();
  span_.parent = parent;
  span_.trace = trace;
  span_.layer = layer;
  span_.name = name;
  span_.thread = thread_index();
  span_.start_ns = now_ns();
}

ScopedSpan::~ScopedSpan() {
  if (tracer_ == nullptr) return;
  span_.end_ns = now_ns();
  tracer_->record(span_);
}

namespace {

struct Forest {
  const std::vector<Span>& spans;
  std::vector<std::vector<std::size_t>> children;

  /// Charge span i, weighted by w, into `out` (see Attribution).
  void charge(std::size_t i, double w, LayerTimes& out) const {
    const Span& s = spans[i];
    const double dur = static_cast<double>(s.end_ns - s.start_ns);
    std::vector<std::pair<std::uint64_t, std::uint64_t>> kids;
    for (const std::size_t k : children[i]) {
      const std::uint64_t a = std::max(spans[k].start_ns, s.start_ns);
      const std::uint64_t b = std::min(spans[k].end_ns, s.end_ns);
      kids.emplace_back(a, std::max(a, b));
    }
    double clipped_sum = 0.0;
    for (const auto& [a, b] : kids) clipped_sum += static_cast<double>(b - a);
    std::vector<std::pair<std::uint64_t, std::uint64_t>> sorted = kids;
    std::sort(sorted.begin(), sorted.end());
    double covered = 0.0;
    std::uint64_t reach = s.start_ns;
    for (const auto& [a, b] : sorted) {
      const std::uint64_t from = std::max(a, reach);
      if (b > from) covered += static_cast<double>(b - from);
      reach = std::max(reach, b);
    }
    out[static_cast<std::size_t>(s.layer)] += w * (dur - covered);
    if (clipped_sum <= 0.0) return;
    for (std::size_t j = 0; j < kids.size(); ++j) {
      const Span& kid = spans[children[i][j]];
      const double kid_dur = static_cast<double>(kid.end_ns - kid.start_ns);
      const double clipped = static_cast<double>(kids[j].second -
                                                 kids[j].first);
      if (kid_dur <= 0.0 || clipped <= 0.0) continue;
      charge(children[i][j], w * covered * clipped / (clipped_sum * kid_dur),
             out);
    }
  }
};

}  // namespace

Attribution attribute(const std::vector<Span>& spans) {
  std::unordered_map<std::uint32_t, std::size_t> index;
  for (std::size_t i = 0; i < spans.size(); ++i) index[spans[i].id] = i;
  Forest forest{spans, std::vector<std::vector<std::size_t>>(spans.size())};
  std::vector<std::size_t> roots;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const auto parent = index.find(spans[i].parent);
    if (spans[i].parent == 0 || parent == index.end()) {
      roots.push_back(i);
    } else {
      forest.children[parent->second].push_back(i);
    }
  }
  Attribution result;
  result.roots = roots.size();
  for (const std::size_t r : roots) {
    LayerTimes one{};
    forest.charge(r, 1.0, one);
    double sum = 0.0;
    for (std::size_t l = 0; l < kLayerCount; ++l) {
      sum += one[l];
      result.total[l] += one[l];
    }
    const double dur =
        static_cast<double>(spans[r].end_ns - spans[r].start_ns);
    if (dur > 0.0) {
      result.worst_root_error =
          std::max(result.worst_root_error, std::abs(sum - dur) / dur);
    }
  }
  return result;
}

}  // namespace perfbench
