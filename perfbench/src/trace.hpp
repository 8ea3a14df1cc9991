/// \file trace.hpp
/// \brief In-memory spans recorded by the benchmark around its calls into
/// each dqcsim layer, and the layer self-time attribution computed from
/// them.
///
/// A span has a name, the layer it is charged to, host start/end times, the
/// span that caused it (0 for a root) and a trace id shared by every span of
/// one driver call (or one set-up round, or one probe). Spans stay in memory
/// until the run ends, then are written out as Chrome trace-event JSON.

#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

/// The modules under src/ that spans are charged to.
enum class Layer : std::uint8_t {
  Gen,
  Partition,
  Net,
  Noise,
  Ent,
  Des,
  Sched,
  Scenario,
  Runtime,
  Obs,
  Common,
};

inline constexpr std::size_t kLayerCount = 11;

/// Layer name as used in metric names ("gen", "partition", ...).
const char* layer_name(Layer layer);

struct Span {
  std::uint32_t id = 0;
  std::uint32_t parent = 0;  ///< 0 for a root span
  std::uint32_t trace = 0;
  Layer layer = Layer::Runtime;
  const char* name = "";     ///< static string
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::uint32_t thread = 0;  ///< dense per-process thread index
};

/// Thread-safe span store. Ids and trace ids start at 1.
class Tracer {
 public:
  std::uint32_t next_id();
  std::uint32_t next_trace();
  void record(const Span& span);

  /// Snapshot of every span recorded so far.
  std::vector<Span> spans() const;

  /// Number of spans recorded so far.
  std::size_t size() const;

  /// Write all spans as Chrome trace-event JSON; false on I/O failure.
  bool write_chrome_json(const std::string& path) const;

 private:
  mutable std::mutex mu_;
  std::vector<Span> spans_;
  std::uint32_t next_id_ = 1;
  std::uint32_t next_trace_ = 1;
};

/// Dense index of the calling thread (0 for the first thread that asks).
std::uint32_t thread_index();

/// RAII span: records [construction, destruction) on `tracer` when it is
/// non-null, and costs one branch otherwise.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, std::uint32_t trace, std::uint32_t parent,
             Layer layer, const char* name);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  std::uint32_t id() const noexcept { return span_.id; }

 private:
  Tracer* tracer_;
  Span span_;
};

/// Host time per layer, in nanoseconds.
using LayerTimes = std::array<double, kLayerCount>;

/// Wall-time attribution of a span forest. Each span is charged its self
/// time (duration minus the union of its children's intervals); the union
/// part is split among the children in proportion to their durations, so
/// parallel children on worker threads share their parent's wall time
/// instead of counting it once per thread. The attributions of one root
/// therefore sum to exactly its duration.
struct Attribution {
  LayerTimes total{};  ///< summed over every root
  /// Largest |sum of a root's attributions - its duration| / duration.
  double worst_root_error = 0.0;
  std::size_t roots = 0;
};

Attribution attribute(const std::vector<Span>& spans);

}  // namespace perfbench
