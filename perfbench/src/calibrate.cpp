#include "calibrate.hpp"

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "util.hpp"

namespace perfbench {

namespace {

// The kernel steps a 256-event binary-heap queue and updates a 256 KiB
// table (L2-resident): the same kind of work as the simulator's event loop,
// so host contention slows both alike.
constexpr std::size_t kTableWords = std::size_t{1} << 15;
constexpr std::size_t kEvents = 256;
constexpr std::size_t kSteps = 20000;

std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

double unit(std::uint64_t bits) {
  return static_cast<double>(bits >> 11) * 0x1p-53;
}

struct Event {
  double time;
  std::uint64_t id;
  bool operator<(const Event& o) const { return time > o.time; }
};

}  // namespace

double calibration_ns() {
  // The table persists across calls, so every call after the first finds
  // it resident.
  static thread_local std::vector<std::uint64_t> table(kTableWords, 1);
  static thread_local volatile std::uint64_t sink = 0;
  std::vector<Event> heap;
  heap.reserve(kEvents);
  std::uint64_t state = 0x5EED;
  const std::uint64_t t0 = now_ns();
  for (std::uint64_t i = 0; i < kEvents; ++i) {
    heap.push_back({unit(splitmix64(state)), i});
    std::push_heap(heap.begin(), heap.end());
  }
  for (std::size_t k = 0; k < kSteps; ++k) {
    std::pop_heap(heap.begin(), heap.end());
    Event& e = heap.back();
    const std::uint64_t r = splitmix64(state);
    std::uint64_t& slot = table[(r ^ e.id) & (kTableWords - 1)];
    slot = slot * 6364136223846793005ULL + r;
    e.time += 0.5 + unit(slot);
    std::push_heap(heap.begin(), heap.end());
  }
  const auto ns = static_cast<double>(now_ns() - t0);
  sink = sink + table[state & (kTableWords - 1)];
  return ns;
}

}  // namespace perfbench
