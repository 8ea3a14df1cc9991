#include "bench_report.hpp"

#include <iostream>
#include <utility>

#include "common/json.hpp"
#include "common/rng.hpp"

namespace dqcsim::bench {

BenchReport::BenchReport(std::string name) : name_(std::move(name)) {}

void BenchReport::add(KernelResult result) {
  results_.push_back(std::move(result));
}

std::string BenchReport::path() const { return "BENCH_" + name_ + ".json"; }

void BenchReport::write() const {
  JsonValue kernels = JsonValue::array();
  for (const KernelResult& r : results_) {
    JsonValue k = JsonValue::object();
    k.set("name", r.name);
    k.set("ns_per_op", r.ns_per_op);
    k.set("items_per_s", r.items_per_s);
    k.set("iterations", r.iterations);
    k.set("label", r.label);
    if (!r.counters.empty()) {
      JsonValue counters = JsonValue::object();
      for (const auto& [name, value] : r.counters) {
        counters.set(name, value);
      }
      k.set("counters", std::move(counters));
    }
    kernels.push(std::move(k));
  }
  JsonValue doc = JsonValue::object();
  doc.set("report", name_);
  doc.set("schema_version", std::int64_t{1});
  doc.set("replay_format", std::int64_t{kReplayFormat});
  doc.set("kernels", std::move(kernels));
  doc.write_file(path());
  std::cout << "[bench_report] wrote " << path() << " ("
            << results_.size() << " kernels)\n";
}

}  // namespace dqcsim::bench
