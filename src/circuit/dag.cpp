#include "circuit/dag.hpp"

#include <algorithm>
#include <queue>

#include "circuit/commutation.hpp"
#include "common/error.hpp"

namespace dqcsim {

DependencyDag::DependencyDag(const Circuit& circuit, Mode mode) {
  const std::size_t n = circuit.num_gates();
  preds_.assign(n, {});
  succs_.assign(n, {});

  // Gates already seen on each wire, in program order.
  std::vector<std::vector<std::size_t>> on_wire(
      static_cast<std::size_t>(circuit.num_qubits()));

  std::vector<char> linked(n, 0);  // scratch de-dup marker per gate
  for (std::size_t i = 0; i < n; ++i) {
    const Gate& gi = circuit.gate(i);
    std::vector<std::size_t> new_preds;
    for (int k = 0; k < gi.arity(); ++k) {
      const QubitId q = gi.qubits[static_cast<std::size_t>(k)];
      auto& wire = on_wire[static_cast<std::size_t>(q)];
      if (mode == Mode::ProgramOrder) {
        if (!wire.empty()) {
          const std::size_t j = wire.back();
          if (!linked[j]) {
            linked[j] = 1;
            new_preds.push_back(j);
          }
        }
      } else {
        // Commutation-aware: gate i depends on every earlier wire-sharing
        // gate it does not provably commute with. Stopping at the first
        // non-commuting gate would be unsound (a commuting intermediary can
        // hide an older conflicting gate), so the whole wire history is
        // scanned; transitive edges are harmless for level computation.
        for (auto it = wire.rbegin(); it != wire.rend(); ++it) {
          const std::size_t j = *it;
          if (linked[j]) continue;
          if (!gates_commute(gi, circuit.gate(j))) {
            linked[j] = 1;
            new_preds.push_back(j);
          }
        }
      }
      wire.push_back(i);
    }
    for (std::size_t j : new_preds) {
      linked[j] = 0;
      preds_[i].push_back(j);
      succs_[j].push_back(i);
    }
    std::sort(preds_[i].begin(), preds_[i].end());
  }

  // ASAP levels in one forward pass (indices are already topological).
  asap_.assign(n, 1);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j : preds_[i]) {
      asap_[i] = std::max(asap_[i], asap_[j] + 1);
    }
    depth_ = std::max(depth_, asap_[i]);
  }

  // ALAP levels in one backward pass.
  alap_.assign(n, depth_);
  for (std::size_t i = n; i-- > 0;) {
    for (std::size_t j : succs_[i]) {
      alap_[i] = std::min(alap_[i], alap_[j] - 1);
    }
  }
}

const std::vector<std::size_t>& DependencyDag::preds(std::size_t i) const {
  DQCSIM_EXPECTS(i < preds_.size());
  return preds_[i];
}

const std::vector<std::size_t>& DependencyDag::succs(std::size_t i) const {
  DQCSIM_EXPECTS(i < succs_.size());
  return succs_[i];
}

std::size_t DependencyDag::slack(std::size_t i) const {
  DQCSIM_EXPECTS(i < asap_.size());
  return alap_[i] - asap_[i];
}

std::vector<std::size_t> DependencyDag::topological_order() const {
  std::vector<std::size_t> order(num_nodes());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  return order;
}

bool DependencyDag::reaches(std::size_t a, std::size_t b) const {
  DQCSIM_EXPECTS(a < num_nodes() && b < num_nodes());
  if (a == b) return true;
  std::vector<char> seen(num_nodes(), 0);
  std::queue<std::size_t> frontier;
  frontier.push(a);
  seen[a] = 1;
  while (!frontier.empty()) {
    const std::size_t u = frontier.front();
    frontier.pop();
    for (std::size_t v : succs_[u]) {
      if (v == b) return true;
      if (!seen[v]) {
        seen[v] = 1;
        frontier.push(v);
      }
    }
  }
  return false;
}

}  // namespace dqcsim
