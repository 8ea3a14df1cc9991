#include "gen/regular_graph.hpp"

#include <algorithm>
#include <set>

#include "common/error.hpp"

namespace dqcsim::gen {
namespace {

using Edge = std::pair<int, int>;

Edge ordered(int a, int b) noexcept {
  return a < b ? Edge{a, b} : Edge{b, a};
}

}  // namespace

EdgeList random_regular_graph(int n, int d, Rng& rng) {
  DQCSIM_EXPECTS_MSG(d >= 1 && d < n, "need 1 <= d < n");
  DQCSIM_EXPECTS_MSG((static_cast<long long>(n) * d) % 2 == 0,
                     "n*d must be even for a d-regular graph to exist");

  // Configuration model: d stubs per vertex, random perfect matching.
  std::vector<int> stubs;
  stubs.reserve(static_cast<std::size_t>(n) * static_cast<std::size_t>(d));
  for (int v = 0; v < n; ++v) {
    for (int i = 0; i < d; ++i) stubs.push_back(v);
  }
  rng.shuffle(stubs);

  std::vector<Edge> edges;
  edges.reserve(stubs.size() / 2);
  for (std::size_t i = 0; i + 1 < stubs.size(); i += 2) {
    edges.push_back(ordered(stubs[i], stubs[i + 1]));
  }

  // Edge-swap repair: remove self-loops and duplicates by 2-opt swaps.
  // A swap of {a,b},{c,d} -> {a,c},{b,d} preserves all vertex degrees.
  const auto count_bad = [&](const std::vector<Edge>& es) {
    std::set<Edge> seen;
    std::size_t bad = 0;
    for (const Edge& e : es) {
      if (e.first == e.second || !seen.insert(e).second) ++bad;
    }
    return bad;
  };

  std::set<Edge> edge_set;
  const auto rebuild_set = [&]() {
    edge_set.clear();
    for (const Edge& e : edges) {
      if (e.first != e.second) edge_set.insert(e);
    }
  };
  rebuild_set();

  std::size_t guard = 0;
  const std::size_t guard_limit =
      1000 * edges.size() * static_cast<std::size_t>(d);
  while (count_bad(edges) > 0) {
    DQCSIM_ENSURES_MSG(++guard < guard_limit,
                       "regular graph repair failed to converge");
    // Find one offending edge (self-loop or duplicate).
    std::size_t bad_idx = edges.size();
    {
      std::set<Edge> seen;
      for (std::size_t i = 0; i < edges.size(); ++i) {
        if (edges[i].first == edges[i].second ||
            !seen.insert(edges[i]).second) {
          bad_idx = i;
          break;
        }
      }
    }
    DQCSIM_ENSURES(bad_idx < edges.size());

    // Swap it with a uniformly random partner edge if the result is simple.
    const auto partner =
        static_cast<std::size_t>(rng.uniform_int(edges.size()));
    if (partner == bad_idx) continue;
    const auto [a, b] = edges[bad_idx];
    const auto [c, dd] = edges[partner];
    // Try {a,c}, {b,dd}; fall back to {a,dd}, {b,c}.
    for (const auto& [e1, e2] :
         {std::pair{ordered(a, c), ordered(b, dd)},
          std::pair{ordered(a, dd), ordered(b, c)}}) {
      if (e1.first == e1.second || e2.first == e2.second) continue;
      if (e1 == e2) continue;
      if (edge_set.count(e1) != 0 || edge_set.count(e2) != 0) continue;
      edges[bad_idx] = e1;
      edges[partner] = e2;
      rebuild_set();
      break;
    }
  }

  std::sort(edges.begin(), edges.end());
  EdgeList result;
  result.num_vertices = n;
  result.edges = std::move(edges);
  DQCSIM_ENSURES(is_simple_regular(result, d));
  return result;
}

bool is_simple_regular(const EdgeList& g, int d) {
  std::vector<int> degree(static_cast<std::size_t>(g.num_vertices), 0);
  std::set<Edge> seen;
  for (const auto& [a, b] : g.edges) {
    if (a == b) return false;
    if (a < 0 || b < 0 || a >= g.num_vertices || b >= g.num_vertices) {
      return false;
    }
    if (!seen.insert(ordered(a, b)).second) return false;
    ++degree[static_cast<std::size_t>(a)];
    ++degree[static_cast<std::size_t>(b)];
  }
  return std::all_of(degree.begin(), degree.end(),
                     [d](int deg) { return deg == d; });
}

}  // namespace dqcsim::gen
