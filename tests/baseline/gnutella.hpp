// Gnutella-style flooding search (§3.2) — the baseline PeerHood's dynamic
// device discovery is designed against. Each node forwards a query to every
// neighbour except the sender until the TTL ("predetermined number of hops")
// expires; the result travels back along the query path. The biggest
// performance problem is "the huge network traffic generated due to the high
// number of query messages" — exactly what E3 quantifies. Header-only test
// support: the experiments and test_gnutella use it, the daemon does not.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <set>
#include <vector>

#include "common/mac_address.hpp"
#include "sim/medium.hpp"

namespace peerhood::baseline {

class GnutellaOverlay {
 public:
  using Adjacency = std::map<MacAddress, std::vector<MacAddress>>;

  explicit GnutellaOverlay(Adjacency adjacency)
      : adjacency_{std::move(adjacency)} {}

  // Builds the overlay from current radio coverage: an edge exists between
  // endpoints in mutual range.
  [[nodiscard]] static GnutellaOverlay from_medium(
      sim::RadioMedium& medium, const std::vector<MacAddress>& nodes,
      Technology tech);

  struct SearchResult {
    bool found{false};
    // Query messages sent (every forward counts once).
    std::uint64_t query_messages{0};
    // Hops from the origin at which the target first received the query.
    int hops_to_target{-1};
    // Distinct nodes that saw the query.
    std::size_t nodes_reached{0};
  };

  // Floods a query for `target` from `origin` with the given TTL.
  [[nodiscard]] SearchResult search(MacAddress origin, MacAddress target,
                                    int ttl) const;

  // Messages for `origin` to discover the entire reachable network by
  // flooding (a ping sweep) — compare with PeerHood, where each node only
  // ever inquires its direct neighbours (§3.3: "the inquiry petition is not
  // repeated like Gnutella network").
  [[nodiscard]] std::uint64_t flood_messages(MacAddress origin, int ttl) const;

  [[nodiscard]] const Adjacency& adjacency() const { return adjacency_; }
  [[nodiscard]] std::size_t node_count() const { return adjacency_.size(); }
  [[nodiscard]] std::size_t edge_count() const;

 private:
  Adjacency adjacency_;
};

inline GnutellaOverlay GnutellaOverlay::from_medium(
    sim::RadioMedium& medium, const std::vector<MacAddress>& nodes,
    Technology tech) {
  Adjacency adjacency;
  for (const MacAddress node : nodes) {
    adjacency[node] = medium.in_range_of(node, tech);
  }
  return GnutellaOverlay{std::move(adjacency)};
}

inline GnutellaOverlay::SearchResult GnutellaOverlay::search(
    MacAddress origin, MacAddress target, int ttl) const {
  SearchResult result;
  if (!adjacency_.contains(origin)) return result;

  struct Hop {
    MacAddress node;
    MacAddress from;
    int depth;
  };
  // Gnutella floods: a node forwards the first copy of a query it sees to
  // all neighbours except the sender. Every forwarded copy is a message.
  std::set<MacAddress> forwarded;  // nodes that already forwarded
  std::deque<Hop> frontier;
  frontier.push_back(Hop{origin, origin, 0});
  forwarded.insert(origin);
  std::set<MacAddress> reached{origin};

  while (!frontier.empty()) {
    const Hop hop = frontier.front();
    frontier.pop_front();
    if (hop.depth >= ttl) continue;
    const auto it = adjacency_.find(hop.node);
    if (it == adjacency_.end()) continue;
    for (const MacAddress next : it->second) {
      if (next == hop.from) continue;
      ++result.query_messages;  // each copy crosses the air once
      reached.insert(next);
      if (next == target && result.hops_to_target < 0) {
        result.found = true;
        result.hops_to_target = hop.depth + 1;
      }
      if (forwarded.insert(next).second) {
        frontier.push_back(Hop{next, hop.node, hop.depth + 1});
      }
    }
  }
  result.nodes_reached = reached.size();
  return result;
}

inline std::uint64_t GnutellaOverlay::flood_messages(MacAddress origin,
                                                     int ttl) const {
  // A ping flood has the same propagation pattern as a query flood.
  const SearchResult result = search(origin, MacAddress{}, ttl);
  return result.query_messages;
}

inline std::size_t GnutellaOverlay::edge_count() const {
  std::size_t degree_sum = 0;
  for (const auto& [node, neighbours] : adjacency_) {
    degree_sum += neighbours.size();
  }
  return degree_sum / 2;
}

}  // namespace peerhood::baseline
