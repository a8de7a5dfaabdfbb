#include "rcnet/rcnet.hpp"

#include <algorithm>
#include <bit>
#include <numeric>
#include <vector>

namespace gnntrans::rcnet {

namespace {

// FNV-1a over 64-bit words with a splitmix64 finalizer — the repo's standard
// content-hash idiom (quality.cpp feature baselines, trace ids, fault keys).
// Doubles are folded by raw bit pattern: cache hits must be *bitwise*
// identical to recomputation, so the key must distinguish values that differ
// in even one ULP.
constexpr std::uint64_t kFnvBasis = 1469598103934665603ull;
constexpr std::uint64_t kFnvPrime = 1099511628211ull;

inline void fold(std::uint64_t& h, std::uint64_t word) noexcept {
  h = (h ^ word) * kFnvPrime;
}

inline void fold(std::uint64_t& h, double value) noexcept {
  fold(h, std::bit_cast<std::uint64_t>(value));
}

inline std::uint64_t finalize(std::uint64_t h) noexcept {
  h ^= h >> 30;
  h *= 0xbf58476d1ce4e5b9ull;
  h ^= h >> 27;
  h *= 0x94d049bb133111ebull;
  h ^= h >> 31;
  return h;
}

/// The resistor graph's components; out-of-range resistors join nothing.
DisjointSet components(const RcNet& net) {
  DisjointSet sets(net.node_count());
  for (const Resistor& r : net.resistors)
    if (r.a < net.node_count() && r.b < net.node_count()) sets.unite(r.a, r.b);
  return sets;
}

}  // namespace

bool RcNet::is_tree() const {
  if (node_count() == 0) return false;
  return resistors.size() == node_count() - 1 && is_connected(*this);
}

double RcNet::total_ground_cap() const noexcept {
  return std::accumulate(ground_cap.begin(), ground_cap.end(), 0.0);
}

double RcNet::total_coupling_cap() const noexcept {
  double acc = 0.0;
  for (const CouplingCap& c : couplings) acc += c.farads;
  return acc;
}

double RcNet::total_resistance() const noexcept {
  double acc = 0.0;
  for (const Resistor& r : resistors) acc += r.ohms;
  return acc;
}

std::vector<std::string> RcNet::validate(std::uint64_t* content_hash) const {
  std::vector<std::string> errors;
  std::uint64_t hash = kFnvBasis;
  const std::size_t n = node_count();
  fold(hash, static_cast<std::uint64_t>(n));
  fold(hash, static_cast<std::uint64_t>(source));
  fold(hash, static_cast<std::uint64_t>(sinks.size()));
  if (n == 0) {
    errors.push_back("net has no nodes");
    if (content_hash != nullptr) *content_hash = finalize(hash);
    return errors;
  }
  if (source >= n) errors.push_back("source node out of range");
  if (sinks.empty()) errors.push_back("net has no sinks");
  std::vector<bool> sink_seen(n, false);
  for (NodeId s : sinks) {
    fold(hash, static_cast<std::uint64_t>(s));
    if (s >= n) {
      errors.push_back("sink node out of range");
    } else {
      if (s == source) errors.push_back("sink coincides with source");
      if (sink_seen[s])
        errors.push_back("duplicate sink node " + std::to_string(s));
      sink_seen[s] = true;
    }
  }
  std::vector<std::pair<NodeId, NodeId>> edge_keys;
  edge_keys.reserve(resistors.size());
  fold(hash, static_cast<std::uint64_t>(resistors.size()));
  for (std::size_t i = 0; i < resistors.size(); ++i) {
    const Resistor& r = resistors[i];
    fold(hash, (static_cast<std::uint64_t>(r.a) << 32) |
                   static_cast<std::uint64_t>(r.b));
    fold(hash, r.ohms);
    if (r.a >= n || r.b >= n)
      errors.push_back("resistor " + std::to_string(i) + " endpoint out of range");
    else if (r.a == r.b)
      errors.push_back("resistor " + std::to_string(i) + " is a self loop");
    else
      edge_keys.push_back(std::minmax(r.a, r.b));
    if (!(r.ohms > 0.0))
      errors.push_back("resistor " + std::to_string(i) + " has non-positive value");
  }
  // Parallel resistors between one node pair mean the extractor emitted the
  // same segment twice — a malformed netlist, not a legitimate loop.
  std::sort(edge_keys.begin(), edge_keys.end());
  for (std::size_t i = 1; i < edge_keys.size(); ++i)
    if (edge_keys[i] == edge_keys[i - 1])
      errors.push_back("duplicate resistor between nodes " +
                       std::to_string(edge_keys[i].first) + " and " +
                       std::to_string(edge_keys[i].second));
  for (std::size_t i = 0; i < n; ++i) {
    fold(hash, ground_cap[i]);
    if (!(ground_cap[i] > 0.0))
      errors.push_back("node " + std::to_string(i) + " has non-positive ground cap");
  }
  fold(hash, static_cast<std::uint64_t>(couplings.size()));
  for (std::size_t i = 0; i < couplings.size(); ++i) {
    fold(hash, static_cast<std::uint64_t>(couplings[i].victim_node));
    fold(hash, couplings[i].farads);
    fold(hash, couplings[i].aggressor_seed);
    if (couplings[i].victim_node >= n)
      errors.push_back("coupling " + std::to_string(i) + " victim out of range");
    if (!(couplings[i].farads > 0.0))
      errors.push_back("coupling " + std::to_string(i) + " has non-positive value");
  }
  if (content_hash != nullptr) *content_hash = finalize(hash);
  if (errors.empty()) {
    // Loop sanity: a connected graph has resistors >= n-1; the surplus is the
    // independent-loop count. A mesh denser than one loop per node is outside
    // anything extraction produces and would blow up path enumeration.
    const std::size_t loops = resistors.size() - (n - 1);
    if (resistors.size() >= n && loops > n)
      errors.push_back("implausible loop count " + std::to_string(loops) +
                       " for " + std::to_string(n) + " nodes");

    // Per-node reachability from the source: name dangling nodes and each
    // unreachable sink individually rather than one generic message.
    DisjointSet sets = components(*this);
    const NodeId source_root = sets.find(source);
    for (NodeId s : sinks)
      if (sets.find(s) != source_root)
        errors.push_back("sink " + std::to_string(s) +
                         " unreachable from source");
    std::vector<bool> attached(n, false);
    for (const auto& [a, b] : edge_keys) attached[a] = attached[b] = true;
    for (NodeId v = 0; v < n; ++v) {
      if (sets.find(v) == source_root) continue;
      if (!attached[v])
        errors.push_back("node " + std::to_string(v) +
                         " is dangling (no resistor attached)");
      else if (!sink_seen[v])
        errors.push_back("node " + std::to_string(v) +
                         " disconnected from source");
    }
  }
  return errors;
}

Adjacency build_adjacency(const RcNet& net) {
  // Counting sort: degree of v lands in offsets[v + 2], so after the prefix
  // sum offsets[v + 1] is v's first slot and serves as its fill cursor; once
  // filled it has advanced to v's end, i.e. the start of v + 1.
  Adjacency adj;
  adj.offsets.assign(net.node_count() + 2, 0);
  for (const Resistor& r : net.resistors) {
    ++adj.offsets[r.a + 2];
    ++adj.offsets[r.b + 2];
  }
  std::partial_sum(adj.offsets.begin(), adj.offsets.end(), adj.offsets.begin());
  adj.neighbors.resize(2 * net.resistors.size());
  for (std::uint32_t i = 0; i < net.resistors.size(); ++i) {
    const Resistor& r = net.resistors[i];
    adj.neighbors[adj.offsets[r.a + 1]++] = {r.b, i};
    adj.neighbors[adj.offsets[r.b + 1]++] = {r.a, i};
  }
  adj.offsets.pop_back();
  return adj;
}

bool is_connected(const RcNet& net) {
  DisjointSet sets = components(net);
  for (NodeId v = 1; v < net.node_count(); ++v)
    if (sets.find(v) != sets.find(0)) return false;
  return true;
}

}  // namespace gnntrans::rcnet
