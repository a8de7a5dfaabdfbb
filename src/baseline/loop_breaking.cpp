#include "baseline/loop_breaking.hpp"

#include <algorithm>
#include <numeric>
#include <vector>

namespace gnntrans::baseline {

rcnet::RcNet break_loops(const rcnet::RcNet& net) {
  if (net.is_tree()) return net;

  // Kruskal on resistance: keep low-R edges, drop high-R loop closers.
  std::vector<std::size_t> order(net.resistors.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return net.resistors[a].ohms < net.resistors[b].ohms;
  });

  rcnet::RcNet out = net;
  out.resistors.clear();
  rcnet::DisjointSet ds(net.node_count());
  for (std::size_t idx : order)
    if (ds.unite(net.resistors[idx].a, net.resistors[idx].b))
      out.resistors.push_back(net.resistors[idx]);
  return out;
}

}  // namespace gnntrans::baseline
