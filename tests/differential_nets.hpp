// The rcgen population every fast-path-vs-reference differential test runs
// on: default nets, 160-320-node nets, trees, single-sink nets and two mesh
// stress sets with up to 64 and 160 extra loop resistors.
#pragma once

#include <cstdint>
#include <vector>

#include "rcnet/generate.hpp"

namespace differential_nets {

struct NetSet {
  const char* name;
  gnntrans::rcnet::NetGenConfig cfg;
  int nets;
};

inline std::vector<NetSet> sets() {
  using gnntrans::rcnet::NetGenConfig;
  std::vector<NetSet> sets;
  sets.push_back({"default", {}, 12});
  NetGenConfig large;
  large.min_nodes = 160;
  large.max_nodes = 320;
  sets.push_back({"large", large, 4});
  NetGenConfig tree;
  tree.non_tree_fraction = 0.0;
  sets.push_back({"tree", tree, 8});
  NetGenConfig single;
  single.min_sinks = single.max_sinks = 1;
  sets.push_back({"single_sink", single, 8});
  for (std::uint32_t extra : {64u, 160u}) {
    NetGenConfig mesh = large;
    mesh.non_tree_fraction = 1.0;
    mesh.max_extra_edges = extra;
    sets.push_back({extra == 64 ? "mesh64" : "mesh160", mesh, 4});
  }
  return sets;
}

}  // namespace differential_nets
