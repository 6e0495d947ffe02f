#include "tgs/gen/rgbos.h"

#include <cmath>

namespace tgs {

TaskGraph rgbos_graph(double ccr, NodeId num_nodes, std::uint64_t seed) {
  RandomDagParams params;
  params.num_nodes = num_nodes;
  params.ccr = ccr;
  // Mix the shape parameters into the stream so (ccr, v) pairs differ even
  // under one suite seed.
  std::uint64_t state = seed ^ (static_cast<std::uint64_t>(num_nodes) << 20) ^
                        static_cast<std::uint64_t>(std::llround(ccr * 1000));
  params.seed = splitmix64(state);
  params.name = "rgbos_v" + std::to_string(num_nodes) + "_ccr" +
                std::to_string(ccr).substr(0, 4);
  return random_fanout_dag(params);
}

}  // namespace tgs
