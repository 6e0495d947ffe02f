// Deterministic structured DAG generators: the classic shapes the paper's
// §4 mentions earlier algorithms were specialized to (trees, fork-join),
// plus the diamond lattice of the peer-set suite.
#pragma once

#include "tgs/graph/task_graph.h"

namespace tgs {

/// Fork-join: source -> `width` parallel tasks -> sink.
TaskGraph fork_join(NodeId width, Cost node_cost = 10, Cost edge_cost = 5);

/// Complete out-tree (root spawns `branching` children per node, `depth`
/// levels below the root).
TaskGraph out_tree(int depth, int branching, Cost node_cost = 10,
                   Cost edge_cost = 5);

/// Complete in-tree (reduction): mirror of out_tree.
TaskGraph in_tree(int depth, int branching, Cost node_cost = 10,
                  Cost edge_cost = 5);

/// Diamond lattice of the given side (wavefront/stencil dependence):
/// node (i, j) -> (i+1, j) and (i, j+1).
TaskGraph diamond_lattice(int side, Cost node_cost = 10, Cost edge_cost = 5);

}  // namespace tgs
