// PSG -- Peer Set Graphs (paper §5.1): "example task graphs used by
// various researchers and documented in publications ... usually small in
// size but useful in that they can be used to trace the operation of an
// algorithm".
//
// Substitution note: the IPPS'98 paper does not list its
// exact peer set; we curate a suite of the same character -- the canonical
// 9-node example reproduced in Kwok & Ahmad's own survey work (critical
// path n1 -> n7 -> n9, length 23), plus classic small structures
// (fork-join, diamond, trees) and two irregular hand-built graphs. All are
// small enough to trace by hand, and Table 1's qualitative observations
// are evaluated against them.
#pragma once

#include <string>
#include <vector>

#include "tgs/graph/task_graph.h"

namespace tgs {

struct PsgEntry {
  TaskGraph graph;
  std::string description;
};

/// The canonical 9-node example (Kwok & Ahmad survey, Fig. 1 style).
/// Weights: n1=2 n2=3 n3=3 n4=4 n5=5 n6=4 n7=4 n8=4 n9=1; CP length 23.
TaskGraph psg_canonical9();

/// Irregular 13-node graph exercising heavy fan-in with asymmetric
/// communication (hand-built, documented inline).
TaskGraph psg_irregular13();

/// Irregular 16-node two-phase graph (parallel pipelines that cross).
TaskGraph psg_pipelines16();

/// The full peer-set suite in deterministic order.
std::vector<PsgEntry> peer_set_graphs();

}  // namespace tgs
