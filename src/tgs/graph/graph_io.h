// Plain-text serialization of task graphs.
//
// Format ("tgs1"):
//   tgs1 <name> <num_nodes> <num_edges>
//   node <id> <weight> [label]
//   edge <u> <v> <cost>
//
// Ids are 0-based and must be dense. Lines starting with '#' are comments
// and blank lines are skipped. Fields past the last one a record reads are
// ignored, as are records after the header's counts are met.
#pragma once

#include <iosfwd>
#include <string>
#include <string_view>

#include "tgs/graph/task_graph.h"

namespace tgs {

/// Serialize `g` in tgs1 format.
void write_graph(std::ostream& os, const TaskGraph& g);
std::string graph_to_string(const TaskGraph& g);

/// Parse tgs1 text in one pass; throws std::invalid_argument on malformed
/// input.
TaskGraph graph_from_string(std::string_view text);

/// File helpers; throw std::runtime_error when the file cannot be opened.
void save_graph(const std::string& path, const TaskGraph& g);
TaskGraph load_graph(const std::string& path);

}  // namespace tgs
