// The benchmark's workloads. Each takes its seed from RunArgs, generates
// its own inputs, measures for RunArgs::seconds, checks every output and
// fills a RunReport with the metrics of BENCHMARK.json that apply to it.
#pragma once

#include "bench_util.h"

namespace perfbench {

/// tgs_serve driven over its socket by a closed-loop client (serve_mix.cpp).
RunReport run_serve_mix(const RunArgs& args);

/// In-process single-thread passes over a (graph, algorithm) set
/// (sweeps.cpp): the paper's Table 6 grid, or the 100k-node giant graphs.
RunReport run_sweep_paper(const RunArgs& args);
RunReport run_giant_dag(const RunArgs& args);

/// Digests of the fixed check sets, printed by `--print-golden` when a
/// deliberate behaviour change requires new committed values.
std::string golden_digest_serve_mix();
std::string golden_digest_sweep_paper();
std::string golden_digest_giant_dag();

}  // namespace perfbench
