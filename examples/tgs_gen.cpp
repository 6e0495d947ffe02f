// Command-line benchmark-graph generator: writes any of the paper's
// suites as .tgs files for external consumption.
//
//   ./examples/tgs_gen --suite=rgnos --nodes=200 --ccr=1.0
//       --parallelism=3 --seed=7 --out=graph.tgs
//   ./examples/tgs_gen --suite=cholesky --dim=16 --comm=5 --out=chol.tgs
//   ./examples/tgs_gen --suite=psg --index=0 --out=psg0.tgs
//   Suites: rgnos rgbos rgpos cholesky gauss fft laplace psg
#include <cstdio>

#include "tgs/gen/psg.h"
#include "tgs/gen/rgbos.h"
#include "tgs/gen/rgnos.h"
#include "tgs/gen/rgpos.h"
#include "tgs/gen/traced.h"
#include "tgs/graph/graph_io.h"
#include "tgs/util/cli.h"

int main(int argc, char** argv) {
  using namespace tgs;
  const Cli cli(argc, argv);
  const std::string suite = cli.get("suite", "rgnos");
  const std::string out = cli.get("out", "");
  const std::uint64_t seed = static_cast<std::uint64_t>(cli.get_int("seed", 1));

  TaskGraph g = [&]() -> TaskGraph {
    if (suite == "rgnos") {
      RgnosParams p;
      p.num_nodes = static_cast<NodeId>(cli.get_int("nodes", 100));
      p.ccr = cli.get_double("ccr", 1.0);
      p.parallelism = static_cast<int>(cli.get_int("parallelism", 3));
      p.seed = seed;
      return rgnos_graph(p);
    }
    if (suite == "rgbos") {
      return rgbos_graph(cli.get_double("ccr", 1.0),
                         static_cast<NodeId>(cli.get_int("nodes", 20)), seed);
    }
    if (suite == "rgpos") {
      RgposParams p;
      p.num_nodes = static_cast<NodeId>(cli.get_int("nodes", 100));
      p.num_procs = static_cast<int>(cli.get_int("procs", 4));
      p.ccr = cli.get_double("ccr", 1.0);
      p.seed = seed;
      p.width_guard = cli.has("width-guard");
      const RgposGraph r = rgpos_graph(p);
      std::fprintf(stderr, "planted optimal length: %lld on %d processors\n",
                   static_cast<long long>(r.optimal_length), r.num_procs);
      return r.graph;
    }
    if (suite == "cholesky")
      return cholesky_graph(static_cast<int>(cli.get_int("dim", 16)),
                            cli.get_double("comm", 1.0));
    if (suite == "gauss")
      return gaussian_elimination_graph(static_cast<int>(cli.get_int("dim", 16)),
                                        cli.get_double("comm", 1.0));
    if (suite == "fft")
      return fft_graph(static_cast<int>(cli.get_int("points", 32)),
                       cli.get_double("comm", 1.0));
    if (suite == "laplace")
      return laplace_graph(static_cast<int>(cli.get_int("side", 6)),
                           static_cast<int>(cli.get_int("iters", 4)),
                           cli.get_double("comm", 1.0));
    if (suite == "psg") {
      auto all = peer_set_graphs();
      const std::size_t i = static_cast<std::size_t>(cli.get_int("index", 0));
      if (i >= all.size()) {
        std::fprintf(stderr, "psg index out of range (0..%zu)\n", all.size() - 1);
        std::exit(1);
      }
      return std::move(all[i].graph);
    }
    std::fprintf(stderr, "unknown suite '%s'\n", suite.c_str());
    std::exit(1);
  }();

  std::fprintf(stderr, "%s: v=%u e=%zu ccr=%.2f\n", g.name().c_str(),
               g.num_nodes(), g.num_edges(), g.ccr());
  if (out.empty()) {
    std::fputs(graph_to_string(g).c_str(), stdout);
  } else {
    save_graph(out, g);
    std::fprintf(stderr, "wrote %s\n", out.c_str());
  }
  return 0;
}
