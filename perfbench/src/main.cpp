// tgs_e2e: the measuring half of the end-to-end benchmark. perfbench/run.py
// builds it, runs it and turns its RESULT line into the benchmark's JSON.
//
//   tgs_e2e --workload=serve_mix|sweep_paper|giant_dag --seed=N --seconds=S
//           --trace=0|1 --serve-bin=PATH --work-dir=DIR
//   tgs_e2e --print-golden     digests of the three fixed check sets
//
// Prints human-readable lines, then one line "RESULT {json}" with
// correct/attempted/failed and the measured metrics by name. Exits 1 when a
// correctness check failed, 2 on an error that prevented measuring.
#include <cstdio>
#include <exception>
#include <string>

#include "tgs/exec/jsonl.h"
#include "tgs/util/cli.h"
#include "workloads.h"

int main(int argc, char** argv) {
  using namespace perfbench;
  try {
    const tgs::Cli cli(argc, argv);
    if (cli.has("print-golden")) {
      std::printf("serve_mix   %s\n", golden_digest_serve_mix().c_str());
      std::printf("sweep_paper %s\n", golden_digest_sweep_paper().c_str());
      std::printf("giant_dag   %s\n", golden_digest_giant_dag().c_str());
      return 0;
    }
    RunArgs args;
    args.workload = cli.get("workload", "");
    args.seed = static_cast<std::uint64_t>(cli.get_int_in("seed", 1, 0, INT64_MAX));
    args.seconds = static_cast<double>(cli.get_int_in("seconds", 10, 1, 3600));
    args.trace = cli.get_int_in("trace", 0, 0, 1) == 1;
    args.serve_bin = cli.get("serve-bin", "");
    args.work_dir = cli.get("work-dir", ".");

    RunReport r;
    if (args.workload == "serve_mix")
      r = run_serve_mix(args);
    else if (args.workload == "sweep_paper")
      r = run_sweep_paper(args);
    else if (args.workload == "giant_dag")
      r = run_giant_dag(args);
    else
      throw std::invalid_argument("unknown --workload '" + args.workload + "'");

    std::printf("%s seed=%llu seconds=%g trace=%d\n", args.workload.c_str(),
                static_cast<unsigned long long>(args.seed), args.seconds,
                args.trace ? 1 : 0);
    for (const std::string& n : r.notes) std::printf("  %s\n", n.c_str());
    for (const std::string& e : r.errors) std::printf("  CHECK FAILED: %s\n", e.c_str());

    tgs::JsonObject metrics;
    for (const auto& [name, value] : r.metrics) metrics.add(name, value);
    tgs::JsonObject out;
    out.add("correct", r.correct)
        .add_uint("attempted", r.attempted)
        .add_uint("failed", r.failed)
        .add_raw("metrics", metrics.str());
    std::printf("RESULT %s\n", out.str().c_str());
    return r.correct ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "tgs_e2e: %s\n", e.what());
    return 2;
  }
}
