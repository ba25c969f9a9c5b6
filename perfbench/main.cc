// perfbench: the repository benchmark binary.
//
//   perfbench --workload <imdb_exec|udf_plan|serve_udf> --seed <n>
//             --seconds <s> --trace <0|1> [--sha <id>] [--out-dir <dir>]
//             [--scale-factor <f>] [--corrupt-reference]
//
// Prints a human-readable report, then one JSON object as the last line of
// stdout. Exits 1 when the correctness gate fails, 2 on bad usage or a
// refused environment. perfbench/run.py builds this binary and forwards
// its arguments; see perfbench/README.md for the metric definitions.

#include <unistd.h>

#include <iostream>
#include <string>
#include <thread>

#include "bench.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

using namespace monsoon;
using namespace monsoon::perfbench;

namespace {

int Usage(const std::string& why) {
  std::cerr << "perfbench: " << why << "\n"
            << "usage: perfbench --workload <imdb_exec|udf_plan|serve_udf> "
               "--seed <n> --seconds <s> --trace <0|1> [--sha <id>] "
               "[--out-dir <dir>] [--scale-factor <f>] [--corrupt-reference]\n";
  return 2;
}

bool ParseArgs(int argc, char** argv, Args* args, std::string* error) {
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (flag == "--corrupt-reference") {
      args->corrupt_reference = true;
      continue;
    }
    if (i + 1 >= argc) {
      *error = "missing value for " + flag;
      return false;
    }
    std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        args->workload = value;
      } else if (flag == "--seed") {
        args->seed = std::stoull(value);
      } else if (flag == "--seconds") {
        args->seconds = std::stod(value);
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") {
          *error = "--trace takes 0 or 1";
          return false;
        }
        args->trace = value == "1";
      } else if (flag == "--sha") {
        args->sha = value;
      } else if (flag == "--out-dir") {
        args->out_dir = value;
      } else if (flag == "--scale-factor") {
        args->scale_factor = std::stod(value);
      } else {
        *error = "unknown flag " + flag;
        return false;
      }
    } catch (const std::exception&) {
      *error = "bad value for " + flag + ": " + value;
      return false;
    }
  }
  if (args->workload != "imdb_exec" && args->workload != "udf_plan" &&
      args->workload != "serve_udf") {
    *error = "unknown workload '" + args->workload + "'";
    return false;
  }
  if (!(args->seconds > 0) || !(args->scale_factor > 0)) {
    *error = "--seconds and --scale-factor must be positive";
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  std::string error;
  if (!ParseArgs(argc, argv, &args, &error)) return Usage(error);
  Status env = RefuseEnvironmentKnobs();
  if (!env.ok()) return Usage(env.message());

  const bool serve = args.workload == "serve_udf";
  Report report = serve ? RunServe(args) : RunOneShot(args);
  report.stamp = {
      {"workload", args.workload},
      {"seed", std::to_string(args.seed)},
      {"seconds", std::to_string(args.seconds)},
      {"trace", args.trace ? "1" : "0"},
      {"nproc", std::to_string(std::thread::hardware_concurrency())},
      {"build_type", PERFBENCH_BUILD_TYPE},
      {"source_sha", args.sha},
      {"threads_per_query", std::to_string(serve ? kServeThreads : kOneShotThreads)},
      {"batch_size", std::to_string(kBatchSize)},
      {"shards", std::to_string(kShards)},
      {"udf_cache_bytes", std::to_string(kUdfCacheBytes)},
      {"faults", "off"},
      {"share_state", serve ? (kServeShareState ? "1" : "0") : "n/a"},
      {"mcts_iterations", std::to_string(kMctsIterations)},
      {"optimizer_seed", std::to_string(kOptimizerSeed)},
      {"scale_factor", std::to_string(args.scale_factor)},
  };
  PrintReport(report, args.trace);
  return report.correct ? 0 : 1;
}
