// ndss_perfbench: runs one benchmark workload and writes its raw report.
//
//   ndss_perfbench --workload=memo_eval|serve_zipf|ingest_mix --seed=N
//                  --seconds=N --trace=0|1 --work-dir=DIR --out=FILE
//
// perfbench/run.py drives it and turns the report into metrics. Exit codes:
// 0 ok, 1 usage, 2 setup failure, 3 correctness gate failed (before timing).

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>

#include "common/parse.h"
#include "harness.h"
#include "workloads.h"

namespace ndss {
namespace perfbench {
namespace {

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload=memo_eval|serve_zipf|ingest_mix "
               "--seed=N --seconds=N --trace=0|1 --work-dir=DIR --out=FILE\n",
               argv0);
  return 1;
}

int Main(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const size_t eq = arg.find('=');
    if (arg.rfind("--", 0) != 0 || eq == std::string::npos) {
      return Usage(argv[0]);
    }
    const std::string key = arg.substr(2, eq - 2);
    const std::string value = arg.substr(eq + 1);
    uint64_t number = 0;
    if (key == "workload") {
      args.workload = value;
    } else if (key == "work-dir") {
      args.work_dir = value;
    } else if (key == "out") {
      args.out = value;
    } else if (!ParseUint64(value, &number)) {
      return Usage(argv[0]);
    } else if (key == "seed") {
      args.seed = number;
    } else if (key == "seconds" && number >= 1 && number <= 600) {
      args.seconds = static_cast<int>(number);
    } else if (key == "trace" && number <= 1) {
      args.trace = number == 1;
    } else {
      return Usage(argv[0]);
    }
  }
  if (args.work_dir.empty() || args.out.empty()) return Usage(argv[0]);

  void (*run)(const Args&, Tracer&, Report*) = nullptr;
  if (args.workload == "memo_eval") run = &RunMemoEval;
  if (args.workload == "serve_zipf") run = &RunServeZipf;
  if (args.workload == "ingest_mix") run = &RunIngestMix;
  if (run == nullptr) return Usage(argv[0]);

  std::filesystem::remove_all(args.work_dir);
  std::filesystem::create_directories(args.work_dir);
  Tracer tracer(args.trace);
  Report report;
  report.Set("workload", net::JsonValue::String(args.workload));
  report.SetNumber("seed", static_cast<double>(args.seed));
  report.SetNumber("seconds", args.seconds);
  report.Set("trace", net::JsonValue::Bool(args.trace));
  report.Set("host", HostInfo());
  run(args, tracer, &report);
  report.SetNumber("peak_rss_mb", PeakRssMb());
  if (tracer.enabled()) report.Set("spans", tracer.ToJson());
  std::filesystem::remove_all(args.work_dir);

  std::ofstream out(args.out);
  out << report.root().Dump() << "\n";
  out.close();
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", args.out.c_str());
    return kExitSetupFailed;
  }
  return 0;
}

}  // namespace
}  // namespace perfbench
}  // namespace ndss

int main(int argc, char** argv) { return ndss::perfbench::Main(argc, argv); }
