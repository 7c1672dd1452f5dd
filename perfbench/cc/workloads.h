// The three benchmark workloads. Each builds its inputs from args.seed, sets
// the system up three times (setup_s is their median), runs its correctness
// gates (a failure exits with kExitGateFailed before any timing), warms up,
// then does a fixed amount of work proportional to args.seconds on one
// load-generating thread and fills `report`.
//
// Raw report keys shared by every workload (perfbench/metrics.py reads them):
//   setup_s[]           wall time of each set-up repetition
//   build_s[], build_tokens
//                       BuildIndexInMemory span(s) per repetition, tokens
//   chunk_ops[], chunk_s[]
//                       timed work in equal chunks (throughput_per_s)
//   query_ms[]          latency of each timed query (query_p50_ms)
//   attempted, failed   operations and the ones that failed or were refused
//   index_bytes, indexed_tokens, peak_rss_mb
//   counts{}            exact counts; the same seed gives the same values
//   layers{}            traced runs only: raw per-layer sums
//   spans[]             traced runs only: the tracer's spans

#ifndef NDSS_PERFBENCH_WORKLOADS_H_
#define NDSS_PERFBENCH_WORKLOADS_H_

#include "harness.h"

namespace ndss {
namespace perfbench {

void RunMemoEval(const Args& args, Tracer& tracer, Report* report);
void RunServeZipf(const Args& args, Tracer& tracer, Report* report);
void RunIngestMix(const Args& args, Tracer& tracer, Report* report);

}  // namespace perfbench
}  // namespace ndss

#endif  // NDSS_PERFBENCH_WORKLOADS_H_
