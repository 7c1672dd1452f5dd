// Shared plumbing for the NDSS benchmark workloads: arguments, fatal-error
// exits, process counters (/proc/self/io, peak RSS), the span tracer, seeded
// input generators and the Definition-2 oracle used by the correctness gates.
//
// Each workload writes one raw JSON report (setup times, per-operation
// samples, exact counts, spans); perfbench/metrics.py turns it into metrics.

#ifndef NDSS_PERFBENCH_HARNESS_H_
#define NDSS_PERFBENCH_HARNESS_H_

#include <chrono>
#include <cstdint>
#include <set>
#include <span>
#include <string>
#include <tuple>
#include <vector>

#include "common/random.h"
#include "common/result.h"
#include "common/status.h"
#include "corpusgen/zipf.h"
#include "index/index_builder.h"
#include "net/json.h"
#include "query/searcher.h"
#include "sketch/sketch_scheme.h"
#include "text/corpus.h"
#include "text/types.h"

namespace ndss {
namespace perfbench {

/// Exit code of a failed correctness gate (always before any timing).
inline constexpr int kExitGateFailed = 3;
/// Exit code of a setup or I/O failure.
inline constexpr int kExitSetupFailed = 2;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  std::string work_dir;  ///< scratch space for index files, removed at exit
  std::string out;       ///< where the raw JSON report goes
};

/// Prints `what` and exits with kExitGateFailed.
[[noreturn]] void GateFail(const std::string& what);

/// Prints `what: status` and exits with kExitSetupFailed unless `status` is
/// OK.
void CheckOk(const Status& status, const std::string& what);

template <typename T>
T CheckOk(Result<T> result, const std::string& what) {
  CheckOk(result.status(), what);
  return std::move(*result);
}

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// The process's cumulative I/O counters from /proc/self/io.
struct IoCounters {
  uint64_t wchar = 0;  ///< bytes passed to write-type syscalls
  uint64_t syscr = 0;  ///< read-type syscalls
};
IoCounters ReadIoCounters();
IoCounters operator-(const IoCounters& a, const IoCounters& b);

/// Read-type syscalls `fn` makes (syscr delta), less the ones reading
/// /proc/self/io itself takes.
template <typename F>
uint64_t ReadSyscallsOf(F&& fn) {
  const IoCounters calibrate = ReadIoCounters();
  const IoCounters before = ReadIoCounters();
  fn();
  const IoCounters after = ReadIoCounters();
  return (after - before).syscr - (before - calibrate).syscr;
}

/// Peak resident set size of the process so far (VmHWM), in MiB.
double PeakRssMb();

/// Total bytes of the regular files under `dir` (recursively).
uint64_t DirBytes(const std::string& dir);

/// Records spans from the load-generating thread: name, start, end and the
/// span open around it. Disabled tracers record nothing, so untraced runs
/// pay only a branch. Spans stay in memory until ToJson at exit.
class Tracer {
 public:
  explicit Tracer(bool enabled);

  bool enabled() const { return enabled_; }

  /// Opens a span under the innermost open one; returns its id, or -1 when
  /// disabled.
  int64_t Begin(const char* name);
  /// Closes span `id` (which must be the innermost open span); no-op for -1.
  void End(int64_t id);

  /// [[name, start_us, end_us, parent_id], ...] with parent -1 for roots.
  net::JsonValue ToJson() const;

 private:
  struct Record {
    const char* name;
    double start_us;
    double end_us;
    int64_t parent;
  };

  bool enabled_;
  Clock::time_point origin_;
  std::vector<Record> spans_;
  std::vector<int64_t> open_;
};

/// RAII span; the name must be a string literal.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, const char* name)
      : tracer_(tracer), id_(tracer.Begin(name)) {}
  ~ScopedSpan() { tracer_.End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer& tracer_;
  int64_t id_;
};

/// A JSON array of `values`.
net::JsonValue NumberArray(const std::vector<double>& values);

/// The raw report a workload fills in; written as one JSON object.
class Report {
 public:
  void Set(const std::string& key, net::JsonValue value) {
    root_.Set(key, std::move(value));
  }
  void SetNumber(const std::string& key, double value) {
    root_.Set(key, net::JsonValue::Number(value));
  }
  void SetNumbers(const std::string& key, const std::vector<double>& values) {
    root_.Set(key, NumberArray(values));
  }
  const net::JsonValue& root() const { return root_; }

 private:
  net::JsonValue root_ = net::JsonValue::Object();
};

/// Host and build facts printed with every result, so a baseline from a
/// different host is reported as such.
net::JsonValue HostInfo();

/// `n` tokens drawn from `zipf` (ranks used directly as token ids).
std::vector<Token> ZipfTokens(const ZipfSampler& zipf, Rng& rng, size_t n);

/// A copy of `source[begin, begin + length)` with each token replaced by a
/// Zipf draw with probability `noise`.
std::vector<Token> NoisyCopy(std::span<const Token> source, size_t begin,
                             size_t length, double noise,
                             const ZipfSampler& zipf, Rng& rng);

using SequenceKey = std::tuple<TextId, uint32_t, uint32_t>;

/// Every (text, begin, end) sequence of length >= t that `rectangles` hold.
std::set<SequenceKey> ExpandRectangles(
    const std::vector<TextMatchRectangle>& rectangles, uint32_t t);

/// The Definition-2 answer to `query` over `corpus`: BruteForceApproxSearch
/// run on every text that can hold a match. A sequence collides with the
/// query on function f only if it holds a token hashing to the query's f-th
/// min-hash, so a text holding such tokens for fewer than ⌈kθ⌉ functions
/// has no match and is skipped; the answer is unchanged.
std::set<SequenceKey> OracleSequences(const Corpus& corpus,
                                      const SketchScheme& scheme,
                                      std::span<const Token> query,
                                      double theta, uint32_t t);

/// The answer part of a /v1/search response body: everything before its
/// "stats" member (wall time and cache hits differ between calls), or an
/// empty string when the body has none.
std::string AnswerPrefix(const std::string& body);

/// AnswerPrefix of the body /v1/search sends for `result`, serialized
/// through the server's own SearchResultToJson.
std::string AnswerJson(const SearchResult& result);

/// Sums of the SearchStats of many queries (the query layer's counters).
struct QueryTotals {
  uint64_t queries = 0;
  double io_seconds = 0;
  double cpu_seconds = 0;
  uint64_t io_bytes = 0;
  uint64_t read_syscalls = 0;  ///< syscr delta around the queries
  uint64_t short_lists = 0;
  uint64_t long_lists = 0;
  uint64_t empty_lists = 0;
  uint64_t batch_cache_hits = 0;
  uint64_t shared_cache_hits = 0;
  uint64_t windows_scanned = 0;
  uint64_t candidate_texts = 0;

  void Add(const SearchStats& stats);
  /// The totals as a JSON object; the integer ones also go into `counts`.
  net::JsonValue ToJson(net::JsonValue* counts) const;
};

/// Times ComputeSketch over `queries`, one sketch.ComputeSketch span each,
/// and records the total as `sketch_s` and `sketch_count` in `layers`.
void TimeSketches(const SketchScheme& scheme,
                  const std::vector<std::vector<Token>>& queries,
                  Tracer& tracer, net::JsonValue* layers);

/// Index builds of the set-up repetitions: each Build runs
/// BuildIndexInMemory inside an index.BuildIndexInMemory span and adds its
/// wall time, phase times (IndexBuildStats) and written bytes (wchar) to the
/// current repetition.
class BuildLog {
 public:
  void StartRepetition();
  void Build(const Corpus& corpus, const std::string& dir,
             const IndexBuildOptions& options, Tracer& tracer);
  /// build_s[], build_generate_s[], build_sort_s[], build_io_s[] (one per
  /// repetition), build_tokens, and counts build_write_bytes (first
  /// repetition).
  void WriteTo(Report* report, net::JsonValue* counts) const;

 private:
  std::vector<double> seconds_;
  std::vector<double> generate_s_;
  std::vector<double> sort_s_;
  std::vector<double> io_s_;
  std::vector<uint64_t> tokens_;
  std::vector<uint64_t> write_bytes_;
};

}  // namespace perfbench
}  // namespace ndss

#endif  // NDSS_PERFBENCH_HARNESS_H_
