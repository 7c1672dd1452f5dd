// memo_eval: the Figure 4 path. One on-disk index over a Zipfian corpus,
// then EvaluateMemorization (x = 64, θ = 0.8) over generated texts of which
// about 17% of the windows are noisy copies of corpus spans. Index build,
// sketching, list read/decode and CollisionCount do nearly all the work; the
// cross-query list cache, shards, the network and ingestion do none.

#include <filesystem>
#include <optional>

#include "corpusgen/synthetic.h"
#include "eval/memorization_eval.h"
#include "index/index_builder.h"
#include "workloads.h"

namespace ndss {
namespace perfbench {
namespace {

constexpr uint32_t kK = 32;
constexpr uint32_t kT = 25;
constexpr uint32_t kWidth = 64;
constexpr double kTheta = 0.8;
constexpr uint32_t kVocab = 16000;
constexpr uint32_t kCorpusTexts = 4000;
constexpr uint32_t kJobs = 12;  // EvaluateMemorization calls per pass
constexpr uint32_t kTextsPerJob = 64;
constexpr uint32_t kWindowsPerText = 8;  // 512-token generated texts
constexpr double kCopyShare = 0.17;
constexpr double kCopyNoise = 0.03;
constexpr double kJobsPerSecond = 2.4;
constexpr uint32_t kOracleWindowsPerKind = 24;
static_assert(kJobs * kTextsPerJob * kWindowsPerText % 37 != 0,
              "the oracle gate's stride must be coprime to the window count");
constexpr int kSetupRepetitions = 3;

struct Inputs {
  Corpus corpus;
  std::vector<std::vector<std::vector<Token>>> jobs;  ///< texts per job
  std::vector<std::vector<Token>> windows;  ///< every window, in job order
  std::vector<bool> copied;                 ///< per window
};

Inputs MakeInputs(uint64_t seed) {
  SyntheticCorpusOptions options;
  options.num_texts = kCorpusTexts;
  options.min_text_length = 200;
  options.max_text_length = 600;
  options.vocab_size = kVocab;
  options.plant_rate = 0.0;
  options.seed = seed;
  Inputs in;
  in.corpus = GenerateSyntheticCorpus(options).corpus;

  const ZipfSampler zipf(kVocab, 1.0);
  Rng rng(seed ^ 0x6d656d6fULL);
  in.jobs.resize(kJobs);
  for (auto& job : in.jobs) {
    for (uint32_t t = 0; t < kTextsPerJob; ++t) {
      std::vector<Token> text;
      for (uint32_t w = 0; w < kWindowsPerText; ++w) {
        std::vector<Token> window;
        const bool copied = rng.NextBool(kCopyShare);
        if (copied) {
          const auto source =
              in.corpus.text(rng.Uniform(in.corpus.num_texts()));
          window = NoisyCopy(source, rng.Uniform(source.size() - kWidth + 1),
                             kWidth, kCopyNoise, zipf, rng);
        } else {
          window = ZipfTokens(zipf, rng, kWidth);
        }
        text.insert(text.end(), window.begin(), window.end());
        in.windows.push_back(std::move(window));
        in.copied.push_back(copied);
      }
      job.push_back(std::move(text));
    }
  }
  return in;
}

std::vector<std::vector<Token>> JobWindows(const Inputs& in, uint32_t job) {
  const size_t per_job = kTextsPerJob * kWindowsPerText;
  return {in.windows.begin() + job * per_job,
          in.windows.begin() + (job + 1) * per_job};
}

/// Every sampled window's answer must equal the Definition-2 oracle, and
/// EvaluateMemorization's memorized count must equal per-window Search.
void RunGates(const Inputs& in, Searcher& searcher, const SketchScheme& scheme,
              const MemorizationEvalOptions& eval) {
  uint32_t checked[2] = {0, 0};
  // A stride coprime to the window count visits every window once, spread
  // over all jobs, until each kind has its sample.
  const size_t n = in.windows.size();
  for (size_t i = 0, w = 0; i < n; ++i, w = (w + 37) % n) {
    uint32_t& kind = checked[in.copied[w] ? 1 : 0];
    if (kind == kOracleWindowsPerKind) continue;
    ++kind;
    const SearchResult result =
        CheckOk(searcher.Search(in.windows[w], eval.search), "search");
    if (ExpandRectangles(result.rectangles, kT) !=
        OracleSequences(in.corpus, scheme, in.windows[w], kTheta, kT)) {
      GateFail("memo_eval: window " + std::to_string(w) +
               " differs from BruteForceApproxSearch");
    }
  }
  if (checked[0] + checked[1] != 2 * kOracleWindowsPerKind) {
    GateFail("memo_eval: too few windows of each kind for the oracle gate");
  }

  const MemorizationReport report = CheckOk(
      EvaluateMemorization(searcher, in.jobs[0], eval), "evaluate");
  uint64_t memorized = 0;
  for (const auto& window : JobWindows(in, 0)) {
    const SearchResult result =
        CheckOk(searcher.Search(window, eval.search), "search");
    if (!result.rectangles.empty()) ++memorized;
  }
  if (report.memorized != memorized) {
    GateFail("memo_eval: EvaluateMemorization counted " +
             std::to_string(report.memorized) + " memorized windows, " +
             "per-window Search " + std::to_string(memorized));
  }
  std::printf("gates: %u oracle windows, %lu/%lu memorized in job 0\n",
              checked[0] + checked[1], static_cast<unsigned long>(memorized),
              static_cast<unsigned long>(report.windows));
}

}  // namespace

void RunMemoEval(const Args& args, Tracer& tracer, Report* report) {
  const Inputs in = MakeInputs(args.seed);
  net::JsonValue counts = net::JsonValue::Object();

  IndexBuildOptions build;
  build.k = kK;
  build.t = kT;
  const std::string dir = args.work_dir + "/index";
  BuildLog builds;
  std::vector<double> setup_s;
  std::optional<Searcher> searcher;
  for (int rep = 0; rep < kSetupRepetitions; ++rep) {
    searcher.reset();
    std::filesystem::remove_all(dir);
    builds.StartRepetition();
    const Clock::time_point start = Clock::now();
    builds.Build(in.corpus, dir, build, tracer);
    searcher.emplace(CheckOk(Searcher::Open(dir), "open index"));
    setup_s.push_back(SecondsSince(start));
  }

  MemorizationEvalOptions eval;
  eval.window_width = kWidth;
  eval.search.theta = kTheta;
  const SketchScheme scheme(build.sketch, build.k, build.seed);
  RunGates(in, *searcher, scheme, eval);

  // Warm-up pass; its per-job counts are what every timed call must match.
  std::vector<uint64_t> expected(kJobs);
  uint64_t memorized = 0;
  for (uint32_t job = 0; job < kJobs; ++job) {
    expected[job] = CheckOk(EvaluateMemorization(*searcher, in.jobs[job], eval),
                            "evaluate")
                        .memorized;
    memorized += expected[job];
  }

  // At least two passes, so query_p50_ms has its 20 samples.
  const uint32_t calls = std::max<uint32_t>(
      2 * kJobs, static_cast<uint32_t>(args.seconds * kJobsPerSecond));
  std::vector<double> chunk_ops, chunk_s, query_ms;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  for (uint32_t call = 0; call < calls; ++call) {
    const uint32_t job = call % kJobs;
    const Clock::time_point start = Clock::now();
    Result<MemorizationReport> result = [&] {
      ScopedSpan span(tracer, "eval.EvaluateMemorization");
      return EvaluateMemorization(*searcher, in.jobs[job], eval);
    }();
    const double seconds = SecondsSince(start);
    const uint64_t windows = kTextsPerJob * kWindowsPerText;
    attempted += windows;
    if (!result.ok() || result->memorized != expected[job]) failed += windows;
    chunk_ops.push_back(static_cast<double>(windows));
    chunk_s.push_back(seconds);
    query_ms.push_back(seconds * 1e3);
  }

  if (tracer.enabled()) {
    // Layer passes. Each job runs once through EvaluateMemorization and once
    // through the SearchBatch it wraps: the difference is eval's own time,
    // and the batch's per-query SearchStats are the query layer's counters.
    QueryTotals totals;
    double eval_self_s = 0;
    for (uint32_t job = 0; job < kJobs; ++job) {
      const std::vector<std::vector<Token>> windows = JobWindows(in, job);
      Clock::time_point start = Clock::now();
      {
        ScopedSpan span(tracer, "eval.EvaluateMemorization");
        CheckOk(EvaluateMemorization(*searcher, in.jobs[job], eval),
                "evaluate");
      }
      eval_self_s += SecondsSince(start);
      std::vector<SearchResult> results;
      totals.read_syscalls += ReadSyscallsOf([&] {
        const Clock::time_point begin = Clock::now();
        ScopedSpan span(tracer, "query.SearchBatch");
        results = CheckOk(searcher->SearchBatch(windows, eval.search),
                          "search batch");
        eval_self_s -= SecondsSince(begin);
      });
      for (const SearchResult& result : results) totals.Add(result.stats);
    }

    net::JsonValue layers = net::JsonValue::Object();
    layers.Set("query", totals.ToJson(&counts));
    layers.Set("eval_self_s", net::JsonValue::Number(eval_self_s));
    layers.Set("eval_windows", net::JsonValue::Number(totals.queries));
    TimeSketches(scheme, in.windows, tracer, &layers);
    report->Set("layers", std::move(layers));
  }

  counts.Set("memorized", net::JsonValue::Number(memorized));
  counts.Set("windows",
             net::JsonValue::Number(static_cast<uint64_t>(in.windows.size())));
  const uint64_t index_bytes = DirBytes(dir);
  counts.Set("index_bytes", net::JsonValue::Number(index_bytes));
  builds.WriteTo(report, &counts);
  report->SetNumbers("setup_s", setup_s);
  report->SetNumbers("chunk_ops", chunk_ops);
  report->SetNumbers("chunk_s", chunk_s);
  report->SetNumbers("query_ms", query_ms);
  report->SetNumber("attempted", static_cast<double>(attempted));
  report->SetNumber("failed", static_cast<double>(failed));
  report->SetNumber("refused", 0);
  report->SetNumber("index_bytes", static_cast<double>(index_bytes));
  report->SetNumber("indexed_tokens",
                    static_cast<double>(in.corpus.total_tokens()));
  report->Set("counts", std::move(counts));
  std::printf("memo_eval: %lu of %lu windows memorized per pass\n",
              static_cast<unsigned long>(memorized),
              static_cast<unsigned long>(in.windows.size()));
}

}  // namespace perfbench
}  // namespace ndss
