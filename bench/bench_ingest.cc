// Streaming-ingestion benchmark: sustained WAL-backed append throughput by
// batch size (each batch is one group commit + fsync), the spill pause a
// writer sees when its commit trips the memtable budget and seals a shard
// inline, and query latency while the background tiers are being compacted.
//
// Before any numbers are reported, the streamed index is verified
// bit-identical (spans and rectangles) against a batch build over the same
// documents — both before and after compaction. A mismatch exits 1, which
// is what the nightly CI step keys on.
//
// Usage: bench_ingest [--json] [--quick] [--out=PATH]
//   --json   also write the machine-readable report (default
//            BENCH_ingest.json; see README "Benchmark reports")
//   --quick  smaller corpus / fewer queries (CI-sized)
//   --out=   report path for --json

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "common/stopwatch.h"
#include "index/index_builder.h"
#include "ingest/ingester.h"
#include "query/searcher.h"
#include "shard/sharded_searcher.h"

namespace ndss {
namespace {

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const size_t index = std::min(
      values.size() - 1, static_cast<size_t>(p * values.size() / 100.0));
  return values[index];
}

bool SameMatches(const SearchResult& a, const SearchResult& b) {
  if (a.rectangles.size() != b.rectangles.size() ||
      a.spans.size() != b.spans.size()) {
    return false;
  }
  for (size_t i = 0; i < a.rectangles.size(); ++i) {
    if (a.rectangles[i].text != b.rectangles[i].text ||
        !(a.rectangles[i].rect == b.rectangles[i].rect)) {
      return false;
    }
  }
  for (size_t i = 0; i < a.spans.size(); ++i) {
    if (a.spans[i].text != b.spans[i].text ||
        a.spans[i].begin != b.spans[i].begin ||
        a.spans[i].end != b.spans[i].end ||
        a.spans[i].collisions != b.spans[i].collisions) {
      return false;
    }
  }
  return true;
}

/// Verifies the streamed index answers every query exactly like the batch
/// reference; exits 1 on the first divergence.
void GateEquivalence(ShardedSearcher& streamed, Searcher& reference,
                     const std::vector<std::vector<Token>>& queries,
                     const SearchOptions& options, const char* stage) {
  for (size_t q = 0; q < queries.size(); ++q) {
    auto expected = reference.Search(queries[q], options);
    auto actual = streamed.Search(queries[q], options);
    if (!expected.ok() || !actual.ok() ||
        !SameMatches(*expected, *actual)) {
      std::fprintf(stderr,
                   "FATAL: streamed index diverges from the batch build on "
                   "query %zu (%s)\n",
                   q, stage);
      std::exit(1);
    }
  }
}

struct IngestRun {
  uint64_t batch_docs = 0;
  double docs_per_sec = 0;
  double tokens_per_sec = 0;
  double append_p50_us = 0;
  double append_p99_us = 0;
  double spill_pause_p50_us = 0;
  double spill_pause_p99_us = 0;
  uint64_t spills = 0;
  // Where the append time went (IngestStats, cumulative over the run).
  double wal_seconds = 0;
  double publish_seconds = 0;
  double spill_seconds = 0;
};

struct CompactionRun {
  double idle_p50_us = 0;
  double idle_p99_us = 0;
  double during_p50_us = 0;
  double during_p99_us = 0;
  uint64_t compactions = 0;
  uint64_t shards_before = 0;
  uint64_t shards_after = 0;
};

int Run(int argc, char** argv) {
  bool json = false;
  bool quick = false;
  std::string out_path = "BENCH_ingest.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) {
      json = true;
    } else if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else if (std::strncmp(argv[i], "--out=", 6) == 0) {
      out_path = argv[i] + 6;
    } else {
      std::fprintf(stderr, "usage: %s [--json] [--quick] [--out=PATH]\n",
                   argv[0]);
      return 2;
    }
  }

  const uint32_t num_texts = bench::Scaled(quick ? 400 : 2000);
  const uint32_t vocab = 2000;
  const uint32_t num_queries = quick ? 40 : 150;
  const std::string dir = bench::ScratchDir("ingest");

  bench::PrintHeader(
      "Streaming ingestion: WAL group commit, spill pause, compaction",
      "every append is durable (fsync per batch) and immediately "
      "searchable; the streamed index is verified bit-identical to a batch "
      "build before and after compaction (divergence exits 1)");
  std::printf("corpus: %u texts, vocab %u, %u queries\n\n", num_texts, vocab,
              num_queries);

  SyntheticCorpus sc = bench::MakeBenchCorpus(num_texts, vocab, 4321);
  const auto queries =
      bench::MakeQueries(sc.corpus, num_queries, 48, 0.1, vocab, 7);
  SearchOptions options;
  options.theta = 0.6;

  IndexBuildOptions build;
  build.k = 8;
  build.t = 20;

  uint64_t total_tokens = 0;
  for (uint32_t i = 0; i < num_texts; ++i) {
    total_tokens += sc.corpus.text(i).size();
  }

  auto reference = Searcher::InMemory(sc.corpus, build);
  if (!reference.ok()) {
    std::fprintf(stderr, "reference build failed: %s\n",
                 reference.status().ToString().c_str());
    return 1;
  }

  // ---- sustained append throughput by batch size ----
  // The memtable spills roughly 8 times per run, so the batch latencies
  // include the inline spill pauses a real writer would see.
  std::printf("%-10s %12s %14s %12s %12s %14s %7s %8s %9s %8s\n", "batch",
              "docs/s", "tokens/s", "app p50 us", "app p99 us",
              "spill p99 us", "spills", "wal s", "publish s", "spill s");
  std::vector<IngestRun> runs;
  for (const uint32_t batch_docs : {1u, 16u, 64u}) {
    const std::string set_dir =
        dir + "/set_b" + std::to_string(batch_docs);
    if (!Ingester::CreateSet(set_dir, build).ok()) return 1;
    auto searcher = ShardedSearcher::Open(set_dir);
    if (!searcher.ok()) return 1;
    IngestOptions ingest_options;
    ingest_options.build = build;
    ingest_options.enable_compaction = false;
    ingest_options.memtable_max_docs = num_texts / 8;
    auto ingester = Ingester::Open(&*searcher, ingest_options);
    if (!ingester.ok()) {
      std::fprintf(stderr, "ingester open failed: %s\n",
                   ingester.status().ToString().c_str());
      return 1;
    }

    IngestRun run;
    run.batch_docs = batch_docs;
    std::vector<double> append_us;
    std::vector<double> spill_us;
    Stopwatch total;
    for (uint32_t i = 0; i < num_texts; i += batch_docs) {
      std::vector<std::vector<Token>> batch;
      for (uint32_t j = i; j < i + batch_docs && j < num_texts; ++j) {
        const auto text = sc.corpus.text(j);
        batch.emplace_back(text.begin(), text.end());
      }
      const uint64_t spills_before = (*ingester)->stats().spills;
      Stopwatch watch;
      if (!(*ingester)->AppendBatch(std::move(batch)).ok()) {
        std::fprintf(stderr, "append failed\n");
        return 1;
      }
      const double micros = watch.ElapsedMicros();
      append_us.push_back(micros);
      // A batch whose commit tripped the budget paid for the spill inline:
      // its latency IS the spill pause.
      if ((*ingester)->stats().spills > spills_before) {
        spill_us.push_back(micros);
      }
    }
    const double seconds = total.ElapsedSeconds();
    run.docs_per_sec = seconds > 0 ? num_texts / seconds : 0;
    run.tokens_per_sec =
        seconds > 0 ? static_cast<double>(total_tokens) / seconds : 0;
    run.append_p50_us = Percentile(append_us, 50);
    run.append_p99_us = Percentile(append_us, 99);
    run.spill_pause_p50_us = Percentile(spill_us, 50);
    run.spill_pause_p99_us = Percentile(spill_us, 99);
    const IngestStats stats = (*ingester)->stats();
    run.spills = stats.spills;
    run.wal_seconds = stats.wal_seconds;
    run.publish_seconds = stats.publish_seconds;
    run.spill_seconds = stats.spill_seconds;

    GateEquivalence(*searcher, *reference, queries, options, "post-ingest");
    if (!(*ingester)->Close().ok()) return 1;
    runs.push_back(run);
    std::printf(
        "%-10llu %12.0f %14.0f %12.1f %12.1f %14.1f %7llu %8.3f %9.3f "
        "%8.3f\n",
        static_cast<unsigned long long>(run.batch_docs), run.docs_per_sec,
        run.tokens_per_sec, run.append_p50_us, run.append_p99_us,
        run.spill_pause_p99_us, static_cast<unsigned long long>(run.spills),
        run.wal_seconds, run.publish_seconds, run.spill_seconds);
  }

  // ---- query latency while the tiers compact ----
  // The last run left ~8 sealed shards plus a memtable tail; fold them with
  // the compactor while a query loop measures interference.
  CompactionRun compaction;
  {
    const std::string set_dir = dir + "/set_b64";
    auto searcher = ShardedSearcher::Open(set_dir);
    if (!searcher.ok()) return 1;
    IngestOptions ingest_options;
    ingest_options.build = build;
    ingest_options.enable_compaction = false;  // driven manually below
    auto ingester = Ingester::Open(&*searcher, ingest_options);
    if (!ingester.ok()) return 1;
    compaction.shards_before = searcher->shards().size();

    auto time_queries = [&](std::vector<double>* micros_out) {
      for (const auto& query : queries) {
        Stopwatch watch;
        auto result = searcher->Search(query, options);
        if (!result.ok()) {
          std::fprintf(stderr, "query failed: %s\n",
                       result.status().ToString().c_str());
          std::exit(1);
        }
        micros_out->push_back(watch.ElapsedMicros());
      }
    };

    std::vector<double> idle_us;
    time_queries(&idle_us);
    time_queries(&idle_us);
    compaction.idle_p50_us = Percentile(idle_us, 50);
    compaction.idle_p99_us = Percentile(idle_us, 99);

    std::atomic<bool> compacting{true};
    std::thread compactor([&] {
      bool did = true;
      while (did) {
        if (!(*ingester)->CompactOnce(&did).ok()) break;
      }
      compacting.store(false, std::memory_order_release);
    });
    std::vector<double> during_us;
    while (compacting.load(std::memory_order_acquire)) {
      time_queries(&during_us);
    }
    compactor.join();
    compaction.during_p50_us = Percentile(during_us, 50);
    compaction.during_p99_us = Percentile(during_us, 99);
    compaction.compactions = (*ingester)->stats().compactions;
    compaction.shards_after = searcher->shards().size();

    GateEquivalence(*searcher, *reference, queries, options,
                    "post-compaction");
    if (!(*ingester)->Close().ok()) return 1;
  }
  std::printf(
      "\nquery latency: idle p50/p99 %.1f/%.1f us, during compaction "
      "p50/p99 %.1f/%.1f us (%llu compactions, %llu -> %llu shards)\n",
      compaction.idle_p50_us, compaction.idle_p99_us,
      compaction.during_p50_us, compaction.during_p99_us,
      static_cast<unsigned long long>(compaction.compactions),
      static_cast<unsigned long long>(compaction.shards_before),
      static_cast<unsigned long long>(compaction.shards_after));
  std::printf("equivalence: streamed == batch build before and after "
              "compaction\n");

  if (json) {
    bench::JsonWriter writer;
    writer.BeginObject();
    writer.Field("bench", std::string("ingest"));
    writer.Field("quick", quick);
    writer.Field("scale", bench::ScaleFactor());
    writer.Field("num_texts", static_cast<uint64_t>(num_texts));
    writer.Field("total_tokens", total_tokens);
    writer.Field("num_queries", static_cast<uint64_t>(num_queries));
    writer.Field("equivalence_verified", true);
    writer.BeginArray("runs");
    for (const IngestRun& r : runs) {
      writer.BeginObject();
      writer.Field("batch_docs", r.batch_docs);
      writer.Field("docs_per_sec", r.docs_per_sec);
      writer.Field("tokens_per_sec", r.tokens_per_sec);
      writer.Field("append_p50_us", r.append_p50_us);
      writer.Field("append_p99_us", r.append_p99_us);
      writer.Field("spill_pause_p50_us", r.spill_pause_p50_us);
      writer.Field("spill_pause_p99_us", r.spill_pause_p99_us);
      writer.Field("spills", r.spills);
      writer.Field("wal_seconds", r.wal_seconds);
      writer.Field("publish_seconds", r.publish_seconds);
      writer.Field("spill_seconds", r.spill_seconds);
      writer.EndObject();
    }
    writer.EndArray();
    writer.BeginObject("compaction");
    writer.Field("query_idle_p50_us", compaction.idle_p50_us);
    writer.Field("query_idle_p99_us", compaction.idle_p99_us);
    writer.Field("query_during_p50_us", compaction.during_p50_us);
    writer.Field("query_during_p99_us", compaction.during_p99_us);
    writer.Field("compactions", compaction.compactions);
    writer.Field("shards_before", compaction.shards_before);
    writer.Field("shards_after", compaction.shards_after);
    writer.EndObject();
    writer.EndObject();
    std::FILE* f = std::fopen(out_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
      return 1;
    }
    std::fwrite(writer.str().data(), 1, writer.str().size(), f);
    std::fclose(f);
    std::printf("wrote %s\n", out_path.c_str());
  }
  return 0;
}

}  // namespace
}  // namespace ndss

int main(int argc, char** argv) { return ndss::Run(argc, argv); }
