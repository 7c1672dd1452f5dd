// ingest_mix: the write path beside the read path. A served set holds a base
// shard built at set-up (too large to be a compaction candidate); documents
// stream in through AppendBatch groups of 16, each one fsync'd group commit.
// The memtable seals every 128 documents, CompactOnce runs synchronously
// after every fourth spill (the background compactor is off, so the spill
// and compaction counts repeat exactly), and after each batch four
// read-your-writes queries must find the documents just acknowledged. Index
// build (spills), the merger (compaction) and shard scatter over many small
// shards plus the delta do the work here.

#include <filesystem>
#include <memory>
#include <optional>

#include "corpusgen/synthetic.h"
#include "index/index_builder.h"
#include "ingest/ingester.h"
#include "shard/shard_manifest.h"
#include "shard/sharded_searcher.h"
#include "workloads.h"

namespace ndss {
namespace perfbench {
namespace {

constexpr uint32_t kK = 16;
constexpr uint32_t kT = 25;
constexpr double kTheta = 0.8;
constexpr uint32_t kVocab = 16000;
constexpr uint32_t kBaseTexts = 3000;
constexpr uint64_t kSmallTexts = 1000;  // the base shard is never compacted
constexpr uint32_t kBatchDocs = 16;
constexpr uint32_t kMemtableDocs = 128;
constexpr uint32_t kSpillsPerCompaction = 4;
// One cycle: 4 spills of 8 batches each, then one compaction.
constexpr uint32_t kCycleBatches =
    kSpillsPerCompaction * kMemtableDocs / kBatchDocs;
constexpr double kCyclesPerSecond = 0.8;
constexpr uint32_t kWarmupCycles = 2;
constexpr uint32_t kFreshPerBatch = 4;
constexpr uint32_t kFreshLength = 48;
constexpr double kDocCopyShare = 0.3;
constexpr double kDocCopyNoise = 0.05;
constexpr uint32_t kVerifyEveryBatches = 8;
constexpr uint32_t kBaseChecks = 32;
constexpr int kSetupRepetitions = 3;

struct FreshQuery {
  std::vector<Token> tokens;
  TextId text;  ///< global id of the document it was cut from
};

struct Inputs {
  Corpus base;
  std::vector<std::vector<Token>> docs;
  std::vector<std::vector<FreshQuery>> fresh;  ///< per batch
  std::vector<std::vector<Token>> base_queries;
};

Inputs MakeInputs(uint64_t seed, uint32_t batches) {
  SyntheticCorpusOptions options;
  options.num_texts = kBaseTexts;
  options.min_text_length = 200;
  options.max_text_length = 600;
  options.vocab_size = kVocab;
  options.plant_rate = 0.0;
  options.seed = seed;
  Inputs in;
  in.base = GenerateSyntheticCorpus(options).corpus;

  const ZipfSampler zipf(kVocab, 1.0);
  Rng rng(seed ^ 0x696e6773ULL);
  for (uint32_t b = 0; b < batches; ++b) {
    std::vector<FreshQuery> fresh;
    for (uint32_t d = 0; d < kBatchDocs; ++d) {
      const size_t length = 100 + rng.Uniform(201);
      std::vector<Token> doc;
      if (rng.NextBool(kDocCopyShare)) {
        const auto source = in.base.text(rng.Uniform(kBaseTexts));
        const size_t copy = std::min(length, source.size());
        doc = NoisyCopy(source, rng.Uniform(source.size() - copy + 1), copy,
                        kDocCopyNoise, zipf, rng);
      } else {
        doc = ZipfTokens(zipf, rng, length);
      }
      if (d % (kBatchDocs / kFreshPerBatch) == 0) {
        const size_t begin = rng.Uniform(doc.size() - kFreshLength + 1);
        fresh.push_back(FreshQuery{
            {doc.begin() + begin, doc.begin() + begin + kFreshLength},
            static_cast<TextId>(kBaseTexts + in.docs.size())});
      }
      in.docs.push_back(std::move(doc));
    }
    in.fresh.push_back(std::move(fresh));
  }
  for (uint32_t q = 0; q < kBaseChecks; ++q) {
    const auto source = in.base.text(rng.Uniform(kBaseTexts));
    const size_t begin = rng.Uniform(source.size() - kFreshLength + 1);
    in.base_queries.emplace_back(source.begin() + begin,
                                 source.begin() + begin + kFreshLength);
  }
  return in;
}

IndexBuildOptions BuildOptions() {
  IndexBuildOptions build;
  build.k = kK;
  build.t = kT;
  return build;
}

/// One served set; the ingester goes before the searcher it writes to.
struct Serving {
  std::optional<ShardedSearcher> searcher;
  std::unique_ptr<Ingester> ingester;
};

std::unique_ptr<Serving> SetUp(const Inputs& in, const std::string& set_dir,
                               BuildLog& builds, Tracer& tracer) {
  builds.Build(in.base, set_dir + "/base", BuildOptions(), tracer);
  ShardManifest manifest;
  manifest.epoch = 1;
  manifest.shard_dirs = {"base"};
  CheckOk(manifest.Save(set_dir), "save manifest");

  auto serving = std::make_unique<Serving>();
  ShardedSearcherOptions searcher_options;
  searcher_options.num_threads = 1;
  serving->searcher.emplace(
      CheckOk(ShardedSearcher::Open(set_dir, searcher_options), "open set"));
  IngestOptions options;
  options.build = BuildOptions();
  options.memtable_budget_bytes = ~0ull;
  options.memtable_max_docs = kMemtableDocs;
  options.compaction_fanin = kSpillsPerCompaction;
  options.compaction_small_texts = kSmallTexts;
  options.enable_compaction = false;
  serving->ingester =
      CheckOk(Ingester::Open(&*serving->searcher, options), "open ingester");
  return serving;
}

struct StreamLog {
  std::vector<double> chunk_ops, chunk_s, query_ms;
  std::vector<double> append_ms, spill_append_ms, shard_wall_ms;
  double compact_s = 0;
  double shards_at_query = 0;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t user_bytes = 0;
  QueryTotals fresh;
};

/// Streams batches [0, batches) of `in` into `serving`: appends, the
/// synchronous compactions, and the fresh queries after every batch.
void Stream(Serving& serving, const Inputs& in, uint32_t batches,
            Tracer& tracer, StreamLog* log) {
  ShardedSearcher& searcher = *serving.searcher;
  Ingester& ingester = *serving.ingester;
  SearchOptions options;
  options.theta = kTheta;
  double chunk_s = 0;
  for (uint32_t b = 0; b < batches; ++b) {
    const std::vector<std::vector<Token>> batch(
        in.docs.begin() + b * kBatchDocs,
        in.docs.begin() + (b + 1) * kBatchDocs);
    for (const auto& doc : batch) log->user_bytes += doc.size() * sizeof(Token);
    const uint64_t spills_before = ingester.stats().spills;
    Clock::time_point start = Clock::now();
    Status appended = [&] {
      ScopedSpan span(tracer, "ingest.AppendBatch");
      return ingester.AppendBatch(batch);
    }();
    double seconds = SecondsSince(start);
    chunk_s += seconds;
    log->attempted += kBatchDocs;
    if (!appended.ok()) log->failed += kBatchDocs;
    log->append_ms.push_back(seconds * 1e3);
    const uint64_t spills = ingester.stats().spills;
    if (spills > spills_before) {
      log->spill_append_ms.push_back(seconds * 1e3);
      if (spills % kSpillsPerCompaction == 0) {
        start = Clock::now();
        bool compacted = false;
        Status status = [&] {
          ScopedSpan span(tracer, "ingest.CompactOnce");
          return ingester.CompactOnce(&compacted);
        }();
        seconds = SecondsSince(start);
        chunk_s += seconds;
        log->compact_s += seconds;
        ++log->attempted;
        if (!status.ok() || !compacted) ++log->failed;
      }
    }

    for (const FreshQuery& query : in.fresh[b]) {
      if (tracer.enabled()) {
        log->shards_at_query += static_cast<double>(
            searcher.shards().size() + (searcher.delta_texts() > 0 ? 1 : 0));
      }
      std::optional<Result<SearchResult>> result;
      auto search = [&] {
        const Clock::time_point begin = Clock::now();
        ScopedSpan span(tracer, "shard.ShardedSearcher.Search");
        result.emplace(searcher.Search(query.tokens, options));
        log->query_ms.push_back(SecondsSince(begin) * 1e3);
      };
      if (tracer.enabled()) {
        log->fresh.read_syscalls += ReadSyscallsOf(search);
      } else {
        search();
      }
      ++log->attempted;
      bool found = false;
      if (result->ok()) {
        for (const MatchSpan& span : (*result)->spans) {
          found = found || span.text == query.text;
        }
        log->fresh.Add((*result)->stats);
        log->shard_wall_ms.push_back((*result)->stats.wall_seconds * 1e3);
      }
      if (!found) ++log->failed;
    }

    if ((b + 1) % kCycleBatches == 0) {
      log->chunk_ops.push_back(kCycleBatches * kBatchDocs);
      log->chunk_s.push_back(chunk_s);
      chunk_s = 0;
    }
  }
}

/// True when the streamed set answers a sample of fresh and base queries
/// exactly like Searcher::InMemory over the base plus the documents of the
/// first `batches` batches.
bool MatchesBatchBuild(ShardedSearcher& searcher, const Inputs& in,
                       uint32_t batches) {
  Corpus all;
  for (size_t i = 0; i < in.base.num_texts(); ++i) all.AddText(in.base.text(i));
  for (uint32_t d = 0; d < batches * kBatchDocs; ++d) all.AddText(in.docs[d]);
  Searcher reference =
      CheckOk(Searcher::InMemory(all, BuildOptions()), "reference build");
  SearchOptions options;
  options.theta = kTheta;
  std::vector<const std::vector<Token>*> queries;
  for (uint32_t b = 0; b < batches; b += kVerifyEveryBatches) {
    for (const FreshQuery& query : in.fresh[b]) queries.push_back(&query.tokens);
  }
  for (const auto& query : in.base_queries) queries.push_back(&query);
  for (const std::vector<Token>* query : queries) {
    Result<SearchResult> expected = reference.Search(*query, options);
    Result<SearchResult> actual = searcher.Search(*query, options);
    if (!expected.ok() || !actual.ok() ||
        AnswerJson(*expected) != AnswerJson(*actual)) {
      return false;
    }
  }
  return true;
}

}  // namespace

void RunIngestMix(const Args& args, Tracer& tracer, Report* report) {
  const uint32_t cycles = std::max<uint32_t>(
      1, static_cast<uint32_t>(args.seconds * kCyclesPerSecond + 0.5));
  const uint32_t batches = std::max(cycles, kWarmupCycles) * kCycleBatches;
  const Inputs in = MakeInputs(args.seed, batches);
  net::JsonValue counts = net::JsonValue::Object();

  BuildLog builds;
  std::vector<double> setup_s;
  std::vector<std::unique_ptr<Serving>> sets;
  for (int rep = 0; rep < kSetupRepetitions; ++rep) {
    const std::string set_dir = args.work_dir + "/set" + std::to_string(rep);
    builds.StartRepetition();
    const Clock::time_point start = Clock::now();
    sets.push_back(SetUp(in, set_dir, builds, tracer));
    setup_s.push_back(SecondsSince(start));
  }

  // Warm-up stream into the first set, then the gate: the streamed set
  // (sealed shards, a compaction, the live delta) must answer like a batch
  // build over the same documents.
  {
    StreamLog warmup;
    const uint32_t warm_batches = kWarmupCycles * kCycleBatches;
    Tracer off(false);
    Stream(*sets[0], in, warm_batches, off, &warmup);
    const IngestStats stats = sets[0]->ingester->stats();
    if (warmup.failed > 0 || stats.compactions == 0) {
      GateFail("ingest_mix: warm-up stream failed " +
               std::to_string(warmup.failed) + " operations, " +
               std::to_string(stats.compactions) + " compactions");
    }
    if (!MatchesBatchBuild(*sets[0]->searcher, in, warm_batches)) {
      GateFail("ingest_mix: streamed set differs from Searcher::InMemory");
    }
    std::printf("gates: warm-up stream of %u docs matches the batch build\n",
                warm_batches * kBatchDocs);
  }
  sets.erase(sets.begin(), sets.end() - 1);
  Serving& serving = *sets.back();

  StreamLog log;
  const IoCounters before = ReadIoCounters();
  Stream(serving, in, cycles * kCycleBatches, tracer, &log);
  const IoCounters io = ReadIoCounters() - before;
  const bool matches =
      MatchesBatchBuild(*serving.searcher, in, cycles * kCycleBatches);
  CheckOk(serving.ingester->Flush(), "flush");
  const IngestStats stats = serving.ingester->stats();

  uint64_t index_bytes = 0;
  for (const ShardInfo& shard : serving.searcher->shards()) {
    index_bytes += DirBytes(shard.dir);
  }
  uint64_t tokens = in.base.total_tokens();
  for (uint32_t d = 0; d < cycles * kCycleBatches * kBatchDocs; ++d) {
    tokens += in.docs[d].size();
  }

  counts.Set("ingest.docs_appended", net::JsonValue::Number(stats.docs_appended));
  counts.Set("ingest.spills", net::JsonValue::Number(stats.spills));
  counts.Set("ingest.compactions", net::JsonValue::Number(stats.compactions));
  counts.Set("ingest.stream_write_bytes", net::JsonValue::Number(io.wchar));
  counts.Set("ingest.stream_read_syscalls", net::JsonValue::Number(io.syscr));
  counts.Set("index_bytes", net::JsonValue::Number(index_bytes));

  if (tracer.enabled()) {
    net::JsonValue layers = net::JsonValue::Object();
    layers.Set("query", log.fresh.ToJson(&counts));
    layers.Set("shard_wall_ms", NumberArray(log.shard_wall_ms));
    layers.Set("shards_at_query_mean",
               net::JsonValue::Number(log.shards_at_query /
                                      static_cast<double>(log.query_ms.size())));
    net::JsonValue ingest = net::JsonValue::Object();
    ingest.Set("append_batch_ms", NumberArray(log.append_ms));
    ingest.Set("spill_batch_ms", NumberArray(log.spill_append_ms));
    ingest.Set("compact_s_total", net::JsonValue::Number(log.compact_s));
    ingest.Set("write_bytes_per_doc_byte",
               net::JsonValue::Number(static_cast<double>(io.wchar) /
                                      static_cast<double>(log.user_bytes)));
    ingest.Set("spills", net::JsonValue::Number(stats.spills));
    ingest.Set("compactions", net::JsonValue::Number(stats.compactions));
    layers.Set("ingest", std::move(ingest));

    const IndexMeta meta = serving.searcher->meta();
    std::vector<std::vector<Token>> fresh_tokens;
    for (const auto& fresh : in.fresh) {
      for (const FreshQuery& query : fresh) fresh_tokens.push_back(query.tokens);
    }
    TimeSketches(SketchScheme(meta.sketch, meta.k, meta.seed), fresh_tokens,
                 tracer, &layers);
    report->Set("layers", std::move(layers));
  }

  builds.WriteTo(report, &counts);
  report->SetNumbers("setup_s", setup_s);
  report->SetNumbers("chunk_ops", log.chunk_ops);
  report->SetNumbers("chunk_s", log.chunk_s);
  report->SetNumbers("query_ms", log.query_ms);
  report->SetNumber("attempted", static_cast<double>(log.attempted));
  report->SetNumber("failed", static_cast<double>(log.failed));
  report->SetNumber("refused", 0);
  report->Set("verified", net::JsonValue::Bool(matches));
  report->SetNumber("index_bytes", static_cast<double>(index_bytes));
  report->SetNumber("indexed_tokens", static_cast<double>(tokens));
  report->Set("counts", std::move(counts));
  std::printf("ingest_mix: %lu docs, %lu spills, %lu compactions%s\n",
              static_cast<unsigned long>(stats.docs_appended),
              static_cast<unsigned long>(stats.spills),
              static_cast<unsigned long>(stats.compactions),
              matches ? "" : ", ANSWERS DIFFER FROM THE BATCH BUILD");
}

}  // namespace perfbench
}  // namespace ndss
