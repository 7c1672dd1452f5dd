// ndss_ingest: the streaming write-path CLI.
//
// Bootstrap an empty streamable shard set:
//   ndss_ingest --create --set=DIR [--k=32] [--t=25] [--seed=S]
//
// Append a corpus file through the WAL-backed pipeline (durable per batch,
// spilling sealed shards as the memtable budget trips):
//   ndss_ingest --set=DIR --corpus=FILE [--batch-docs=64] [--memtable-mb=8]
//               [--no-compaction] [--flush] [--quiet]
//
// --flush seals the remaining memtable into a shard before exit; without it
// the tail stays in the WAL and is replayed by the next opener. Every
// acknowledged batch is durable: killing this tool at any point loses at
// most the batch in flight.

#include <cstdio>

#include "ingest/ingester.h"
#include "shard/sharded_searcher.h"
#include "text/corpus_file.h"
#include "tool_flags.h"

int main(int argc, char** argv) {
  ndss::tools::Flags flags(argc, argv);
  const std::string set_dir = flags.GetString("set", "");
  if (set_dir.empty()) {
    ndss::tools::Die(
        "usage: ndss_ingest --create --set=DIR [--k=32] [--t=25] [--seed=S] "
        "[--sketch=kindependent|cminhash]\n"
        "       ndss_ingest --set=DIR --corpus=FILE [--batch-docs=64] "
        "[--memtable-mb=8] [--no-compaction] [--flush] [--quiet]");
  }
  const bool quiet = flags.GetBool("quiet", false);

  if (flags.GetBool("create", false)) {
    ndss::IndexBuildOptions build;
    build.k = static_cast<uint32_t>(flags.GetInt("k", 32));
    build.t = static_cast<uint32_t>(flags.GetInt("t", 25));
    build.seed = static_cast<uint64_t>(
        flags.GetInt("seed", 0x5eed5eed5eed5eedLL));
    ndss::Result<ndss::SketchSchemeId> sketch = ndss::ParseSketchSchemeName(
        flags.GetString("sketch", "kindependent"));
    if (!sketch.ok()) ndss::tools::Die(sketch.status().ToString());
    build.sketch = *sketch;
    const ndss::Status created = ndss::Ingester::CreateSet(set_dir, build);
    if (!created.ok()) ndss::tools::Die(created.ToString());
    if (!quiet) {
      std::printf(
          "ndss_ingest: created streamable set %s (k=%u t=%u sketch=%s)\n",
          set_dir.c_str(), build.k, build.t,
          ndss::SketchSchemeName(build.sketch));
    }
    return 0;
  }

  const std::string corpus_path = flags.GetString("corpus", "");
  if (corpus_path.empty()) {
    ndss::tools::Die("ndss_ingest: need --create or --corpus=FILE");
  }
  auto corpus = ndss::ReadCorpusFile(corpus_path);
  if (!corpus.ok()) ndss::tools::Die(corpus.status().ToString());

  auto searcher = ndss::ShardedSearcher::Open(set_dir);
  if (!searcher.ok()) ndss::tools::Die(searcher.status().ToString());
  const ndss::IndexMeta meta = searcher->meta();

  ndss::IngestOptions options;
  options.build.k = meta.k;
  options.build.seed = meta.seed;
  options.build.t = meta.t;
  options.build.sketch = meta.sketch;
  options.memtable_budget_bytes =
      static_cast<uint64_t>(flags.GetDouble("memtable-mb", 8) * (1 << 20));
  options.enable_compaction = !flags.GetBool("no-compaction", false);
  auto opened = ndss::Ingester::Open(&*searcher, options);
  if (!opened.ok()) ndss::tools::Die(opened.status().ToString());
  ndss::Ingester& ingester = **opened;

  const size_t batch_docs = static_cast<size_t>(
      std::max<int64_t>(1, flags.GetInt("batch-docs", 64)));
  std::vector<std::vector<ndss::Token>> batch;
  uint64_t appended = 0;
  for (size_t i = 0; i < corpus->num_texts(); ++i) {
    std::span<const ndss::Token> text = corpus->text(i);
    batch.emplace_back(text.begin(), text.end());
    if (batch.size() == batch_docs || i + 1 == corpus->num_texts()) {
      const ndss::Status s = ingester.AppendBatch(batch);
      if (!s.ok()) ndss::tools::Die(s.ToString());
      appended += batch.size();
      batch.clear();
    }
  }
  if (flags.GetBool("flush", false)) {
    const ndss::Status flushed = ingester.Flush();
    if (!flushed.ok()) ndss::tools::Die(flushed.ToString());
  }
  const ndss::Status closed = ingester.Close();
  if (!closed.ok()) ndss::tools::Die(closed.ToString());

  const ndss::IngestStats stats = ingester.stats();
  if (!quiet) {
    std::printf(
        "ndss_ingest: appended %llu docs (last_seqno=%llu, spills=%llu, "
        "compactions=%llu, memtable %llu docs, epoch %llu, %zu shards)\n",
        static_cast<unsigned long long>(appended),
        static_cast<unsigned long long>(stats.last_seqno),
        static_cast<unsigned long long>(stats.spills),
        static_cast<unsigned long long>(stats.compactions),
        static_cast<unsigned long long>(stats.delta_docs),
        static_cast<unsigned long long>(searcher->epoch()),
        searcher->shards().size());
    std::printf(
        "ndss_ingest: append time: wal %.3f s, publish %.3f s, "
        "spill %.3f s\n",
        stats.wal_seconds, stats.publish_seconds, stats.spill_seconds);
  }
  return 0;
}
