// Streaming-ingestion semantics: WAL-acked appends are immediately
// searchable and bit-identical to a batch build over the same documents,
// across every lifecycle transition — memtable only, after spills, after
// restarts (single and double replay), after compaction, and under injected
// fsync, spill and compaction failures. The memtable is extended per commit,
// so its lists are also checked structurally (directory and every list)
// against a from-scratch in-memory build, spilled shards byte for byte
// against BuildIndexInMemory, and published snapshots against concurrent
// readers.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/env.h"
#include "common/fault_injection_env.h"
#include "corpusgen/synthetic.h"
#include "index/index_builder.h"
#include "ingest/ingester.h"
#include "ingest/wal.h"
#include "query/searcher.h"
#include "shard/sharded_searcher.h"
#include "text/corpus.h"

namespace ndss {
namespace {

/// Field-sensitive serialization of a result's matches, so a sharded
/// streaming answer can be compared to a batch-built reference for exact
/// agreement.
std::string Fingerprint(const SearchResult& result) {
  std::ostringstream out;
  for (const TextMatchRectangle& r : result.rectangles) {
    out << "R" << r.text << ":" << r.rect.x_begin << "," << r.rect.x_end
        << "," << r.rect.y_begin << "," << r.rect.y_end << ","
        << r.rect.collisions << ";";
  }
  for (const MatchSpan& s : result.spans) {
    out << "S" << s.text << ":" << s.begin << "," << s.end << ","
        << s.collisions << ";";
  }
  return out.str();
}

/// Asserts that `actual` holds, function by function, the same directory
/// and the same lists as `expected`.
void ExpectSameLists(const Searcher& actual, const Searcher& expected,
                     const std::string& context) {
  ASSERT_EQ(actual.meta().k, expected.meta().k) << context;
  EXPECT_EQ(actual.meta().num_texts, expected.meta().num_texts) << context;
  EXPECT_EQ(actual.meta().total_tokens, expected.meta().total_tokens)
      << context;
  for (uint32_t func = 0; func < expected.meta().k; ++func) {
    InvertedListSource* got = actual.list_source(func);
    InvertedListSource* want = expected.list_source(func);
    ASSERT_NE(got, nullptr) << context;
    ASSERT_NE(want, nullptr) << context;
    const std::vector<ListMeta>& got_dir = got->directory();
    const std::vector<ListMeta>& want_dir = want->directory();
    ASSERT_EQ(got_dir.size(), want_dir.size())
        << context << " func " << func;
    for (size_t i = 0; i < want_dir.size(); ++i) {
      SCOPED_TRACE(context + " func " + std::to_string(func) + " list " +
                   std::to_string(i));
      ASSERT_EQ(got_dir[i].key, want_dir[i].key);
      ASSERT_EQ(got_dir[i].count, want_dir[i].count);
      ASSERT_EQ(got_dir[i].list_offset, want_dir[i].list_offset);
      ASSERT_EQ(got_dir[i].list_bytes, want_dir[i].list_bytes);
      std::vector<PostedWindow> got_list;
      std::vector<PostedWindow> want_list;
      ASSERT_TRUE(got->ReadList(got_dir[i], &got_list).ok());
      ASSERT_TRUE(want->ReadList(want_dir[i], &want_list).ok());
      ASSERT_EQ(got_list, want_list);
    }
  }
}

/// Every file of `dir`, by name.
std::vector<std::string> FileNames(const std::string& dir) {
  std::vector<std::string> names;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    names.push_back(entry.path().filename().string());
  }
  std::sort(names.begin(), names.end());
  return names;
}

std::string FileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

class IngesterTest : public ::testing::Test {
 protected:
  void SetUp() override {
    set_dir_ = ::testing::TempDir() + "/ndss_ingester_" +
               ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::filesystem::remove_all(set_dir_);

    SyntheticCorpusOptions options;
    options.num_texts = 48;
    options.min_text_length = 40;
    options.max_text_length = 90;
    options.vocab_size = 120;
    options.seed = 11;
    sc_ = GenerateSyntheticCorpus(options);

    build_.k = 4;
    build_.t = 10;
  }

  void TearDown() override {
    SetDefaultEnv(nullptr);
    std::filesystem::remove_all(set_dir_);
  }

  std::vector<std::vector<Token>> Docs(size_t count) const {
    std::vector<std::vector<Token>> docs;
    for (size_t i = 0; i < count; ++i) {
      const auto tokens = sc_.corpus.text(i);
      docs.emplace_back(tokens.begin(), tokens.end());
    }
    return docs;
  }

  std::vector<std::vector<Token>> Queries() const {
    std::vector<std::vector<Token>> queries;
    for (size_t i = 0; i < 6; ++i) {
      const auto tokens = sc_.corpus.text(i * 7);
      queries.emplace_back(tokens.begin(), tokens.begin() + 30);
    }
    return queries;
  }

  /// Fingerprints of the fixed query set against the batch-built in-memory
  /// reference over the first `count` documents.
  std::vector<std::string> ReferenceFingerprints(size_t count) {
    Corpus reference;
    for (const auto& doc : Docs(count)) reference.AddText(doc);
    auto searcher = Searcher::InMemory(reference, build_);
    EXPECT_TRUE(searcher.ok()) << searcher.status().ToString();
    return RunQueries([&](std::span<const Token> q, const SearchOptions& o) {
      return searcher->Search(q, o);
    });
  }

  std::vector<std::string> ShardedFingerprints(ShardedSearcher& searcher) {
    return RunQueries([&](std::span<const Token> q, const SearchOptions& o) {
      return searcher.Search(q, o);
    });
  }

  template <typename SearchFn>
  std::vector<std::string> RunQueries(SearchFn&& search) {
    SearchOptions options;
    options.theta = 0.5;
    std::vector<std::string> fingerprints;
    for (const auto& query : Queries()) {
      auto result = search(query, options);
      EXPECT_TRUE(result.ok()) << result.status().ToString();
      fingerprints.push_back(result.ok() ? Fingerprint(*result) : "<error>");
    }
    return fingerprints;
  }

  /// Appends `docs` through `ingester` in batches of `batch_size`. One
  /// AppendBatch is one group commit (and trips at most one spill), so
  /// spill-counting tests must feed documents in sub-budget batches.
  static void AppendInBatches(Ingester& ingester,
                              const std::vector<std::vector<Token>>& docs,
                              size_t batch_size) {
    for (size_t i = 0; i < docs.size(); i += batch_size) {
      std::vector<std::vector<Token>> batch(
          docs.begin() + i,
          docs.begin() + std::min(docs.size(), i + batch_size));
      ASSERT_TRUE(ingester.AppendBatch(std::move(batch)).ok());
    }
  }

  /// The in-memory build over documents [begin, end).
  Searcher ReferenceSearcher(size_t begin, size_t end) const {
    Corpus reference;
    for (size_t i = begin; i < end; ++i) reference.AddText(sc_.corpus.text(i));
    auto searcher = Searcher::InMemory(reference, build_);
    EXPECT_TRUE(searcher.ok()) << searcher.status().ToString();
    return std::move(*searcher);
  }

  /// Asserts the served memtable holds exactly the lists of an in-memory
  /// build over its documents: the last delta_texts() of the first
  /// `appended`.
  void ExpectDeltaMatchesBuild(const ShardedSearcher& searcher,
                               size_t appended, const std::string& context) {
    const std::shared_ptr<Searcher> delta = searcher.delta();
    const size_t held = searcher.delta_texts();
    ASSERT_LE(held, appended) << context;
    if (held == 0) {
      EXPECT_EQ(delta, nullptr) << context;
      return;
    }
    ASSERT_NE(delta, nullptr) << context;
    ExpectSameLists(*delta, ReferenceSearcher(appended - held, appended),
                    context);
  }

  IngestOptions NoCompaction() const {
    IngestOptions options;
    options.build = build_;
    options.enable_compaction = false;
    return options;
  }

  std::string set_dir_;
  SyntheticCorpus sc_;
  IndexBuildOptions build_;
};

TEST_F(IngesterTest, AppendsMatchBatchBuild) {
  ASSERT_TRUE(Ingester::CreateSet(set_dir_, build_).ok());
  auto searcher = ShardedSearcher::Open(set_dir_);
  ASSERT_TRUE(searcher.ok()) << searcher.status().ToString();
  auto ingester = Ingester::Open(&*searcher, NoCompaction());
  ASSERT_TRUE(ingester.ok()) << ingester.status().ToString();

  const auto docs = Docs(20);
  uint64_t seqno = 0;
  for (size_t i = 0; i < 10; ++i) {
    ASSERT_TRUE((*ingester)->Append(docs[i], &seqno).ok());
    EXPECT_EQ(seqno, i + 1);
  }
  std::vector<std::vector<Token>> rest(docs.begin() + 10, docs.end());
  uint64_t last = 0;
  ASSERT_TRUE((*ingester)->AppendBatch(rest, &last).ok());
  EXPECT_EQ(last, 20u);

  EXPECT_EQ(searcher->meta().num_texts, 20u);
  EXPECT_EQ(searcher->delta_texts(), 20u);
  EXPECT_EQ(ShardedFingerprints(*searcher), ReferenceFingerprints(20));

  const IngestStats stats = (*ingester)->stats();
  EXPECT_EQ(stats.docs_appended, 20u);
  EXPECT_EQ(stats.last_seqno, 20u);
  EXPECT_EQ(stats.delta_docs, 20u);
  EXPECT_EQ(stats.spills, 0u);
  EXPECT_GT(stats.wal_seconds, 0.0);
  EXPECT_GT(stats.publish_seconds, 0.0);
  EXPECT_EQ(stats.spill_seconds, 0.0);
}

TEST_F(IngesterTest, SpillSealsShardAndResetsWal) {
  ASSERT_TRUE(Ingester::CreateSet(set_dir_, build_).ok());
  auto searcher = ShardedSearcher::Open(set_dir_);
  ASSERT_TRUE(searcher.ok());
  IngestOptions options = NoCompaction();
  options.memtable_max_docs = 8;
  auto ingester = Ingester::Open(&*searcher, options);
  ASSERT_TRUE(ingester.ok()) << ingester.status().ToString();

  const uint64_t epoch_before = searcher->epoch();
  AppendInBatches(**ingester, Docs(24), 4);

  const IngestStats stats = (*ingester)->stats();
  EXPECT_EQ(stats.spills, 3u);
  EXPECT_GE(stats.spill_seconds, stats.last_spill_seconds);
  EXPECT_GT(stats.last_spill_seconds, 0.0);
  EXPECT_EQ(stats.applied_seqno, 24u);
  EXPECT_EQ(stats.delta_docs, 0u);
  EXPECT_EQ(searcher->applied_seqno(), 24u);
  EXPECT_GT(searcher->epoch(), epoch_before);
  EXPECT_EQ(searcher->shards().size(), 4u);  // genesis + 3 spills
  EXPECT_EQ(searcher->meta().num_texts, 24u);

  // The spilled prefix left the WAL.
  auto wal_size = GetDefaultEnv()->GetFileSize(set_dir_ + "/WAL");
  ASSERT_TRUE(wal_size.ok());
  EXPECT_EQ(*wal_size, 0u);

  EXPECT_EQ(ShardedFingerprints(*searcher), ReferenceFingerprints(24));

  // Flush with an empty memtable is a no-op.
  ASSERT_TRUE((*ingester)->Flush().ok());
  EXPECT_EQ((*ingester)->stats().spills, 3u);
}

TEST_F(IngesterTest, RestartReplaysUnsealedDocuments) {
  ASSERT_TRUE(Ingester::CreateSet(set_dir_, build_).ok());
  {
    auto searcher = ShardedSearcher::Open(set_dir_);
    ASSERT_TRUE(searcher.ok());
    IngestOptions options = NoCompaction();
    options.memtable_max_docs = 8;
    auto ingester = Ingester::Open(&*searcher, options);
    ASSERT_TRUE(ingester.ok());
    // 20 docs in batches of 4: 2 spills of 8, then 4 left in memtable + WAL.
    AppendInBatches(**ingester, Docs(20), 4);
    ASSERT_TRUE((*ingester)->Close().ok());
  }
  {
    auto searcher = ShardedSearcher::Open(set_dir_);
    ASSERT_TRUE(searcher.ok());
    EXPECT_EQ(searcher->meta().num_texts, 16u);  // sealed shards only
    auto ingester = Ingester::Open(&*searcher, NoCompaction());
    ASSERT_TRUE(ingester.ok()) << ingester.status().ToString();
    EXPECT_EQ((*ingester)->stats().docs_replayed, 4u);
    EXPECT_EQ(searcher->meta().num_texts, 20u);  // + replayed memtable
    EXPECT_EQ(ShardedFingerprints(*searcher), ReferenceFingerprints(20));

    // Appends continue the WAL seqno sequence.
    uint64_t seqno = 0;
    ASSERT_TRUE((*ingester)->Append(Docs(21)[20], &seqno).ok());
    EXPECT_EQ(seqno, 21u);
    EXPECT_EQ(ShardedFingerprints(*searcher), ReferenceFingerprints(21));
  }
}

TEST_F(IngesterTest, DoubleReplayIsIdempotent) {
  ASSERT_TRUE(Ingester::CreateSet(set_dir_, build_).ok());
  {
    auto searcher = ShardedSearcher::Open(set_dir_);
    ASSERT_TRUE(searcher.ok());
    auto ingester = Ingester::Open(&*searcher, NoCompaction());
    ASSERT_TRUE(ingester.ok());
    ASSERT_TRUE((*ingester)->AppendBatch(Docs(12)).ok());
  }
  const std::vector<std::string> expected = ReferenceFingerprints(12);
  for (int replay = 0; replay < 2; ++replay) {
    auto searcher = ShardedSearcher::Open(set_dir_);
    ASSERT_TRUE(searcher.ok());
    auto ingester = Ingester::Open(&*searcher, NoCompaction());
    ASSERT_TRUE(ingester.ok()) << ingester.status().ToString();
    // Replaying the same WAL twice must not duplicate documents.
    EXPECT_EQ((*ingester)->stats().docs_replayed, 12u) << "replay " << replay;
    EXPECT_EQ(searcher->meta().num_texts, 12u) << "replay " << replay;
    EXPECT_EQ(searcher->delta_texts(), 12u) << "replay " << replay;
    EXPECT_EQ(ShardedFingerprints(*searcher), expected) << "replay " << replay;
  }
}

TEST_F(IngesterTest, ReplaySkipsFramesAtOrBelowAppliedSeqno) {
  ASSERT_TRUE(Ingester::CreateSet(set_dir_, build_).ok());
  {
    auto searcher = ShardedSearcher::Open(set_dir_);
    ASSERT_TRUE(searcher.ok());
    auto ingester = Ingester::Open(&*searcher, NoCompaction());
    ASSERT_TRUE(ingester.ok());
    ASSERT_TRUE((*ingester)->AppendBatch(Docs(10)).ok());
    ASSERT_TRUE((*ingester)->Flush().ok());  // seals all 10, applied = 10
  }
  // Simulate a crash between the spill's manifest commit and the WAL
  // truncation: put the already-applied frames back.
  {
    auto writer = WalWriter::Open(set_dir_ + "/WAL");
    ASSERT_TRUE(writer.ok());
    const auto docs = Docs(10);
    for (size_t i = 0; i < docs.size(); ++i) {
      ASSERT_TRUE(writer->Append(i + 1, docs[i]).ok());
    }
    ASSERT_TRUE(writer->Sync().ok());
    ASSERT_TRUE(writer->Close().ok());
  }
  auto searcher = ShardedSearcher::Open(set_dir_);
  ASSERT_TRUE(searcher.ok());
  EXPECT_EQ(searcher->applied_seqno(), 10u);
  auto ingester = Ingester::Open(&*searcher, NoCompaction());
  ASSERT_TRUE(ingester.ok());
  EXPECT_EQ((*ingester)->stats().docs_replayed, 0u);
  EXPECT_EQ(searcher->meta().num_texts, 10u);  // no duplicates
  EXPECT_EQ(ShardedFingerprints(*searcher), ReferenceFingerprints(10));
}

TEST_F(IngesterTest, CompactionFoldsShardsAndPreservesAnswers) {
  ASSERT_TRUE(Ingester::CreateSet(set_dir_, build_).ok());
  auto searcher = ShardedSearcher::Open(set_dir_);
  ASSERT_TRUE(searcher.ok());
  IngestOptions options = NoCompaction();
  options.memtable_max_docs = 4;
  options.compaction_fanin = 3;
  auto ingester = Ingester::Open(&*searcher, options);
  ASSERT_TRUE(ingester.ok());

  AppendInBatches(**ingester, Docs(32), 4);
  const size_t shards_before = searcher->shards().size();
  EXPECT_EQ(shards_before, 9u);  // genesis + 8 spills

  // Drive the compactor synchronously until a fixed point.
  bool compacted = true;
  while (compacted) {
    ASSERT_TRUE((*ingester)->CompactOnce(&compacted).ok());
  }
  EXPECT_LT(searcher->shards().size(), shards_before);
  EXPECT_GT((*ingester)->stats().compactions, 0u);
  EXPECT_EQ(searcher->meta().num_texts, 32u);
  EXPECT_EQ(ShardedFingerprints(*searcher), ReferenceFingerprints(32));

  // The folded input directories are gone; survivors and the set reopen.
  auto reopened = ShardedSearcher::Open(set_dir_);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ(ShardedFingerprints(*reopened), ReferenceFingerprints(32));
}

TEST_F(IngesterTest, CompactionFailureLeavesServingIntact) {
  FaultInjectionEnv fault(Env::Posix());
  SetDefaultEnv(&fault);

  ASSERT_TRUE(Ingester::CreateSet(set_dir_, build_).ok());
  auto searcher = ShardedSearcher::Open(set_dir_);
  ASSERT_TRUE(searcher.ok());
  IngestOptions options = NoCompaction();
  options.memtable_max_docs = 4;
  options.compaction_retry.max_attempts = 2;
  options.compaction_retry.initial_backoff_micros = 1;
  auto ingester = Ingester::Open(&*searcher, options);
  ASSERT_TRUE(ingester.ok());
  AppendInBatches(**ingester, Docs(16), 4);
  const size_t shards_before = searcher->shards().size();

  // Every write into a compaction output directory fails.
  fault.SetFaultPathFilter("compact-");
  fault.SetFailProbability(1.0);
  bool compacted = true;
  const Status failed = (*ingester)->CompactOnce(&compacted);
  EXPECT_FALSE(failed.ok());
  EXPECT_FALSE(compacted);
  EXPECT_GE((*ingester)->stats().compaction_failures, 1u);

  // Serving and ingestion never degraded; the topology is untouched.
  EXPECT_EQ(searcher->shards().size(), shards_before);
  EXPECT_EQ(ShardedFingerprints(*searcher), ReferenceFingerprints(16));
  ASSERT_TRUE((*ingester)->Append(Docs(17)[16]).ok());

  // Once the fault clears, compaction succeeds.
  fault.Heal();
  ASSERT_TRUE((*ingester)->CompactOnce(&compacted).ok());
  EXPECT_TRUE(compacted);
  EXPECT_LT(searcher->shards().size(), shards_before);
  EXPECT_EQ(ShardedFingerprints(*searcher), ReferenceFingerprints(17));
}

TEST_F(IngesterTest, FailedFsyncPoisonsAppendsButNotServing) {
  FaultInjectionEnv fault(Env::Posix());
  SetDefaultEnv(&fault);

  ASSERT_TRUE(Ingester::CreateSet(set_dir_, build_).ok());
  auto searcher = ShardedSearcher::Open(set_dir_);
  ASSERT_TRUE(searcher.ok());
  auto ingester = Ingester::Open(&*searcher, NoCompaction());
  ASSERT_TRUE(ingester.ok());
  ASSERT_TRUE((*ingester)->AppendBatch(Docs(8)).ok());

  fault.SetFailFsync(true);
  const Status failed = (*ingester)->Append(Docs(9)[8]);
  ASSERT_FALSE(failed.ok()) << "a failed WAL fsync must surface, not ack";
  EXPECT_TRUE((*ingester)->poisoned());

  // Sticky: healing the env does not resurrect the write path (fsyncgate —
  // only a re-open that re-scans the on-disk log can).
  fault.Heal();
  EXPECT_FALSE((*ingester)->Append(Docs(9)[8]).ok());
  EXPECT_FALSE((*ingester)->Flush().ok());

  // Serving still answers with exactly the acked documents.
  EXPECT_EQ(searcher->meta().num_texts, 8u);
  EXPECT_EQ(ShardedFingerprints(*searcher), ReferenceFingerprints(8));
  EXPECT_EQ((*ingester)->stats().docs_appended, 8u);

  // A crash + restart recovers the acked prefix; the unacked document is
  // gone, as the error promised.
  ingester->reset();
  searcher = Status::IOError("dropped");
  ASSERT_TRUE(fault.DropUnsyncedData().ok());
  auto recovered_searcher = ShardedSearcher::Open(set_dir_);
  ASSERT_TRUE(recovered_searcher.ok());
  auto recovered = Ingester::Open(&*recovered_searcher, NoCompaction());
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ(recovered_searcher->meta().num_texts, 8u);
  EXPECT_EQ(ShardedFingerprints(*recovered_searcher),
            ReferenceFingerprints(8));
  EXPECT_FALSE((*recovered)->poisoned());
}

TEST_F(IngesterTest, GuardsAndEdgeCases) {
  ASSERT_TRUE(Ingester::CreateSet(set_dir_, build_).ok());
  // Creating over an existing set fails.
  EXPECT_FALSE(Ingester::CreateSet(set_dir_, build_).ok());

  auto searcher = ShardedSearcher::Open(set_dir_);
  ASSERT_TRUE(searcher.ok());

  // Mismatched build parameters are rejected.
  IngestOptions wrong = NoCompaction();
  wrong.build.k = build_.k + 1;
  EXPECT_FALSE(Ingester::Open(&*searcher, wrong).ok());

  // A different sketch scheme is a family mismatch too, and the error says so.
  IngestOptions wrong_scheme = NoCompaction();
  wrong_scheme.build.sketch = SketchSchemeId::kCMinHash;
  auto mismatched = Ingester::Open(&*searcher, wrong_scheme);
  ASSERT_FALSE(mismatched.ok());
  EXPECT_TRUE(mismatched.status().IsInvalidArgument())
      << mismatched.status().ToString();
  EXPECT_NE(mismatched.status().ToString().find("sketch"), std::string::npos)
      << mismatched.status().ToString();

  auto ingester = Ingester::Open(&*searcher, NoCompaction());
  ASSERT_TRUE(ingester.ok());
  EXPECT_TRUE((*ingester)->AppendBatch({}).ok());  // empty batch is a no-op
  ASSERT_TRUE((*ingester)->Close().ok());
  EXPECT_TRUE((*ingester)->Close().ok());  // idempotent
  EXPECT_FALSE((*ingester)->Append(Docs(1)[0]).ok());  // closed
}

TEST_F(IngesterTest, CMinHashStreamingMatchesBatchBuild) {
  // The streaming/batch bit-identity contract holds per scheme: a C-MinHash
  // set answers exactly like a C-MinHash batch build over the same documents.
  build_.sketch = SketchSchemeId::kCMinHash;
  ASSERT_TRUE(Ingester::CreateSet(set_dir_, build_).ok());
  auto searcher = ShardedSearcher::Open(set_dir_);
  ASSERT_TRUE(searcher.ok()) << searcher.status().ToString();
  EXPECT_EQ(searcher->meta().sketch, SketchSchemeId::kCMinHash);
  auto ingester = Ingester::Open(&*searcher, NoCompaction());
  ASSERT_TRUE(ingester.ok()) << ingester.status().ToString();

  AppendInBatches(**ingester, Docs(20), 5);
  EXPECT_EQ(searcher->meta().num_texts, 20u);
  EXPECT_EQ(ShardedFingerprints(*searcher), ReferenceFingerprints(20));
}

TEST_F(IngesterTest, OrphanSweepRemovesUncommittedSpill) {
  ASSERT_TRUE(Ingester::CreateSet(set_dir_, build_).ok());
  // A crash mid-spill leaves a half-built, uncommitted shard directory.
  const std::string orphan = set_dir_ + "/delta-00000000000000000099";
  std::filesystem::create_directories(orphan);
  std::ofstream(orphan + "/inverted.0.ndx") << "partial";

  auto searcher = ShardedSearcher::Open(set_dir_);
  ASSERT_TRUE(searcher.ok());
  auto ingester = Ingester::Open(&*searcher, NoCompaction());
  ASSERT_TRUE(ingester.ok()) << ingester.status().ToString();
  EXPECT_FALSE(std::filesystem::exists(orphan));
}

TEST_F(IngesterTest, MemtableListsMatchInMemoryBuildAfterEveryCommit) {
  for (const SketchSchemeId scheme :
       {SketchSchemeId::kIndependent, SketchSchemeId::kCMinHash}) {
    for (const size_t batch_size : {size_t{1}, size_t{3}, size_t{16}}) {
      const std::string context =
          std::string(scheme == SketchSchemeId::kCMinHash ? "cminhash"
                                                          : "independent") +
          " batch " + std::to_string(batch_size);
      SCOPED_TRACE(context);
      std::filesystem::remove_all(set_dir_);
      build_.sketch = scheme;
      ASSERT_TRUE(Ingester::CreateSet(set_dir_, build_).ok());
      auto searcher = ShardedSearcher::Open(set_dir_);
      ASSERT_TRUE(searcher.ok()) << searcher.status().ToString();
      IngestOptions options = NoCompaction();
      options.memtable_max_docs = 20;  // spills reset the memtable mid-run
      auto ingester = Ingester::Open(&*searcher, options);
      ASSERT_TRUE(ingester.ok()) << ingester.status().ToString();

      const auto docs = Docs(48);
      for (size_t i = 0; i < docs.size(); i += batch_size) {
        const size_t end = std::min(docs.size(), i + batch_size);
        ASSERT_TRUE(
            (*ingester)
                ->AppendBatch({docs.begin() + i, docs.begin() + end})
                .ok());
        ExpectDeltaMatchesBuild(*searcher, end,
                                context + " after " + std::to_string(end));
      }
      EXPECT_GT((*ingester)->stats().spills, 0u);
      EXPECT_GT((*ingester)->stats().delta_docs, 0u);
      EXPECT_EQ(ShardedFingerprints(*searcher), ReferenceFingerprints(48));

      // WAL replay at Open is one commit into an empty memtable.
      ingester->reset();
      auto reopened = ShardedSearcher::Open(set_dir_);
      ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
      auto replayed = Ingester::Open(&*reopened, options);
      ASSERT_TRUE(replayed.ok()) << replayed.status().ToString();
      EXPECT_GT((*replayed)->stats().docs_replayed, 0u);
      ExpectDeltaMatchesBuild(*reopened, 48, context + " after replay");
      EXPECT_EQ(ShardedFingerprints(*reopened), ReferenceFingerprints(48));
    }
  }
}

TEST_F(IngesterTest, FailedSpillKeepsMemtableAndRetries) {
  FaultInjectionEnv fault(Env::Posix());
  SetDefaultEnv(&fault);
  ASSERT_TRUE(Ingester::CreateSet(set_dir_, build_).ok());
  auto searcher = ShardedSearcher::Open(set_dir_);
  ASSERT_TRUE(searcher.ok());
  IngestOptions options = NoCompaction();
  options.memtable_max_docs = 8;
  auto ingester = Ingester::Open(&*searcher, options);
  ASSERT_TRUE(ingester.ok());

  // Every write of a spill's third inverted file fails, after the first two
  // were written: the commits that trip the budget still succeed, and the
  // memtable keeps growing and serving.
  fault.SetFaultPathFilter("inverted.2.ndx");
  fault.SetFailProbability(1.0);
  AppendInBatches(**ingester, Docs(12), 3);
  IngestStats stats = (*ingester)->stats();
  EXPECT_EQ(stats.spills, 0u);
  EXPECT_GE(stats.spill_failures, 2u);
  EXPECT_GT(stats.spill_seconds, 0.0);
  EXPECT_EQ(searcher->delta_texts(), 12u);
  ExpectDeltaMatchesBuild(*searcher, 12, "after failed spills");
  EXPECT_EQ(ShardedFingerprints(*searcher), ReferenceFingerprints(12));

  // Healed, the next commit retries the spill from the same lists.
  fault.Heal();
  const auto docs = Docs(15);
  ASSERT_TRUE(
      (*ingester)->AppendBatch({docs.begin() + 12, docs.end()}).ok());
  stats = (*ingester)->stats();
  EXPECT_EQ(stats.spills, 1u);
  EXPECT_EQ(searcher->delta_texts(), 0u);
  EXPECT_EQ(searcher->meta().num_texts, 15u);
  EXPECT_EQ(ShardedFingerprints(*searcher), ReferenceFingerprints(15));
  ASSERT_TRUE((*ingester)->Append(Docs(16)[15]).ok());
  ExpectDeltaMatchesBuild(*searcher, 16, "after the retried spill");
  EXPECT_EQ(ShardedFingerprints(*searcher), ReferenceFingerprints(16));
}

TEST_F(IngesterTest, SpilledShardIsByteIdenticalToBatchBuild) {
  for (const SketchSchemeId scheme :
       {SketchSchemeId::kIndependent, SketchSchemeId::kCMinHash}) {
    for (const index_format::PostingFormat format :
         {index_format::kFormatRaw, index_format::kFormatCompressed}) {
      const std::string context =
          std::string(scheme == SketchSchemeId::kCMinHash ? "cminhash"
                                                          : "independent") +
          (format == index_format::kFormatRaw ? " raw" : " compressed");
      SCOPED_TRACE(context);
      std::filesystem::remove_all(set_dir_);
      build_.sketch = scheme;
      build_.posting_format = format;
      // Small zones so the compressed lists carry restart points too.
      build_.zone_step = 4;
      build_.zone_threshold = 8;
      ASSERT_TRUE(Ingester::CreateSet(set_dir_, build_).ok());
      auto searcher = ShardedSearcher::Open(set_dir_);
      ASSERT_TRUE(searcher.ok()) << searcher.status().ToString();
      IngestOptions options = NoCompaction();
      options.memtable_max_docs = 8;
      auto ingester = Ingester::Open(&*searcher, options);
      ASSERT_TRUE(ingester.ok()) << ingester.status().ToString();
      // Batches of 3 spill at 9 and 18 documents; Flush seals the last 6.
      AppendInBatches(**ingester, Docs(24), 3);
      ASSERT_TRUE((*ingester)->Flush().ok());
      ASSERT_EQ((*ingester)->stats().spills, 3u);

      size_t begin = 0;
      for (const ShardInfo& shard : searcher->shards()) {
        const std::string name =
            std::filesystem::path(shard.dir).filename().string();
        if (name.rfind("delta-", 0) != 0) {
          begin += shard.num_texts;
          continue;
        }
        const size_t end = begin + shard.num_texts;
        Corpus docs;
        for (size_t i = begin; i < end; ++i) docs.AddText(sc_.corpus.text(i));
        const std::string reference_dir =
            set_dir_ + "/reference-" + std::to_string(begin);
        ASSERT_TRUE(BuildIndexInMemory(docs, reference_dir, build_).ok());
        const std::vector<std::string> names = FileNames(shard.dir);
        ASSERT_EQ(names, FileNames(reference_dir)) << name;
        // k inverted files, index.meta and the CURRENT marker.
        EXPECT_EQ(names.size(), build_.k + 2) << name;
        for (const std::string& file : names) {
          const std::string got = FileBytes(shard.dir + "/" + file);
          const std::string want = FileBytes(reference_dir + "/" + file);
          EXPECT_FALSE(want.empty()) << file;
          EXPECT_TRUE(got == want)
              << name << "/" << file << " differs from the batch build ("
              << got.size() << " vs " << want.size() << " bytes)";
        }
        std::filesystem::remove_all(reference_dir);
        begin = end;
      }
      EXPECT_EQ(begin, 24u);
      EXPECT_EQ(ShardedFingerprints(*searcher), ReferenceFingerprints(24));
    }
  }
}

TEST_F(IngesterTest, ConcurrentReadersSeeOnlyPublishedPrefixes) {
  // Every answer a reader gets while the writer appends must be the answer
  // over some prefix of the documents: a published memtable snapshot shares
  // no mutable state with the one built after it.
  constexpr size_t kDocs = 40;
  ASSERT_TRUE(Ingester::CreateSet(set_dir_, build_).ok());
  auto searcher = ShardedSearcher::Open(set_dir_);
  ASSERT_TRUE(searcher.ok());
  IngestOptions options = NoCompaction();
  options.memtable_max_docs = 12;
  auto ingester = Ingester::Open(&*searcher, options);
  ASSERT_TRUE(ingester.ok());

  const std::vector<std::vector<Token>> queries = Queries();
  // by_prefix[n][q]: query q's fingerprint over the first n documents.
  std::vector<std::vector<std::string>> by_prefix;
  for (size_t n = 0; n <= kDocs; ++n) {
    by_prefix.push_back(n == 0 ? std::vector<std::string>(queries.size())
                               : ReferenceFingerprints(n));
  }

  const auto docs = Docs(kDocs);
  std::atomic<size_t> acked{0};
  std::atomic<bool> done{false};
  std::atomic<size_t> answers{0};
  std::atomic<size_t> mismatches{0};
  std::thread reader([&] {
    SearchOptions search;
    search.theta = 0.5;
    while (!done.load(std::memory_order_acquire)) {
      for (size_t q = 0; q < queries.size(); ++q) {
        const size_t lo = acked.load(std::memory_order_acquire);
        auto result = searcher->Search(queries[q], search);
        // A commit is visible before AppendBatch returns: up to one batch
        // (at most 3 documents) beyond the acknowledged count.
        const size_t hi =
            std::min(kDocs, acked.load(std::memory_order_acquire) + 3);
        bool matched = false;
        if (result.ok()) {
          const std::string got = Fingerprint(*result);
          for (size_t n = lo; n <= hi && !matched; ++n) {
            matched = by_prefix[n][q] == got;
          }
        }
        if (!matched) mismatches.fetch_add(1);
        answers.fetch_add(1);
      }
    }
  });
  size_t i = 0;
  for (size_t round = 0; i < kDocs; ++round) {
    const size_t end = std::min(kDocs, i + 1 + round % 3);  // 1, 2, 3, ...
    const Status appended =
        (*ingester)->AppendBatch({docs.begin() + i, docs.begin() + end});
    EXPECT_TRUE(appended.ok()) << appended.ToString();
    i = end;
    acked.store(i, std::memory_order_release);
    std::this_thread::yield();
  }
  // Let the reader see the final state too.
  const size_t before = answers.load();
  while (answers.load() < before + queries.size()) std::this_thread::yield();
  done.store(true, std::memory_order_release);
  reader.join();

  EXPECT_EQ(mismatches.load(), 0u);
  EXPECT_GT(answers.load(), queries.size());
  EXPECT_GT((*ingester)->stats().spills, 0u);
  EXPECT_EQ(ShardedFingerprints(*searcher), by_prefix[kDocs]);
}

}  // namespace
}  // namespace ndss
