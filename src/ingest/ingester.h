#ifndef NDSS_INGEST_INGESTER_H_
#define NDSS_INGEST_INGESTER_H_

#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "common/result.h"
#include "common/retry.h"
#include "common/status.h"
#include "index/index_builder.h"
#include "ingest/wal.h"
#include "shard/sharded_searcher.h"
#include "text/corpus.h"
#include "text/types.h"

namespace ndss {

class InMemoryInvertedIndex;

/// Options for streaming ingestion.
struct IngestOptions {
  /// Build parameters of the delta index and every spilled shard. Must
  /// match the set's (k, seed, t) — Open fails otherwise.
  IndexBuildOptions build;

  /// Memtable spill budget: the delta spills to a sealed shard once its
  /// estimated in-memory footprint (16 bytes per indexed window + 4 bytes
  /// per token, the ursadb estimated_size idiom) reaches this.
  uint64_t memtable_budget_bytes = 8ull << 20;

  /// Also spill after this many memtable documents (0 = no document cap).
  uint64_t memtable_max_docs = 0;

  /// Fold a contiguous run of at least this many small shards per
  /// compaction (runs are capped at twice this).
  size_t compaction_fanin = 4;

  /// A shard is "small" (a compaction candidate) at or below this many
  /// texts. 0 = every sealed shard is a candidate, so runs of fanin shards
  /// keep folding into ever-larger tiers.
  uint64_t compaction_small_texts = 0;

  /// Background compactor poll cadence.
  uint64_t compaction_poll_micros = 100'000;

  /// Retry policy for the merge step of a compaction (decorrelated jitter
  /// by default; see RetryPolicy). After the attempts are exhausted the
  /// compaction quarantines itself with exponential backoff — serving and
  /// ingestion are never affected by a failing compaction.
  RetryPolicy compaction_retry;

  /// First backoff after a failed compaction; doubles per consecutive
  /// failure up to 64x.
  uint64_t compaction_quarantine_micros = 1'000'000;

  /// Start the background compactor at Open. Tests drive CompactOnce
  /// directly with this off.
  bool enable_compaction = true;

  IngestOptions() {
    compaction_retry.max_attempts = 3;
    compaction_retry.decorrelated_jitter = true;
  }
};

/// Counters, all monotone since Open (snapshot via Ingester::stats).
struct IngestStats {
  uint64_t docs_appended = 0;    ///< acknowledged (durable) this session
  uint64_t docs_replayed = 0;    ///< recovered from the WAL at Open
  uint64_t wal_torn_bytes = 0;   ///< truncated from the WAL tail at Open
  uint64_t spills = 0;           ///< memtable seals committed
  uint64_t spill_failures = 0;   ///< failed seal attempts (docs stay safe)
  uint64_t compactions = 0;      ///< committed merges
  uint64_t compaction_failures = 0;
  uint64_t last_seqno = 0;       ///< highest acknowledged seqno
  uint64_t applied_seqno = 0;    ///< WAL watermark of the sealed shards
  uint64_t delta_docs = 0;       ///< documents currently in the memtable
  uint64_t delta_bytes = 0;      ///< estimated memtable footprint
  double last_spill_seconds = 0;
  // Where append time went, cumulative: WAL writes + fsyncs, publishing
  // each commit's documents into the served memtable, and spill attempts
  // (failed ones included).
  double wal_seconds = 0;
  double publish_seconds = 0;
  double spill_seconds = 0;
};

/// Streaming ingestion for a serving shard set: the write side of the
/// LSM-style lifecycle.
///
///   WAL append + fsync  ->  delta memtable (served live)  ->  spill to a
///   sealed shard (crash-safe build)  ->  manifest commit (epoch + 1,
///   applied_seqno)  ->  background tiered compaction (MergeIndexes)
///
/// Durability contract: Append returns OK only after the document's WAL
/// frame is fsynced — an acknowledged document survives any crash. The
/// memtable is rebuilt from the WAL at Open (recovery truncates a torn
/// tail at the last valid frame; frames at or below the manifest's
/// applied_seqno are skipped, making replay idempotent). A crash mid-spill
/// or mid-compaction leaves the old topology plus unreferenced shard
/// directories, which the next Open sweeps.
///
/// fsync batching: concurrent Append/AppendBatch callers form a group
/// commit — one caller syncs the WAL for everything staged so far while
/// later callers stage behind it, so the fsync rate is bounded by disk
/// latency, not the caller count. Within one AppendBatch all documents
/// share one fsync.
///
/// After a failed WAL write or fsync the ingester is poisoned: every later
/// Append fails with the original error (a failed fsync may have lost the
/// dirty pages, so nothing after it can honestly be acknowledged — the
/// fsyncgate rule). Recovery is a process restart (re-Open), which trusts
/// only what a scan of the on-disk WAL proves durable. Serving is
/// unaffected: the sealed shards and the last installed delta keep
/// answering queries.
///
/// Thread-safety: Append/AppendBatch/Flush/CompactOnce/stats may be called
/// from any number of threads. The ShardedSearcher must outlive the
/// Ingester.
class Ingester {
 public:
  /// Bootstraps an empty serving set at `set_dir`: builds a zero-text
  /// "genesis" shard (streaming-from-nothing needs a valid manifest, and a
  /// manifest needs at least one shard) and commits a manifest for it.
  /// Fails if a manifest already exists.
  static Status CreateSet(const std::string& set_dir,
                          const IndexBuildOptions& build);

  /// Opens the ingest side of `searcher`'s set: sweeps orphaned
  /// ingest/compact directories, recovers the WAL (truncating any torn
  /// tail), replays unapplied frames into a fresh memtable, installs it as
  /// the searcher's delta, and (by default) starts the background
  /// compactor.
  static Result<std::unique_ptr<Ingester>> Open(
      ShardedSearcher* searcher, const IngestOptions& options = {});

  ~Ingester();
  Ingester(const Ingester&) = delete;
  Ingester& operator=(const Ingester&) = delete;

  /// Appends one document. Returns after the document is durable in the
  /// WAL and visible to searches. `seqno` (optional) receives its WAL
  /// sequence number.
  Status Append(std::span<const Token> tokens, uint64_t* seqno = nullptr);

  /// Appends many documents under one group commit (one fsync), in order.
  /// `last_seqno` (optional) receives the last document's sequence number.
  Status AppendBatch(const std::vector<std::vector<Token>>& documents,
                     uint64_t* last_seqno = nullptr);

  /// Commits any staged documents and seals the memtable to a shard now,
  /// regardless of the budget (shutdown, tests). OK with an empty
  /// memtable.
  Status Flush();

  /// Runs one compaction pass synchronously: picks the leftmost contiguous
  /// run of small shards (see IngestOptions), merges it with retry, and
  /// commits the swap. `*compacted` reports whether a merge committed.
  /// Serving continues on the old topology until the commit.
  Status CompactOnce(bool* compacted);

  /// Stops the background compactor (idempotent; no-op if never started).
  void StopCompactor();

  /// Closes the WAL after committing staged documents. Further appends
  /// fail. The memtable stays installed and serving.
  Status Close();

  IngestStats stats() const;

  /// True after a WAL write/fsync failure: appends fail until re-Open.
  bool poisoned() const;

 private:
  struct PendingDoc {
    uint64_t seqno;
    std::vector<Token> tokens;
  };

  Ingester(ShardedSearcher* searcher, IngestOptions options,
           std::string wal_path);

  /// Makes every staged document with seqno <= `target` durable and
  /// visible (group commit; see class comment). Called with no locks held.
  Status CommitThrough(uint64_t target);

  /// Extends the memtable with `added` and publishes the result as the
  /// searcher's delta. Only `added` is hashed and windowed (its text ids
  /// continue the memtable's); each function's new lists are merged into a
  /// fresh copy of the published ones, so a snapshot queries already hold
  /// never changes. Caller holds pipeline_mu_.
  Status ExtendDeltaLocked(Corpus added);

  /// Estimated memtable footprint (windows * 16 + tokens * 4).
  uint64_t EstimatedDeltaBytesLocked() const;

  /// Seals the memtable into a shard — writing its lists as they are, the
  /// bytes BuildIndexInMemory would write for its documents — and commits
  /// it. Caller holds pipeline_mu_.
  Status SpillLocked();

  void CompactorLoop();
  void StartCompactor();

  ShardedSearcher* const searcher_;
  const IngestOptions options_;
  const std::string wal_path_;

  /// Staging lock: seqno assignment and the pending-document queue. Never
  /// held across IO.
  mutable std::mutex mu_;
  uint64_t next_seqno_ = 1;
  std::vector<PendingDoc> pending_;
  Status poison_ = Status::OK();
  bool closed_ = false;
  uint64_t visible_seqno_ = 0;  ///< durable AND searchable up to here
  IngestStats stats_;

  /// Pipeline lock: serializes WAL writes/fsyncs, memtable publishes,
  /// spills, and WAL truncation. Queries never take it.
  std::mutex pipeline_mu_;
  std::unique_ptr<WalWriter> wal_;
  /// The memtable: the published delta searcher and its k in-memory
  /// indexes (owned by delta_, one per function), covering the documents
  /// acknowledged since the last spill. Replaced, never modified.
  std::shared_ptr<Searcher> delta_;
  std::vector<const InMemoryInvertedIndex*> delta_indexes_;
  uint64_t delta_texts_ = 0;
  uint64_t delta_tokens_ = 0;
  uint64_t delta_windows_ = 0;
  uint64_t durable_seqno_ = 0;   ///< last seqno a successful fsync covered

  /// Background compactor.
  std::thread compactor_;
  std::mutex compact_mu_;  ///< serializes compaction passes
  std::condition_variable compact_cv_;
  bool stop_compactor_ = false;
  bool compactor_running_ = false;
  uint64_t compact_backoff_until_micros_ = 0;
  uint32_t compact_consecutive_failures_ = 0;
  uint64_t compact_counter_ = 0;  ///< uniquifies output directory names
};

}  // namespace ndss

#endif  // NDSS_INGEST_INGESTER_H_
