#include "ingest/ingester.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <limits>
#include <utility>

#include "common/env.h"
#include "common/file_io.h"
#include "common/logging.h"
#include "index/index_merger.h"
#include "index/inverted_index_writer.h"
#include "index/memory_index.h"
#include "shard/shard_manifest.h"
#include "sketch/sketch_scheme.h"

namespace ndss {

namespace {

constexpr char kGenesisEntry[] = "genesis";

// Largest document a WAL frame can carry (payload_len is a u32 of bytes).
constexpr uint64_t kMaxDocTokens =
    std::numeric_limits<uint32_t>::max() / sizeof(Token);

uint64_t NowMicros() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

std::string NormalizePath(const std::string& path) {
  std::string norm = std::filesystem::path(path).lexically_normal().string();
  while (norm.size() > 1 && norm.back() == '/') norm.pop_back();
  return norm;
}

// Shard directories the ingest pipeline itself created (and therefore owns):
// safe to sweep when orphaned and to delete after a committed compaction.
bool IngestOwnedName(const std::string& name) {
  return name == kGenesisEntry || name.rfind("delta-", 0) == 0 ||
         name.rfind("compact-", 0) == 0;
}

std::string SpillEntryName(uint64_t seqno) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "delta-%020llu",
                static_cast<unsigned long long>(seqno));
  return buf;
}

}  // namespace

Status Ingester::CreateSet(const std::string& set_dir,
                           const IndexBuildOptions& build) {
  Env* env = GetDefaultEnv();
  if (env->FileExists(ShardManifest::Path(set_dir))) {
    return Status::InvalidArgument("shard set already exists at '" + set_dir +
                                   "'");
  }
  NDSS_RETURN_NOT_OK(env->CreateDirectories(set_dir));
  // A manifest needs at least one shard, so an empty set starts from a
  // zero-text genesis shard (compaction folds it away later).
  Corpus empty;
  auto built =
      BuildIndexInMemory(empty, set_dir + "/" + kGenesisEntry, build);
  if (!built.ok()) return built.status();
  ShardManifest manifest;
  manifest.epoch = 1;
  manifest.applied_seqno = 0;
  manifest.shard_dirs = {kGenesisEntry};
  return manifest.Save(set_dir);
}

Ingester::Ingester(ShardedSearcher* searcher, IngestOptions options,
                   std::string wal_path)
    : searcher_(searcher),
      options_(std::move(options)),
      wal_path_(std::move(wal_path)) {}

Result<std::unique_ptr<Ingester>> Ingester::Open(ShardedSearcher* searcher,
                                                 const IngestOptions& options) {
  if (searcher == nullptr) {
    return Status::InvalidArgument("Ingester::Open: null searcher");
  }
  const IndexMeta set_meta = searcher->meta();
  const IndexBuildOptions& build = options.build;
  if (build.k != set_meta.k || build.seed != set_meta.seed ||
      build.t != set_meta.t || build.sketch != set_meta.sketch) {
    return Status::InvalidArgument(
        "ingest build options disagree with the set's (k, seed, t, sketch "
        "scheme)");
  }
  if (options.compaction_fanin < 2) {
    return Status::InvalidArgument("compaction_fanin must be at least 2");
  }

  const std::string& set_dir = searcher->set_dir();
  std::unique_ptr<Ingester> ingester(
      new Ingester(searcher, options, set_dir + "/WAL"));

  // Sweep orphans: ingest-owned shard directories not referenced by the
  // current topology are leftovers of a spill or compaction that crashed
  // before its manifest commit.
  Env* env = GetDefaultEnv();
  {
    std::vector<std::string> live;
    for (const ShardInfo& info : searcher->shards()) {
      live.push_back(NormalizePath(info.dir));
    }
    NDSS_ASSIGN_OR_RETURN(std::vector<std::string> names,
                          env->ListDirectory(set_dir));
    for (const std::string& name : names) {
      if (!IngestOwnedName(name)) continue;
      std::string dir = NormalizePath(set_dir + "/" + name);
      if (std::find(live.begin(), live.end(), dir) != live.end()) continue;
      Status removed = RemoveDirRecursive(dir);
      if (!removed.ok()) {
        NDSS_LOG(kWarning) << "orphan sweep: cannot remove '" << dir
                           << "': " << removed.ToString();
      } else {
        NDSS_LOG(kInfo) << "orphan sweep: removed uncommitted shard '" << dir
                        << "'";
      }
    }
  }

  // Recover the WAL (truncate any torn tail) and replay what the sealed
  // shards do not already contain. Frames at or below applied_seqno are
  // skipped — the idempotency that makes a crash between spill commit and
  // WAL truncation harmless.
  NDSS_ASSIGN_OR_RETURN(WalScan scan, RecoverWal(ingester->wal_path_));
  const uint64_t applied = searcher->applied_seqno();
  uint64_t last = applied;
  Corpus replayed;
  for (const WalFrame& frame : scan.frames) {
    if (frame.seqno <= applied) continue;
    replayed.AddText(frame.tokens);
    ++ingester->stats_.docs_replayed;
    last = frame.seqno;
  }
  last = std::max(last, scan.max_seqno);
  ingester->next_seqno_ = last + 1;
  ingester->visible_seqno_ = last;
  ingester->durable_seqno_ = last;
  ingester->stats_.wal_torn_bytes = scan.torn_bytes;
  ingester->stats_.last_seqno = last;
  ingester->stats_.applied_seqno = applied;
  if (scan.torn_bytes > 0) {
    NDSS_LOG(kWarning) << "WAL recovery: truncated " << scan.torn_bytes
                       << " torn byte(s) (" << scan.torn_reason << ")";
  }
  if (!replayed.empty()) {
    // Replay is one commit into an empty memtable.
    NDSS_RETURN_NOT_OK(ingester->ExtendDeltaLocked(std::move(replayed)));
    ingester->stats_.delta_docs = ingester->delta_texts_;
    ingester->stats_.delta_bytes = ingester->EstimatedDeltaBytesLocked();
  }

  NDSS_ASSIGN_OR_RETURN(WalWriter writer, WalWriter::Open(ingester->wal_path_));
  ingester->wal_ = std::make_unique<WalWriter>(std::move(writer));

  if (options.enable_compaction) ingester->StartCompactor();
  return ingester;
}

Ingester::~Ingester() {
  StopCompactor();
  Status ignored = Close();
  (void)ignored;
}

Status Ingester::Append(std::span<const Token> tokens, uint64_t* seqno) {
  std::vector<std::vector<Token>> one;
  one.emplace_back(tokens.begin(), tokens.end());
  return AppendBatch(one, seqno);
}

Status Ingester::AppendBatch(const std::vector<std::vector<Token>>& documents,
                             uint64_t* last_seqno) {
  if (documents.empty()) return Status::OK();
  for (const std::vector<Token>& doc : documents) {
    if (doc.size() > kMaxDocTokens) {
      return Status::InvalidArgument("document too large for one WAL frame");
    }
  }
  uint64_t target;
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (closed_) return Status::InvalidArgument("ingester is closed");
    if (!poison_.ok()) return poison_;
    uint64_t total = static_cast<uint64_t>(searcher_->meta().num_texts) +
                     pending_.size() + documents.size();
    if (total > std::numeric_limits<TextId>::max()) {
      return Status::ResourceExhausted("text id space exhausted (2^32 texts)");
    }
    pending_.reserve(pending_.size() + documents.size());
    for (const std::vector<Token>& doc : documents) {
      pending_.push_back(PendingDoc{next_seqno_++, doc});
    }
    target = next_seqno_ - 1;
  }
  NDSS_RETURN_NOT_OK(CommitThrough(target));
  if (last_seqno != nullptr) *last_seqno = target;
  return Status::OK();
}

Status Ingester::CommitThrough(uint64_t target) {
  std::lock_guard<std::mutex> pipeline(pipeline_mu_);
  std::vector<PendingDoc> batch;
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (!poison_.ok()) return poison_;
    // A caller that got here behind another committer may find its
    // documents already durable and visible — the group commit.
    if (visible_seqno_ >= target) return Status::OK();
    batch.swap(pending_);
  }
  if (batch.empty()) {
    return Status::Internal("group commit lost staged documents");
  }

  auto poison = [this](Status status) {
    std::lock_guard<std::mutex> lk(mu_);
    poison_ = status;
    return status;
  };

  const uint64_t wal_start = NowMicros();
  for (const PendingDoc& doc : batch) {
    Status appended = wal_->Append(doc.seqno, doc.tokens);
    if (!appended.ok()) return poison(appended);
  }
  // One fsync covers the whole drained batch. A failure here is final: the
  // kernel may have dropped the dirty pages, so nothing past the last good
  // sync can be acknowledged (fsyncgate) — the ingester poisons itself and
  // only a re-Open (which re-scans the on-disk log) can resume.
  Status synced = wal_->Sync();
  if (!synced.ok()) return poison(synced);
  durable_seqno_ = batch.back().seqno;

  const uint64_t publish_start = NowMicros();
  Corpus added;
  for (const PendingDoc& doc : batch) added.AddText(doc.tokens);
  NDSS_RETURN_NOT_OK(ExtendDeltaLocked(std::move(added)));
  {
    std::lock_guard<std::mutex> lk(mu_);
    visible_seqno_ = durable_seqno_;
    stats_.docs_appended += batch.size();
    stats_.last_seqno = durable_seqno_;
    stats_.delta_docs = delta_texts_;
    stats_.delta_bytes = EstimatedDeltaBytesLocked();
    stats_.wal_seconds += (publish_start - wal_start) * 1e-6;
    stats_.publish_seconds += (NowMicros() - publish_start) * 1e-6;
  }

  if (EstimatedDeltaBytesLocked() >= options_.memtable_budget_bytes ||
      (options_.memtable_max_docs > 0 &&
       delta_texts_ >= options_.memtable_max_docs)) {
    // Best-effort: the documents are already durable and visible, so a
    // failed spill must not fail the append that tripped the budget. The
    // memtable keeps serving and the next commit retries.
    Status spilled = SpillLocked();
    if (!spilled.ok()) {
      NDSS_LOG(kWarning) << "memtable spill failed (will retry): "
                         << spilled.ToString();
    }
  }
  return Status::OK();
}

Status Ingester::ExtendDeltaLocked(Corpus added) {
  // Compact windows are generated per text, so the index of the memtable
  // plus `added` is, per key, the memtable's run followed by `added`'s run
  // once `added`'s ids continue after the memtable's (the MergeIndexes
  // argument). Only `added` is hashed; the merge is a copy.
  added.set_base_id(static_cast<TextId>(delta_texts_));
  const IndexBuildOptions& build = options_.build;
  const SketchScheme scheme(build.sketch, build.k, build.seed);
  const CorpusBaseRows base_rows =
      CorpusBaseRows::Build(scheme, added, build.num_threads);
  std::vector<std::unique_ptr<InMemoryInvertedIndex>> indexes;
  std::vector<const InMemoryInvertedIndex*> views;
  uint64_t windows = 0;
  for (uint32_t func = 0; func < build.k; ++func) {
    auto index = std::make_unique<InMemoryInvertedIndex>(
        added, scheme, func, build.t, build.window_method, &base_rows);
    if (!delta_indexes_.empty()) {
      NDSS_ASSIGN_OR_RETURN(
          index, InMemoryInvertedIndex::Merge(*delta_indexes_[func], *index));
    }
    windows += index->num_windows();
    views.push_back(index.get());
    indexes.push_back(std::move(index));
  }
  const uint64_t texts = delta_texts_ + added.num_texts();
  const uint64_t tokens = delta_tokens_ + added.total_tokens();
  NDSS_ASSIGN_OR_RETURN(
      Searcher next, Searcher::InMemory(std::move(indexes), build, texts,
                                        tokens));
  // The documents are durable, so they join the memtable even if the
  // install below fails: the next publish or spill carries them.
  delta_ = std::make_shared<Searcher>(std::move(next));
  delta_indexes_ = std::move(views);
  delta_texts_ = texts;
  delta_tokens_ = tokens;
  delta_windows_ = windows;
  return searcher_->SetDelta(delta_);
}

uint64_t Ingester::EstimatedDeltaBytesLocked() const {
  // The ursadb estimated_size idiom: 16 bytes per indexed window (posting +
  // bucket overhead) plus 4 bytes per document token. The memtable keeps no
  // token copy, but a sealed shard's budget stays in the same units.
  return delta_windows_ * 16 + delta_tokens_ * 4;
}

Status Ingester::SpillLocked() {
  if (delta_texts_ == 0) return Status::OK();
  const uint64_t start = NowMicros();
  auto count_failure = [this, start] {
    std::lock_guard<std::mutex> lk(mu_);
    ++stats_.spill_failures;
    stats_.spill_seconds += (NowMicros() - start) * 1e-6;
  };

  const std::string entry = SpillEntryName(durable_seqno_);
  const std::string dir = searcher_->set_dir() + "/" + entry;
  // The memtable's lists are already what a build over its documents would
  // sort (the same windows, per key in (text, l) order), so they are written
  // as they are. The crash-safe build protocol (CURRENT marker last) makes a
  // half-built spill directory inert; a crash here leaves an orphan the
  // next Open sweeps.
  IndexBuildStats build_stats;
  Status built = WriteIndexDir(
      dir, options_.build, delta_texts_, delta_tokens_,
      [this](uint32_t func, InvertedIndexWriter* writer) {
        return delta_indexes_[func]->WriteLists(writer);
      },
      &build_stats);
  if (!built.ok()) {
    Status removed = RemoveDirRecursive(dir);
    (void)removed;
    count_failure();
    return built;
  }

  // The manifest commit inside PromoteDelta is the atomic point: before it
  // the documents are served from the memtable (and replayed from the WAL
  // after a crash); after it they are served from the sealed shard (and
  // replay skips them via applied_seqno). No window sees them twice or not
  // at all.
  Status promoted = searcher_->PromoteDelta(entry, nullptr, durable_seqno_);
  if (!promoted.ok()) {
    Status removed = RemoveDirRecursive(dir);
    (void)removed;
    count_failure();
    return promoted;
  }

  delta_.reset();
  delta_indexes_.clear();
  delta_texts_ = 0;
  delta_tokens_ = 0;
  delta_windows_ = 0;

  // Truncating the WAL is advisory cleanup, not correctness: stale frames
  // are at or below applied_seqno and replay skips them. Only a failed
  // *reopen* poisons (no writer = no way to append).
  Status closed = wal_->Close();
  if (!closed.ok()) {
    NDSS_LOG(kWarning) << "WAL close before truncation: " << closed.ToString();
  }
  Status truncated = TruncateFile(wal_path_, 0);
  if (!truncated.ok()) {
    NDSS_LOG(kWarning) << "WAL truncation after spill (stale frames are "
                          "skipped on replay): "
                       << truncated.ToString();
  }
  auto reopened = WalWriter::Open(wal_path_);
  if (!reopened.ok()) {
    std::lock_guard<std::mutex> lk(mu_);
    poison_ = reopened.status();
    stats_.spill_seconds += (NowMicros() - start) * 1e-6;
    return poison_;
  }
  wal_ = std::make_unique<WalWriter>(std::move(*reopened));

  {
    std::lock_guard<std::mutex> lk(mu_);
    ++stats_.spills;
    stats_.applied_seqno = durable_seqno_;
    stats_.delta_docs = 0;
    stats_.delta_bytes = 0;
    stats_.last_spill_seconds = (NowMicros() - start) * 1e-6;
    stats_.spill_seconds += stats_.last_spill_seconds;
  }
  return Status::OK();
}

Status Ingester::Flush() {
  uint64_t target;
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (!poison_.ok()) return poison_;
    target = next_seqno_ - 1;
  }
  if (target > 0) NDSS_RETURN_NOT_OK(CommitThrough(target));
  std::lock_guard<std::mutex> pipeline(pipeline_mu_);
  return SpillLocked();
}

Status Ingester::CompactOnce(bool* compacted) {
  if (compacted != nullptr) *compacted = false;
  std::lock_guard<std::mutex> lk(compact_mu_);

  // Plan: the leftmost contiguous run of healthy small shards, at least
  // fanin long, capped at 2x fanin per pass.
  std::vector<ShardInfo> shards = searcher_->shards();
  const uint64_t small = options_.compaction_small_texts;
  auto candidate = [&](const ShardInfo& info) {
    if (info.dropped || info.health.state != ShardHealth::kHealthy) {
      return false;
    }
    return small == 0 || info.num_texts <= small;
  };
  size_t start = shards.size();
  size_t len = 0;
  for (size_t i = 0; i < shards.size(); ++i) {
    if (!candidate(shards[i])) continue;
    size_t j = i;
    while (j < shards.size() && candidate(shards[j])) ++j;
    if (j - i >= options_.compaction_fanin) {
      start = i;
      len = std::min(j - i, options_.compaction_fanin * 2);
      break;
    }
    i = j;
  }
  if (len == 0) return Status::OK();

  std::vector<std::string> run_dirs;
  for (size_t i = start; i < start + len; ++i) {
    run_dirs.push_back(shards[i].dir);
  }
  const std::string entry = "compact-" + std::to_string(searcher_->epoch()) +
                            "-" + std::to_string(compact_counter_++);
  const std::string out_dir = searcher_->set_dir() + "/" + entry;

  auto count_failure = [this] {
    std::lock_guard<std::mutex> stats_lk(mu_);
    ++stats_.compaction_failures;
  };

  IndexMergeOptions merge_options;
  merge_options.zone_step = options_.build.zone_step;
  merge_options.zone_threshold = options_.build.zone_threshold;
  merge_options.posting_format = options_.build.posting_format;
  // Retry rides out transient IO (decorrelated jitter by default); each
  // attempt starts from a clean output directory.
  Status merged = RunWithRetry(options_.compaction_retry, [&] {
    NDSS_RETURN_NOT_OK(RemoveDirRecursive(out_dir));
    auto r = MergeIndexes(run_dirs, out_dir, merge_options);
    return r.ok() ? Status::OK() : r.status();
  });
  if (!merged.ok()) {
    Status removed = RemoveDirRecursive(out_dir);
    (void)removed;
    count_failure();
    return merged;
  }

  Status replaced = searcher_->ReplaceShards(run_dirs, entry);
  if (replaced.IsNotFound()) {
    // The topology changed under the plan (concurrent attach/detach).
    // Nothing was swapped; discard the merge and let the next pass replan.
    Status removed = RemoveDirRecursive(out_dir);
    (void)removed;
    return Status::OK();
  }
  if (!replaced.ok()) {
    Status removed = RemoveDirRecursive(out_dir);
    (void)removed;
    count_failure();
    return replaced;
  }

  // Committed: the folded inputs are garbage now. Only directories this
  // pipeline created are deleted — externally attached shards are the
  // operator's to manage.
  for (const std::string& dir : run_dirs) {
    std::string name = std::filesystem::path(dir).filename().string();
    if (!IngestOwnedName(name)) continue;
    Status removed = RemoveDirRecursive(dir);
    if (!removed.ok()) {
      NDSS_LOG(kWarning) << "compaction: cannot remove folded shard '" << dir
                         << "': " << removed.ToString();
    }
  }
  {
    std::lock_guard<std::mutex> stats_lk(mu_);
    ++stats_.compactions;
  }
  if (compacted != nullptr) *compacted = true;
  return Status::OK();
}

void Ingester::StartCompactor() {
  std::lock_guard<std::mutex> lk(compact_mu_);
  if (compactor_running_) return;
  compactor_running_ = true;
  stop_compactor_ = false;
  compactor_ = std::thread([this] { CompactorLoop(); });
}

void Ingester::StopCompactor() {
  {
    std::lock_guard<std::mutex> lk(compact_mu_);
    if (!compactor_running_) return;
    stop_compactor_ = true;
  }
  compact_cv_.notify_all();
  compactor_.join();
  std::lock_guard<std::mutex> lk(compact_mu_);
  compactor_running_ = false;
  stop_compactor_ = false;
}

void Ingester::CompactorLoop() {
  while (true) {
    {
      std::unique_lock<std::mutex> lk(compact_mu_);
      compact_cv_.wait_for(
          lk, std::chrono::microseconds(options_.compaction_poll_micros),
          [this] { return stop_compactor_; });
      if (stop_compactor_) return;
      if (NowMicros() < compact_backoff_until_micros_) continue;
    }
    bool did = false;
    Status status = CompactOnce(&did);
    std::unique_lock<std::mutex> lk(compact_mu_);
    if (stop_compactor_) return;
    if (!status.ok()) {
      // Quarantine the compactor, not the shards: serving and ingestion
      // continue untouched while the backoff doubles per consecutive
      // failure (capped at 64x).
      ++compact_consecutive_failures_;
      uint64_t mult = uint64_t{1}
                      << std::min<uint32_t>(compact_consecutive_failures_ - 1,
                                            6u);
      compact_backoff_until_micros_ =
          NowMicros() + options_.compaction_quarantine_micros * mult;
      NDSS_LOG(kWarning) << "background compaction failed ("
                         << status.ToString() << "); backing off "
                         << options_.compaction_quarantine_micros * mult
                         << "us";
    } else {
      compact_consecutive_failures_ = 0;
      compact_backoff_until_micros_ = 0;
    }
  }
}

Status Ingester::Close() {
  StopCompactor();
  uint64_t target;
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (closed_) return Status::OK();
    closed_ = true;
    target = poison_.ok() ? next_seqno_ - 1 : 0;
  }
  Status committed = Status::OK();
  if (target > 0) {
    committed = CommitThrough(target);
    // CommitThrough returns OK when everything staged is already visible.
  }
  std::lock_guard<std::mutex> pipeline(pipeline_mu_);
  Status closed = wal_ != nullptr ? wal_->Close() : Status::OK();
  if (!committed.ok()) return committed;
  return closed;
}

IngestStats Ingester::stats() const {
  std::lock_guard<std::mutex> lk(mu_);
  return stats_;
}

bool Ingester::poisoned() const {
  std::lock_guard<std::mutex> lk(mu_);
  return !poison_.ok();
}

}  // namespace ndss
