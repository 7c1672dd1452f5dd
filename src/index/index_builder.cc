#include "index/index_builder.h"

#include <algorithm>
#include <optional>
#include <vector>

#include "common/file_io.h"
#include "common/logging.h"
#include "common/retry.h"
#include "common/stopwatch.h"
#include "common/thread_pool.h"
#include "index/inverted_index_writer.h"
#include "index/posting.h"
#include "sketch/sketch_scheme.h"

namespace ndss {

namespace {

Status ValidateOptions(const IndexBuildOptions& options) {
  if (options.k == 0) return Status::InvalidArgument("k must be >= 1");
  if (options.t == 0) return Status::InvalidArgument("t must be >= 1");
  if (options.zone_step == 0) {
    return Status::InvalidArgument("zone_step must be >= 1");
  }
  if (options.num_partitions == 0) {
    return Status::InvalidArgument("num_partitions must be >= 1");
  }
  return Status::OK();
}

IndexMeta MakeMeta(const IndexBuildOptions& options, uint64_t num_texts,
                   uint64_t total_tokens) {
  IndexMeta meta;
  meta.k = options.k;
  meta.seed = options.seed;
  meta.t = options.t;
  meta.num_texts = num_texts;
  meta.total_tokens = total_tokens;
  meta.zone_step = options.zone_step;
  meta.zone_threshold = options.zone_threshold;
  meta.sketch = options.sketch;
  return meta;
}

/// Generates the KeyedWindows of every text of `corpus` under function
/// `func`, in parallel across texts. When `base_rows` is enabled (C-MinHash
/// builds), the hash row of each text is derived from its precomputed base
/// row — the single σ pass shared by all k functions — instead of hashing
/// the tokens again. Output order is unspecified, and the downstream sort
/// by KeyedWindowLess (a total order) makes the emitted index bytes
/// independent of it.
void GenerateFunctionWindows(const Corpus& corpus, const SketchScheme& scheme,
                             const CorpusBaseRows& base_rows, uint32_t func,
                             const IndexBuildOptions& options,
                             std::vector<KeyedWindow>* out) {
  const size_t num_texts = corpus.num_texts();
  const size_t num_threads = std::max<size_t>(1, options.num_threads);
  auto generate_range = [&](size_t begin, size_t end,
                            std::vector<KeyedWindow>* sink) {
    WindowGenerator generator(options.window_method, options.rmq_kind);
    std::vector<CompactWindow> windows;
    for (size_t i = begin; i < end; ++i) {
      const std::span<const Token> text = corpus.text(i);
      windows.clear();
      if (base_rows.enabled()) {
        generator.GenerateFromBase(scheme, func, base_rows.row(i), options.t,
                                   &windows);
      } else {
        generator.Generate(scheme, func, text, options.t, &windows);
      }
      const TextId id = corpus.base_id() + static_cast<TextId>(i);
      for (const CompactWindow& w : windows) {
        sink->push_back(KeyedWindow{text[w.c], id, w.l, w.c, w.r});
      }
    }
  };
  if (num_threads == 1) {
    generate_range(0, num_texts, out);
    return;
  }
  // Each thread fills a private buffer (the paper's parallel build); buffers
  // are concatenated afterwards.
  std::vector<std::vector<KeyedWindow>> buffers(num_threads);
  const size_t chunk = (num_texts + num_threads - 1) / num_threads;
  ParallelFor(num_threads, num_threads, [&](size_t th) {
    const size_t begin = th * chunk;
    const size_t end = std::min(num_texts, begin + chunk);
    generate_range(begin, end, &buffers[th]);
  });
  for (auto& buffer : buffers) {
    out->insert(out->end(), buffer.begin(), buffer.end());
  }
}

}  // namespace

Status WriteIndexDir(
    const std::string& dir, const IndexBuildOptions& options,
    uint64_t num_texts, uint64_t total_tokens,
    const std::function<Status(uint32_t func, InvertedIndexWriter* writer)>&
        write_lists,
    IndexBuildStats* stats) {
  NDSS_RETURN_NOT_OK(ValidateOptions(options));
  NDSS_RETURN_NOT_OK(CreateDirectories(dir));
  // Invalidate any previous build before the first byte is written and sweep
  // leftovers of a crashed one; the marker is re-written as the last step.
  NDSS_RETURN_NOT_OK(RemoveIndexCommitMarker(dir));
  NDSS_RETURN_NOT_OK(CleanupIndexOrphans(dir));
  for (uint32_t func = 0; func < options.k; ++func) {
    Stopwatch phase;
    NDSS_ASSIGN_OR_RETURN(
        InvertedIndexWriter writer,
        InvertedIndexWriter::Create(IndexMeta::InvertedIndexPath(dir, func),
                                    func, options.zone_step,
                                    options.zone_threshold,
                                    options.posting_format));
    stats->io_seconds += phase.ElapsedSeconds();
    NDSS_RETURN_NOT_OK(write_lists(func, &writer));
    phase.Restart();
    NDSS_RETURN_NOT_OK(writer.Finish());
    stats->io_seconds += phase.ElapsedSeconds();
    stats->num_windows += writer.num_windows();
    stats->index_bytes += writer.bytes_written();
  }
  NDSS_RETURN_NOT_OK(MakeMeta(options, num_texts, total_tokens).Save(dir));
  return WriteIndexCommitMarker(dir);
}

Result<IndexBuildStats> BuildIndexInMemory(const Corpus& corpus,
                                           const std::string& dir,
                                           const IndexBuildOptions& options) {
  NDSS_RETURN_NOT_OK(ValidateOptions(options));
  const SketchScheme scheme(options.sketch, options.k, options.seed);
  Stopwatch total;
  IndexBuildStats stats;

  // C-MinHash: hash every token once up front; the k per-function passes
  // below derive their rows from this (8 bytes per corpus token while the
  // build runs). kIndependent materializes nothing here.
  Stopwatch base_phase;
  const CorpusBaseRows base_rows =
      CorpusBaseRows::Build(scheme, corpus, options.num_threads);
  stats.generate_seconds += base_phase.ElapsedSeconds();

  std::vector<KeyedWindow> windows;
  auto write_lists = [&](uint32_t func, InvertedIndexWriter* writer) {
    Stopwatch phase;
    windows.clear();
    GenerateFunctionWindows(corpus, scheme, base_rows, func, options,
                            &windows);
    stats.generate_seconds += phase.ElapsedSeconds();

    phase.Restart();
    std::sort(windows.begin(), windows.end(), KeyedWindowLess);
    stats.sort_seconds += phase.ElapsedSeconds();

    phase.Restart();
    Status written = writer->WriteSorted(windows.data(), windows.size());
    stats.io_seconds += phase.ElapsedSeconds();
    return written;
  };
  NDSS_RETURN_NOT_OK(WriteIndexDir(dir, options, corpus.num_texts(),
                                   corpus.total_tokens(), write_lists,
                                   &stats));
  stats.total_seconds = total.ElapsedSeconds();
  return stats;
}

namespace {

std::string SpillPath(const std::string& dir, uint32_t func,
                      uint32_t partition, uint32_t depth) {
  return dir + "/spill." + std::to_string(func) + "." +
         std::to_string(partition) + ".d" + std::to_string(depth);
}

/// Partition of `key` at recursion `depth`: successive base-P digits so a
/// key always stays within one sub-partition of its parent partition.
uint32_t PartitionOf(Token key, uint32_t num_partitions, uint32_t depth) {
  uint64_t value = SplitMix64(key);  // spread consecutive token ids
  for (uint32_t d = 0; d < depth; ++d) value /= num_partitions;
  return static_cast<uint32_t>(value % num_partitions);
}

/// Reads a whole spill file of raw KeyedWindow records. The read is
/// idempotent, so transient IO errors are retried with backoff rather than
/// aborting a multi-hour build.
Result<std::vector<KeyedWindow>> LoadSpill(const std::string& path) {
  std::vector<KeyedWindow> records;
  NDSS_RETURN_NOT_OK(RunWithRetry(RetryPolicy{}, [&]() -> Status {
    records.clear();
    NDSS_ASSIGN_OR_RETURN(FileReader reader, FileReader::Open(path));
    if (reader.size() % sizeof(KeyedWindow) != 0) {
      return Status::Corruption("spill file size not a record multiple: " +
                                path);
    }
    records.resize(reader.size() / sizeof(KeyedWindow));
    if (!records.empty()) {
      NDSS_RETURN_NOT_OK(reader.ReadExact(records.data(), reader.size()));
    }
    return Status::OK();
  }));
  return records;
}

struct ExternalBuildContext {
  const IndexBuildOptions* options;
  std::string dir;
  IndexBuildStats* stats;
};

/// Sorts and writes one partition's windows into `writer`, recursively
/// re-partitioning when the spill file exceeds the memory budget
/// (Section 3.4's recursive partitioning).
Status AggregatePartition(const ExternalBuildContext& ctx,
                          const std::string& path, uint32_t func,
                          uint32_t depth, InvertedIndexWriter* writer) {
  if (!FileExists(path)) return Status::OK();
  NDSS_ASSIGN_OR_RETURN(uint64_t size, FileSize(path));
  const IndexBuildOptions& options = *ctx.options;
  constexpr uint32_t kMaxDepth = 8;
  if (size > options.memory_budget_bytes && depth < kMaxDepth &&
      options.num_partitions > 1) {
    // Re-partition into child spill files by the next key digit.
    NDSS_ASSIGN_OR_RETURN(FileReader reader, FileReader::Open(path));
    std::vector<FileWriter> children;
    std::vector<std::string> child_paths;
    for (uint32_t p = 0; p < options.num_partitions; ++p) {
      std::string child_path = path + "." + std::to_string(p);
      NDSS_ASSIGN_OR_RETURN(FileWriter child, FileWriter::Open(child_path));
      children.push_back(std::move(child));
      child_paths.push_back(std::move(child_path));
    }
    std::vector<KeyedWindow> buffer(1 << 16);
    for (;;) {
      NDSS_ASSIGN_OR_RETURN(
          size_t bytes,
          reader.Read(buffer.data(), buffer.size() * sizeof(KeyedWindow)));
      if (bytes == 0) break;
      const size_t records = bytes / sizeof(KeyedWindow);
      for (size_t i = 0; i < records; ++i) {
        const uint32_t p =
            PartitionOf(buffer[i].key, options.num_partitions, depth + 1);
        NDSS_RETURN_NOT_OK(
            children[p].Append(&buffer[i], sizeof(KeyedWindow)));
        ctx.stats->spill_bytes += sizeof(KeyedWindow);
      }
    }
    for (auto& child : children) NDSS_RETURN_NOT_OK(child.Close());
    NDSS_RETURN_NOT_OK(RemoveFile(path));
    for (const std::string& child_path : child_paths) {
      NDSS_RETURN_NOT_OK(
          AggregatePartition(ctx, child_path, func, depth + 1, writer));
    }
    return Status::OK();
  }
  // Fits (or recursion bottomed out): sort in memory and emit lists.
  Stopwatch phase;
  NDSS_ASSIGN_OR_RETURN(std::vector<KeyedWindow> records, LoadSpill(path));
  ctx.stats->io_seconds += phase.ElapsedSeconds();
  phase.Restart();
  std::sort(records.begin(), records.end(), KeyedWindowLess);
  ctx.stats->sort_seconds += phase.ElapsedSeconds();
  phase.Restart();
  NDSS_RETURN_NOT_OK(writer->WriteSorted(records.data(), records.size()));
  ctx.stats->io_seconds += phase.ElapsedSeconds();
  ctx.stats->num_windows += records.size();
  return RemoveFile(path);
}

}  // namespace

Result<IndexBuildStats> BuildIndexExternal(const std::string& corpus_path,
                                           const std::string& dir,
                                           const IndexBuildOptions& options) {
  NDSS_RETURN_NOT_OK(ValidateOptions(options));
  NDSS_RETURN_NOT_OK(CreateDirectories(dir));
  // Invalidate any previous build and sweep temp/spill leftovers of a
  // crashed one before writing anything.
  NDSS_RETURN_NOT_OK(RemoveIndexCommitMarker(dir));
  NDSS_RETURN_NOT_OK(CleanupIndexOrphans(dir));
  const SketchScheme scheme(options.sketch, options.k, options.seed);
  Stopwatch total;
  IndexBuildStats stats;
  ExternalBuildContext ctx{&options, dir, &stats};

  NDSS_ASSIGN_OR_RETURN(CorpusFileReader corpus,
                        CorpusFileReader::Open(corpus_path));

  // Phase 1: stream batches, generate windows, spill by (func, partition).
  // Buffers are flushed in append mode so only one spill file is open at a
  // time regardless of k * num_partitions.
  const uint32_t P = options.num_partitions;
  std::vector<std::vector<KeyedWindow>> spill_buffers(
      static_cast<size_t>(options.k) * P);
  // Flush a buffer once it holds ~4 MiB of records.
  const size_t flush_records = (4u << 20) / sizeof(KeyedWindow);

  auto flush_buffer = [&](uint32_t func, uint32_t p) -> Status {
    auto& buffer = spill_buffers[static_cast<size_t>(func) * P + p];
    if (buffer.empty()) return Status::OK();
    Stopwatch phase;
    // Only the open is retried: an append that failed mid-way may have
    // reached the file, and re-appending the buffer would duplicate records.
    std::optional<FileWriter> writer;
    NDSS_RETURN_NOT_OK(RunWithRetry(RetryPolicy{}, [&]() -> Status {
      NDSS_ASSIGN_OR_RETURN(FileWriter opened,
                            FileWriter::OpenForAppend(SpillPath(dir, func, p,
                                                                0)));
      writer.emplace(std::move(opened));
      return Status::OK();
    }));
    NDSS_RETURN_NOT_OK(
        writer->Append(buffer.data(), buffer.size() * sizeof(KeyedWindow)));
    NDSS_RETURN_NOT_OK(writer->Close());
    stats.spill_bytes += buffer.size() * sizeof(KeyedWindow);
    stats.io_seconds += phase.ElapsedSeconds();
    buffer.clear();
    return Status::OK();
  };

  NDSS_RETURN_NOT_OK(corpus.SeekToStart());
  std::vector<KeyedWindow> generated;
  for (;;) {
    NDSS_ASSIGN_OR_RETURN(Corpus batch, corpus.ReadBatch(options.batch_tokens));
    if (batch.empty()) break;
    // C-MinHash: one σ pass per batch, shared by the k function loops below
    // and released with the batch (8 bytes per batch token, well under the
    // batch's own footprint).
    Stopwatch base_phase;
    const CorpusBaseRows base_rows =
        CorpusBaseRows::Build(scheme, batch, options.num_threads);
    stats.generate_seconds += base_phase.ElapsedSeconds();
    for (uint32_t func = 0; func < options.k; ++func) {
      Stopwatch phase;
      generated.clear();
      GenerateFunctionWindows(batch, scheme, base_rows, func, options,
                              &generated);
      stats.generate_seconds += phase.ElapsedSeconds();
      for (const KeyedWindow& w : generated) {
        const uint32_t p = PartitionOf(w.key, P, 0);
        auto& buffer = spill_buffers[static_cast<size_t>(func) * P + p];
        buffer.push_back(w);
        if (buffer.size() >= flush_records) {
          NDSS_RETURN_NOT_OK(flush_buffer(func, p));
        }
      }
    }
  }
  for (uint32_t func = 0; func < options.k; ++func) {
    for (uint32_t p = 0; p < P; ++p) {
      NDSS_RETURN_NOT_OK(flush_buffer(func, p));
    }
  }

  // Phase 2: aggregate each partition into the final inverted files.
  for (uint32_t func = 0; func < options.k; ++func) {
    NDSS_ASSIGN_OR_RETURN(
        InvertedIndexWriter writer,
        InvertedIndexWriter::Create(IndexMeta::InvertedIndexPath(dir, func),
                                    func, options.zone_step,
                                    options.zone_threshold,
                                    options.posting_format));
    for (uint32_t p = 0; p < P; ++p) {
      NDSS_RETURN_NOT_OK(
          AggregatePartition(ctx, SpillPath(dir, func, p, 0), func, 0,
                             &writer));
    }
    NDSS_RETURN_NOT_OK(writer.Finish());
    stats.index_bytes += writer.bytes_written();
  }

  const IndexMeta meta =
      MakeMeta(options, corpus.num_texts(), corpus.total_tokens());
  NDSS_RETURN_NOT_OK(meta.Save(dir));
  NDSS_RETURN_NOT_OK(WriteIndexCommitMarker(dir));
  stats.total_seconds = total.ElapsedSeconds();
  return stats;
}

}  // namespace ndss
