#include "index/memory_index.h"

#include <algorithm>
#include <string>

#include "common/query_context.h"
#include "index/inverted_index_writer.h"

namespace ndss {

InMemoryInvertedIndex::InMemoryInvertedIndex(const Corpus& corpus,
                                             const SketchScheme& scheme,
                                             uint32_t func, uint32_t t,
                                             WindowGenMethod method,
                                             const CorpusBaseRows* base_rows) {
  WindowGenerator generator(method);
  std::vector<CompactWindow> scratch;
  std::vector<KeyedWindow> keyed;
  const bool from_base = base_rows != nullptr && base_rows->enabled();
  for (size_t i = 0; i < corpus.num_texts(); ++i) {
    const std::span<const Token> text = corpus.text(i);
    scratch.clear();
    if (from_base) {
      generator.GenerateFromBase(scheme, func, base_rows->row(i), t, &scratch);
    } else {
      generator.Generate(scheme, func, text, t, &scratch);
    }
    const TextId id = corpus.base_id() + static_cast<TextId>(i);
    for (const CompactWindow& w : scratch) {
      keyed.push_back(KeyedWindow{text[w.c], id, w.l, w.c, w.r});
    }
  }
  std::sort(keyed.begin(), keyed.end(), KeyedWindowLess);

  windows_.reserve(keyed.size());
  size_t i = 0;
  while (i < keyed.size()) {
    const Token key = keyed[i].key;
    ListMeta meta;
    meta.key = key;
    meta.list_offset = windows_.size();
    while (i < keyed.size() && keyed[i].key == key) {
      windows_.push_back(keyed[i].ToPosted());
      ++i;
    }
    meta.count = windows_.size() - meta.list_offset;
    meta.list_bytes = meta.count * sizeof(PostedWindow);
    directory_.push_back(meta);
  }
}

Result<std::unique_ptr<InMemoryInvertedIndex>> InMemoryInvertedIndex::Merge(
    const InMemoryInvertedIndex& older, const InMemoryInvertedIndex& newer) {
  std::unique_ptr<InMemoryInvertedIndex> merged(new InMemoryInvertedIndex());
  merged->windows_.reserve(older.windows_.size() + newer.windows_.size());
  merged->directory_.reserve(older.directory_.size() +
                             newer.directory_.size());
  const std::vector<ListMeta>& a = older.directory_;
  const std::vector<ListMeta>& b = newer.directory_;
  size_t i = 0;
  size_t j = 0;
  while (i < a.size() || j < b.size()) {
    const bool from_older =
        j == b.size() || (i < a.size() && a[i].key <= b[j].key);
    const bool from_newer =
        i == a.size() || (j < b.size() && b[j].key <= a[i].key);
    ListMeta meta;
    meta.key = from_older ? a[i].key : b[j].key;
    meta.list_offset = merged->windows_.size();
    merged->directory_.push_back(meta);
    if (from_older && from_newer) {
      const PostedWindow& last =
          older.windows_[a[i].list_offset + a[i].count - 1];
      const PostedWindow& first = newer.windows_[b[j].list_offset];
      if (last.text >= first.text) {
        return Status::InvalidArgument(
            "in-memory index merge: text " + std::to_string(first.text) +
            " of the newer index does not follow text " +
            std::to_string(last.text) + " in list " +
            std::to_string(meta.key));
      }
    }
    if (from_older) merged->AppendRun(older, a[i++]);
    if (from_newer) merged->AppendRun(newer, b[j++]);
  }
  return merged;
}

void InMemoryInvertedIndex::AppendRun(const InMemoryInvertedIndex& source,
                                      const ListMeta& meta) {
  const PostedWindow* begin = source.windows_.data() + meta.list_offset;
  windows_.insert(windows_.end(), begin, begin + meta.count);
  ListMeta& open = directory_.back();
  open.count += meta.count;
  open.list_bytes = open.count * sizeof(PostedWindow);
}

Status InMemoryInvertedIndex::WriteLists(InvertedIndexWriter* writer) const {
  for (const ListMeta& meta : directory_) {
    NDSS_RETURN_NOT_OK(writer->BeginList(meta.key));
    NDSS_RETURN_NOT_OK(
        writer->AddWindows(windows_.data() + meta.list_offset, meta.count));
  }
  return Status::OK();
}

const ListMeta* InMemoryInvertedIndex::FindList(Token key) const {
  auto it = std::lower_bound(
      directory_.begin(), directory_.end(), key,
      [](const ListMeta& meta, Token k) { return meta.key < k; });
  if (it == directory_.end() || it->key != key) return nullptr;
  return &*it;
}

Status InMemoryInvertedIndex::ReadList(const ListMeta& meta,
                                       std::vector<PostedWindow>* out,
                                       uint64_t* io_bytes,
                                       const QueryContext* ctx) {
  // One memcpy of an in-memory run: a single checkpoint suffices.
  NDSS_RETURN_NOT_OK(CheckQueryContext(ctx));
  const PostedWindow* begin = windows_.data() + meta.list_offset;
  out->insert(out->end(), begin, begin + meta.count);
  const uint64_t bytes = meta.count * sizeof(PostedWindow);
  bytes_served_.fetch_add(bytes, std::memory_order_relaxed);
  if (io_bytes != nullptr) *io_bytes += bytes;
  return Status::OK();
}

Status InMemoryInvertedIndex::ReadWindowsForText(
    const ListMeta& meta, TextId text, std::vector<PostedWindow>* out,
    uint64_t* io_bytes, const QueryContext* ctx) {
  NDSS_RETURN_NOT_OK(CheckQueryContext(ctx));
  const PostedWindow* begin = windows_.data() + meta.list_offset;
  const PostedWindow* end = begin + meta.count;
  // Lists are sorted by (text, l): binary search the text's run.
  const PostedWindow* lo = std::lower_bound(
      begin, end, text,
      [](const PostedWindow& w, TextId t) { return w.text < t; });
  const PostedWindow* hi = std::upper_bound(
      lo, end, text,
      [](TextId t, const PostedWindow& w) { return t < w.text; });
  out->insert(out->end(), lo, hi);
  const uint64_t bytes = static_cast<uint64_t>(hi - lo) * sizeof(PostedWindow);
  bytes_served_.fetch_add(bytes, std::memory_order_relaxed);
  if (io_bytes != nullptr) *io_bytes += bytes;
  return Status::OK();
}

}  // namespace ndss
