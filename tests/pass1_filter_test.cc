// Pass 1's distinct-list filter: a text whose windows sit in fewer than β1
// of the scanned lists is dropped before CollisionCount, however many
// windows it has, and a text in exactly β1 lists is kept. Checked on the
// kernel directly, end to end against the Definition-2 brute force through
// both the cacheless Search and a cached SearchBatch (with the stats those
// paths report), and under a cross-query cache that evicts and retires
// entries while queries hold them. The eviction test is a TSan target in
// CI.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <set>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "baseline/brute_force.h"
#include "common/query_context.h"
#include "common/random.h"
#include "corpusgen/synthetic.h"
#include "index/memory_index.h"
#include "query/list_cache.h"
#include "query/reference/reference_kernels.h"
#include "query/searcher.h"

namespace ndss {
namespace {

// ---- the kernel ------------------------------------------------------------

TEST(Pass1FilterTest, ManyWindowsInFewListsNeverGathered) {
  // Text 7 has five disjoint windows in list a and none elsewhere: five
  // windows pass the old group-size test at β1 = 2, yet one list can give
  // any sequence at most one collision.
  const std::vector<PostedWindow> a = {{3, 0, 5, 9},     {7, 0, 2, 4},
                                       {7, 10, 12, 14},  {7, 20, 22, 24},
                                       {7, 30, 32, 34},  {7, 40, 42, 44}};
  const std::vector<PostedWindow> b = {{3, 1, 5, 8}, {9, 0, 1, 2}};
  const std::vector<std::span<const PostedWindow>> lists = {a, b};

  MemoryBudget budget(0);
  QueryContext ctx;
  ctx.set_memory_budget(&budget);
  std::vector<Pass1Match> out;
  {
    ScopedMemoryCharge arena(&ctx);
    ASSERT_TRUE(ScanShortLists(lists, 2, &ctx, &arena, &out).ok());
    // Only text 3 (in both lists) is gathered: the charge is the head
    // array (texts 3, 7 | 3, 9) and its sort scratch plus text 3's two
    // windows, never text 7's five.
    EXPECT_EQ(arena.charged(),
              2 * 4 * sizeof(TextId) + 2 * sizeof(PostedWindow));
  }
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].text, 3u);
  std::vector<Pass1Match> oracle;
  ASSERT_TRUE(reference::Pass1(lists, 2, &oracle).ok());
  ASSERT_EQ(oracle.size(), 1u);
  EXPECT_EQ(oracle[0].rects, out[0].rects);
}

TEST(Pass1FilterTest, ExactlyBeta1ListsKept) {
  // Text 5 sits in exactly three lists with overlapping windows: kept at
  // β1 = 3 with a 3-collision rectangle, dropped at β1 = 4.
  const std::vector<PostedWindow> a = {{1, 0, 1, 2}, {5, 10, 20, 30}};
  const std::vector<PostedWindow> b = {{5, 12, 19, 28}};
  const std::vector<PostedWindow> c = {{5, 11, 21, 29}, {8, 0, 1, 2}};
  const std::vector<PostedWindow> d = {{2, 0, 1, 2}};
  const std::vector<std::span<const PostedWindow>> lists = {a, b, c, d};

  std::vector<Pass1Match> kept, oracle;
  ASSERT_TRUE(ScanShortLists(lists, 3, nullptr, nullptr, &kept).ok());
  ASSERT_TRUE(reference::Pass1(lists, 3, &oracle).ok());
  ASSERT_EQ(kept.size(), 1u);
  EXPECT_EQ(kept[0].text, 5u);
  // The group is in (l) order, exactly as the old (text, l) sort left it.
  EXPECT_EQ(kept[0].windows, oracle[0].windows);
  EXPECT_EQ(kept[0].rects, oracle[0].rects);
  ASSERT_FALSE(kept[0].rects.empty());
  EXPECT_EQ(kept[0].rects[0].collisions, 3u);

  std::vector<Pass1Match> dropped;
  ASSERT_TRUE(ScanShortLists(lists, 4, nullptr, nullptr, &dropped).ok());
  EXPECT_TRUE(dropped.empty());
}

// ---- end to end ------------------------------------------------------------

using SequenceKey = std::tuple<TextId, uint32_t, uint32_t>;

std::set<SequenceKey> ExpandRectangles(
    const std::vector<TextMatchRectangle>& rectangles, uint32_t t) {
  std::set<SequenceKey> sequences;
  for (const TextMatchRectangle& tr : rectangles) {
    for (uint32_t i = tr.rect.x_begin; i <= tr.rect.x_end; ++i) {
      for (uint32_t j = std::max(tr.rect.y_begin, i + t - 1);
           j <= tr.rect.y_end; ++j) {
        sequences.insert({tr.text, i, j});
      }
    }
  }
  return sequences;
}

std::set<SequenceKey> BaselineSequences(
    const std::vector<BaselineMatch>& matches) {
  std::set<SequenceKey> sequences;
  for (const BaselineMatch& m : matches) {
    sequences.insert({m.text, m.begin, m.end});
  }
  return sequences;
}

/// Order-sensitive fingerprint of a result's answer (stats excluded).
std::string Fingerprint(const SearchResult& result) {
  std::string fp;
  for (const TextMatchRectangle& tr : result.rectangles) {
    fp += std::to_string(tr.text) + ":" + std::to_string(tr.rect.x_begin) +
          "," + std::to_string(tr.rect.x_end) + "," +
          std::to_string(tr.rect.y_begin) + "," +
          std::to_string(tr.rect.y_end) + "," +
          std::to_string(tr.rect.collisions) + ";";
  }
  fp += "|";
  for (const MatchSpan& span : result.spans) {
    fp += std::to_string(span.text) + ":" + std::to_string(span.begin) +
          "-" + std::to_string(span.end) + ";";
  }
  return fp;
}

class Pass1FilterSearchTest : public ::testing::Test {
 protected:
  static constexpr uint32_t kK = 8;
  static constexpr uint32_t kT = 15;

  void SetUp() override {
    SyntheticCorpusOptions options;
    options.num_texts = 50;
    options.min_text_length = 40;
    options.max_text_length = 120;
    options.vocab_size = 200;
    options.plant_rate = 0.4;
    options.min_plant_length = 25;
    options.max_plant_length = 50;
    options.seed = 2718;
    const SyntheticCorpus sc = GenerateSyntheticCorpus(options);
    const auto source = sc.corpus.text(3);
    query_.assign(source.begin(), source.begin() + 40);

    // S holds the query's min-hash tokens under functions 0-2, and m
    // functions in all have their min-hash in S. A text cycling through S
    // contains all of S in every sequence of t or more tokens, so each
    // such sequence collides with the query on exactly those m lists, and
    // the text has many windows in each.
    scheme_ = SketchScheme(SketchSchemeId::kIndependent, kK, build_.seed);
    const MinHashSketch sketch =
        ComputeSketch(scheme_, query_.data(), query_.size());
    std::vector<Token> s(sketch.argmin_tokens.begin(),
                         sketch.argmin_tokens.begin() + 3);
    std::sort(s.begin(), s.end());
    s.erase(std::unique(s.begin(), s.end()), s.end());
    for (Token token : sketch.argmin_tokens) {
      m_ += std::binary_search(s.begin(), s.end(), token);
    }
    for (TextId i = 0; i < sc.corpus.num_texts(); ++i) {
      corpus_.AddText(sc.corpus.text(i));
    }
    std::vector<Token> cycle;
    while (cycle.size() < 60) cycle.push_back(s[cycle.size() % s.size()]);
    repeat_text_ = corpus_.AddText(cycle);

    build_.k = kK;
    build_.t = kT;
    auto searcher = Searcher::InMemory(corpus_, build_);
    ASSERT_TRUE(searcher.ok()) << searcher.status().ToString();
    searcher_ = std::make_unique<Searcher>(std::move(*searcher));

    // Every list's length, straight from the per-function indexes.
    for (uint32_t f = 0; f < kK; ++f) {
      InMemoryInvertedIndex index(corpus_, scheme_, f, kT);
      const ListMeta* meta = index.FindList(sketch.argmin_tokens[f]);
      if (meta == nullptr) continue;
      ++non_empty_lists_;
      all_windows_ += meta->count;
    }
  }

  /// θ whose β = ⌈θk⌉ is exactly `beta` (k = 8 makes beta/8 exact).
  static double ThetaFor(uint32_t beta) {
    return static_cast<double>(beta) / kK;
  }

  std::set<SequenceKey> BruteForce(double theta) const {
    return BaselineSequences(
        BruteForceApproxSearch(corpus_, scheme_, query_, theta, kT));
  }

  static bool HasText(const SearchResult& result, TextId text) {
    return std::any_of(
        result.rectangles.begin(), result.rectangles.end(),
        [text](const TextMatchRectangle& r) { return r.text == text; });
  }

  /// Checks one search path's answer and the stats it reports.
  void ExpectAnswer(const SearchResult& got, double theta,
                    const std::string& label) const {
    EXPECT_EQ(ExpandRectangles(got.rectangles, kT), BruteForce(theta))
        << label;
    EXPECT_EQ(got.stats.short_lists, non_empty_lists_) << label;
    EXPECT_EQ(got.stats.long_lists, 0u) << label;
    EXPECT_EQ(got.stats.windows_scanned, all_windows_) << label;
    EXPECT_EQ(got.stats.candidate_texts, 0u) << label;
  }

  IndexBuildOptions build_;
  SketchScheme scheme_{SketchSchemeId::kIndependent, kK, 0};
  Corpus corpus_;
  std::vector<Token> query_;
  uint32_t m_ = 0;
  TextId repeat_text_ = 0;
  std::unique_ptr<Searcher> searcher_;
  uint32_t non_empty_lists_ = 0;
  uint64_t all_windows_ = 0;
};

TEST_F(Pass1FilterSearchTest, FewerThanBeta1ListsNeverMatchesExactlyBeta1Does) {
  ASSERT_GE(m_, 3u);
  ASSERT_LT(m_, kK) << "the seed must leave S short of every function";
  SearchOptions options;
  options.use_prefix_filter = false;  // β1 = β

  // β1 = m + 1: the S-text has more than β1 windows, all in m lists, and
  // must not match.
  options.theta = ThetaFor(m_ + 1);
  auto drop = searcher_->Search(query_, options);
  ASSERT_TRUE(drop.ok()) << drop.status().ToString();
  ExpectAnswer(*drop, options.theta, "cacheless, beta1 = m + 1");
  EXPECT_FALSE(HasText(*drop, repeat_text_));

  // β1 = m: exactly β1 lists, every sequence at m collisions — kept.
  options.theta = ThetaFor(m_);
  auto keep = searcher_->Search(query_, options);
  ASSERT_TRUE(keep.ok()) << keep.status().ToString();
  ExpectAnswer(*keep, options.theta, "cacheless, beta1 = m");
  EXPECT_TRUE(HasText(*keep, repeat_text_));
  EXPECT_EQ(keep->stats.cache_hits, 0u);
  EXPECT_EQ(keep->stats.shared_cache_hits, 0u);

  // The same two queries through a batch, twice over: the batch-scoped
  // cache serves the repeats, and their hits count as cache_hits only.
  for (const uint32_t beta : {m_ + 1, m_}) {
    options.theta = ThetaFor(beta);
    const std::vector<std::vector<Token>> batch = {query_, query_};
    auto results = searcher_->SearchBatch(batch, options);
    ASSERT_TRUE(results.ok()) << results.status().ToString();
    const std::string label = "batch, beta1 = " + std::to_string(beta);
    for (const SearchResult& result : *results) {
      ExpectAnswer(result, options.theta, label);
      EXPECT_EQ(HasText(result, repeat_text_), beta == m_) << label;
      EXPECT_EQ(result.stats.shared_cache_hits, 0u) << label;
    }
    EXPECT_EQ((*results)[0].stats.cache_hits, 0u) << label;
    EXPECT_EQ((*results)[1].stats.cache_hits, non_empty_lists_) << label;
  }

  // And through a cross-query cache: every list of the second batch was
  // loaded by the first, and the hits count as shared_cache_hits only.
  CrossQueryListCache cache(64 << 20);
  BatchLimits limits;
  limits.shared_cache = &cache;
  limits.shared_cache_owner = 1;
  options.theta = ThetaFor(m_);
  for (int round = 0; round < 2; ++round) {
    auto batch = searcher_->SearchBatch({query_}, options, limits);
    ASSERT_TRUE(batch.ok()) << batch.status().ToString();
    ASSERT_TRUE(batch->statuses[0].ok());
    const SearchResult& result = batch->results[0];
    ExpectAnswer(result, options.theta, "shared cache");
    EXPECT_TRUE(HasText(result, repeat_text_));
    EXPECT_EQ(result.stats.cache_hits, 0u);
    EXPECT_EQ(result.stats.shared_cache_hits,
              round == 0 ? 0u : non_empty_lists_);
  }
}

TEST_F(Pass1FilterSearchTest, PrefixFilteredPathsAgreeWithBruteForce) {
  // With long lists deferred, β1 < β: the filter runs at β1 and the
  // candidates it keeps are completed by zone-map probes. Every path must
  // give the brute-force answer and the same stats.
  SearchOptions options;
  options.long_list_threshold = searcher_->ListCountPercentile(0.3);
  for (const double theta : {0.5, 0.75, 1.0}) {
    options.theta = theta;
    const std::string label = "theta " + std::to_string(theta);
    auto cacheless = searcher_->Search(query_, options);
    ASSERT_TRUE(cacheless.ok()) << cacheless.status().ToString();
    EXPECT_EQ(ExpandRectangles(cacheless->rectangles, kT), BruteForce(theta))
        << label;
    std::set<TextId> texts;
    for (const TextMatchRectangle& r : cacheless->rectangles) {
      texts.insert(r.text);
    }
    if (cacheless->stats.long_lists > 0) {
      EXPECT_GE(cacheless->stats.candidate_texts, texts.size()) << label;
    }
    auto batch = searcher_->SearchBatch({query_, query_}, options);
    ASSERT_TRUE(batch.ok()) << batch.status().ToString();
    for (const SearchResult& result : *batch) {
      EXPECT_EQ(Fingerprint(result), Fingerprint(*cacheless)) << label;
      EXPECT_EQ(result.stats.short_lists, cacheless->stats.short_lists);
      EXPECT_EQ(result.stats.long_lists, cacheless->stats.long_lists);
      EXPECT_EQ(result.stats.windows_scanned,
                cacheless->stats.windows_scanned);
      EXPECT_EQ(result.stats.candidate_texts,
                cacheless->stats.candidate_texts);
    }
    EXPECT_EQ((*batch)[1].stats.cache_hits, cacheless->stats.short_lists);
  }
}

// ---- eviction while a list is held -----------------------------------------

TEST(Pass1FilterEvictionTest, EvictedAndRetiredEntriesStayValidForHolders) {
  // A cross-query cache smaller than one query's pass-1 lists evicts
  // entries while the queries that loaded them (and their waiters) still
  // read them in place, and a retirer drops whole owners under them. Every
  // answer must equal the uncached searcher's, bit for bit.
  SyntheticCorpusOptions options;
  options.num_texts = 80;
  options.min_text_length = 40;
  options.max_text_length = 160;
  options.vocab_size = 150;
  options.zipf_exponent = 1.1;
  options.plant_rate = 0.4;
  options.seed = 5151;
  const SyntheticCorpus sc = GenerateSyntheticCorpus(options);
  IndexBuildOptions build;
  build.k = 6;
  build.t = 15;
  auto built = Searcher::InMemory(sc.corpus, build);
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  Searcher& searcher = *built;

  Rng rng(61);
  std::vector<std::vector<Token>> queries;
  for (int q = 0; q < 16; ++q) {
    const auto text = sc.corpus.text(
        static_cast<TextId>(rng.Uniform(sc.corpus.num_texts())));
    const uint32_t length =
        std::min<uint32_t>(35, static_cast<uint32_t>(text.size()));
    queries.push_back(PerturbSequence(text, 0, length, 0.1, 150, rng));
  }
  SearchOptions search;
  search.theta = 0.6;
  search.use_prefix_filter = false;  // every list goes through the cache
  std::vector<std::string> expect;
  uint64_t largest_query_bytes = 0;
  for (const std::vector<Token>& query : queries) {
    auto result = searcher.Search(query, search);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    expect.push_back(Fingerprint(*result));
    largest_query_bytes = std::max<uint64_t>(
        largest_query_bytes,
        result->stats.windows_scanned * sizeof(PostedWindow));
  }
  const uint64_t budget = largest_query_bytes / 3;
  ASSERT_GT(budget, CrossQueryListCache::kEntryOverhead);
  CrossQueryListCache cache(budget);

  std::atomic<uint64_t> owner{1};
  std::atomic<bool> stop{false};
  std::atomic<int> mismatches{0};
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  // Two single-query searchers racing the batch below.
  for (int w = 0; w < 2; ++w) {
    threads.emplace_back([&, w] {
      Rng local(700 + w);
      while (!stop.load(std::memory_order_relaxed)) {
        const size_t q = local.Uniform(queries.size());
        SearchResult result;
        const Status status = searcher.Search(
            queries[q], search, nullptr, &result, &cache,
            owner.load(std::memory_order_relaxed));
        if (!status.ok()) {
          failures.fetch_add(1, std::memory_order_relaxed);
        } else if (Fingerprint(result) != expect[q]) {
          mismatches.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  // The retirer: a fresh owner id, then the old one's entries dropped.
  threads.emplace_back([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      const uint64_t old = owner.fetch_add(1, std::memory_order_relaxed);
      cache.EraseOwner(old);
      std::this_thread::yield();
    }
  });
  for (int round = 0; round < 6; ++round) {
    BatchLimits limits;
    limits.shared_cache = &cache;
    limits.shared_cache_owner = owner.load(std::memory_order_relaxed);
    auto batch = searcher.SearchBatch(queries, search, limits, 0, 4);
    ASSERT_TRUE(batch.ok()) << batch.status().ToString();
    for (size_t q = 0; q < queries.size(); ++q) {
      ASSERT_TRUE(batch->statuses[q].ok()) << batch->statuses[q].ToString();
      EXPECT_EQ(Fingerprint(batch->results[q]), expect[q])
          << "round " << round << " query " << q;
    }
  }
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(mismatches.load(), 0);
  const CrossQueryListCache::Counters counters = cache.counters();
  EXPECT_LE(counters.bytes_used, budget);
  EXPECT_GT(counters.evictions, 0u) << "the budget must force eviction";
  EXPECT_GT(counters.invalidations, 0u) << "owners must have been retired";
  EXPECT_GT(counters.hits, 0u) << "some list must be served from the cache";
}

}  // namespace
}  // namespace ndss
