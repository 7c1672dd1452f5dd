// Property tests pinning the optimized query hot-path kernels to their
// reference oracles (src/query/reference/): thousands of seeded random
// inputs, each checked for exact agreement. The regimes deliberately hit
// the historical failure modes — same-coordinate endpoint pileups, alpha=1,
// duplicate interval ids, and intervals touching UINT32_MAX (the end + 1
// wraparound bug). The pass-1 test runs whole searches over real indexes
// against a search built on the reference pass 1.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <string>
#include <utility>
#include <vector>

#include "common/coding.h"
#include "common/random.h"
#include "corpusgen/zipf.h"
#include "corpusgen/synthetic.h"
#include "index/index_builder.h"
#include "index/index_meta.h"
#include "index/inverted_index_reader.h"
#include "index/varint_block.h"
#include "query/collision_count.h"
#include "query/cost_model.h"
#include "query/interval_scan.h"
#include "query/radix_sort.h"
#include "query/reference/reference_kernels.h"
#include "query/searcher.h"

namespace ndss {
namespace {

// Coordinate regimes. Tiny ranges force dense endpoint pileups (many events
// per coordinate, heavy coalescing pressure); the max regime puts begins
// and ends within a few units of UINT32_MAX.
enum class Regime { kTiny, kMedium, kMax };

std::vector<Interval> RandomIntervals(Rng& rng, size_t m, Regime regime,
                                      bool duplicate_ids) {
  std::vector<Interval> intervals;
  intervals.reserve(m);
  for (size_t i = 0; i < m; ++i) {
    uint32_t begin = 0;
    uint32_t length = 0;
    switch (regime) {
      case Regime::kTiny:
        begin = static_cast<uint32_t>(rng.Uniform(9));
        length = static_cast<uint32_t>(rng.Uniform(9));
        break;
      case Regime::kMedium:
        begin = static_cast<uint32_t>(rng.Uniform(1001));
        length = static_cast<uint32_t>(rng.Uniform(200));
        break;
      case Regime::kMax:
        begin = UINT32_MAX - static_cast<uint32_t>(rng.Uniform(12));
        length = static_cast<uint32_t>(rng.Uniform(12));
        break;
    }
    const uint32_t end =
        begin > UINT32_MAX - length ? UINT32_MAX : begin + length;
    const uint32_t id = duplicate_ids
                            ? static_cast<uint32_t>(rng.Uniform(1 + m / 3))
                            : static_cast<uint32_t>(i);
    intervals.push_back({begin, end, id});
  }
  return intervals;
}

std::vector<uint32_t> AlphaSchedule(size_t m) {
  std::vector<uint32_t> alphas = {1, 2, 3};
  alphas.push_back(std::max<uint32_t>(1, static_cast<uint32_t>(m / 2)));
  alphas.push_back(static_cast<uint32_t>(m));
  return alphas;
}

// Exact agreement up to the documented freedom: member order within a group
// is unspecified, so members are compared sorted.
void ExpectSameGroups(const std::vector<IntervalGroup>& fast,
                      const std::vector<IntervalGroup>& oracle,
                      const std::string& label) {
  ASSERT_EQ(fast.size(), oracle.size()) << label;
  for (size_t g = 0; g < fast.size(); ++g) {
    EXPECT_EQ(fast[g].overlap_begin, oracle[g].overlap_begin)
        << label << " group " << g;
    EXPECT_EQ(fast[g].overlap_end, oracle[g].overlap_end)
        << label << " group " << g;
    std::vector<uint32_t> a = fast[g].members;
    std::vector<uint32_t> b = oracle[g].members;
    std::sort(a.begin(), a.end());
    std::sort(b.begin(), b.end());
    EXPECT_EQ(a, b) << label << " group " << g;
  }
}

TEST(IntervalScanPropertyTest, MatchesReferenceOracle) {
  Rng rng(20230601);
  int cases = 0;
  for (int trial = 0; trial < 120; ++trial) {
    for (Regime regime : {Regime::kTiny, Regime::kMedium, Regime::kMax}) {
      const size_t m = 1 + rng.Uniform(trial % 4 == 0 ? 200 : 40);
      const bool duplicate_ids = rng.Uniform(3) == 0;
      const std::vector<Interval> intervals =
          RandomIntervals(rng, m, regime, duplicate_ids);
      for (uint32_t alpha : AlphaSchedule(m)) {
        std::vector<IntervalGroup> fast, oracle;
        const Status fast_status = IntervalScan(intervals, alpha, &fast);
        const Status oracle_status =
            reference::IntervalScan(intervals, alpha, &oracle);
        ASSERT_EQ(fast_status.ok(), oracle_status.ok());
        const std::string label = "trial " + std::to_string(trial) +
                                  " regime " +
                                  std::to_string(static_cast<int>(regime)) +
                                  " alpha " + std::to_string(alpha);
        ExpectSameGroups(fast, oracle, label);
        ++cases;
      }
    }
  }
  EXPECT_GE(cases, 1000);  // the contract: >= 1k seeded random inputs
}

TEST(IntervalScanPropertyTest, CollisionCountMatchesReferenceOracle) {
  Rng rng(77003);
  for (int trial = 0; trial < 250; ++trial) {
    // Reference CollisionCount materializes members (O(m^2)); keep groups
    // modest.
    const size_t m = 1 + rng.Uniform(64);
    const bool tiny = rng.Uniform(2) == 0;
    std::vector<PostedWindow> windows;
    for (size_t w = 0; w < m; ++w) {
      const uint32_t c = static_cast<uint32_t>(rng.Uniform(tiny ? 8 : 60));
      const uint32_t l = c - std::min<uint32_t>(c, rng.Uniform(tiny ? 6 : 20));
      const uint32_t r = c + static_cast<uint32_t>(rng.Uniform(tiny ? 6 : 20));
      windows.push_back(PostedWindow{0, l, c, r});
    }
    for (uint32_t alpha :
         {1u, 2u, 3u, static_cast<uint32_t>(std::max<size_t>(1, m / 2))}) {
      std::vector<MatchRectangle> fast, oracle;
      const Status fast_status = CollisionCount(windows, alpha, &fast);
      const Status oracle_status =
          reference::CollisionCount(windows, alpha, &oracle);
      ASSERT_TRUE(fast_status.ok());
      ASSERT_TRUE(oracle_status.ok());
      // Rectangles have no ordering freedom: exact vector equality.
      EXPECT_EQ(fast, oracle) << "trial " << trial << " alpha " << alpha;
    }
  }
}

TEST(IntervalScanPropertyTest, RadixSortMatchesStableSort) {
  Rng rng(31337);
  for (int trial = 0; trial < 200; ++trial) {
    const size_t n = rng.Uniform(2000);
    std::vector<std::pair<uint64_t, uint32_t>> fast;
    fast.reserve(n);
    for (size_t i = 0; i < n; ++i) {
      // Mix narrow and wide keys so some byte digits are constant (the
      // skip path) and some vary.
      const uint64_t key = rng.Uniform(4) == 0
                               ? (static_cast<uint64_t>(rng.Uniform(1000))
                                  << 32) |
                                     rng.Uniform(1000)
                               : rng.Uniform(50);
      fast.push_back({key, static_cast<uint32_t>(i)});
    }
    std::vector<std::pair<uint64_t, uint32_t>> oracle = fast;
    RadixSortByKey(&fast, [](const std::pair<uint64_t, uint32_t>& p) {
      return p.first;
    });
    reference::SortByKey(&oracle);
    // Both sorts are stable, so the payloads must agree exactly, not just
    // the keys.
    EXPECT_EQ(fast, oracle) << "trial " << trial;

    // A 32-bit key sorts on four digits; the low halves of the wide keys
    // above tie often, so stability shows.
    const auto low = [](const std::pair<uint64_t, uint32_t>& p) {
      return static_cast<uint32_t>(p.first);
    };
    RadixSortByKey(&fast, low);
    std::stable_sort(oracle.begin(), oracle.end(),
                     [&low](const std::pair<uint64_t, uint32_t>& a,
                            const std::pair<uint64_t, uint32_t>& b) {
                       return low(a) < low(b);
                     });
    EXPECT_EQ(fast, oracle) << "trial " << trial << " (32-bit key)";
  }
}

// Writer-faithful encoding of one run: window 0 absolute text, the rest
// text deltas; per window (text field, l, c - l, r - c).
std::string EncodeRun(const std::vector<PostedWindow>& windows) {
  std::string buf;
  uint32_t prev_text = 0;
  for (size_t i = 0; i < windows.size(); ++i) {
    const PostedWindow& w = windows[i];
    PutVarint32(&buf, i == 0 ? w.text : w.text - prev_text);
    prev_text = w.text;
    PutVarint32(&buf, w.l);
    PutVarint32(&buf, w.c - w.l);
    PutVarint32(&buf, w.r - w.c);
  }
  return buf;
}

TEST(IntervalScanPropertyTest, BlockDecodeMatchesReferenceDecode) {
  Rng rng(5150);
  for (int trial = 0; trial < 300; ++trial) {
    const size_t count = 1 + rng.Uniform(200);
    std::vector<PostedWindow> windows;
    uint32_t text = static_cast<uint32_t>(rng.Uniform(100));
    for (size_t i = 0; i < count; ++i) {
      if (rng.Uniform(3) == 0) text += static_cast<uint32_t>(rng.Uniform(1u << 20));
      const uint32_t l = static_cast<uint32_t>(rng.Uniform(1u << 28));
      const uint32_t c = l + static_cast<uint32_t>(rng.Uniform(1u << 14));
      windows.push_back(PostedWindow{text, l, c,
                                     c + static_cast<uint32_t>(
                                             rng.Uniform(1u << 14))});
    }
    std::string encoded = EncodeRun(windows);
    // Sometimes truncate mid-stream: both decoders must agree on the clean
    // prefix and on whether the tail is a hard error (nullptr).
    if (rng.Uniform(3) == 0 && !encoded.empty()) {
      encoded.resize(rng.Uniform(encoded.size()));
    }
    const char* p = encoded.data();
    const char* limit = p + encoded.size();

    std::vector<PostedWindow> fast(count), oracle(count);
    uint64_t fast_n = 0, oracle_n = 0;
    const char* fast_end = DecodeWindowRun(p, limit, count, fast.data(),
                                           &fast_n);
    const char* oracle_end = reference::DecodeWindowRun(
        p, limit, count, oracle.data(), &oracle_n);
    ASSERT_EQ(fast_end == nullptr, oracle_end == nullptr) << "trial " << trial;
    if (fast_end == nullptr) continue;
    ASSERT_EQ(fast_end, oracle_end) << "trial " << trial;
    ASSERT_EQ(fast_n, oracle_n) << "trial " << trial;
    fast.resize(fast_n);
    oracle.resize(oracle_n);
    EXPECT_EQ(fast, oracle) << "trial " << trial;
  }
}

// Every decoder that can serve DecodeWindowRun: the dispatched wrapper,
// the scalar chunked path, and (when this CPU supports it) the
// word-at-a-time path. The dispatched wrapper is tested in its own right so calibration
// can never pick a path the suite did not cover.
struct NamedDecoder {
  const char* name;
  WindowDecodeFn fn;
};

std::vector<NamedDecoder> DecodersUnderTest() {
  std::vector<NamedDecoder> decoders;
  decoders.push_back({"dispatched", &DecodeWindowRun});
  decoders.push_back({"scalar", &DecodeWindowRunScalar});
#if defined(NDSS_VARINT_WORD)
  if (WordWindowDecodeSupported()) {
    decoders.push_back({"word", &DecodeWindowRunWord});
  }
#endif
  return decoders;
}

TEST(IntervalScanPropertyTest, BlockDecodeTruncationSweep) {
  // Truncate a multi-chunk run at EVERY byte offset and decode with every
  // max_windows regime: each prefix must reproduce the reference decoder
  // exactly — same windows, same end pointer, same nullptr on a torn
  // varint. This is the regime where fast paths hand off to their checked
  // tail loops (the historical parity bug), so sweep three encoding
  // profiles that move the handoff point around.
  Rng rng(424242);
  constexpr size_t kCount = 100;
  for (int profile = 0; profile < 3; ++profile) {
    std::vector<PostedWindow> windows;
    uint32_t text = 0;
    for (size_t i = 0; i < kCount; ++i) {
      uint32_t l = 0, dc = 0, dr = 0;
      switch (profile) {
        case 0:  // every varint one byte: densest windows, pure fast path
          text += static_cast<uint32_t>(rng.Uniform(3));
          l = static_cast<uint32_t>(rng.Uniform(100));
          dc = static_cast<uint32_t>(rng.Uniform(100));
          dr = static_cast<uint32_t>(rng.Uniform(100));
          break;
        case 1:  // fat varints: windows near the 20-byte encoding bound
          text += static_cast<uint32_t>(rng.Uniform(1u << 27));
          l = static_cast<uint32_t>(rng.Uniform(1u << 28));
          dc = static_cast<uint32_t>(rng.Uniform(1u << 21));
          dr = static_cast<uint32_t>(rng.Uniform(1u << 21));
          break;
        default:  // mixed widths: handoff points land everywhere
          if (rng.Uniform(4) == 0) {
            text += static_cast<uint32_t>(rng.Uniform(1u << 20));
          }
          l = static_cast<uint32_t>(rng.Uniform(rng.Uniform(2) == 0
                                                    ? 100u
                                                    : (1u << 28)));
          dc = static_cast<uint32_t>(rng.Uniform(1u << 14));
          dr = static_cast<uint32_t>(rng.Uniform(1u << 14));
          break;
      }
      windows.push_back(PostedWindow{text, l, l + dc, l + dc + dr});
    }
    const std::string encoded = EncodeRun(windows);
    const std::vector<NamedDecoder> decoders = DecodersUnderTest();
    const uint64_t regimes[] = {0, kCount / 2, kCount, kCount + 3};
    for (size_t cut = 0; cut <= encoded.size(); ++cut) {
      const char* p = encoded.data();
      const char* limit = p + cut;
      for (const uint64_t max_windows : regimes) {
        std::vector<PostedWindow> oracle(kCount + 3);
        uint64_t oracle_n = 0;
        const char* oracle_end = reference::DecodeWindowRun(
            p, limit, max_windows, oracle.data(), &oracle_n);
        for (const NamedDecoder& d : decoders) {
          std::vector<PostedWindow> fast(kCount + 3);
          uint64_t fast_n = 0;
          const char* fast_end =
              d.fn(p, limit, max_windows, fast.data(), &fast_n);
          const std::string label = std::string(d.name) + " profile " +
                                    std::to_string(profile) + " cut " +
                                    std::to_string(cut) + " max_windows " +
                                    std::to_string(max_windows);
          ASSERT_EQ(fast_end == nullptr, oracle_end == nullptr) << label;
          if (fast_end == nullptr) continue;
          ASSERT_EQ(fast_end, oracle_end) << label;
          ASSERT_EQ(fast_n, oracle_n) << label;
          fast.resize(fast_n);
          std::vector<PostedWindow> expect = oracle;
          expect.resize(oracle_n);
          ASSERT_EQ(fast, expect) << label;
        }
      }
    }
  }
}

TEST(IntervalScanPropertyTest, BlockDecodeBoundaryRegimes) {
  // The two boundary cases pinned explicitly (the sweep above also crosses
  // them): a run whose last window ends exactly at `limit` must decode
  // completely and return `limit`, and max_windows == 0 must decode
  // nothing and return `p` untouched.
  std::vector<PostedWindow> windows;
  for (uint32_t i = 0; i < 70; ++i) {
    // Mixed widths so the exact-limit case exercises both the fast path
    // (early windows) and the checked tail (final windows).
    const uint32_t l = (i % 3 == 0) ? (1u << 27) : i;
    windows.push_back(PostedWindow{i * 5, l, l + i, l + 2 * i});
  }
  const std::string encoded = EncodeRun(windows);
  const char* p = encoded.data();
  const char* limit = p + encoded.size();
  for (const NamedDecoder& d : DecodersUnderTest()) {
    std::vector<PostedWindow> out(windows.size());
    uint64_t n = 0;
    const char* end = d.fn(p, limit, windows.size(), out.data(), &n);
    ASSERT_EQ(end, limit) << d.name;
    ASSERT_EQ(n, windows.size()) << d.name;
    EXPECT_EQ(out, windows) << d.name;
    n = 77;
    end = d.fn(p, limit, 0, out.data(), &n);
    EXPECT_EQ(end, p) << d.name;
    EXPECT_EQ(n, 0u) << d.name;
  }
}

TEST(IntervalScanPropertyTest, BlockDecodeRejectsOverlongVarint) {
  // Five continuation bytes: every decoder must fail identically whether
  // the run is decoded checked (short buffer) or unchecked (long buffer),
  // and whether the overlong varint opens the stream or sits behind a few
  // valid windows (past the word path's first paired loads).
  for (const size_t valid_prefix : {size_t{0}, size_t{3}, size_t{9}}) {
    std::vector<PostedWindow> windows;
    for (uint32_t i = 0; i < valid_prefix; ++i) {
      windows.push_back(PostedWindow{i, i, 2 * i, 3 * i});
    }
    std::string encoded = EncodeRun(windows);
    for (int i = 0; i < 5; ++i) encoded.push_back(static_cast<char>(0xff));
    encoded.push_back(0x01);
    encoded.append(64, '\0');  // plenty of slack: forces the unchecked path
    std::vector<PostedWindow> out(valid_prefix + 4);
    uint64_t n = 0;
    EXPECT_EQ(reference::DecodeWindowRun(
                  encoded.data(), encoded.data() + encoded.size(),
                  valid_prefix + 4, out.data(), &n),
              nullptr);
    for (const NamedDecoder& d : DecodersUnderTest()) {
      EXPECT_EQ(d.fn(encoded.data(), encoded.data() + encoded.size(),
                     valid_prefix + 4, out.data(), &n),
                nullptr)
          << d.name << " valid_prefix " << valid_prefix;
    }
  }
}


// ---- pass 1 ----------------------------------------------------------------

// Pass-1 output has no ordering freedom: the same texts in the same order,
// each with the same window order and the same rectangles.
void ExpectSameMatches(const std::vector<Pass1Match>& fast,
                       const std::vector<Pass1Match>& oracle,
                       const std::string& label) {
  ASSERT_EQ(fast.size(), oracle.size()) << label;
  for (size_t m = 0; m < fast.size(); ++m) {
    EXPECT_EQ(fast[m].text, oracle[m].text) << label << " match " << m;
    EXPECT_EQ(fast[m].windows, oracle[m].windows) << label << " match " << m;
    EXPECT_EQ(fast[m].rects, oracle[m].rects) << label << " match " << m;
  }
}

// What Search reports, recomputed around the reference pass 1.
struct ReferenceAnswer {
  std::vector<TextMatchRectangle> rectangles;
  uint32_t short_lists = 0;
  uint32_t long_lists = 0;
  uint64_t windows_scanned = 0;
  uint64_t candidate_texts = 0;
};

// Algorithm 3 with reference::Pass1: the searcher's list classification
// (length threshold or cost model, then demotion of the shortest long
// lists), the reference pass 1 over the short lists, and zone-map probes
// of the long lists with CollisionCount at beta for every candidate. On the
// way it checks ScanShortLists against reference::Pass1 on the same lists.
ReferenceAnswer ReferenceSearch(std::vector<InvertedIndexReader>& readers,
                                const SketchScheme& scheme,
                                std::span<const Token> query,
                                const SearchOptions& options,
                                const std::string& label) {
  const uint32_t k = static_cast<uint32_t>(readers.size());
  const uint32_t beta = std::min<uint32_t>(
      k, static_cast<uint32_t>(std::ceil(options.theta * k)));
  const MinHashSketch sketch =
      ComputeSketch(scheme, query.data(), query.size());
  std::vector<const ListMeta*> metas(k, nullptr);
  std::vector<uint64_t> counts(k, 0);
  for (uint32_t f = 0; f < k; ++f) {
    metas[f] = readers[f].FindList(sketch.argmin_tokens[f]);
    if (metas[f] != nullptr) counts[f] = metas[f]->count;
  }
  std::vector<bool> deferred(k, false);
  if (options.use_prefix_filter && options.use_cost_model) {
    deferred = SelectDeferredLists(counts, beta, sizeof(PostedWindow),
                                   options.cost_model);
  } else if (options.use_prefix_filter) {
    for (uint32_t f = 0; f < k; ++f) {
      deferred[f] = counts[f] > options.long_list_threshold;
    }
  }
  using Ref = std::pair<uint32_t, const ListMeta*>;
  std::vector<Ref> short_refs, long_refs;
  for (uint32_t f = 0; f < k; ++f) {
    if (metas[f] == nullptr) continue;
    (deferred[f] ? long_refs : short_refs).push_back({f, metas[f]});
  }
  if (long_refs.size() > beta - 1) {
    std::sort(long_refs.begin(), long_refs.end(),
              [](const Ref& a, const Ref& b) {
                return a.second->count < b.second->count;
              });
    const size_t demote = long_refs.size() - (beta - 1);
    short_refs.insert(short_refs.end(), long_refs.begin(),
                      long_refs.begin() + demote);
    long_refs.erase(long_refs.begin(), long_refs.begin() + demote);
  }
  const uint32_t beta1 = beta - static_cast<uint32_t>(long_refs.size());

  ReferenceAnswer answer;
  answer.short_lists = static_cast<uint32_t>(short_refs.size());
  answer.long_lists = static_cast<uint32_t>(long_refs.size());
  std::vector<std::vector<PostedWindow>> data(short_refs.size());
  std::vector<std::span<const PostedWindow>> lists;
  for (size_t i = 0; i < short_refs.size(); ++i) {
    EXPECT_TRUE(readers[short_refs[i].first]
                    .ReadList(*short_refs[i].second, &data[i])
                    .ok());
    lists.emplace_back(data[i]);
    answer.windows_scanned += data[i].size();
  }
  std::vector<Pass1Match> matches, fast;
  EXPECT_TRUE(reference::Pass1(lists, beta1, &matches).ok()) << label;
  EXPECT_TRUE(ScanShortLists(lists, beta1, nullptr, nullptr, &fast).ok())
      << label;
  ExpectSameMatches(fast, matches, label + " pass1");
  if (long_refs.empty()) {
    for (const Pass1Match& match : matches) {
      for (const MatchRectangle& r : match.rects) {
        answer.rectangles.push_back({match.text, r});
      }
    }
    return answer;
  }
  answer.candidate_texts = matches.size();
  for (Pass1Match& match : matches) {
    for (const Ref& ref : long_refs) {
      EXPECT_TRUE(readers[ref.first]
                      .ReadWindowsForText(*ref.second, match.text,
                                          &match.windows)
                      .ok());
    }
    answer.windows_scanned += match.windows.size();
    std::vector<MatchRectangle> rects;
    EXPECT_TRUE(CollisionCount(match.windows, beta, &rects).ok()) << label;
    for (const MatchRectangle& r : rects) {
      answer.rectangles.push_back({match.text, r});
    }
  }
  return answer;
}

TEST(IntervalScanPropertyTest, Pass1MatchesReferenceSearch) {
  const std::string dir = ::testing::TempDir() + "/ndss_pass1_property";
  std::filesystem::remove_all(dir);

  SyntheticCorpusOptions corpus_options;
  corpus_options.num_texts = 70;
  corpus_options.min_text_length = 40;
  corpus_options.max_text_length = 160;
  corpus_options.vocab_size = 180;  // small, skewed vocab: long lists
  corpus_options.zipf_exponent = 1.1;
  corpus_options.plant_rate = 0.4;
  corpus_options.min_plant_length = 25;
  corpus_options.max_plant_length = 60;
  corpus_options.seed = 4141;
  const SyntheticCorpus sc = GenerateSyntheticCorpus(corpus_options);

  // Queries are perturbed corpus spans. The corpus then gains texts that
  // repeat each query's tokens — the query three times over, every token
  // doubled, and one token 60 times — so one list holds many windows of a
  // text, the case the distinct-list count must not confuse with many
  // lists.
  Rng rng(8088);
  std::vector<std::vector<Token>> queries;
  for (int q = 0; q < 6; ++q) {
    const TextId source = static_cast<TextId>(rng.Uniform(sc.corpus.num_texts()));
    const auto text = sc.corpus.text(source);
    const uint32_t length =
        std::min<uint32_t>(40, static_cast<uint32_t>(text.size()));
    queries.push_back(PerturbSequence(text, 0, length, 0.1,
                                      corpus_options.vocab_size, rng));
  }
  Corpus corpus;
  for (TextId i = 0; i < sc.corpus.num_texts(); ++i) {
    corpus.AddText(sc.corpus.text(i));
  }
  for (const std::vector<Token>& query : queries) {
    std::vector<Token> repeated, doubled;
    for (int r = 0; r < 3; ++r) {
      repeated.insert(repeated.end(), query.begin(), query.end());
    }
    for (Token token : query) {
      doubled.push_back(token);
      doubled.push_back(token);
    }
    corpus.AddText(repeated);
    corpus.AddText(doubled);
    corpus.AddText(std::vector<Token>(60, query[query.size() / 2]));
  }

  struct Setting {
    uint32_t k;
    double theta;
    bool prefix;
    double long_fraction;  ///< of windows in long lists (percentile)
    bool cost_model;
  };
  const Setting settings[] = {
      {8, 0.8, false, 0, false},  {8, 0.6, true, 0.10, false},
      {16, 0.7, true, 0.30, false}, {16, 0.9, true, 0, true},
      {5, 0.5, true, 0.20, false},  {5, 1.0, true, 0, true},
  };
  int searches = 0, with_rectangles = 0, with_candidates = 0;
  for (const index_format::PostingFormat format :
       {index_format::kFormatRaw, index_format::kFormatCompressed}) {
    for (const Setting& setting : settings) {
      const std::string idx = dir + "/f" + std::to_string(format) + "_k" +
                              std::to_string(setting.k);
      if (!std::filesystem::exists(idx)) {
        IndexBuildOptions build;
        build.k = setting.k;
        build.t = 15;
        build.zone_step = 8;
        build.zone_threshold = 16;
        build.posting_format = format;
        ASSERT_TRUE(BuildIndexInMemory(corpus, idx, build).ok());
      }
      auto searcher = Searcher::Open(idx);
      ASSERT_TRUE(searcher.ok()) << searcher.status().ToString();
      std::vector<InvertedIndexReader> readers;
      for (uint32_t f = 0; f < setting.k; ++f) {
        auto reader =
            InvertedIndexReader::Open(IndexMeta::InvertedIndexPath(idx, f));
        ASSERT_TRUE(reader.ok()) << reader.status().ToString();
        readers.push_back(std::move(*reader));
      }
      SearchOptions options;
      options.theta = setting.theta;
      options.use_prefix_filter = setting.prefix;
      options.use_cost_model = setting.cost_model;
      if (setting.prefix && !setting.cost_model) {
        options.long_list_threshold =
            searcher->ListCountPercentile(setting.long_fraction);
      }
      for (size_t q = 0; q < queries.size(); ++q) {
        const std::string label = "format " + std::to_string(format) +
                                  " k " + std::to_string(setting.k) +
                                  " theta " + std::to_string(setting.theta) +
                                  " query " + std::to_string(q);
        const ReferenceAnswer expect = ReferenceSearch(
            readers, searcher->meta().Scheme(), queries[q], options, label);
        auto got = searcher->Search(queries[q], options);
        ASSERT_TRUE(got.ok()) << label << ": " << got.status().ToString();
        ASSERT_EQ(got->rectangles.size(), expect.rectangles.size()) << label;
        for (size_t r = 0; r < expect.rectangles.size(); ++r) {
          EXPECT_EQ(got->rectangles[r].text, expect.rectangles[r].text)
              << label << " rect " << r;
          EXPECT_EQ(got->rectangles[r].rect, expect.rectangles[r].rect)
              << label << " rect " << r;
        }
        EXPECT_EQ(got->stats.short_lists, expect.short_lists) << label;
        EXPECT_EQ(got->stats.long_lists, expect.long_lists) << label;
        EXPECT_EQ(got->stats.windows_scanned, expect.windows_scanned)
            << label;
        EXPECT_EQ(got->stats.candidate_texts, expect.candidate_texts)
            << label;
        ++searches;
        with_rectangles += !expect.rectangles.empty();
        with_candidates += expect.candidate_texts > 0;
      }
    }
  }
  EXPECT_EQ(searches, 2 * 6 * 6);
  // The settings must reach both the one-pass and the two-pass answer.
  EXPECT_GT(with_rectangles, searches / 2);
  EXPECT_GT(with_candidates, searches / 4);
  std::filesystem::remove_all(dir);
}

TEST(IntervalScanPropertyTest, Pass1MatchesReferenceOnRandomLists) {
  // Random list sets under the index invariant the filter relies on: each
  // list holds, per text, windows no sequence shares (disjoint [l, r]
  // spans), sorted by (text, l). Texts are Zipf-drawn so some appear in
  // many lists and some many times in one.
  Rng rng(99017);
  ZipfSampler zipf(60, 1.1);
  int matched = 0;
  for (int trial = 0; trial < 300; ++trial) {
    const size_t num_lists = 1 + rng.Uniform(12);
    std::vector<std::vector<PostedWindow>> data(num_lists);
    for (std::vector<PostedWindow>& list : data) {
      const size_t n = rng.Uniform(trial % 5 == 0 ? 400 : 40);
      std::vector<uint32_t> next_slot(60, 0);
      for (size_t w = 0; w < n; ++w) {
        const TextId text = static_cast<TextId>(zipf.Sample(rng));
        // Slot 0 sits at the same place in every list, so a text drawn
        // into several lists overlaps across them and rectangles appear.
        const uint32_t base = 40 * next_slot[text]++;
        const uint32_t l = base + static_cast<uint32_t>(rng.Uniform(6));
        const uint32_t c = l + static_cast<uint32_t>(rng.Uniform(12));
        const uint32_t r = c + static_cast<uint32_t>(rng.Uniform(20));
        list.push_back(PostedWindow{text, l, c, r});
      }
      std::sort(list.begin(), list.end(),
                [](const PostedWindow& a, const PostedWindow& b) {
                  return a.text != b.text ? a.text < b.text : a.l < b.l;
                });
    }
    const std::vector<std::span<const PostedWindow>> lists(data.begin(),
                                                           data.end());
    const uint32_t beta1 =
        1 + static_cast<uint32_t>(rng.Uniform(num_lists));
    std::vector<Pass1Match> fast, oracle;
    ASSERT_TRUE(ScanShortLists(lists, beta1, nullptr, nullptr, &fast).ok());
    ASSERT_TRUE(reference::Pass1(lists, beta1, &oracle).ok());
    ExpectSameMatches(fast, oracle, "trial " + std::to_string(trial));
    matched += !fast.empty();
  }
  EXPECT_GT(matched, 100) << "too few trials produce rectangles to test";
  std::vector<Pass1Match> out;
  EXPECT_TRUE(ScanShortLists({}, 0, nullptr, nullptr, &out)
                  .IsInvalidArgument());
}

}  // namespace
}  // namespace ndss
