// serve_zipf: the ndss_serve stack in process — a 4-shard ShardedSearcher
// behind SearchService and HttpServer on 127.0.0.1 — driven by one
// keep-alive HttpClient in a closed loop of /v1/search requests (k = 16,
// t = 25, θ = 0.8). Queries are Zipf(s = 1) draws from a pool of 2,000
// near-duplicate 64-token queries; the cross-query list cache (64 MB) holds
// their lists, so the net, shard and list-cache layers do most of the work
// and list read/decode little. One server worker and one scatter thread:
// with the client that is three busy threads, within nproc, and a wider
// scatter pool was measured to double the spread of QPS.

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <memory>
#include <numeric>
#include <optional>

#include "corpusgen/synthetic.h"
#include "index/index_builder.h"
#include "net/http.h"
#include "net/json.h"
#include "net/serve.h"
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
constexpr uint32_t kShards = 4;
constexpr uint32_t kTextsPerShard = 1000;
constexpr uint32_t kPool = 2000;
constexpr uint32_t kQueryLength = 64;
constexpr double kQueryNoise = 0.1;
constexpr uint64_t kCacheBytes = 64ull << 20;
constexpr uint32_t kRequestsPerSecond = 350;
constexpr uint32_t kChunkRequests = 250;
constexpr uint32_t kWarmupRequests = 500;
constexpr int kSetupRepetitions = 3;

struct Inputs {
  std::vector<Corpus> shards;
  std::vector<std::vector<Token>> pool;
  std::vector<std::string> bodies;  ///< /v1/search request per pool query
};

Inputs MakeInputs(uint64_t seed) {
  SyntheticCorpusOptions options;
  options.num_texts = kShards * kTextsPerShard;
  options.min_text_length = 200;
  options.max_text_length = 600;
  options.vocab_size = kVocab;
  options.plant_rate = 0.0;
  options.seed = seed;
  const Corpus corpus = GenerateSyntheticCorpus(options).corpus;
  Inputs in;
  in.shards.resize(kShards);
  for (uint32_t i = 0; i < corpus.num_texts(); ++i) {
    in.shards[i / kTextsPerShard].AddText(corpus.text(i));
  }

  const ZipfSampler zipf(kVocab, 1.0);
  Rng rng(seed ^ 0x73657276ULL);
  for (uint32_t q = 0; q < kPool; ++q) {
    const auto source = corpus.text(rng.Uniform(corpus.num_texts()));
    in.pool.push_back(NoisyCopy(source,
                                rng.Uniform(source.size() - kQueryLength + 1),
                                kQueryLength, kQueryNoise, zipf, rng));
    net::JsonValue tokens = net::JsonValue::Array();
    for (Token token : in.pool.back()) {
      tokens.Append(net::JsonValue::Number(static_cast<uint64_t>(token)));
    }
    net::JsonValue body = net::JsonValue::Object();
    body.Set("tokens", std::move(tokens));
    body.Set("theta", net::JsonValue::Number(kTheta));
    in.bodies.push_back(body.Dump());
  }
  return in;
}

/// One serving stack. Members are destroyed in reverse order: the client
/// closes and the server stops before the service and searcher go.
struct Stack {
  std::optional<ShardedSearcher> searcher;
  std::unique_ptr<net::SearchService> service;
  net::HttpServer server;
  net::HttpClient client;
};

std::unique_ptr<Stack> SetUp(const Inputs& in, const std::string& dir,
                             BuildLog& builds, Tracer& tracer) {
  IndexBuildOptions build;
  build.k = kK;
  build.t = kT;
  ShardManifest manifest;
  for (uint32_t s = 0; s < kShards; ++s) {
    manifest.shard_dirs.push_back(dir + "/shard" + std::to_string(s));
    builds.Build(in.shards[s], manifest.shard_dirs.back(), build, tracer);
  }
  CheckOk(manifest.Save(dir + "/set"), "save manifest");

  auto stack = std::make_unique<Stack>();
  ShardedSearcherOptions options;
  options.num_threads = 1;
  stack->searcher.emplace(
      CheckOk(ShardedSearcher::Open(dir + "/set", options), "open set"));
  CheckOk(stack->searcher->EnableListCache(kCacheBytes), "enable list cache");
  net::ServeOptions serve;
  serve.search.theta = kTheta;
  stack->service =
      std::make_unique<net::SearchService>(&*stack->searcher, serve);
  net::HttpServerOptions server_options;
  server_options.num_threads = 1;
  net::SearchService* service = stack->service.get();
  CheckOk(stack->server.Start(server_options,
                              [service](const net::HttpRequest& request) {
                                return service->Handle(request);
                              }),
          "start server");
  CheckOk(stack->client.Connect("127.0.0.1", stack->server.port()),
          "connect");
  return stack;
}

/// Which pool query each Zipf rank names: rank r gets the query at quantile
/// frac(0.3 + r·φ) of the pool ordered by `cost`, so the hottest queries
/// span the pool's cost range evenly. Assigned at random, the few hottest
/// queries (a third of all requests) set the request mix's cost, and QPS
/// moved by 40% from seed to seed. The 0.3 start keeps the heaviest ranks
/// (rank 0 alone takes 12% of requests) away from the median request, so
/// the median latency is set by many light queries, not by one query.
std::vector<size_t> StratifiedPopularity(const std::vector<uint64_t>& cost) {
  const size_t n = cost.size();
  std::vector<size_t> by_cost(n);
  std::iota(by_cost.begin(), by_cost.end(), size_t{0});
  std::stable_sort(by_cost.begin(), by_cost.end(),
                   [&](size_t a, size_t b) { return cost[a] < cost[b]; });
  std::vector<bool> used(n, false);
  std::vector<size_t> popularity(n);
  double u = 0.3;
  for (size_t rank = 0; rank < n; ++rank) {
    const size_t want = std::min(n - 1, static_cast<size_t>(u * n));
    size_t pos = want;
    for (size_t d = 0; used[pos]; ++d) {  // nearest free quantile
      if (want + d < n && !used[want + d]) {
        pos = want + d;
      } else if (d <= want && !used[want - d]) {
        pos = want - d;
      }
    }
    used[pos] = true;
    popularity[rank] = by_cost[pos];
    u += 0.6180339887498949;
    u -= std::floor(u);
  }
  return popularity;
}

/// stats.wall_seconds of a /v1/search response: the server-side search
/// time, without the network and JSON.
double WallSeconds(const std::string& body) {
  Result<net::JsonValue> parsed = net::ParseJson(body);
  const net::JsonValue* stats = parsed.ok() ? parsed->Find("stats") : nullptr;
  const net::JsonValue* wall =
      stats != nullptr ? stats->Find("wall_seconds") : nullptr;
  return wall != nullptr ? wall->number() : 0.0;
}

}  // namespace

void RunServeZipf(const Args& args, Tracer& tracer, Report* report) {
  const Inputs in = MakeInputs(args.seed);
  net::JsonValue counts = net::JsonValue::Object();

  BuildLog builds;
  std::vector<double> setup_s;
  std::unique_ptr<Stack> stack;
  for (int rep = 0; rep < kSetupRepetitions; ++rep) {
    stack.reset();
    if (rep > 0) {
      std::filesystem::remove_all(args.work_dir + "/rep" +
                                  std::to_string(rep - 1));
    }
    const std::string dir = args.work_dir + "/rep" + std::to_string(rep);
    builds.StartRepetition();
    const Clock::time_point start = Clock::now();
    stack = SetUp(in, dir, builds, tracer);
    setup_s.push_back(SecondsSince(start));
  }
  ShardedSearcher& searcher = *stack->searcher;

  // Gate: every pool query over HTTP, cache on, byte-identical to the
  // direct ShardedSearcher answer through the server's serializer.
  SearchOptions options;
  options.theta = kTheta;
  std::vector<std::string> expected;
  std::vector<uint64_t> scanned;
  uint64_t matched = 0;
  for (uint32_t q = 0; q < kPool; ++q) {
    const SearchResult direct =
        CheckOk(searcher.Search(in.pool[q], options), "direct search");
    if (!direct.spans.empty()) ++matched;
    scanned.push_back(direct.stats.windows_scanned);
    expected.push_back(AnswerJson(direct));
    Result<net::HttpResponse> response =
        stack->client.Post("/v1/search", in.bodies[q]);
    if (!response.ok() || response->status != 200 ||
        AnswerPrefix(response->body) != expected.back()) {
      GateFail("serve_zipf: pool query " + std::to_string(q) +
               " answered differently over HTTP");
    }
  }
  std::printf("gates: %u pool queries byte-identical over HTTP, %lu match\n",
              kPool, static_cast<unsigned long>(matched));

  const std::vector<size_t> popularity = StratifiedPopularity(scanned);
  const ZipfSampler zipf(kPool, 1.0);
  Rng rng(args.seed ^ 0x7a697066ULL);
  auto draw = [&](size_t count) {
    std::vector<size_t> schedule(count);
    for (size_t& q : schedule) q = popularity[zipf.Sample(rng)];
    return schedule;
  };
  for (size_t q : draw(kWarmupRequests)) {
    CheckOk(stack->client.Post("/v1/search", in.bodies[q]).status(),
            "warm-up request");
  }

  const uint32_t chunks = std::max<uint32_t>(
      1, args.seconds * kRequestsPerSecond / kChunkRequests);
  const std::vector<size_t> schedule =
      draw(static_cast<size_t>(chunks) * kChunkRequests);
  const CrossQueryListCache::Counters cache_before =
      searcher.list_cache()->counters();
  std::vector<double> chunk_ops, chunk_s, query_ms, wall_ms;
  uint64_t failed = 0;
  uint64_t refused = 0;  // 429: admission control turned the request away
  for (uint32_t chunk = 0; chunk < chunks; ++chunk) {
    const Clock::time_point chunk_start = Clock::now();
    for (uint32_t i = 0; i < kChunkRequests; ++i) {
      const size_t q = schedule[chunk * kChunkRequests + i];
      const Clock::time_point start = Clock::now();
      Result<net::HttpResponse> response = [&] {
        ScopedSpan span(tracer, "net.HttpClient.Post");
        return stack->client.Post("/v1/search", in.bodies[q]);
      }();
      query_ms.push_back(SecondsSince(start) * 1e3);
      const bool ok = response.ok() && response->status == 200 &&
                      AnswerPrefix(response->body) == expected[q];
      if (!ok && response.ok() && response->status == 429) {
        ++refused;
      } else if (!ok) {
        ++failed;
      }
      if (tracer.enabled() && ok) {
        wall_ms.push_back(WallSeconds(response->body) * 1e3);
      }
    }
    chunk_ops.push_back(kChunkRequests);
    chunk_s.push_back(SecondsSince(chunk_start));
  }
  const CrossQueryListCache::Counters cache_after =
      searcher.list_cache()->counters();
  counts.Set("list_cache.hits",
             net::JsonValue::Number(cache_after.hits - cache_before.hits));
  counts.Set("list_cache.misses",
             net::JsonValue::Number(cache_after.misses - cache_before.misses));
  counts.Set("list_cache.evictions",
             net::JsonValue::Number(cache_after.evictions -
                                    cache_before.evictions));
  counts.Set("list_cache.bytes_used",
             net::JsonValue::Number(cache_after.bytes_used));

  if (tracer.enabled()) {
    // The response carries no io/cpu split, so the query layer's counters
    // come from the same schedule run directly against the searcher (same
    // warm cache), one ShardedSearcher::Search per request.
    QueryTotals totals;
    totals.read_syscalls = ReadSyscallsOf([&] {
      for (size_t i = 0; i < std::min<size_t>(schedule.size(), kPool); ++i) {
        ScopedSpan span(tracer, "shard.ShardedSearcher.Search");
        totals.Add(CheckOk(searcher.Search(in.pool[schedule[i]], options),
                           "direct search")
                       .stats);
      }
    });

    const IndexMeta meta = searcher.meta();
    net::JsonValue layers = net::JsonValue::Object();
    layers.Set("query", totals.ToJson(&counts));
    TimeSketches(SketchScheme(meta.sketch, meta.k, meta.seed), in.pool, tracer,
                 &layers);
    layers.Set("shard_wall_ms", NumberArray(wall_ms));
    layers.Set("shards_at_query_mean",
               net::JsonValue::Number(static_cast<uint64_t>(kShards)));
    report->Set("layers", std::move(layers));
  }

  uint64_t index_bytes = 0;
  uint64_t tokens = 0;
  for (uint32_t s = 0; s < kShards; ++s) {
    index_bytes += DirBytes(args.work_dir + "/rep" +
                            std::to_string(kSetupRepetitions - 1) + "/shard" +
                            std::to_string(s));
    tokens += in.shards[s].total_tokens();
  }
  counts.Set("index_bytes", net::JsonValue::Number(index_bytes));
  counts.Set("pool_matches", net::JsonValue::Number(matched));
  builds.WriteTo(report, &counts);
  report->SetNumbers("setup_s", setup_s);
  report->SetNumbers("chunk_ops", chunk_ops);
  report->SetNumbers("chunk_s", chunk_s);
  report->SetNumbers("query_ms", query_ms);
  report->SetNumber("attempted", static_cast<double>(query_ms.size()));
  report->SetNumber("failed", static_cast<double>(failed));
  report->SetNumber("refused", static_cast<double>(refused));
  report->SetNumber("index_bytes", static_cast<double>(index_bytes));
  report->SetNumber("indexed_tokens", static_cast<double>(tokens));
  report->Set("counts", std::move(counts));
  stack.reset();
}

}  // namespace perfbench
}  // namespace ndss
