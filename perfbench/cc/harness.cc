#include "harness.h"

#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>

#include "baseline/brute_force.h"
#include "index/varint_block.h"
#include "net/serve.h"

namespace ndss {
namespace perfbench {

void GateFail(const std::string& what) {
  std::fprintf(stderr, "GATE FAILED: %s\n", what.c_str());
  std::exit(kExitGateFailed);
}

void CheckOk(const Status& status, const std::string& what) {
  if (status.ok()) return;
  std::fprintf(stderr, "%s: %s\n", what.c_str(), status.ToString().c_str());
  std::exit(kExitSetupFailed);
}

IoCounters ReadIoCounters() {
  IoCounters io;
  std::ifstream in("/proc/self/io");
  std::string key;
  uint64_t value = 0;
  while (in >> key >> value) {
    if (key == "wchar:") io.wchar = value;
    if (key == "syscr:") io.syscr = value;
  }
  return io;
}

IoCounters operator-(const IoCounters& a, const IoCounters& b) {
  return IoCounters{a.wchar - b.wchar, a.syscr - b.syscr};
}

double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0;
}

uint64_t DirBytes(const std::string& dir) {
  uint64_t bytes = 0;
  for (const auto& entry :
       std::filesystem::recursive_directory_iterator(dir)) {
    if (entry.is_regular_file()) bytes += entry.file_size();
  }
  return bytes;
}

Tracer::Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

int64_t Tracer::Begin(const char* name) {
  if (!enabled_) return -1;
  const double now =
      std::chrono::duration<double, std::micro>(Clock::now() - origin_)
          .count();
  spans_.push_back(
      Record{name, now, now, open_.empty() ? int64_t{-1} : open_.back()});
  open_.push_back(static_cast<int64_t>(spans_.size()) - 1);
  return open_.back();
}

void Tracer::End(int64_t id) {
  if (id < 0) return;
  spans_[id].end_us =
      std::chrono::duration<double, std::micro>(Clock::now() - origin_)
          .count();
  open_.pop_back();
}

net::JsonValue Tracer::ToJson() const {
  net::JsonValue out = net::JsonValue::Array();
  for (const Record& span : spans_) {
    net::JsonValue row = net::JsonValue::Array();
    row.Append(net::JsonValue::String(span.name));
    row.Append(net::JsonValue::Number(span.start_us));
    row.Append(net::JsonValue::Number(span.end_us));
    row.Append(net::JsonValue::Number(static_cast<double>(span.parent)));
    out.Append(std::move(row));
  }
  return out;
}

net::JsonValue NumberArray(const std::vector<double>& values) {
  net::JsonValue array = net::JsonValue::Array();
  for (double value : values) array.Append(net::JsonValue::Number(value));
  return array;
}

void TimeSketches(const SketchScheme& scheme,
                  const std::vector<std::vector<Token>>& queries,
                  Tracer& tracer, net::JsonValue* layers) {
  double seconds = 0;
  std::vector<uint64_t> scratch;
  for (const std::vector<Token>& query : queries) {
    const Clock::time_point start = Clock::now();
    ScopedSpan span(tracer, "sketch.ComputeSketch");
    ComputeSketch(scheme, query.data(), query.size(), &scratch);
    seconds += SecondsSince(start);
  }
  layers->Set("sketch_s", net::JsonValue::Number(seconds));
  layers->Set("sketch_count", net::JsonValue::Number(
                                  static_cast<uint64_t>(queries.size())));
}

net::JsonValue HostInfo() {
  net::JsonValue host = net::JsonValue::Object();
  host.Set("nproc", net::JsonValue::Number(static_cast<uint64_t>(
                        sysconf(_SC_NPROCESSORS_ONLN))));
  __builtin_cpu_init();
  host.Set("avx2", net::JsonValue::Bool(__builtin_cpu_supports("avx2")));
  host.Set("bmi2", net::JsonValue::Bool(__builtin_cpu_supports("bmi2")));
  host.Set("decode_path", net::JsonValue::String(WindowDecodePathName()));
  host.Set("build_type", net::JsonValue::String(NDSS_PERFBENCH_BUILD_TYPE));
  return host;
}

std::vector<Token> ZipfTokens(const ZipfSampler& zipf, Rng& rng, size_t n) {
  std::vector<Token> tokens(n);
  for (Token& token : tokens) token = static_cast<Token>(zipf.Sample(rng));
  return tokens;
}

std::vector<Token> NoisyCopy(std::span<const Token> source, size_t begin,
                             size_t length, double noise,
                             const ZipfSampler& zipf, Rng& rng) {
  std::vector<Token> copy(source.begin() + begin,
                          source.begin() + begin + length);
  for (Token& token : copy) {
    if (rng.NextBool(noise)) {
      token = static_cast<Token>(zipf.Sample(rng));
    }
  }
  return copy;
}

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

std::set<SequenceKey> OracleSequences(const Corpus& corpus,
                                      const SketchScheme& scheme,
                                      std::span<const Token> query,
                                      double theta, uint32_t t) {
  const uint32_t k = scheme.k();
  if (k > 64) GateFail("oracle supports k <= 64");
  const uint32_t beta =
      std::min<uint32_t>(k, static_cast<uint32_t>(std::ceil(theta * k)));
  const MinHashSketch sketch =
      ComputeSketch(scheme, query.data(), query.size());

  // masks[x]: the functions whose query min-hash token x reaches.
  Token max_token = 0;
  for (size_t i = 0; i < corpus.num_texts(); ++i) {
    for (Token token : corpus.text(i)) max_token = std::max(max_token, token);
  }
  std::vector<uint64_t> masks(static_cast<size_t>(max_token) + 1, 0);
  for (Token x = 0; x <= max_token; ++x) {
    for (uint32_t f = 0; f < k; ++f) {
      if (scheme.Hash(f, x) == sketch.min_hashes[f]) masks[x] |= 1ull << f;
    }
  }

  std::set<SequenceKey> sequences;
  for (size_t local = 0; local < corpus.num_texts(); ++local) {
    uint64_t reach = 0;
    for (Token token : corpus.text(local)) reach |= masks[token];
    if (static_cast<uint32_t>(std::popcount(reach)) < beta) continue;
    Corpus one;
    one.set_base_id(corpus.base_id() + static_cast<TextId>(local));
    one.AddText(corpus.text(local));
    for (const BaselineMatch& m :
         BruteForceApproxSearch(one, scheme, query, theta, t)) {
      sequences.insert({m.text, m.begin, m.end});
    }
  }
  return sequences;
}

std::string AnswerPrefix(const std::string& body) {
  const size_t stats = body.rfind(",\"stats\":");
  return stats == std::string::npos ? std::string() : body.substr(0, stats);
}

std::string AnswerJson(const SearchResult& result) {
  net::JsonValue body = net::JsonValue::Object();
  body.Set("code", net::JsonValue::String("OK"));
  net::SearchResultToJson(result, &body);
  return AnswerPrefix(body.Dump());
}

void QueryTotals::Add(const SearchStats& stats) {
  ++queries;
  io_seconds += stats.io_seconds;
  cpu_seconds += stats.cpu_seconds;
  io_bytes += stats.io_bytes;
  short_lists += stats.short_lists;
  long_lists += stats.long_lists;
  empty_lists += stats.empty_lists;
  batch_cache_hits += stats.cache_hits;
  shared_cache_hits += stats.shared_cache_hits;
  windows_scanned += stats.windows_scanned;
  candidate_texts += stats.candidate_texts;
}

net::JsonValue QueryTotals::ToJson(net::JsonValue* counts) const {
  net::JsonValue out = net::JsonValue::Object();
  const std::pair<const char*, uint64_t> integers[] = {
      {"queries", queries},
      {"io_bytes", io_bytes},
      {"read_syscalls", read_syscalls},
      {"short_lists", short_lists},
      {"long_lists", long_lists},
      {"empty_lists", empty_lists},
      {"batch_cache_hits", batch_cache_hits},
      {"shared_cache_hits", shared_cache_hits},
      {"windows_scanned", windows_scanned},
      {"candidate_texts", candidate_texts}};
  for (const auto& [key, value] : integers) {
    out.Set(key, net::JsonValue::Number(value));
    counts->Set(std::string("query.") + key, net::JsonValue::Number(value));
  }
  out.Set("io_seconds", net::JsonValue::Number(io_seconds));
  out.Set("cpu_seconds", net::JsonValue::Number(cpu_seconds));
  return out;
}

void BuildLog::StartRepetition() {
  seconds_.push_back(0);
  generate_s_.push_back(0);
  sort_s_.push_back(0);
  io_s_.push_back(0);
  tokens_.push_back(0);
  write_bytes_.push_back(0);
}

void BuildLog::Build(const Corpus& corpus, const std::string& dir,
                     const IndexBuildOptions& options, Tracer& tracer) {
  const IoCounters before = ReadIoCounters();
  const Clock::time_point start = Clock::now();
  IndexBuildStats stats;
  {
    ScopedSpan span(tracer, "index.BuildIndexInMemory");
    stats = CheckOk(BuildIndexInMemory(corpus, dir, options), "index build");
  }
  seconds_.back() += SecondsSince(start);
  write_bytes_.back() += (ReadIoCounters() - before).wchar;
  generate_s_.back() += stats.generate_seconds;
  sort_s_.back() += stats.sort_seconds;
  io_s_.back() += stats.io_seconds;
  tokens_.back() += corpus.total_tokens();
}

void BuildLog::WriteTo(Report* report, net::JsonValue* counts) const {
  report->SetNumbers("build_s", seconds_);
  report->SetNumbers("build_generate_s", generate_s_);
  report->SetNumbers("build_sort_s", sort_s_);
  report->SetNumbers("build_io_s", io_s_);
  report->SetNumber("build_tokens", static_cast<double>(tokens_.front()));
  counts->Set("build_write_bytes", net::JsonValue::Number(write_bytes_.front()));
}

}  // namespace perfbench
}  // namespace ndss
