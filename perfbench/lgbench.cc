// lgbench: the load generator behind perfbench/run.py.
//
//   lgbench info
//   lgbench remote --port=N --mix=tao|dflt --seed=S --seconds=T
//                  [--trace=1 --trace-out=FILE] [--setup-only=1]
//   lgbench htap --seed=S --seconds=T [--setups=K] [--trace=1]
//                [--analytics-cpus=LIST --writer-cpus=LIST]
//   lgbench ladder --seed=S
//
// `remote` loads the LinkBench graph into a running livegraph_server through
// RemoteStore, warms up, runs a timed closed-loop phase, checks the server's
// answers, and prints one JSON line. `htap` runs PageRank + ConnComp passes
// on fresh snapshots of an embedded LiveGraphStore while an open-loop writer
// commits DFLT write classes. `ladder` replays one seeded single-client op
// stream through each layer's public API in turn. Every mode exits non-zero
// when an output check fails.
//
// The workload sizes are fixed here (kRemoteScale and below); the flags
// carry only what changes from run to run.
#include <sched.h>
#include <sys/prctl.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <numeric>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "analytics/conncomp.h"
#include "analytics/etl.h"
#include "analytics/pagerank.h"
#include "baselines/livegraph_store.h"
#include "server/loopback.h"
#include "server/remote_store.h"
#include "shard/sharded_store.h"
#include "trace.h"
#include "util/build_info.h"
#include "util/metrics.h"
#include "util/random.h"
#include "util/zipf.h"
#include "workload/kronecker.h"
#include "workload/linkbench.h"

namespace livegraph::perfbench {
namespace {

constexpr label_t kLinkType = 0;  // LoadLinkBenchGraph's link label
constexpr size_t kPayloadBytes = 120;
constexpr size_t kRangeLimit = 10'000;  // LinkBench's GET_LINKS_LIST limit

// Workload sizes. The remote graph is LinkBench scale 15 (32,768 vertices,
// ~145k links): its load makes one round trip per operation (about 7 s) and
// every run loads it more than once. The HTAP graph, scale 19 (524,288
// vertices, ~2.3M links), is 16x larger and outgrows the L3.
constexpr int kRemoteScale = 15;
constexpr int kRemoteClients = 2;
constexpr double kRemoteWarmupSeconds = 2.0;
constexpr int kHtapScale = 19;
constexpr double kWriterRate = 20'000;  // open-loop writes per second
constexpr int kAnalyticsThreads = 2;
constexpr int kPageRankIterations = 10;
constexpr double kHtapWarmupSeconds = 1.0;
constexpr size_t kLadderOps = 20'000;

// ---------------------------------------------------------------------------
// Arguments, statistics, JSON.

class Args {
 public:
  Args(int argc, char** argv) {
    for (int i = 2; i < argc; ++i) {
      std::string arg = argv[i];
      size_t eq = arg.find('=');
      if (arg.rfind("--", 0) != 0 || eq == std::string::npos) {
        std::fprintf(stderr, "lgbench: bad argument '%s'\n", arg.c_str());
        std::exit(2);
      }
      values_[arg.substr(2, eq - 2)] = arg.substr(eq + 1);
    }
  }
  /// A required flag.
  std::string Str(const std::string& key) const {
    auto it = values_.find(key);
    if (it == values_.end()) {
      std::fprintf(stderr, "lgbench: missing --%s\n", key.c_str());
      std::exit(2);
    }
    return it->second;
  }
  /// An optional flag; absent means `fallback`.
  std::string Str(const std::string& key, const std::string& fallback) const {
    auto it = values_.find(key);
    return it == values_.end() ? fallback : it->second;
  }
  uint64_t Uint(const std::string& key) const {
    return std::strtoull(Str(key).c_str(), nullptr, 10);
  }
  double Num(const std::string& key) const {
    return std::atof(Str(key).c_str());
  }
  bool Flag(const std::string& key) const { return Str(key, "0") != "0"; }

 private:
  std::map<std::string, std::string> values_;
};

/// Linear interpolation between order statistics; `v` need not be sorted.
double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  double pos = q * double(v.size() - 1);
  size_t lo = static_cast<size_t>(pos);
  size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - double(lo));
}

double Mean(const std::vector<double>& v) {
  return v.empty() ? 0.0
                   : std::accumulate(v.begin(), v.end(), 0.0) / double(v.size());
}

class Json {
 public:
  Json& Num(const std::string& key, double value) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.9g", std::isfinite(value) ? value : 0.0);
    return Raw(key, buf);
  }
  Json& Int(const std::string& key, uint64_t value) {
    return Raw(key, std::to_string(value));
  }
  Json& Bool(const std::string& key, bool value) {
    return Raw(key, value ? "true" : "false");
  }
  Json& Str(const std::string& key, const std::string& value) {
    std::string quoted = "\"";
    for (char c : value) {
      if (c == '"' || c == '\\') quoted += '\\';
      quoted += c;
    }
    return Raw(key, quoted + "\"");
  }
  Json& List(const std::string& key, const std::vector<double>& values) {
    std::string out = "[";
    for (size_t i = 0; i < values.size(); ++i) {
      char buf[32];
      std::snprintf(buf, sizeof buf, "%s%.1f", i ? ", " : "", values[i]);
      out += buf;
    }
    return Raw(key, out + "]");
  }
  Json& Raw(const std::string& key, const std::string& json) {
    body_ += body_.empty() ? "\"" : ", \"";
    body_ += key + "\": " + json;
    return *this;
  }
  std::string Done() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

/// {count, p50, p99} of `samples` (already in the unit wanted).
std::string SummaryJson(const std::vector<double>& samples) {
  return Json()
      .Int("count", samples.size())
      .Num("p50", Quantile(samples, 0.50))
      .Num("p99", Quantile(samples, 0.99))
      .Done();
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::atof(line.c_str() + 6) / 1024.0;
    }
  }
  return 0.0;
}

/// Pins the calling thread (and threads it creates later) to a
/// comma-separated CPU list; an empty list leaves it alone.
void PinThread(const std::string& cpus) {
  if (cpus.empty()) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  for (size_t pos = 0; pos < cpus.size();) {
    CPU_SET(std::atoi(cpus.c_str() + pos), &set);
    size_t comma = cpus.find(',', pos);
    pos = comma == std::string::npos ? cpus.size() : comma + 1;
  }
  if (sched_setaffinity(0, sizeof set, &set) != 0) {
    std::perror("lgbench: sched_setaffinity");
    std::exit(2);
  }
}

void SleepUntilNs(uint64_t deadline) {
  const uint64_t now = NowNs();
  if (now < deadline) {
    std::this_thread::sleep_for(std::chrono::nanoseconds(deadline - now));
  }
}

uint64_t Mix64(uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

/// The dataset is fixed: the base graph (LinkBenchConfig's default seed)
/// and, as in LinkBench, which vertices are popular. The benchmark seed
/// picks the request streams drawn from it. So one popularity distribution
/// holds for every phase of every run, and a run's figures do not hinge on
/// the degree of the vertices a seed happens to make hot.
constexpr uint64_t kGraphSeed = 7;
constexpr uint64_t kPopularitySeed = kGraphSeed;

/// Independent request-stream seeds derived from the benchmark seed. The
/// warm-up draws from RNGs of its own, so it never replays the measured
/// stream.
enum SeedStream : uint64_t {
  kRequests = 2,
  kWarmupRequests = 3,
  kLadder = 4,
};
uint64_t StreamSeed(uint64_t seed, uint64_t stream, uint64_t index = 0) {
  return Mix64(seed * 1000003 + stream * 7919 + index) | 1;
}

LinkBenchConfig BaseGraphConfig(int scale) {
  LinkBenchConfig config;
  config.scale = scale;
  config.seed = kGraphSeed;
  config.payload_bytes = kPayloadBytes;
  return config;
}

// ---------------------------------------------------------------------------
// LinkBench requests.

struct Request {
  LinkBenchOp op;
  vertex_t id1, id2;
};

bool IsWrite(LinkBenchOp op) {
  switch (op) {
    case LinkBenchOp::kAddNode:
    case LinkBenchOp::kUpdateNode:
    case LinkBenchOp::kDeleteNode:
    case LinkBenchOp::kAddLink:
    case LinkBenchOp::kDeleteLink:
    case LinkBenchOp::kUpdateLink:
      return true;
    default:
      return false;
  }
}

/// RunLinkBench's request selection (op from the mix, both ids from one
/// scrambled zipf), with the RNG held by the caller so that a stream runs
/// on across calls and the popular vertices stay put. Shared by threads.
class RequestSource {
 public:
  RequestSource(const LinkBenchMix& mix, vertex_t n, uint64_t popularity_seed)
      : zipf_(static_cast<uint64_t>(n), 0.99, popularity_seed) {
    double acc = 0;
    for (size_t i = 0; i < cdf_.size(); ++i) cdf_[i] = (acc += mix[i]);
  }

  Request Next(Xorshift& rng) const {
    const double r = rng.NextDouble();
    int k = 0;
    while (k < kNumLinkBenchOps - 1 && r > cdf_[size_t(k)]) ++k;
    const auto id1 = static_cast<vertex_t>(zipf_.Sample(rng));
    const auto id2 = static_cast<vertex_t>(zipf_.Sample(rng));
    return {static_cast<LinkBenchOp>(k), id1, id2};
  }

  /// The `k` vertices this source draws most often.
  std::vector<vertex_t> Hottest(size_t k) const {
    Xorshift rng(17);
    std::unordered_map<vertex_t, int> hits;
    for (int i = 0; i < 20000; ++i) {
      hits[static_cast<vertex_t>(zipf_.Sample(rng))]++;
    }
    std::vector<std::pair<int, vertex_t>> ranked;
    for (const auto& [v, h] : hits) ranked.emplace_back(h, v);
    std::sort(ranked.rbegin(), ranked.rend());
    std::vector<vertex_t> out;
    for (size_t i = 0; i < std::min(k, ranked.size()); ++i) {
      out.push_back(ranked[i].second);
    }
    return out;
  }

 private:
  std::array<double, kNumLinkBenchOps> cdf_{};
  ScrambledZipf zipf_;
};

struct Outcome {
  Status status;
  vertex_t added = kNullVertex;  // AddNode's id, once committed
  uint64_t acked_bytes = 0;      // payload bytes committed
};

/// One request as RunLinkBench issues it: one session per request; writes
/// go through RunWrite, so conflict retries and their back-off are part of
/// the request.
Outcome Execute(Store* store, const Request& q, const std::string& payload) {
  Outcome o;
  switch (q.op) {
    case LinkBenchOp::kAddNode:
      o.status = RunWrite(*store, [&](StoreTxn& t) -> Status {
        StatusOr<vertex_t> added = t.AddNode(payload);
        if (added.ok()) o.added = *added;
        return added.status();
      });
      if (o.status != Status::kOk) o.added = kNullVertex;
      break;
    case LinkBenchOp::kUpdateNode:
      o.status = RunWrite(*store, [&](StoreTxn& t) {
        return t.UpdateNode(q.id1, payload);
      });
      break;
    case LinkBenchOp::kDeleteNode:
      o.status =
          RunWrite(*store, [&](StoreTxn& t) { return t.DeleteNode(q.id1); });
      break;
    case LinkBenchOp::kAddLink:
    case LinkBenchOp::kUpdateLink:  // LinkBench UPDATE_LINK is an upsert
      o.status = RunWrite(*store, [&](StoreTxn& t) {
        return t.AddLink(q.id1, kLinkType, q.id2, payload).status();
      });
      break;
    case LinkBenchOp::kDeleteLink:
      o.status = RunWrite(*store, [&](StoreTxn& t) {
        return t.DeleteLink(q.id1, kLinkType, q.id2);
      });
      break;
    case LinkBenchOp::kGetNode:
      o.status = store->BeginReadTxn()->GetNode(q.id1).status();
      break;
    case LinkBenchOp::kCountLink: {
      // CountLinks has no status channel; the session's health says
      // whether the count was real.
      auto read = store->BeginReadTxn();
      read->CountLinks(q.id1, kLinkType);
      o.status = read->SessionStatus();
      break;
    }
    case LinkBenchOp::kMultigetLink:
      o.status =
          store->BeginReadTxn()->GetLink(q.id1, kLinkType, q.id2).status();
      break;
    default: {
      auto read = store->BeginReadTxn();
      size_t remaining = kRangeLimit;
      for (EdgeCursor c = read->ScanLinks(q.id1, kLinkType, kRangeLimit);
           c.Valid() && remaining > 0; c.Next()) {
        --remaining;
      }
      o.status = read->SessionStatus();
      break;
    }
  }
  const bool carries_payload = IsWrite(q.op) &&
                               q.op != LinkBenchOp::kDeleteNode &&
                               q.op != LinkBenchOp::kDeleteLink;
  if (o.status == Status::kOk && carries_payload) o.acked_bytes = payload.size();
  return o;
}

/// One request as a timed phase saw it, on the phase's clock.
struct OpRecord {
  uint64_t start_ns;
  uint64_t end_ns;
  LinkBenchOp op;
  bool served;
};

constexpr uint64_t kSecondNs = 1'000'000'000;

/// Served-request latencies and throughput of a timed phase, over the
/// requests that started in the seconds counted. Latency runs from the
/// start of a request to its answer (for the open-loop writer, from when it
/// was due), retries included; failed requests count in `failed` only.
struct PhaseStats {
  uint64_t served = 0;
  uint64_t failed = 0;
  double seconds = 0;  // time the counted requests started in
  std::vector<double> all_us, scan_us, write_us;
  double rate() const { return seconds > 0 ? double(served) / seconds : 0; }
};

/// Counts every request when `counted` is empty, else the requests that
/// started in a full second marked in it.
PhaseStats Summarize(const std::vector<OpRecord>& records, double seconds,
                     const std::vector<bool>& counted) {
  PhaseStats s;
  s.seconds = counted.empty()
                  ? seconds
                  : double(std::count(counted.begin(), counted.end(), true));
  for (const OpRecord& r : records) {
    const size_t w = r.start_ns / kSecondNs;
    if (!counted.empty() && (w >= counted.size() || !counted[w])) continue;
    if (!r.served) {
      ++s.failed;
      continue;
    }
    ++s.served;
    const double us = double(r.end_ns - r.start_ns) / 1e3;
    s.all_us.push_back(us);
    if (r.op == LinkBenchOp::kGetLinkList) s.scan_us.push_back(us);
    if (IsWrite(r.op)) s.write_us.push_back(us);
  }
  return s;
}

/// Served requests that started in each full second of the phase.
std::vector<double> PerSecond(const std::vector<OpRecord>& records,
                              double seconds) {
  std::vector<double> out(std::max<size_t>(1, size_t(seconds)), 0.0);
  for (const OpRecord& r : records) {
    const size_t w = r.start_ns / kSecondNs;
    if (r.served && w < out.size()) out[w] += 1;
  }
  return out;
}

/// The figures every timed mode prints, under the same keys: request
/// counts over the whole phase, the reported figures from `reported`.
void PhaseJson(const std::vector<OpRecord>& records, double seconds,
               const PhaseStats& reported, Json* out) {
  const PhaseStats whole = Summarize(records, seconds, {});
  out->Int("ops", whole.served)
      .Int("failures", whole.failed)
      .Num("seconds", seconds)
      .Num("throughput_ops_s", reported.rate())
      .Raw("latency_us", SummaryJson(reported.all_us))
      .Raw("scan_us", SummaryJson(reported.scan_us))
      .Raw("write_us", SummaryJson(reported.write_us))
      .Raw("whole_phase", Json()
                              .Num("throughput_ops_s", whole.rate())
                              .Raw("latency_us", SummaryJson(whole.all_us))
                              .Done())
      .List("per_window_ops", PerSecond(records, seconds));
}

/// Aggregate {steal, total} CPU jiffies of the host so far.
std::pair<uint64_t, uint64_t> HostCpuJiffies() {
  std::ifstream stat("/proc/stat");
  std::string cpu;
  stat >> cpu;  // the aggregate "cpu" line comes first
  uint64_t field = 0, total = 0, steal = 0;
  for (int i = 0; i < 8 && stat >> field; ++i) {
    total += field;
    if (i == 7) steal = field;
  }
  return {steal, total};
}

/// On a shared VM the hypervisor can take the CPUs away from the whole
/// benchmark (client and server alike) for part of a second: that time is
/// "steal" in /proc/stat. The reported figures count only the seconds in
/// which steal stayed under kMaxStealShare, as long as at least half the
/// seconds qualify (else all of them). Steal is time the program was not
/// running at all, so its own stalls (fsync, compaction, locks) stay in.
constexpr double kMaxStealShare = 0.02;

std::vector<bool> LowStealSeconds(const std::vector<double>& steal_share) {
  std::vector<bool> counted;
  for (double share : steal_share) counted.push_back(share < kMaxStealShare);
  const auto kept = std::count(counted.begin(), counted.end(), true);
  if (2 * size_t(kept) < counted.size()) counted.assign(counted.size(), true);
  return counted;
}

// ---------------------------------------------------------------------------
// Registry deltas (server STATS or the in-process registry).

struct Registry {
  metrics::Snapshot snap;

  uint64_t Counter(const std::string& base) const {
    uint64_t total = 0;
    for (const auto& [name, value] : snap.counters) {
      if (name == base || name.rfind(base + "{", 0) == 0) total += value;
    }
    return total;
  }
  /// {count, sum} over every series named `base` (any label).
  std::pair<uint64_t, double> Hist(const std::string& base) const {
    std::pair<uint64_t, double> total{0, 0.0};
    for (const auto& h : snap.histograms) {
      if (h.name == base || h.name.rfind(base + "{", 0) == 0) {
        total.first += h.count;
        total.second += h.sum;
      }
    }
    return total;
  }
};

uint64_t CounterDelta(const Registry& a, const Registry& b,
                      const std::string& name) {
  return b.Counter(name) - a.Counter(name);
}

/// Mean of a histogram's observations between two snapshots.
double HistMeanDelta(const Registry& a, const Registry& b,
                     const std::string& name) {
  auto [ca, sa] = a.Hist(name);
  auto [cb, sb] = b.Hist(name);
  return cb > ca ? (sb - sa) / double(cb - ca) : 0.0;
}

// ---------------------------------------------------------------------------
// Span analysis.

struct SpanStats {
  std::vector<Span> roots;
  std::unordered_map<uint64_t, std::vector<const Span*>> children;
};

SpanStats IndexSpans(const std::vector<Span>& spans) {
  SpanStats s;
  for (const Span& span : spans) {
    if (span.kind == SpanKind::kRequest) s.roots.push_back(span);
  }
  for (const Span& span : spans) {
    if (span.kind != SpanKind::kRequest) {
      s.children[span.request].push_back(&span);
    }
  }
  return s;
}

double Us(uint64_t ns) { return double(ns) / 1e3; }

/// Per-layer metrics from traced sessions: p50/p99 per child kind (summed
/// per session), the mean read call per session op (to set against the
/// server's own op latency), calls per session, and how much of each
/// session the child spans cover.
std::map<std::string, double> ChildSpanMetrics(const SpanStats& s) {
  std::map<std::string, double> out;
  std::map<std::string, std::vector<double>> per_kind;
  std::map<std::string, std::pair<double, uint64_t>> call_by_op;
  std::vector<double> coverage;
  uint64_t calls = 0, traced_requests = 0;
  for (const Span& root : s.roots) {
    auto it = s.children.find(root.id);
    if (it == s.children.end()) continue;
    ++traced_requests;
    std::map<SpanKind, uint64_t> sums;
    uint64_t covered = 0;
    for (const Span* c : it->second) {
      const uint64_t ns = c->end_ns - c->start_ns;
      sums[c->kind] += ns;
      covered += ns;
      if (c->kind != SpanKind::kScanDrain) ++calls;
      if (c->kind == SpanKind::kReadCall || c->kind == SpanKind::kScanCall) {
        auto& [sum, count] = call_by_op[RequestOpName(root.op)];
        sum += Us(ns);
        ++count;
      }
    }
    for (const auto& [kind, ns] : sums) {
      per_kind[SpanKindName(kind)].push_back(Us(ns));
    }
    const uint64_t total = root.end_ns - root.start_ns;
    if (total > 0) coverage.push_back(double(covered) / double(total));
  }
  for (const auto& [kind, samples] : per_kind) {
    out["remote." + kind + "_us.p50"] = Quantile(samples, 0.5);
    out["remote." + kind + "_us.p99"] = Quantile(samples, 0.99);
    out["remote." + kind + "_us.mean"] = Mean(samples);
  }
  for (const auto& [op, sum_count] : call_by_op) {
    out["remote.call_us.mean." + op] =
        sum_count.first / double(sum_count.second);
  }
  out["remote.calls_per_op"] =
      traced_requests ? double(calls) / double(traced_requests) : 0.0;
  out["remote.span_coverage.p50"] = Quantile(coverage, 0.5);
  out["remote.traced_requests"] = double(traced_requests);
  return out;
}

void WriteTrace(const std::vector<Span>& spans, const std::string& path) {
  if (path.empty()) return;
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return;
  std::fprintf(f, "id,parent,request,name,op,start_ns,end_ns,ok\n");
  for (const Span& s : spans) {
    std::fprintf(f, "%llu,%llu,%llu,%s,%s,%llu,%llu,%d\n",
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.request),
                 SpanKindName(s.kind), RequestOpName(s.op),
                 static_cast<unsigned long long>(s.start_ns),
                 static_cast<unsigned long long>(s.end_ns), s.ok ? 1 : 0);
  }
  std::fclose(f);
}

// ---------------------------------------------------------------------------
// Remote LinkBench (linkbench-tao / linkbench-dflt).

/// The base graph as LoadLinkBenchGraph writes it: its AddLink is an
/// upsert, so duplicate Kronecker edges collapse.
struct BaseGraph {
  std::vector<uint32_t> degree;
  size_t links_written = 0;  // including duplicates
};

BaseGraph ExpectedGraph(int scale, uint64_t seed) {
  KroneckerOptions kron;
  kron.scale = scale;
  kron.average_degree = 4;
  kron.seed = seed;
  auto edges = GenerateKronecker(kron);
  BaseGraph g;
  g.links_written = edges.size();
  std::sort(edges.begin(), edges.end());
  edges.erase(std::unique(edges.begin(), edges.end()), edges.end());
  g.degree.assign(size_t{1} << scale, 0);
  for (const auto& [src, dst] : edges) g.degree[static_cast<size_t>(src)]++;
  return g;
}

/// The `k` highest-degree vertices of the base graph.
std::vector<vertex_t> TopDegree(const std::vector<uint32_t>& degree, size_t k) {
  std::vector<vertex_t> ids(degree.size());
  for (size_t i = 0; i < ids.size(); ++i) ids[i] = static_cast<vertex_t>(i);
  k = std::min(k, ids.size());
  const auto mid = ids.begin() + static_cast<std::ptrdiff_t>(k);
  std::partial_sort(ids.begin(), mid, ids.end(), [&](vertex_t a, vertex_t b) {
    return degree[size_t(a)] > degree[size_t(b)];
  });
  ids.resize(k);
  return ids;
}

struct CheckResult {
  bool ok = true;
  Json json;
  void Expect(const std::string& name, bool pass) {
    json.Bool(name, pass);
    if (!pass) {
      ok = false;
      std::fprintf(stderr, "lgbench: check failed: %s\n", name.c_str());
    }
  }
};

/// After the timed phase: CountLinks equals the unbounded scan length in
/// the same session, scans are newest-first, and every acked AddNode id
/// reads back.
void CheckRemote(Store* store, const std::vector<vertex_t>& hot,
                 const std::vector<vertex_t>& acked, CheckResult* check) {
  auto read = store->BeginReadTxn();
  bool counts = true, ordered = true;
  for (vertex_t v : hot) {
    size_t count = read->CountLinks(v, kLinkType);
    size_t scanned = 0;
    timestamp_t prev = std::numeric_limits<timestamp_t>::max();
    for (EdgeCursor c = read->ScanLinks(v, kLinkType); c.Valid(); c.Next()) {
      ++scanned;
      if (c.creation_timestamp() > prev) ordered = false;
      prev = c.creation_timestamp();
    }
    if (count != scanned) counts = false;
  }
  size_t readable = 0;
  for (vertex_t id : acked) readable += read->GetNode(id).ok() ? 1 : 0;
  check->Expect("count_equals_scan", counts);
  check->Expect("scans_newest_first", ordered);
  check->Expect("acked_nodes_read_back", readable == acked.size());
  check->Expect("session_healthy", read->SessionStatus() == Status::kOk);
  check->json.Int("hot_vertices", hot.size());
  check->json.Int("acked_nodes", acked.size());
}

/// One closed-loop client: its request RNG and what it saw.
struct Client {
  explicit Client(uint64_t seed) : rng(seed) {}
  Xorshift rng;
  std::vector<OpRecord> records;
  std::vector<vertex_t> added;  // committed AddNode ids
  uint64_t acked_bytes = 0;
};

std::vector<Client> MakeClients(uint64_t seed, SeedStream stream) {
  std::vector<Client> clients;
  for (int c = 0; c < kRemoteClients; ++c) {
    clients.emplace_back(StreamSeed(seed, stream, uint64_t(c)));
  }
  return clients;
}

/// Runs every client back to back against `store` for `seconds` and
/// returns the elapsed time, with the host's steal share in each full
/// second. With a span log, child spans are on in odd seconds only: the
/// throughput of those seconds against the even ones is the tracing
/// overhead.
double ClosedLoop(Store* store, const RequestSource& source,
                  std::vector<Client>* clients, double seconds, SpanLog* log,
                  std::vector<double>* steal_share) {
  const std::string payload(kPayloadBytes, 'w');
  std::atomic<bool> stop{false};
  const uint64_t t0 = NowNs();
  std::vector<std::thread> threads;
  for (Client& client : *clients) {
    threads.emplace_back([&, c = &client] {
      while (!stop.load(std::memory_order_relaxed)) {
        const Request q = source.Next(c->rng);
        const uint64_t start = NowNs();
        const Outcome o = Execute(store, q, payload);
        const uint64_t end = NowNs();
        c->records.push_back({start - t0, end - t0, q.op, Served(o.status)});
        if (o.added != kNullVertex) c->added.push_back(o.added);
        c->acked_bytes += o.acked_bytes;
      }
    });
  }
  const auto total = static_cast<uint64_t>(seconds * 1e9);
  auto host = HostCpuJiffies();
  for (uint64_t at = kSecondNs;; at += kSecondNs) {
    SleepUntilNs(t0 + std::min(at, total));
    if (at <= total) {
      const auto now = HostCpuJiffies();
      const uint64_t elapsed = now.second - host.second;
      steal_share->push_back(
          elapsed > 0 ? double(now.first - host.first) / double(elapsed) : 0);
      host = now;
    }
    if (at >= total) break;
    if (log != nullptr) log->set_children((at / kSecondNs) % 2 == 1);
  }
  stop = true;
  for (std::thread& t : threads) t.join();
  if (log != nullptr) log->set_children(false);
  return double(NowNs() - t0) / 1e9;
}

int RunRemote(const Args& args) {
  const std::string mix = args.Str("mix");
  if (mix != "tao" && mix != "dflt") {
    std::fprintf(stderr, "lgbench: --mix must be tao or dflt\n");
    return 2;
  }
  RemoteStore::Options options;
  options.port = static_cast<uint16_t>(args.Uint("port"));
  std::unique_ptr<RemoteStore> remote = RemoteStore::Connect(options);
  if (remote == nullptr) {
    std::fprintf(stderr, "lgbench: cannot reach server on port %u\n",
                 unsigned(options.port));
    return 3;
  }
  const uint64_t seed = args.Uint("seed");
  const bool trace = args.Flag("trace");
  const LinkBenchConfig config = BaseGraphConfig(kRemoteScale);

  CheckResult check;
  const uint64_t t_load = NowNs();
  const vertex_t n = LoadLinkBenchGraph(remote.get(), config);
  const double load_s = double(NowNs() - t_load) / 1e9;
  const BaseGraph base = ExpectedGraph(config.scale, config.seed);
  const std::vector<vertex_t> top = TopDegree(base.degree, 8);
  {
    // The loader reports failed batches only on stderr: verify the load.
    auto read = remote->BeginReadTxn();
    bool ok = read->VertexCount() >= n;
    std::vector<vertex_t> probe = top;
    for (int i = 0; i < 8; ++i) probe.push_back((n / 8) * i + 3);
    for (vertex_t v : probe) {
      ok = ok && read->CountLinks(v, kLinkType) == base.degree[size_t(v)];
    }
    check.Expect("load_complete", ok);
  }
  const uint64_t load_bytes =
      (uint64_t(n) + base.links_written) * kPayloadBytes;

  const RequestSource source(mix == "dflt" ? DfltMix() : TaoMix(), n,
                             kPopularitySeed);
  std::vector<Client> warm = MakeClients(seed, kWarmupRequests);
  std::vector<double> steal;
  const double warmup_s = ClosedLoop(remote.get(), source, &warm,
                                     kRemoteWarmupSeconds, nullptr, &steal);
  Json out;
  out.Str("mode", "remote").Str("mix", mix).Num("load_s", load_s)
      .Num("warmup_s", warmup_s);
  if (args.Flag("setup-only")) {
    out.Raw("checks", check.json.Done()).Bool("correct", check.ok);
    std::printf("%s\n", out.Done().c_str());
    return check.ok ? 0 : 1;
  }

  SpanLog log;
  TracedStore traced(remote.get(), &log);
  Registry before, after;
  if (trace) check.Expect("server_stats_before", remote->Stats(&before.snap));
  std::vector<Client> clients = MakeClients(seed, kRequests);
  steal.clear();
  const double seconds =
      ClosedLoop(trace ? static_cast<Store*>(&traced) : remote.get(), source,
                 &clients, args.Num("seconds"), trace ? &log : nullptr, &steal);
  if (trace) check.Expect("server_stats_after", remote->Stats(&after.snap));

  std::vector<OpRecord> records;
  std::vector<vertex_t> acked;
  uint64_t acked_bytes = load_bytes;
  for (const Client& c : clients) {
    records.insert(records.end(), c.records.begin(), c.records.end());
    acked.insert(acked.end(), c.added.begin(), c.added.end());
    acked_bytes += c.acked_bytes;
  }
  const std::vector<bool> counted = LowStealSeconds(steal);

  std::vector<vertex_t> checked = source.Hottest(16);
  checked.insert(checked.end(), top.begin(), top.end());
  CheckRemote(remote.get(), checked, acked, &check);

  PhaseJson(records, seconds, Summarize(records, seconds, counted), &out);
  std::vector<double> steal_pct;
  for (double share : steal) steal_pct.push_back(100.0 * share);
  out.List("steal_pct_per_window", steal_pct)
      .Int("windows_counted", std::count(counted.begin(), counted.end(), true))
      .Int("acked_payload_bytes", acked_bytes);

  if (trace) {
    const std::vector<Span> spans = log.Collect();
    std::map<std::string, double> m = ChildSpanMetrics(IndexSpans(spans));
    // Requests started in odd seconds ran with child spans on.
    const std::vector<double> per_second = PerSecond(records, seconds);
    std::vector<double> on, off;
    for (size_t w = 0; w < per_second.size(); ++w) {
      (w % 2 == 1 ? on : off).push_back(per_second[w]);
    }
    m["throughput_traced_ops_s"] = Mean(on);
    m["throughput_untraced_ops_s"] = Mean(off);
    m["trace_overhead"] = Mean(off) > 0 ? 1.0 - Mean(on) / Mean(off) : 0.0;
    // Wire and reactor: exact counts from the server registry. STATS calls
    // made by this process are not requests of the workload.
    const double ops = double(std::max<size_t>(1, records.size()));
    auto delta = [&](const std::string& name) {
      return double(CounterDelta(before, after, name));
    };
    auto mean = [&](const std::string& name) {
      return HistMeanDelta(before, after, name);
    };
    m["wire.requests_per_op"] =
        (delta("livegraph_server_requests_total") -
         delta("livegraph_server_requests_total{op=\"STATS\"}")) / ops;
    m["wire.rx_bytes_per_op"] = delta("livegraph_server_rx_bytes_total") / ops;
    m["wire.tx_bytes_per_op"] = delta("livegraph_server_tx_bytes_total") / ops;
    m["reactor.frames_per_wakeup.mean"] =
        mean("livegraph_server_frames_per_wakeup");
    m["reactor.wakeups_per_op"] =
        delta("livegraph_server_reactor_wakeups_total") / ops;
    // Client span minus the server's own op latency: wire plus reactor.
    const std::pair<const char*, const char*> pairs[] = {
        {"remote.begin_read_us.mean", "BEGIN_READ_TXN"},
        {"remote.end_read_us.mean", "END_READ"},
        {"remote.call_us.mean.GET_NODE", "GET_NODE"},
        {"remote.call_us.mean.GET_LINK", "GET_LINK"},
        {"remote.call_us.mean.COUNT_LINKS", "COUNT_LINKS"},
        {"remote.call_us.mean.SCAN_LINKS", "SCAN_LINKS"},
        {"remote.begin_write_us.mean", "BEGIN_TXN"},
        {"remote.commit_us.mean", "COMMIT"},
    };
    for (const auto& [client, op] : pairs) {
      const double server_us =
          mean(std::string("livegraph_server_op_latency{op=\"") + op +
               "\"}") / 1e3;
      m[std::string("server.op_us.mean.") + op] = server_us;
      if (m.count(client) != 0) {
        m[std::string("wire_reactor_us.") + op] = m[client] - server_us;
      }
    }
    const double txns = std::max(1.0, delta("livegraph_commit_txns_total"));
    const auto fsyncs = [&](const Registry& r) {
      return double(r.Hist("livegraph_wal_fsync_latency").first);
    };
    m["commit.group_size.mean"] = mean("livegraph_commit_group_size");
    m["commit.formation_us.mean"] =
        mean("livegraph_commit_formation_latency") / 1e3;
    m["commit.persist_us.mean"] =
        mean("livegraph_commit_persist_latency") / 1e3;
    m["commit.apply_us.mean"] = mean("livegraph_commit_apply_latency") / 1e3;
    m["commit.visible_wait_us.mean"] =
        mean("livegraph_commit_visible_wait") / 1e3;
    m["commit.txns_per_op"] = txns / ops;
    m["wal.fsync_us.mean"] = mean("livegraph_wal_fsync_latency") / 1e3;
    m["wal.fsyncs_per_txn"] = (fsyncs(after) - fsyncs(before)) / txns;
    m["wal.bytes_per_txn"] = delta("livegraph_wal_bytes_total") / txns;
    m["compaction.passes"] = delta("livegraph_compaction_passes_total");
    m["compaction.reclaimed_bytes"] =
        delta("livegraph_compaction_reclaimed_bytes_total");
    Json layer;
    for (const auto& [name, value] : m) layer.Num(name, value);
    if (const auto* h = after.snap.histogram("livegraph_wal_fsync_latency")) {
      layer.Num("wal.fsync_us.p99_cumulative", double(h->p99) / 1e3);
    }
    out.Raw("layers", layer.Done());
    WriteTrace(spans, args.Str("trace-out", ""));
  }
  out.Raw("checks", check.json.Done()).Bool("correct", check.ok);
  std::printf("%s\n", out.Done().c_str());
  return check.ok ? 0 : 1;
}

// ---------------------------------------------------------------------------
// HTAP: analytics passes on fresh snapshots under an open-loop writer.

struct WriterResult {
  std::vector<OpRecord> records;    // from due time to answer
  std::vector<double> lateness_us;  // start minus due time
  double seconds = 0;
};

/// Sends one write (DFLT's write classes in DFLT's proportions) every
/// 1/kWriterRate seconds from its start, however late the previous one
/// finished, until `stop`.
void OpenLoopWriter(Store* store, const RequestSource* source,
                    uint64_t rng_seed, const std::string& cpus,
                    const std::atomic<bool>& stop, WriterResult* out) {
  PinThread(cpus);
  prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0);  // sleeps end on time
  Xorshift rng(rng_seed);
  const std::string payload(kPayloadBytes, 'h');
  const double period_ns = 1e9 / kWriterRate;
  const uint64_t t0 = NowNs();
  for (uint64_t i = 0; !stop.load(std::memory_order_relaxed); ++i) {
    const uint64_t due = t0 + static_cast<uint64_t>(double(i) * period_ns);
    uint64_t now = NowNs();
    if (now + 30'000 < due) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(due - now - 20'000));
    }
    while ((now = NowNs()) < due) {
    }
    const Request q = source->Next(rng);
    const Outcome o = Execute(store, q, payload);
    const uint64_t end = NowNs();
    out->lateness_us.push_back(Us(now - due));
    out->records.push_back({due - t0, end - t0, q.op, Served(o.status)});
  }
  out->seconds = double(NowNs() - t0) / 1e9;
}

std::unique_ptr<LiveGraphStore> MakeServedEngine() {
  // The engine livegraph_server serves by default (--shards=1,
  // --durability=none).
  GraphOptions options;
  options.max_vertices = size_t{1} << 24;
  return std::make_unique<LiveGraphStore>(options);
}

bool PageRankMatches(const std::vector<double>& a,
                     const std::vector<double>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    double scale = std::max({std::fabs(a[i]), std::fabs(b[i]), 1e-300});
    if (std::fabs(a[i] - b[i]) > 1e-9 * scale) return false;
  }
  return true;
}

int RunHtap(const Args& args) {
  const uint64_t seed = args.Uint("seed");
  const bool trace = args.Flag("trace");
  const double seconds = args.Num("seconds");
  const int setups = std::max(1, std::atoi(args.Str("setups", "1").c_str()));
  // Analytics kernels spawn their workers from the calling thread and
  // inherit its CPUs; the engine's commit and compaction threads start with
  // the store and share the writer's CPUs.
  const std::string analytics_cpus = args.Str("analytics-cpus", "");
  const std::string writer_cpus = args.Str("writer-cpus", "");
  PinThread(writer_cpus);
  const LinkBenchConfig config = BaseGraphConfig(kHtapScale);
  const vertex_t n = vertex_t{1} << config.scale;
  const RequestSource writes_source(MixWithWriteRatio(1.0), n,
                                    kPopularitySeed);
  PageRankOptions pr;
  pr.iterations = kPageRankIterations;
  pr.threads = kAnalyticsThreads;

  // Set up `setups` times from scratch; keep the last engine.
  CheckResult check;
  const BaseGraph base = ExpectedGraph(config.scale, config.seed);
  const std::vector<vertex_t> top = TopDegree(base.degree, 8);
  std::vector<double> setup_s;
  std::unique_ptr<LiveGraphStore> store;
  bool loaded = true;
  for (int k = 0; k < setups; ++k) {
    store.reset();
    const uint64_t t0 = NowNs();
    store = MakeServedEngine();
    LoadLinkBenchGraph(store.get(), config);
    {
      // The loader reports failed batches only on stderr: verify the load.
      ReadTransaction snapshot = store->graph().BeginReadOnlyTransaction();
      for (vertex_t v : top) {
        loaded = loaded && snapshot.CountEdges(v, kLinkType) ==
                               base.degree[size_t(v)];
      }
    }
    std::atomic<bool> stop{false};
    WriterResult warm;
    std::thread writer(OpenLoopWriter, store.get(), &writes_source,
                       StreamSeed(seed, kWarmupRequests, uint64_t(k)),
                       std::cref(writer_cpus), std::cref(stop), &warm);
    SleepUntilNs(NowNs() + static_cast<uint64_t>(kHtapWarmupSeconds * 1e9));
    stop = true;
    writer.join();
    setup_s.push_back(double(NowNs() - t0) / 1e9);
  }
  Graph& graph = store->graph();

  SpanLog log;
  log.set_children(trace);
  TracedStore traced(store.get(), &log);
  Registry before, after;
  before.snap = metrics::Registry::Instance().Collect();

  std::atomic<bool> stop{false};
  WriterResult writes;
  std::thread writer(OpenLoopWriter, &traced, &writes_source,
                     StreamSeed(seed, kRequests), std::cref(writer_cpus),
                     std::cref(stop), &writes);
  PinThread(analytics_cpus);
  std::vector<double> pin_us, pagerank_s, conncomp_s, pass_s;
  const uint64_t t_start = NowNs();
  while (pass_s.empty() || double(NowNs() - t_start) / 1e9 < seconds) {
    const uint64_t t0 = NowNs();
    ReadTransaction snapshot = graph.BeginReadOnlyTransaction();
    const uint64_t t1 = NowNs();
    std::vector<double> ranks = PageRankOnSnapshot(snapshot, kLinkType, pr);
    const uint64_t t2 = NowNs();
    std::vector<vertex_t> comps =
        ConnCompOnSnapshot(snapshot, kLinkType, kAnalyticsThreads);
    const uint64_t t3 = NowNs();
    pin_us.push_back(Us(t1 - t0));
    pagerank_s.push_back(double(t2 - t1) / 1e9);
    conncomp_s.push_back(double(t3 - t2) / 1e9);
    pass_s.push_back(double(t3 - t0) / 1e9);
  }
  stop = true;
  writer.join();
  after.snap = metrics::Registry::Instance().Collect();

  // Output checks, outside the timed window: the snapshot kernels agree
  // with the same kernels over a CSR export of that snapshot.
  check.Expect("load_complete", loaded);
  ReadTransaction snapshot = graph.BeginReadOnlyTransaction();
  Csr csr = ExportToCsr(snapshot, kLinkType, kAnalyticsThreads);
  check.Expect("conncomp_matches_csr",
               ConnCompOnSnapshot(snapshot, kLinkType, kAnalyticsThreads) ==
                   ConnCompOnCsr(csr, kAnalyticsThreads));
  check.Expect("pagerank_matches_csr",
               PageRankMatches(PageRankOnSnapshot(snapshot, kLinkType, pr),
                               PageRankOnCsr(csr, pr)));
  const PhaseStats stats = Summarize(writes.records, writes.seconds, {});
  check.Expect("writer_served", stats.served > 0);
  check.json.Int("csr_edges", static_cast<uint64_t>(csr.edge_count()));

  Json out;
  out.Str("mode", "htap");
  PhaseJson(writes.records, writes.seconds, stats, &out);
  out.Raw("analytics_s", SummaryJson(pass_s))
      .Num("setup_s", Quantile(setup_s, 0.5))
      .Int("setups", setup_s.size())
      .Num("peak_rss_mb", PeakRssMb())
      .Int("vertices", n);
  if (trace) {
    Json layer;
    // One single-threaded pass over every adjacency list of the check
    // snapshot, through TEL iterators and through its CSR export: the
    // paper's Fig 1 ratio.
    uint64_t sum = 0, edges = 0;
    const uint64_t t0 = NowNs();
    for (vertex_t v = 0; v < snapshot.VertexCount(); ++v) {
      for (EdgeIterator it = snapshot.GetEdges(v, kLinkType); it.Valid();
           it.Next()) {
        sum += static_cast<uint64_t>(it.DstId());
        ++edges;
      }
    }
    const uint64_t t1 = NowNs();
    for (vertex_t v = 0; v < csr.vertex_count(); ++v) {
      for (vertex_t dst : csr.Neighbors(v)) sum -= static_cast<uint64_t>(dst);
    }
    const uint64_t t2 = NowNs();
    check.Expect("tel_scan_matches_csr",
                 sum == 0 && edges == uint64_t(csr.edge_count()));
    const double per_edge = 1.0 / double(std::max<uint64_t>(1, edges));
    const double tel_ns = double(t1 - t0) * per_edge;
    const double csr_ns = double(t2 - t1) * per_edge;
    std::vector<double> commit_us;
    for (const Span& s : log.Collect()) {
      if (s.kind == SpanKind::kCommit) {
        commit_us.push_back(Us(s.end_ns - s.start_ns));
      }
    }
    layer.Num("epoch.pin_us.p50", Quantile(pin_us, 0.5))
        .Num("analytics.pagerank_s.p50", Quantile(pagerank_s, 0.5))
        .Num("analytics.conncomp_s.p50", Quantile(conncomp_s, 0.5))
        .Int("analytics.passes", pass_s.size())
        .Num("tel.scan_ns_per_edge", tel_ns)
        .Num("csr.scan_ns_per_edge", csr_ns)
        .Num("tel_over_csr", csr_ns > 0 ? tel_ns / csr_ns : 0)
        .Num("writer.commit_us.p50", Quantile(commit_us, 0.5))
        .Num("writer.commit_us.p99", Quantile(commit_us, 0.99))
        .Num("writer.lateness_us.p99", Quantile(writes.lateness_us, 0.99))
        .Num("commit.group_size.mean",
             HistMeanDelta(before, after, "livegraph_commit_group_size"))
        .Int("compaction.passes",
             CounterDelta(before, after, "livegraph_compaction_passes_total"))
        .Int("compaction.reclaimed_bytes",
             CounterDelta(before, after,
                          "livegraph_compaction_reclaimed_bytes_total"));
    out.Raw("layers", layer.Done());
  }
  out.Raw("checks", check.json.Done()).Bool("correct", check.ok);
  std::printf("%s\n", out.Done().c_str());
  return check.ok ? 0 : 1;
}

// ---------------------------------------------------------------------------
// Ladder: one seeded single-client stream through each layer in turn.

/// One client's request stream, materialized so every layer replays
/// exactly the same requests.
std::vector<Request> MakeStream(const LinkBenchMix& mix, vertex_t n,
                                uint64_t seed) {
  const RequestSource source(mix, n, kPopularitySeed);
  Xorshift rng(seed);
  std::vector<Request> ops;
  ops.reserve(kLadderOps);
  for (size_t i = 0; i < kLadderOps; ++i) ops.push_back(source.Next(rng));
  return ops;
}

/// Replays `ops` through the Store surface with the same Execute the timed
/// phases use. Returns the number of requests that failed.
uint64_t ReplayStore(Store* store, const std::vector<Request>& ops) {
  const std::string payload(kPayloadBytes, 'w');
  uint64_t failed = 0;
  for (const Request& q : ops) {
    if (!Served(Execute(store, q, payload).status)) ++failed;
  }
  return failed;
}

/// The same stream through core Graph/Transaction calls, mirroring what
/// LiveGraphStore's sessions do for each request.
uint64_t ReplayCore(Graph* graph, const std::vector<Request>& ops) {
  const std::string payload(kPayloadBytes, 'w');
  uint64_t failed = 0;
  auto write = [&](auto&& body) {
    for (int attempt = 0; attempt < 32; ++attempt) {
      Transaction txn = graph->BeginTransaction();
      Status st = body(txn);
      if (st != Status::kOk) {
        if (txn.active()) txn.Abort();
        if (st != Status::kConflict) return st;
        continue;
      }
      StatusOr<timestamp_t> committed = txn.Commit();
      if (committed.ok() || committed.status() != Status::kConflict) {
        return committed.status();
      }
    }
    return Status::kConflict;
  };
  for (const Request& o : ops) {
    Status st = Status::kOk;
    switch (o.op) {
      case LinkBenchOp::kAddNode:
        st = write([&](Transaction& t) {
          return t.AddVertex(payload) == kNullVertex ? Status::kOutOfRange
                                                     : Status::kOk;
        });
        break;
      case LinkBenchOp::kUpdateNode:
        st = write([&](Transaction& t) {
          return t.GetVertex(o.id1).ok() ? t.PutVertex(o.id1, payload)
                                         : Status::kNotFound;
        });
        break;
      case LinkBenchOp::kDeleteNode:
        st = write([&](Transaction& t) {
          return t.GetVertex(o.id1).ok() ? t.DeleteVertex(o.id1)
                                         : Status::kNotFound;
        });
        break;
      case LinkBenchOp::kAddLink:
      case LinkBenchOp::kUpdateLink:
        st = write([&](Transaction& t) {
          (void)t.GetEdge(o.id1, kLinkType, o.id2).ok();  // upsert probe
          return t.AddEdge(o.id1, kLinkType, o.id2, payload);
        });
        break;
      case LinkBenchOp::kDeleteLink:
        st = write([&](Transaction& t) {
          return t.DeleteEdge(o.id1, kLinkType, o.id2);
        });
        break;
      case LinkBenchOp::kGetNode: {
        ReadTransaction r = graph->BeginReadOnlyTransaction();
        st = r.GetVertex(o.id1).status();
        break;
      }
      case LinkBenchOp::kCountLink: {
        ReadTransaction r = graph->BeginReadOnlyTransaction();
        (void)r.CountEdges(o.id1, kLinkType);
        break;
      }
      case LinkBenchOp::kMultigetLink: {
        ReadTransaction r = graph->BeginReadOnlyTransaction();
        st = r.GetEdge(o.id1, kLinkType, o.id2).status();
        break;
      }
      default: {
        ReadTransaction r = graph->BeginReadOnlyTransaction();
        size_t seen = 0;
        for (EdgeIterator it = r.GetEdges(o.id1, kLinkType);
             it.Valid() && seen < kRangeLimit; it.Next()) {
          ++seen;
        }
        break;
      }
    }
    if (!Served(st)) ++failed;
  }
  return failed;
}

int RunLadder(const Args& args) {
  const uint64_t seed = args.Uint("seed");
  const LinkBenchConfig config = BaseGraphConfig(kRemoteScale);
  const vertex_t n = vertex_t{1} << config.scale;
  const auto tao = MakeStream(TaoMix(), n, StreamSeed(seed, kLadder, 1));
  const auto dflt = MakeStream(DfltMix(), n, StreamSeed(seed, kLadder, 2));

  GraphOptions graph_options;
  graph_options.max_vertices = size_t{1} << 24;
  auto embedded = [&] {
    return std::unique_ptr<Store>(
        std::make_unique<LiveGraphStore>(graph_options));
  };
  auto sharded = [&](int shards) {
    ShardOptions options;
    options.shards = shards;
    options.graph = graph_options;
    return std::unique_ptr<Store>(std::make_unique<ShardedStore>(options));
  };
  struct Layer {
    const char* name;
    std::function<std::unique_ptr<Store>()> make;
    bool serve;  // replay through a loopback RemoteStore
  };
  const std::vector<Layer> layers = {
      {"core", embedded, false},
      {"store", embedded, false},
      {"shard1", [&] { return sharded(1); }, false},
      {"shard4", [&] { return sharded(4); }, false},
      {"remote", embedded, true},
  };
  Json layer_json;
  std::map<std::string, double> ns;
  uint64_t failed = 0;
  for (const Layer& layer : layers) {
    std::unique_ptr<Store> store = layer.make();
    // Loaded in-process even for the remote layer: the replay, not the
    // load, is what the ladder times.
    LoadLinkBenchGraph(store.get(), config);
    if (layer.serve) store = MakeLoopbackStore(std::move(store));
    auto replay = [&](const std::vector<Request>& stream) {
      const uint64_t t0 = NowNs();
      if (std::string(layer.name) == "core") {
        auto* engine = static_cast<LiveGraphStore*>(store.get());
        failed += ReplayCore(&engine->graph(), stream);
      } else {
        failed += ReplayStore(store.get(), stream);
      }
      return double(NowNs() - t0) / double(stream.size());
    };
    // TAO barely writes, so short embedded passes repeat (median pass);
    // DFLT runs once, since its writes change what a second pass would see.
    std::vector<double> tao_passes;
    const uint64_t t0 = NowNs();
    while (tao_passes.size() < 3 || NowNs() - t0 < 200'000'000) {
      tao_passes.push_back(replay(tao));
    }
    ns[std::string("tao.") + layer.name] = Quantile(tao_passes, 0.5);
    ns[std::string("dflt.") + layer.name] = replay(dflt);
    for (const char* mix : {"tao", "dflt"}) {
      layer_json.Num(std::string("ladder.") + mix + "." + layer.name + "_ns",
                     ns[std::string(mix) + "." + layer.name]);
    }
  }
  for (const char* mix : {"tao", "dflt"}) {
    auto at = [&](const char* l) { return ns[std::string(mix) + "." + l]; };
    std::string p = std::string("ladder.") + mix + ".";
    layer_json.Num(p + "store_minus_core_ns", at("store") - at("core"))
        .Num(p + "shard1_minus_store_ns", at("shard1") - at("store"))
        .Num(p + "shard4_minus_shard1_ns", at("shard4") - at("shard1"))
        .Num(p + "remote_minus_store_ns", at("remote") - at("store"))
        .Num(p + "remote_step_share",
             (at("remote") - at("store")) / at("remote"));
  }
  CheckResult check;
  check.Expect("ladder_requests_served", failed == 0);
  Json out;
  out.Str("mode", "ladder").Int("ops_per_stream", kLadderOps)
      .Raw("layers", layer_json.Done())
      .Raw("checks", check.json.Done()).Bool("correct", check.ok);
  std::printf("%s\n", out.Done().c_str());
  return check.ok ? 0 : 1;
}

int RunInfo() {
  std::printf("%s\n", Json()
                          .Str("build_type", kBuildType)
                          .Str("build_flags", kBuildFlags)
                          .Str("git_sha", kBuildGitSha)
                          .Done()
                          .c_str());
  return 0;
}

}  // namespace
}  // namespace livegraph::perfbench

int main(int argc, char** argv) {
  using namespace livegraph::perfbench;
  const std::string mode = argc > 1 ? argv[1] : "";
  Args args(argc, argv);
  if (mode == "info") return RunInfo();
  if (mode == "remote") return RunRemote(args);
  if (mode == "htap") return RunHtap(args);
  if (mode == "ladder") return RunLadder(args);
  std::fprintf(stderr,
               "usage: lgbench info|remote|htap|ladder [--key=value...]\n");
  return 2;
}
