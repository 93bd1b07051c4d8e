// End-to-end observability tests (docs/OBSERVABILITY.md): registry
// primitives under concurrency, STATS snapshot wire round-trip, counters
// moving under a known op sequence against a live server, and the
// Prometheus /metrics endpoint.
//
// The metrics registry is process-global and these tests share one
// process, so assertions are deltas between snapshots, never absolute
// values.
#include "util/metrics.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "baselines/livegraph_store.h"
#include "server/graph_server.h"
#include "server/metrics_http.h"
#include "server/net.h"
#include "server/remote_store.h"
#include "server/stats_codec.h"

namespace livegraph {
namespace {

using metrics::Registry;
using metrics::Snapshot;
using metrics::Unit;

TEST(MetricsCounter, StripedAddsSumAcrossThreads) {
  metrics::Counter& counter =
      Registry::Instance().GetCounter("test_counter_striped");
  uint64_t before = counter.Value();
  constexpr int kThreads = 8;
  constexpr uint64_t kPerThread = 100'000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&counter] {
      for (uint64_t i = 0; i < kPerThread; ++i) counter.Add();
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(counter.Value() - before, kThreads * kPerThread);
}

TEST(MetricsRegistry, SameNameReturnsSameInstance) {
  metrics::Counter& a = Registry::Instance().GetCounter("test_same_name");
  metrics::Counter& b = Registry::Instance().GetCounter("test_same_name");
  EXPECT_EQ(&a, &b);
  metrics::Gauge& g1 = Registry::Instance().GetGauge("test_same_gauge");
  metrics::Gauge& g2 = Registry::Instance().GetGauge("test_same_gauge");
  EXPECT_EQ(&g1, &g2);
}

TEST(MetricsHistogram, QuantilesTrackRecordedDistribution) {
  metrics::Histogram& h = Registry::Instance().GetHistogram(
      "test_hist_quantiles", Unit::kNanos);
  for (uint64_t v = 1; v <= 10'000; ++v) h.Record(v * 1000);  // 1us..10ms
  metrics::HistogramSample sample = h.Sample("test_hist_quantiles");
  EXPECT_EQ(sample.count, 10'000u);
  // Log buckets are upper-bound estimates with ~2% resolution.
  EXPECT_NEAR(static_cast<double>(sample.p50), 5e6, 5e6 * 0.05);
  EXPECT_NEAR(static_cast<double>(sample.p99), 9.9e6, 9.9e6 * 0.05);
  EXPECT_LE(sample.p50, sample.p90);
  EXPECT_LE(sample.p90, sample.p99);
  EXPECT_LE(sample.p99, sample.p999);
  EXPECT_DOUBLE_EQ(sample.sum, 5.0005e10);  // sum is exact, only buckets lossy
}

TEST(MetricsHistogram, CrossThreadRecordsAllCounted) {
  metrics::Histogram& h = Registry::Instance().GetHistogram(
      "test_hist_threads", Unit::kCount);
  constexpr int kThreads = 8;
  constexpr uint64_t kPerThread = 50'000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&h, t] {
      for (uint64_t i = 0; i < kPerThread; ++i) {
        h.Record(static_cast<uint64_t>(t) * 1000 + i % 7);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(h.Sample("test_hist_threads").count, kThreads * kPerThread);
}

TEST(MetricsSlowOpRing, RecordsAboveThresholdOldestFirst) {
  auto& ring = metrics::SlowOpRing::Instance();
  ring.Clear();
  uint64_t saved = ring.threshold_nanos();
  uint64_t total_before = 0;
  ring.Snapshot(&total_before);  // all-time count survives Clear()
  ring.set_threshold_nanos(1000);
  EXPECT_FALSE(ring.ShouldRecord(999));
  EXPECT_TRUE(ring.ShouldRecord(1000));
  for (int i = 0; i < 300; ++i) {  // overflow the 256-entry ring
    metrics::SlowOp op;
    op.name = "OP" + std::to_string(i);
    op.total_nanos = 1000 + static_cast<uint64_t>(i);
    ring.Record(std::move(op));
  }
  uint64_t total = 0;
  std::vector<metrics::SlowOp> ops = ring.Snapshot(&total);
  EXPECT_EQ(total - total_before, 300u);
  ASSERT_EQ(ops.size(), 256u);
  EXPECT_EQ(ops.front().name, "OP44");  // oldest surviving entry
  EXPECT_EQ(ops.back().name, "OP299");
  ring.set_threshold_nanos(saved);
  ring.Clear();
}

TEST(StatsCodec, SnapshotRoundTrips) {
  Snapshot snapshot;
  snapshot.mono_nanos = 123456789;
  snapshot.wall_unix_micros = 1'700'000'000'000'000ull;
  snapshot.build_info = "sha=\"abc\",type=\"Debug\",flags=\"none\"";
  snapshot.counters = {{"c_one", 1}, {"c{op=\"X\"}", ~uint64_t{0}}};
  snapshot.gauges = {{"g_neg", -42}, {"g_pos", 7}};
  metrics::HistogramSample h;
  h.name = "h_lat";
  h.unit = Unit::kNanos;
  h.count = 10;
  h.sum = 123.5;
  h.p50 = 1;
  h.p90 = 2;
  h.p99 = 3;
  h.p999 = 4;
  snapshot.histograms = {h};
  snapshot.slow_ops_total = 99;
  metrics::SlowOp slow;
  slow.name = "COMMIT";
  slow.shard = 3;
  slow.epoch = 77;
  slow.total_nanos = 5'000'000;
  slow.stage_nanos[0] = 1;
  slow.stage_nanos[3] = 4;
  slow.wall_unix_micros = 42;
  metrics::SlowOp unsharded;
  unsharded.name = "GET_NODE";
  unsharded.shard = -1;
  snapshot.slow_ops = {slow, unsharded};

  std::string wire;
  EncodeStats(snapshot, &wire);
  Snapshot decoded;
  ASSERT_TRUE(DecodeStats(wire, &decoded));

  EXPECT_EQ(decoded.mono_nanos, snapshot.mono_nanos);
  EXPECT_EQ(decoded.wall_unix_micros, snapshot.wall_unix_micros);
  EXPECT_EQ(decoded.build_info, snapshot.build_info);
  EXPECT_EQ(decoded.counters, snapshot.counters);
  EXPECT_EQ(decoded.gauges, snapshot.gauges);
  ASSERT_EQ(decoded.histograms.size(), 1u);
  EXPECT_EQ(decoded.histograms[0].name, "h_lat");
  EXPECT_EQ(decoded.histograms[0].unit, Unit::kNanos);
  EXPECT_EQ(decoded.histograms[0].count, 10u);
  EXPECT_DOUBLE_EQ(decoded.histograms[0].sum, 123.5);
  EXPECT_EQ(decoded.histograms[0].p999, 4u);
  EXPECT_EQ(decoded.slow_ops_total, 99u);
  ASSERT_EQ(decoded.slow_ops.size(), 2u);
  EXPECT_EQ(decoded.slow_ops[0].name, "COMMIT");
  EXPECT_EQ(decoded.slow_ops[0].shard, 3);
  EXPECT_EQ(decoded.slow_ops[0].epoch, 77);
  EXPECT_EQ(decoded.slow_ops[0].stage_nanos[3], 4u);
  EXPECT_EQ(decoded.slow_ops[1].shard, -1);

  // Truncations and a bumped version must be rejected, not misparsed.
  Snapshot scratch;
  EXPECT_FALSE(DecodeStats(std::string_view(wire).substr(0, wire.size() - 1),
                           &scratch));
  EXPECT_FALSE(DecodeStats(std::string_view(wire).substr(1), &scratch));
  std::string wrong_version = wire;
  wrong_version[0] = static_cast<char>(kStatsFormatVersion + 1);
  EXPECT_FALSE(DecodeStats(wrong_version, &scratch));
}

/// Minimal Prometheus text-format validator: every non-comment line is
/// `name{labels} value` or `name value`, every series' family has exactly
/// one preceding # TYPE, and families are not interleaved.
void ValidatePrometheusText(const std::string& body) {
  std::istringstream lines(body);
  std::string line;
  std::map<std::string, std::string> family_type;
  std::set<std::string> closed_families;
  std::string current_family;
  int series = 0;
  while (std::getline(lines, line)) {
    if (line.empty()) continue;
    if (line.rfind("# TYPE ", 0) == 0) {
      std::istringstream fields(line.substr(7));
      std::string family, type;
      ASSERT_TRUE(fields >> family >> type) << line;
      ASSERT_TRUE(type == "counter" || type == "gauge" ||
                  type == "summary" || type == "untyped")
          << line;
      ASSERT_EQ(family_type.count(family), 0u)
          << "duplicate # TYPE for " << family;
      family_type[family] = type;
      if (!current_family.empty()) closed_families.insert(current_family);
      ASSERT_EQ(closed_families.count(family), 0u)
          << "family " << family << " interleaved";
      current_family = family;
      continue;
    }
    ASSERT_NE(line[0], '#') << "unexpected comment: " << line;
    // name[{labels}] value
    size_t name_end = line.find_first_of("{ ");
    ASSERT_NE(name_end, std::string::npos) << line;
    std::string name = line.substr(0, name_end);
    size_t value_at = line.rfind(' ');
    ASSERT_NE(value_at, std::string::npos) << line;
    ASSERT_GT(value_at + 1, name_end) << line;
    char* end = nullptr;
    std::strtod(line.c_str() + value_at + 1, &end);
    ASSERT_EQ(*end, '\0') << "unparsable value in: " << line;
    if (line[name_end] == '{') {
      ASSERT_EQ(line[value_at - 1], '}') << line;
    }
    ++series;
  }
  EXPECT_GT(series, 0);
}

TEST(Prometheus, RenderedSnapshotParses) {
  // Touch at least one of each kind so the render covers all paths.
  Registry::Instance().GetCounter("test_prom_counter{op=\"X\"}").Add(3);
  Registry::Instance().GetGauge("test_prom_gauge").Set(-5);
  Registry::Instance()
      .GetHistogram("test_prom_hist", Unit::kNanos)
      .Record(1'500'000);
  Snapshot snapshot = Registry::Instance().Collect();
  std::string body;
  metrics::RenderPrometheus(snapshot, &body);
  ValidatePrometheusText(body);
  EXPECT_NE(body.find("test_prom_counter{op=\"X\"} 3"), std::string::npos);
  EXPECT_NE(body.find("test_prom_gauge -5"), std::string::npos);
  // kNanos histograms render as _seconds summaries.
  EXPECT_NE(body.find("test_prom_hist_seconds{quantile=\"0.5\"}"),
            std::string::npos);
  EXPECT_NE(body.find("test_prom_hist_seconds_count 1"), std::string::npos);
  EXPECT_NE(body.find("livegraph_build_info{"), std::string::npos);
}

class MetricsServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    wal_path_ = std::filesystem::temp_directory_path() /
                "metrics_test_wal.log";
    std::filesystem::remove(wal_path_);
    GraphOptions options;
    options.region_reserve = size_t{1} << 30;
    options.max_vertices = 1 << 18;
    options.wal_path = wal_path_.string();
    options.fsync_wal = false;  // tmp storage; the WAL metrics still move
    store_ = std::make_unique<LiveGraphStore>(options);
    server_ = std::make_unique<GraphServer>(*store_, GraphServer::Options{});
    ASSERT_TRUE(server_->Start());
    remote_ = RemoteStore::Connect("127.0.0.1", server_->port());
    ASSERT_NE(remote_, nullptr);
  }

  void TearDown() override {
    remote_.reset();
    server_->Stop();
    server_.reset();
    store_.reset();
    std::filesystem::remove(wal_path_);
  }

  std::filesystem::path wal_path_;
  std::unique_ptr<LiveGraphStore> store_;
  std::unique_ptr<GraphServer> server_;
  std::unique_ptr<RemoteStore> remote_;
};

TEST_F(MetricsServerTest, CountersMoveUnderKnownOpSequence) {
  Snapshot before;
  ASSERT_TRUE(remote_->Stats(&before));

  // A known sequence: 3 write txns of 1 node + 1 self-link each, then
  // 2 read txns of 1 GetNode each.
  vertex_t first = 0;
  for (int i = 0; i < 3; ++i) {
    auto txn = remote_->BeginTxn();
    StatusOr<vertex_t> added = txn->AddNode("n");
    ASSERT_TRUE(added.ok());
    if (i == 0) first = *added;
    ASSERT_TRUE(txn->AddLink(*added, 1, *added, "e").ok());
    ASSERT_TRUE(txn->Commit().ok());
  }
  for (int i = 0; i < 2; ++i) {
    auto read = remote_->BeginReadTxn();
    EXPECT_TRUE(read->GetNode(first).ok());
  }

  Snapshot after;
  ASSERT_TRUE(remote_->Stats(&after));

  auto delta = [&](const char* name) {
    return after.counter(name) - before.counter(name);
  };
  // Protocol v4: sessions open from the first request's begin flag, so
  // no explicit begin goes out; the session counter sees every open.
  EXPECT_EQ(delta("livegraph_server_requests_total{op=\"BEGIN_TXN\"}"), 0u);
  EXPECT_EQ(delta("livegraph_server_sessions_opened_total{kind=\"write\"}"),
            3u);
  EXPECT_EQ(delta("livegraph_server_sessions_opened_total{kind=\"read\"}"),
            2u);
  EXPECT_EQ(delta("livegraph_server_requests_total{op=\"ADD_NODE\"}"), 3u);
  EXPECT_EQ(delta("livegraph_server_requests_total{op=\"ADD_LINK\"}"), 3u);
  EXPECT_EQ(delta("livegraph_server_requests_total{op=\"COMMIT\"}"), 3u);
  EXPECT_EQ(delta("livegraph_server_requests_total{op=\"GET_NODE\"}"), 2u);
  EXPECT_EQ(delta("livegraph_commit_txns_total"), 3u);
  EXPECT_EQ(delta("livegraph_wal_appends_total"), 3u);
  EXPECT_GT(delta("livegraph_wal_bytes_total"), 0u);
  EXPECT_GT(delta("livegraph_server_rx_bytes_total"), 0u);
  EXPECT_GT(delta("livegraph_server_tx_bytes_total"), 0u);
  EXPECT_EQ(after.gauge("livegraph_server_open_txns"), 0);

  const metrics::HistogramSample* commit_latency =
      after.histogram("livegraph_server_op_latency{op=\"COMMIT\"}");
  ASSERT_NE(commit_latency, nullptr);
  EXPECT_GE(commit_latency->count, 3u);
  EXPECT_GT(commit_latency->p50, 0u);
  EXPECT_FALSE(after.build_info.empty());
  EXPECT_GT(after.mono_nanos, 0u);
}

TEST_F(MetricsServerTest, HttpEndpointServesValidExposition) {
  MetricsHttpServer http;
  ASSERT_TRUE(http.Start("127.0.0.1", 0));

  auto fetch = [&](const std::string& request, std::string* response) {
    Socket conn = ConnectTcp("127.0.0.1", http.port());
    ASSERT_TRUE(conn.valid());
    conn.SetRecvTimeout(5000);
    ASSERT_TRUE(conn.WriteFull(request.data(), request.size()));
    char chunk[4096];
    int64_t n;
    while ((n = conn.ReadSome(chunk, sizeof(chunk))) > 0) {
      response->append(chunk, static_cast<size_t>(n));
    }
  };

  // Generate some traffic so the scrape carries server families.
  auto txn = remote_->BeginTxn();
  ASSERT_TRUE(txn->AddNode("n").ok());
  ASSERT_TRUE(txn->Commit().ok());

  std::string response;
  fetch("GET /metrics HTTP/1.0\r\nHost: x\r\n\r\n", &response);
  ASSERT_NE(response.find("HTTP/1.0 200 OK"), std::string::npos);
  ASSERT_NE(response.find("text/plain; version=0.0.4"), std::string::npos);
  size_t body_at = response.find("\r\n\r\n");
  ASSERT_NE(body_at, std::string::npos);
  std::string body = response.substr(body_at + 4);
  ValidatePrometheusText(body);
  EXPECT_NE(body.find("livegraph_server_requests_total{op=\"COMMIT\"}"),
            std::string::npos);
  EXPECT_NE(body.find("livegraph_commit_txns_total"), std::string::npos);
  EXPECT_NE(body.find("livegraph_build_info{"), std::string::npos);

  std::string not_found;
  fetch("GET /nope HTTP/1.0\r\n\r\n", &not_found);
  EXPECT_NE(not_found.find("404"), std::string::npos);
  std::string bad_method;
  fetch("POST /metrics HTTP/1.0\r\n\r\n", &bad_method);
  EXPECT_NE(bad_method.find("405"), std::string::npos);

  http.Stop();
}

TEST_F(MetricsServerTest, StatsCarriesSlowOps) {
  auto& ring = metrics::SlowOpRing::Instance();
  ring.Clear();
  uint64_t saved = ring.threshold_nanos();
  ring.set_threshold_nanos(1);  // everything is slow now

  auto txn = remote_->BeginTxn();
  ASSERT_TRUE(txn->AddNode("n").ok());
  ASSERT_TRUE(txn->Commit().ok());

  Snapshot snapshot;
  ASSERT_TRUE(remote_->Stats(&snapshot));
  ring.set_threshold_nanos(saved);
  ring.Clear();

  EXPECT_GT(snapshot.slow_ops_total, 0u);
  ASSERT_FALSE(snapshot.slow_ops.empty());
  bool saw_commit = false;
  for (const metrics::SlowOp& op : snapshot.slow_ops) {
    EXPECT_FALSE(op.name.empty());
    if (op.name == "COMMIT") saw_commit = true;
  }
  EXPECT_TRUE(saw_commit);
}

}  // namespace
}  // namespace livegraph
