// Metrics registry contract (obs/registry.h): idempotent registration,
// label separation, log2 bucketing, quantile edges, and both exposition
// formats.
#include "obs/registry.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>

namespace eppi::obs {
namespace {

TEST(RegistryTest, RegistrationIsIdempotentByNameAndLabels) {
  Registry reg;
  Counter& a = reg.counter("eppi_test_total");
  Counter& b = reg.counter("eppi_test_total");
  EXPECT_EQ(&a, &b);

  Counter& c = reg.counter("eppi_test_total", Labels{{"party", "0"}});
  Counter& d = reg.counter("eppi_test_total", Labels{{"party", "1"}});
  EXPECT_NE(&a, &c);
  EXPECT_NE(&c, &d);
  EXPECT_EQ(&c, &reg.counter("eppi_test_total", Labels{{"party", "0"}}));
}

TEST(RegistryTest, CounterAndGaugeSemantics) {
  Registry reg;
  Counter& events = reg.counter("events_total");
  events.add();
  events.add(41);
  EXPECT_EQ(events.value(), 42u);

  Gauge& level = reg.gauge("level");
  level.set(10);
  level.add(-3);
  EXPECT_EQ(level.value(), 7);
}

TEST(RegistryTest, HistogramBucketingIsLog2) {
  // v <= 1 -> bucket 0, otherwise floor(log2 v), clamped into the last
  // bucket.
  EXPECT_EQ(Histogram::bucket_for(0), 0u);
  EXPECT_EQ(Histogram::bucket_for(1), 0u);
  EXPECT_EQ(Histogram::bucket_for(2), 1u);
  EXPECT_EQ(Histogram::bucket_for(3), 1u);
  EXPECT_EQ(Histogram::bucket_for(4), 2u);
  EXPECT_EQ(Histogram::bucket_for(std::uint64_t{1} << 40),
            Histogram::kBuckets - 1);
}

TEST(RegistryTest, HistogramDoubleRecordGuardsGarbage) {
  Registry reg;
  Histogram& h = reg.histogram("h");
  h.record(std::nan(""));
  h.record(-3.0);
  h.record(0.25);
  const auto snap = h.snapshot();
  EXPECT_EQ(snap.total, 3u);
  EXPECT_EQ(snap.counts[0], 3u);  // all recorded as 0
  EXPECT_EQ(snap.sum, 0u);
}

TEST(RegistryTest, HistogramQuantileEdges) {
  Registry reg;
  Histogram& h = reg.histogram("h");
  EXPECT_EQ(h.snapshot().quantile(0.5), 0.0);  // empty
  h.record(std::uint64_t{3});
  h.record(std::uint64_t{100});
  const auto snap = h.snapshot();
  EXPECT_EQ(snap.quantile(0.0), 4.0);    // first sample's bucket edge
  EXPECT_EQ(snap.quantile(0.5), 4.0);
  EXPECT_EQ(snap.quantile(1.0), 128.0);  // bucket 6: [64, 128)
  EXPECT_EQ(snap.sum, 103u);
}

// LatencyHistogramTest pins the quantile semantics every latency readout
// (serving p50/p99, bench reports) relies on: microsecond samples into
// log2 buckets, reported as the owning bucket's upper edge.

TEST(LatencyHistogramTest, EmptyHistogramQuantileIsZero) {
  Registry reg;
  Histogram& h = reg.histogram("h");
  const auto snap = h.snapshot();
  EXPECT_EQ(snap.total, 0u);
  for (const double q : {0.0, 0.5, 0.99, 1.0}) {
    EXPECT_EQ(snap.quantile(q), 0.0) << "q=" << q;
  }
}

TEST(LatencyHistogramTest, SingleSampleOwnsEveryQuantile) {
  Registry reg;
  Histogram& h = reg.histogram("h");
  h.record(3.0);  // bucket 1: [2, 4)
  const auto snap = h.snapshot();
  EXPECT_EQ(snap.total, 1u);
  for (const double q : {0.0, 0.5, 1.0}) {  // rank clamps up to sample 1
    EXPECT_EQ(snap.quantile(q), 4.0) << "q=" << q;
  }
}

TEST(LatencyHistogramTest, OutOfRangeQIsClamped) {
  Registry reg;
  Histogram& h = reg.histogram("h");
  h.record(3.0);
  const auto snap = h.snapshot();
  EXPECT_EQ(snap.quantile(-1.0), snap.quantile(0.0));
  EXPECT_EQ(snap.quantile(2.0), snap.quantile(1.0));
}

TEST(LatencyHistogramTest, BucketBoundarySamplesReportUpperEdges) {
  // A sample at exactly 2^k lands in bucket k and reports its upper edge
  // 2^(k+1); rank(q) = max(1, ceil(q * 3)) walks ranks 1, 1, 2, 3.
  Registry reg;
  Histogram& h = reg.histogram("h");
  h.record(1.0);  // bucket 0 (sub-2us), upper edge 2
  h.record(2.0);  // bucket 1: [2, 4), upper edge 4
  h.record(4.0);  // bucket 2: [4, 8), upper edge 8
  const auto snap = h.snapshot();
  ASSERT_EQ(snap.total, 3u);
  EXPECT_EQ(snap.counts[0], 1u);
  EXPECT_EQ(snap.counts[1], 1u);
  EXPECT_EQ(snap.counts[2], 1u);
  EXPECT_EQ(snap.quantile(0.0), 2.0);
  EXPECT_EQ(snap.quantile(1.0 / 3.0), 2.0);
  EXPECT_EQ(snap.quantile(0.5), 4.0);
  EXPECT_EQ(snap.quantile(1.0), 8.0);
}

TEST(LatencyHistogramTest, SubMicrosecondAndGarbageLandInBucketZero) {
  Registry reg;
  Histogram& h = reg.histogram("h");
  h.record(0.5);
  h.record(-7.0);
  const auto snap = h.snapshot();
  EXPECT_EQ(snap.counts[0], 2u);
  EXPECT_EQ(snap.quantile(1.0), 2.0);  // bucket 0's upper edge
}

TEST(RegistryTest, PrometheusRenderShape) {
  Registry reg;
  reg.counter("zeta_total", {}, "last family").add(5);
  reg.counter("alpha_total", Labels{{"party", "0"}}, "first family").add(2);
  reg.gauge("level", {}, "a gauge").set(-4);
  Histogram& h = reg.histogram("lat_us", {}, "latency");
  h.record(std::uint64_t{3});

  const std::string text = reg.render_prometheus();
  EXPECT_NE(text.find("# TYPE alpha_total counter"), std::string::npos);
  EXPECT_NE(text.find("alpha_total{party=\"0\"} 2"), std::string::npos);
  EXPECT_NE(text.find("# TYPE level gauge"), std::string::npos);
  EXPECT_NE(text.find("level -4"), std::string::npos);
  EXPECT_NE(text.find("# TYPE lat_us histogram"), std::string::npos);
  EXPECT_NE(text.find("lat_us_bucket{le=\"+Inf\"} 1"), std::string::npos);
  EXPECT_NE(text.find("lat_us_sum 3"), std::string::npos);
  EXPECT_NE(text.find("lat_us_count 1"), std::string::npos);
  // Families render sorted by name.
  EXPECT_LT(text.find("alpha_total"), text.find("zeta_total"));
}

TEST(RegistryTest, JsonRenderShape) {
  Registry reg;
  reg.counter("c_total", Labels{{"k", "v"}}).add(7);
  reg.gauge("g").set(3);
  reg.histogram("h").record(std::uint64_t{2});
  const std::string json = reg.render_json();
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"c_total\""), std::string::npos);
  EXPECT_NE(json.find("\"k\":\"v\""), std::string::npos);
  EXPECT_NE(json.find("\"gauges\""), std::string::npos);
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
}

TEST(RegistryTest, GlobalRegistryIsAProcessSingleton) {
  Registry& a = Registry::global();
  Registry& b = Registry::global();
  EXPECT_EQ(&a, &b);
}

}  // namespace
}  // namespace eppi::obs
