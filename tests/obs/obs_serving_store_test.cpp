// Serving- and storage-tier instrumentation: LocatorService registers its
// eppi_serving_* instruments on the global registry (distinct per-instance
// labels, Prometheus-visible), the
// LocatorService emits serve.build/serve.publish spans, and EpochStore
// commit/recover run under store.* spans with byte counts.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "common/error.h"
#include "common/rng.h"
#include "core/epoch_store.h"
#include "core/locator_service.h"
#include "obs/registry.h"
#include "obs/trace.h"
#include "storage/mem_vfs.h"

namespace eppi::core {
namespace {

const eppi::obs::SpanAttr* find_attr(const eppi::obs::SpanEvent& ev,
                                     std::string_view key) {
  for (std::uint32_t i = 0; i < ev.n_attrs; ++i) {
    if (std::string_view(ev.attrs[i].key,
                         ::strnlen(ev.attrs[i].key,
                                   eppi::obs::SpanAttr::kKeyCap)) == key) {
      return &ev.attrs[i];
    }
  }
  return nullptr;
}

void populate(LocatorService& service) {
  service.delegate("alice", 0.5, "hospital");
  service.delegate("alice", 0.5, "clinic");
  service.delegate("bob", 0.3, "clinic");
}

// Two owners over two providers is below the distributed protocol's
// c <= m floor, so these tests exercise the centralized construction path.
LocatorService::Options centralized_options() {
  LocatorService::Options options;
  options.distributed = false;
  return options;
}

TEST(ObsServingTest, QueryAndSwapShowUpInPrometheusRender) {
  LocatorService service(centralized_options());
  populate(service);
  service.construct_ppi();
  (void)service.query_ppi("alice");
  (void)service.query_ppi("bob");

  const auto snap = service.metrics();
  EXPECT_EQ(snap.queries, 2u);
  EXPECT_EQ(snap.epoch_swaps, 1u);

  // The same counters are visible through the global registry's exposition
  // (LocatorService registers them under eppi_serving_* with an instance
  // label); the render must carry the family and at least our two queries.
  const std::string text =
      eppi::obs::Registry::global().render_prometheus();
  EXPECT_NE(text.find("# TYPE eppi_serving_queries_total counter"),
            std::string::npos);
  EXPECT_NE(text.find("eppi_serving_queries_total{instance=\""),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE eppi_serving_latency_us histogram"),
            std::string::npos);
}

TEST(ServingMetricsTest, SnapshotReflectsRecordedCalls) {
  LocatorService service(centralized_options());
  populate(service);
  service.construct_ppi();
  (void)service.query_ppi("alice");
  const std::vector<std::string> batch = {"alice", "bob", "alice"};
  (void)service.query_ppi_many(batch);
  EXPECT_THROW((void)service.query_ppi("mallory"), eppi::ConfigError);

  const auto snap = service.metrics();
  EXPECT_EQ(snap.queries, 1u);
  EXPECT_EQ(snap.batches, 1u);
  EXPECT_EQ(snap.owners_resolved, 4u);
  EXPECT_EQ(snap.unknown_owners, 1u);
  EXPECT_EQ(snap.epoch_swaps, 1u);
  EXPECT_EQ(snap.degraded_serves, 0u);  // healthy build, never degraded
  EXPECT_EQ(snap.latency.total, 2u);    // one per answered call
}

TEST(ServingMetricsTest, InstancesAreIndependentOnTheRegistry) {
  // Both services register on Registry::global() under distinct `instance`
  // labels (common in tests: many services per process); serving from one
  // must not bleed into the other's counters or latency.
  LocatorService a(centralized_options());
  LocatorService b(centralized_options());
  populate(a);
  populate(b);
  a.construct_ppi();
  (void)a.query_ppi("alice");
  (void)a.query_ppi("bob");
  EXPECT_THROW((void)a.query_ppi("mallory"), eppi::ConfigError);

  EXPECT_EQ(a.metrics().queries, 2u);
  EXPECT_EQ(a.metrics().unknown_owners, 1u);
  EXPECT_EQ(a.metrics().latency.total, 2u);
  const auto other = b.metrics();
  EXPECT_EQ(other.queries, 0u);
  EXPECT_EQ(other.unknown_owners, 0u);
  EXPECT_EQ(other.epoch_swaps, 0u);
  EXPECT_EQ(other.latency.total, 0u);
}

TEST(ObsServingTest, BuildAndPublishEmitSpans) {
  (void)eppi::obs::default_sink().drain();
  LocatorService service(centralized_options());
  populate(service);
  service.construct_ppi();
  (void)service.query_ppi("alice");

  bool saw_build = false;
  bool saw_rebuild = false;
  bool saw_publish = false;
  for (const auto& ev : eppi::obs::default_sink().drain()) {
    if (ev.name_view() == "serve.build") {
      saw_build = true;
      const auto* owners = find_attr(ev, "owners");
      ASSERT_NE(owners, nullptr);
      EXPECT_EQ(owners->value.u64, 2u);
    }
    if (ev.name_view() == "serve.rebuild") saw_rebuild = true;
    if (ev.name_view() == "serve.publish") {
      saw_publish = true;
      EXPECT_NE(find_attr(ev, "epoch"), nullptr);
      EXPECT_NE(find_attr(ev, "degraded"), nullptr);
    }
  }
  EXPECT_TRUE(saw_build);
  EXPECT_TRUE(saw_rebuild);
  EXPECT_TRUE(saw_publish);
}

TEST(ObsStoreTest, CommitAndRecoverEmitSpansWithByteCounts) {
  (void)eppi::obs::default_sink().drain();
  eppi::storage::MemVfs vfs;
  {
    EpochStore store(vfs, "store");
    store.record_sticky_state({0xfeedULL, true});
    eppi::BitMatrix matrix(2, 3);
    matrix.set(0, 1, true);
    matrix.set(1, 2, true);
    store.commit_epoch(1, PpiIndex(std::move(matrix)), 0.25);
  }
  // Reopen: recovery walks the journal and validates the epoch file.
  EpochStore reopened(vfs, "store");
  ASSERT_TRUE(reopened.latest_epoch().has_value());

  bool saw_commit = false;
  std::uint64_t recovers = 0;
  for (const auto& ev : eppi::obs::default_sink().drain()) {
    if (ev.name_view() == "store.commit") {
      saw_commit = true;
      const auto* bytes = find_attr(ev, "bytes");
      ASSERT_NE(bytes, nullptr);
      EXPECT_GT(bytes->value.u64, 0u);
      const auto* rows = find_attr(ev, "rows");
      ASSERT_NE(rows, nullptr);
      EXPECT_EQ(rows->value.u64, 2u);
    }
    if (ev.name_view() == "store.recover") {
      ++recovers;
      EXPECT_NE(find_attr(ev, "journal_bytes"), nullptr);
      EXPECT_NE(find_attr(ev, "epochs"), nullptr);
    }
  }
  EXPECT_TRUE(saw_commit);
  EXPECT_EQ(recovers, 2u);  // both opens ran recovery under a span
}

TEST(ObsStoreTest, FsckRunsUnderASpan) {
  (void)eppi::obs::default_sink().drain();
  eppi::storage::MemVfs vfs;
  {
    EpochStore store(vfs, "store");
    store.record_sticky_state({0xbeefULL, true});
    eppi::BitMatrix matrix(1, 1);
    matrix.set(0, 0, true);
    store.commit_epoch(1, PpiIndex(std::move(matrix)), 0.0);
  }
  const FsckReport report = fsck_store(vfs, "store");
  EXPECT_TRUE(report.ok);

  bool saw_fsck = false;
  for (const auto& ev : eppi::obs::default_sink().drain()) {
    if (ev.name_view() == "store.fsck") {
      saw_fsck = true;
      const auto* ok = find_attr(ev, "ok");
      ASSERT_NE(ok, nullptr);
      EXPECT_TRUE(ok->value.b);
    }
  }
  EXPECT_TRUE(saw_fsck);
}

}  // namespace
}  // namespace eppi::core
