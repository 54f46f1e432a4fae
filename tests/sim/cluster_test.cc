#include "sim/cluster.h"

#include <gtest/gtest.h>

#include <vector>

#include "esr/limits.h"
#include "obs/trace.h"

namespace esr {
namespace {

ClusterOptions FastOptions(int mpl, EpsilonLevel level, uint64_t seed = 7) {
  ClusterOptions opt;
  opt.mpl = mpl;
  const TransactionLimits limits = LimitsForLevel(level);
  opt.workload.til = limits.til;
  opt.workload.tel = limits.tel;
  opt.warmup_s = 2.0;
  opt.measure_s = 20.0;
  opt.seed = seed;
  return opt;
}

TEST(ClusterTest, SingleClientMakesProgress) {
  const SimResult r = RunCluster(FastOptions(1, EpsilonLevel::kHigh));
  EXPECT_GT(r.committed, 20);
  EXPECT_EQ(r.aborts, 0);          // nothing to conflict with
  EXPECT_EQ(r.waits, 0);
  EXPECT_GT(r.throughput(), 1.0);
  EXPECT_GT(r.ops_executed, r.committed * 5);
}

TEST(ClusterTest, DeterministicGivenSeed) {
  const SimResult a = RunCluster(FastOptions(4, EpsilonLevel::kMedium, 99));
  const SimResult b = RunCluster(FastOptions(4, EpsilonLevel::kMedium, 99));
  EXPECT_EQ(a.committed, b.committed);
  EXPECT_EQ(a.aborts, b.aborts);
  EXPECT_EQ(a.ops_executed, b.ops_executed);
  EXPECT_EQ(a.inconsistent_ops, b.inconsistent_ops);
  EXPECT_EQ(a.waits, b.waits);
}

TEST(ClusterTest, EveryResultFieldIsDeterministicGivenSeed) {
  // With the series sampler's events in the queue, every result field —
  // including the per-window series and the merged latency distribution —
  // must match between two runs of one seed.
  ClusterOptions options = FastOptions(4, EpsilonLevel::kMedium, 99);
  options.collect_series = true;
  options.series_window_s = 1.0;
  const SimResult a = RunCluster(options);
  const SimResult b = RunCluster(options);
  EXPECT_EQ(a.committed, b.committed);
  EXPECT_EQ(a.committed_query, b.committed_query);
  EXPECT_EQ(a.committed_update, b.committed_update);
  EXPECT_EQ(a.aborts, b.aborts);
  EXPECT_EQ(a.ops_executed, b.ops_executed);
  EXPECT_EQ(a.inconsistent_ops, b.inconsistent_ops);
  EXPECT_EQ(a.waits, b.waits);
  EXPECT_EQ(a.import_total, b.import_total);
  EXPECT_EQ(a.export_total, b.export_total);
  EXPECT_EQ(a.txn_latency_total_us, b.txn_latency_total_us);
  EXPECT_EQ(a.latency_ms.count(), b.latency_ms.count());
  ASSERT_EQ(a.series.windows.size(), b.series.windows.size());
  for (size_t i = 0; i < a.series.windows.size(); ++i) {
    EXPECT_EQ(a.series.windows[i].committed, b.series.windows[i].committed);
    EXPECT_EQ(a.series.windows[i].aborted, b.series.windows[i].aborted);
    EXPECT_EQ(a.series.windows[i].active_mpl,
              b.series.windows[i].active_mpl);
    EXPECT_EQ(a.series.windows[i].mean_op_latency_ms,
              b.series.windows[i].mean_op_latency_ms);
  }
}

#ifndef ESR_TRACE_DISABLED
TEST(ClusterTest, TraceIsInVirtualTimeOrder) {
  // One time-ordered queue executes every site's events, so a capture of
  // a run is recorded in virtual-time order: no timestamp steps back.
  const bool was_enabled = GlobalTrace().enabled();
  GlobalTrace().set_enabled(true);
  ClusterOptions options = FastOptions(6, EpsilonLevel::kMedium, 5);
  options.warmup_s = 0.5;
  options.measure_s = 3.0;
  RunCluster(options);
  const std::vector<TraceEvent> events = GlobalTrace().Snapshot();
  GlobalTrace().set_enabled(was_enabled);
  GlobalTrace().Reset();
  ASSERT_GT(events.size(), 1000u);
  for (size_t i = 1; i < events.size(); ++i) {
    ASSERT_LE(events[i - 1].ts_micros, events[i].ts_micros)
        << "event " << i << " of " << events.size();
  }
}
#endif  // ESR_TRACE_DISABLED

TEST(ClusterTest, DifferentSeedsDiffer) {
  const SimResult a = RunCluster(FastOptions(4, EpsilonLevel::kMedium, 1));
  const SimResult b = RunCluster(FastOptions(4, EpsilonLevel::kMedium, 2));
  EXPECT_NE(a.ops_executed, b.ops_executed);
}

TEST(ClusterTest, SrNeverExecutesInconsistentOps) {
  const SimResult r = RunCluster(FastOptions(5, EpsilonLevel::kZero));
  EXPECT_EQ(r.inconsistent_ops, 0);
  EXPECT_EQ(r.import_total, 0.0);
  EXPECT_GT(r.aborts, 0);  // high-conflict SR must abort sometimes
}

TEST(ClusterTest, EsrExecutesInconsistentOpsUnderContention) {
  const SimResult r = RunCluster(FastOptions(5, EpsilonLevel::kHigh));
  EXPECT_GT(r.inconsistent_ops, 0);
  EXPECT_GT(r.import_total, 0.0);
}

TEST(ClusterTest, EsrOutperformsSrUnderContention) {
  const SimResult sr = RunCluster(FastOptions(6, EpsilonLevel::kZero));
  const SimResult esr = RunCluster(FastOptions(6, EpsilonLevel::kHigh));
  EXPECT_GT(esr.throughput(), sr.throughput() * 1.2);
  EXPECT_LT(esr.aborts, sr.aborts);
}

TEST(ClusterTest, ThroughputScalesAtLowMpl) {
  const SimResult one = RunCluster(FastOptions(1, EpsilonLevel::kHigh));
  const SimResult three = RunCluster(FastOptions(3, EpsilonLevel::kHigh));
  EXPECT_GT(three.throughput(), one.throughput() * 1.8);
}

TEST(ClusterTest, MetricsAreInternallyConsistent) {
  const SimResult r = RunCluster(FastOptions(4, EpsilonLevel::kMedium));
  EXPECT_EQ(r.committed, r.committed_query + r.committed_update);
  EXPECT_GE(r.ops_executed, r.committed);  // every commit ran ops
  EXPECT_GE(r.ops_per_committed_txn(), 1.0);
  EXPECT_GT(r.avg_txn_latency_ms(), 0.0);
  EXPECT_EQ(r.mpl, 4);
  EXPECT_EQ(r.elapsed_s, 20.0);
}

TEST(ClusterTest, ImportedInconsistencyRespectsTilOnAverage) {
  // Every committed query imported at most TIL; so must the average.
  const ClusterOptions opt = FastOptions(5, EpsilonLevel::kLow);
  const SimResult r = RunCluster(opt);
  ASSERT_GT(r.committed_query, 0);
  EXPECT_LE(r.avg_import_per_query(),
            LimitsForLevel(EpsilonLevel::kLow).til);
}

TEST(ClusterTest, ToStringMentionsKeyNumbers) {
  const SimResult r = RunCluster(FastOptions(2, EpsilonLevel::kHigh));
  const std::string s = r.ToString();
  EXPECT_NE(s.find("mpl=2"), std::string::npos);
  EXPECT_NE(s.find("tput="), std::string::npos);
}

TEST(ClusterTest, ServerObjectCountFollowsWorkload) {
  ClusterOptions opt = FastOptions(1, EpsilonLevel::kHigh);
  opt.workload.num_objects = 123;
  Cluster cluster(opt);
  EXPECT_EQ(cluster.server().store().size(), 123u);
}

ClusterOptions SeriesOptions(int mpl, EpsilonLevel level, uint64_t seed = 7) {
  ClusterOptions opt = FastOptions(mpl, level, seed);
  opt.collect_series = true;
  opt.series_window_s = 1.0;
  opt.series_source = "cluster_test";
  return opt;
}

TEST(SeriesSamplerTest, SamplingIsPurelyObservational) {
  // The telemetry windows ride on sampling events interleaved into the
  // queue; workload results must be identical with and without them.
  const SimResult plain = RunCluster(FastOptions(4, EpsilonLevel::kMedium));
  const SimResult sampled =
      RunCluster(SeriesOptions(4, EpsilonLevel::kMedium));
  EXPECT_EQ(plain.committed, sampled.committed);
  EXPECT_EQ(plain.aborts, sampled.aborts);
  EXPECT_EQ(plain.ops_executed, sampled.ops_executed);
  EXPECT_EQ(plain.inconsistent_ops, sampled.inconsistent_ops);
  EXPECT_EQ(plain.waits, sampled.waits);
  EXPECT_TRUE(plain.series.windows.empty());
}

TEST(SeriesSamplerTest, WindowsTileTheWholeRun) {
  const SimResult r = RunCluster(SeriesOptions(4, EpsilonLevel::kMedium));
  const RunSeries& series = r.series;
  EXPECT_EQ(series.source, "cluster_test");
  // warmup 2 s + measure 20 s at 1 s windows.
  ASSERT_EQ(series.windows.size(), 22u);
  int64_t committed = 0;
  for (size_t i = 0; i < series.windows.size(); ++i) {
    const SeriesWindow& w = series.windows[i];
    EXPECT_DOUBLE_EQ(w.start_s, static_cast<double>(i));
    EXPECT_DOUBLE_EQ(w.duration_s, 1.0);
    EXPECT_GE(w.active_mpl, 0.0);
    EXPECT_LE(w.active_mpl, 4.0);
    // The synchronous clients resubmit every abort.
    EXPECT_EQ(w.restarts, w.aborted);
    committed += w.committed;
  }
  // Window totals cover warmup too, so they can only exceed the
  // measurement-phase count.
  EXPECT_GE(committed, r.committed);
  EXPECT_GT(committed, 0);
}

#ifndef ESR_TRACE_DISABLED
TEST(SeriesSamplerTest, HeadroomProbesSeeBoundedCharges) {
  const SimResult r = RunCluster(SeriesOptions(5, EpsilonLevel::kMedium));
  const RunSeries& series = r.series;
  ASSERT_FALSE(series.node_names.empty());
  int64_t charges = 0;
  for (const SeriesWindow& w : series.windows) {
    ASSERT_EQ(w.nodes.size(), series.node_names.size());
    for (const SeriesNodeWindow& node : w.nodes) {
      charges += node.charges;
      if (node.charges > 0) {
        // Divergence control admits an op only within its bound, so the
        // observed headroom must never go negative.
        EXPECT_GE(node.min_headroom_frac, 0.0);
        EXPECT_GT(node.limit_at_min, 0.0);
        EXPECT_GE(node.max_accumulated, 0.0);
      }
    }
  }
  EXPECT_GT(charges, 0);
}
#endif  // ESR_TRACE_DISABLED

TEST(SeriesSamplerTest, SeriesIsDeterministicGivenSeed) {
  const SimResult a = RunCluster(SeriesOptions(3, EpsilonLevel::kLow, 42));
  const SimResult b = RunCluster(SeriesOptions(3, EpsilonLevel::kLow, 42));
  ASSERT_EQ(a.series.windows.size(), b.series.windows.size());
  for (size_t i = 0; i < a.series.windows.size(); ++i) {
    EXPECT_EQ(a.series.windows[i].committed, b.series.windows[i].committed);
    EXPECT_EQ(a.series.windows[i].aborted, b.series.windows[i].aborted);
    EXPECT_EQ(a.series.windows[i].mean_op_latency_ms,
              b.series.windows[i].mean_op_latency_ms);
  }
}

}  // namespace
}  // namespace esr
