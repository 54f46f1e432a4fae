#include "obs/health.h"

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "esr/limits.h"
#include "sim/cluster.h"

namespace esr {
namespace {

HealthOptions QuietOptions() {
  HealthOptions options;
  options.log_alerts = false;
  return options;
}

size_t CountDetector(const HealthReport& report, const std::string& name) {
  size_t n = 0;
  for (const Alert& a : report.alerts) {
    if (a.detector == name) ++n;
  }
  return n;
}

const Alert* FindDetector(const HealthReport& report, const std::string& name) {
  for (const Alert& a : report.alerts) {
    if (a.detector == name) return &a;
  }
  return nullptr;
}

// -- Synthetic detector shapes ----------------------------------------------

TEST(HealthDetectorTest, LivelockDemoFiresWithExactEvidenceWindows) {
  const HealthReport report =
      AnalyzeSeries(BuildLivelockDemoSeries(), QuietOptions());
  ASSERT_EQ(report.alerts.size(), 1u);
  const Alert& a = report.alerts[0];
  EXPECT_EQ(a.detector, "abort_livelock");
  EXPECT_EQ(a.severity, AlertSeverity::kError);
  // The demo livelocks windows 12..25 inclusive; the alert must blame
  // exactly that range.
  EXPECT_EQ(a.first_window, 12u);
  EXPECT_EQ(a.last_window, 25u);
  EXPECT_DOUBLE_EQ(a.start_s, 12.0);
  EXPECT_DOUBLE_EQ(a.end_s, 26.0);
  // The episode ends before the series does, so the alert is closed.
  EXPECT_FALSE(a.open);
}

TEST(HealthDetectorTest, BistableDemoFiresThrashingBistability) {
  const HealthReport report =
      AnalyzeSeries(BuildBistableDemoSeries(), QuietOptions());
  const Alert* a = FindDetector(report, "thrashing_bistability");
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(a->severity, AlertSeverity::kWarn);
  // Evidence: the two regimes the demo alternates between.
  double mean_high = 0.0, mean_low = 0.0;
  for (const auto& kv : a->evidence) {
    if (kv.first == "mean_high") mean_high = kv.second;
    if (kv.first == "mean_low") mean_low = kv.second;
  }
  EXPECT_NEAR(mean_high, 17.0, 1.0);
  EXPECT_NEAR(mean_low, 7.0, 1.0);
  // No livelock in the bistable shape: both regimes commit.
  EXPECT_EQ(CountDetector(report, "abort_livelock"), 0u);
}

TEST(HealthDetectorTest, SteadyDemoSeriesIsHealthy) {
  // The series demo (ramp then steady ~100/s) must not alert: the ramp
  // is monotone *up*, the steady state has tiny CV at MPL 4.
  const HealthReport report =
      AnalyzeSeries(BuildDemoSeries(/*with_violation=*/false), QuietOptions());
  EXPECT_TRUE(report.healthy())
      << "unexpected alert: " << report.alerts[0].detector << ": "
      << report.alerts[0].message;
}

TEST(HealthDetectorTest, IdleSeriesIsNotLivelock) {
  // Zero commits with zero aborts is idleness, not livelock.
  RunSeries series;
  series.window_s = 1.0;
  for (int i = 0; i < 30; ++i) {
    SeriesWindow w;
    w.start_s = i;
    w.duration_s = 1.0;
    series.windows.push_back(w);
  }
  EXPECT_TRUE(AnalyzeSeries(series, QuietOptions()).healthy());
}

TEST(HealthDetectorTest, ShortStarvationDoesNotFire) {
  // 4 zero-commit windows (below the 5-window default) must not alert.
  RunSeries series = BuildLivelockDemoSeries();
  for (size_t i = 16; i <= 25; ++i) {
    series.windows[i].committed = 50;
    series.windows[i].aborted = 5;
    series.windows[i].restarts = 5;
  }
  EXPECT_EQ(
      CountDetector(AnalyzeSeries(series, QuietOptions()), "abort_livelock"),
      0u);
}

// -- Episode semantics / gauges ---------------------------------------------

TEST(HealthMonitorTest, EpisodeExtendsWhileConditionPersists) {
  const HealthReport report =
      AnalyzeSeries(BuildLivelockDemoSeries(), QuietOptions());
  ASSERT_EQ(report.alerts.size(), 1u);
  // One 14-window episode, not 10 alerts (the streak past min_windows
  // extends the same episode).
  EXPECT_EQ(report.alerts[0].last_window - report.alerts[0].first_window + 1,
            14u);
}

TEST(HealthMonitorTest, GaugesTrackActiveEpisodes) {
  HealthMonitor monitor(QuietOptions());
  const RunSeries demo = BuildLivelockDemoSeries();
  MetricRegistry metrics;
  // Feed through window 20 — inside the livelock episode.
  for (size_t i = 0; i <= 20; ++i) monitor.OnWindow(demo.windows[i]);
  monitor.ExportGauges(&metrics);
  const Gauge* active = metrics.FindGauge("alert.active.abort_livelock");
  ASSERT_NE(active, nullptr);
  EXPECT_EQ(active->value(), 1.0);
  const Gauge* count = metrics.FindGauge("alert.count");
  ASSERT_NE(count, nullptr);
  EXPECT_EQ(count->value(), 1.0);

  // Feed the recovery; the episode closes, the gauge drops.
  for (size_t i = 21; i < demo.windows.size(); ++i) {
    monitor.OnWindow(demo.windows[i]);
  }
  monitor.ExportGauges(&metrics);
  EXPECT_EQ(metrics.FindGauge("alert.active.abort_livelock")->value(), 0.0);
  EXPECT_EQ(metrics.FindGauge("alert.count")->value(), 1.0);
}

// -- Journal round-trip ------------------------------------------------------

TEST(HealthJournalTest, JsonRoundTripsAlerts) {
  const HealthReport report =
      AnalyzeSeries(BuildLivelockDemoSeries(), QuietOptions());
  std::ostringstream out;
  WriteHealthJson(report, out);
  std::istringstream in(out.str());
  Result<HealthReport> back = ReadHealthJson(in);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back->source, report.source);
  EXPECT_EQ(back->windows, report.windows);
  ASSERT_EQ(back->alerts.size(), report.alerts.size());
  const Alert& a = report.alerts[0];
  const Alert& b = back->alerts[0];
  EXPECT_EQ(b.detector, a.detector);
  EXPECT_EQ(b.severity, a.severity);
  EXPECT_EQ(b.first_window, a.first_window);
  EXPECT_EQ(b.last_window, a.last_window);
  EXPECT_EQ(b.message, a.message);
  EXPECT_EQ(b.open, a.open);
}

TEST(HealthJournalTest, RejectsMalformedJournal) {
  std::istringstream in("{\"not_health\": {}}");
  EXPECT_FALSE(ReadHealthJson(in).ok());
  std::istringstream garbage("{{{");
  EXPECT_FALSE(ReadHealthJson(garbage).ok());
}

TEST(HealthJournalTest, JsonIsDeterministic) {
  const HealthReport a =
      AnalyzeSeries(BuildBistableDemoSeries(), QuietOptions());
  const HealthReport b =
      AnalyzeSeries(BuildBistableDemoSeries(), QuietOptions());
  std::ostringstream oa, ob;
  WriteHealthJson(a, oa);
  WriteHealthJson(b, ob);
  EXPECT_EQ(oa.str(), ob.str());
}

// -- Recorded runs: the documented phenomena --------------------------------

ClusterOptions RecordedRunOptions(EpsilonLevel level, int mpl, uint64_t seed) {
  ClusterOptions options;
  options.mpl = mpl;
  const TransactionLimits limits = LimitsForLevel(level);
  options.workload.til = limits.til;
  options.workload.tel = limits.tel;
  options.warmup_s = 5.0;
  options.measure_s = 120.0;  // full-scale run length: the documented
                              // phenomena live in long windows
  options.seed = seed;
  options.collect_series = true;
  return options;
}

TEST(HealthRecordedRunTest, Mpl2LowLivelockEpisodeIsDetected) {
  // The EXPERIMENTS.md episodic abort livelock: MPL 2 at low bounds
  // locks two clients into a timestamp-ordering restart cycle. Seed 13
  // reproduces the documented shape — a long zero-commit streak with a
  // live abort rate — in the current engine.
  const SimResult result =
      RunCluster(RecordedRunOptions(EpsilonLevel::kLow, 2, 13));
  const HealthReport health = AnalyzeSeries(result.series);
  const Alert* a = FindDetector(health, "abort_livelock");
  ASSERT_NE(a, nullptr) << "livelock episode not detected";
  EXPECT_EQ(a->severity, AlertSeverity::kError);
  // The blamed windows must actually be starved in the recorded series.
  ASSERT_LT(a->last_window, result.series.windows.size());
  int64_t committed = 0;
  int64_t aborted = 0;
  for (size_t i = a->first_window; i <= a->last_window; ++i) {
    committed += result.series.windows[i].committed;
    aborted += result.series.windows[i].aborted;
  }
  EXPECT_EQ(committed, 0) << "blamed windows are not commit-starved";
  EXPECT_GE(aborted, static_cast<int64_t>(a->last_window - a->first_window));
  // Documented episode shape: tens of seconds, not a blip.
  EXPECT_GE(a->last_window - a->first_window + 1, 5u);
}

TEST(HealthRecordedRunTest, HighMplBistabilityIsDetected) {
  // The EXPERIMENTS.md deep-thrashing bistability at MPL >= 8: the
  // committed-per-window series splits into a high and a low regime.
  const SimResult result =
      RunCluster(RecordedRunOptions(EpsilonLevel::kMedium, 9, 7919));
  const HealthReport health = AnalyzeSeries(result.series);
  const Alert* a = FindDetector(health, "thrashing_bistability");
  ASSERT_NE(a, nullptr) << "bistable regime not detected";
  double mean_high = 0.0, mean_low = 0.0, cv = 0.0;
  for (const auto& kv : a->evidence) {
    if (kv.first == "mean_high") mean_high = kv.second;
    if (kv.first == "mean_low") mean_low = kv.second;
    if (kv.first == "cv") cv = kv.second;
  }
  EXPECT_GT(mean_high, mean_low) << "regimes not separated";
  EXPECT_GE(cv, 0.4);
}

TEST(HealthRecordedRunTest, StableFig07RowsAreAlertFree) {
  // Zero false-positive budget: the stable fig07 rows (MPL 3 and 6 at
  // every epsilon level) must be clean across seeds {1, 7, 23757}.
  const EpsilonLevel levels[] = {EpsilonLevel::kZero, EpsilonLevel::kLow,
                                 EpsilonLevel::kMedium, EpsilonLevel::kHigh};
  const uint64_t seeds[] = {1, 7, 23757};
  for (int mpl : {3, 6}) {
    for (EpsilonLevel level : levels) {
      for (uint64_t seed : seeds) {
        const SimResult result =
            RunCluster(RecordedRunOptions(level, mpl, seed));
        const HealthReport health = AnalyzeSeries(result.series);
        EXPECT_TRUE(health.healthy())
            << "false positive at mpl=" << mpl << " level="
            << static_cast<int>(level) << " seed=" << seed << ": "
            << health.alerts[0].detector << ": " << health.alerts[0].message;
      }
    }
  }
}

}  // namespace
}  // namespace esr
