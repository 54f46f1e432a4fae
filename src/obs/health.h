#ifndef ESR_OBS_HEALTH_H_
#define ESR_OBS_HEALTH_H_

#include <cstddef>
#include <cstdint>
#include <deque>
#include <iosfwd>
#include <string>
#include <utility>
#include <vector>

#include "common/metrics.h"
#include "common/result.h"
#include "common/status.h"
#include "obs/series.h"

namespace esr {

class JsonWriter;

// -- Alerts -----------------------------------------------------------------

enum class AlertSeverity : uint8_t {
  kWarn = 0,
  kError = 1,
};

const char* AlertSeverityName(AlertSeverity severity);

/// One detected anomaly episode. Episodes are windows-denominated: an
/// alert opens when its detector's condition has held long enough to be
/// credible and keeps extending `last_window` while the condition
/// persists, so a 70 s livelock is one alert with a 70-window evidence
/// range, not 70 alerts.
struct Alert {
  /// Detector slug: "abort_livelock" or "thrashing_bistability".
  std::string detector;
  AlertSeverity severity = AlertSeverity::kWarn;
  /// Evidence window range, inclusive on both ends.
  size_t first_window = 0;
  size_t last_window = 0;
  /// Virtual (sim) or wall-clock (threaded server) seconds spanned by
  /// the evidence windows.
  double start_s = 0.0;
  double end_s = 0.0;
  /// Human-readable one-liner (deterministic — journals are compared
  /// byte-for-byte across --jobs levels).
  std::string message;
  /// Detector-specific numeric evidence, in a fixed per-detector order.
  std::vector<std::pair<std::string, double>> evidence;
  /// True while the condition still held at the last window fed to the
  /// monitor (live drivers export this as esr_alert_active).
  bool open = false;
};

struct HealthOptions {
  /// Provenance echoed into the report/journal (defaults to the
  /// series' own source in AnalyzeSeries).
  std::string source;
  double window_s = 1.0;
  /// ESR_LOG(kWarning/kError) when an alert opens.
  bool log_alerts = true;
};

// -- Report -----------------------------------------------------------------

struct HealthReport {
  std::string source;
  double window_s = 1.0;
  size_t windows = 0;
  std::vector<Alert> alerts;
  bool healthy() const { return alerts.empty(); }
};

// -- Monitor ----------------------------------------------------------------

/// Runs the two windowed detectors over the 1 s series and accumulates
/// the alert journal:
///   - abort_livelock: sustained zero-commit windows with a live
///     abort/restart rate — the documented MPL 2/low episodic livelock
///     (EXPERIMENTS.md) spent 70 consecutive seconds committing nothing
///     while aborting 61-70 transactions per 5 s window;
///   - thrashing_bistability: a rolling bimodality + coefficient-of-
///     variation test on committed-per-window at high MPL — the
///     documented deep-thrashing bistability (MPL >= 8) splits runs into
///     ~17 tps and ~7 tps regimes.
/// Feed it live (one OnWindow per closed window, e.g. threaded_server's
/// sampler) or replay a recorded series through AnalyzeSeries. The
/// result is identical either way: the detectors see only the window
/// stream, so offline replay of a recorded run reproduces exactly the
/// alerts a live monitor would have raised.
class HealthMonitor {
 public:
  explicit HealthMonitor(HealthOptions options = HealthOptions());

  HealthMonitor(const HealthMonitor&) = delete;
  HealthMonitor& operator=(const HealthMonitor&) = delete;

  void OnWindow(const SeriesWindow& window);

  HealthReport Report() const;

  /// Publishes `alert.count` plus one `alert.active.<detector>` gauge
  /// per detector (1 while an episode is open). The Prometheus
  /// exposition renders these as esr_alert_count and
  /// esr_alert_active{detector="..."}.
  void ExportGauges(MetricRegistry* metrics) const;

 private:
  static constexpr size_t kNoAlert = static_cast<size_t>(-1);

  void ObserveLivelock(size_t index, const SeriesWindow& w);
  void ObserveBistability(size_t index, const SeriesWindow& w);
  /// Records a new open episode and returns its index in `alerts_`.
  size_t OpenAlert(Alert alert);
  /// Extends (condition still holds) or closes the episode at `*alert`.
  void Continue(size_t* alert, bool holds, size_t index,
                const SeriesWindow& w);

  HealthOptions options_;
  std::vector<Alert> alerts_;
  size_t windows_ = 0;

  // abort_livelock: the current starved streak.
  size_t streak_ = 0;
  size_t streak_start_ = 0;
  double streak_start_s_ = 0.0;
  int64_t streak_aborted_ = 0;
  int64_t streak_committed_ = 0;
  size_t livelock_alert_ = kNoAlert;

  // thrashing_bistability: the trailing lookback.
  std::deque<double> committed_;
  std::deque<double> mpl_;
  size_t bistability_alert_ = kNoAlert;
};

// -- Offline analysis -------------------------------------------------------

/// Replays a recorded series through a fresh HealthMonitor. Source and
/// window_s default from the series when unset in `options`. Purely a
/// function of the series bytes — the bench harness relies on this for
/// --jobs byte-identity.
HealthReport AnalyzeSeries(const RunSeries& series,
                           HealthOptions options = HealthOptions());

// -- Journal ----------------------------------------------------------------

/// JSON alert journal:
///   {"health": {"source", "window_s", "windows", "healthy",
///               "alert_count", "alerts": [{"detector", "severity",
///               "first_window", "last_window", "start_s", "end_s",
///               "open", "message", "evidence": {...}}]}}
void WriteHealthJson(const HealthReport& report, std::ostream& out);
Status WriteHealthJsonToFile(const HealthReport& report,
                             const std::string& path);
/// Writes the value under the journal's "health" key, so a caller can
/// embed the journal in a larger object (tools/esr_series --json).
void WriteHealthObject(const HealthReport& report, JsonWriter* w);

/// Parses any JSON object with a "health" member as written above
/// (tools/esr_series --journal, tests).
Result<HealthReport> ReadHealthJson(std::istream& in);
Result<HealthReport> ReadHealthJsonFile(const std::string& path);

/// Human-readable alert list (tools/esr_series).
void WriteHealthText(const HealthReport& report, std::ostream& out);

// -- Demo -------------------------------------------------------------------

/// Deterministic synthetic series reproducing the documented MPL 2/low
/// abort-livelock shape: healthy throughput except windows 12..25,
/// which commit nothing while aborting steadily. AnalyzeSeries over it
/// raises exactly one abort_livelock alert blaming windows 12..25.
RunSeries BuildLivelockDemoSeries();

/// Deterministic synthetic series reproducing the documented MPL >= 8
/// deep-thrashing bistability: committed-per-window alternates between
/// a ~17 tps and a ~7 tps regime in 4-window blocks at active MPL 9.
RunSeries BuildBistableDemoSeries();

}  // namespace esr

#endif  // ESR_OBS_HEALTH_H_
