#include "obs/health.h"

#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "common/logging.h"
#include "obs/exporter.h"
#include "obs/json_value.h"

namespace esr {
namespace {

// Deterministic number formatting for alert messages (journals are
// compared byte-for-byte across --jobs levels).
std::string FormatNum(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

std::string FormatCount(int64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(v));
  return buf;
}

double WindowEnd(const SeriesWindow& w) { return w.start_s + w.duration_s; }

// abort_livelock: consecutive starved windows before the alert opens; a
// window is starved when it commits at most kLivelockMaxCommitted while
// aborting (or restarting) at least kLivelockMinAborted — which tells
// livelock (work churning, nothing finishing) from idleness.
constexpr size_t kLivelockMinWindows = 5;
constexpr int64_t kLivelockMaxCommitted = 0;
constexpr int64_t kLivelockMinAborted = 1;

// thrashing_bistability: the test runs over the trailing
// kBistabilityLookback windows and applies once their mean active MPL
// reaches kBistabilityMinMpl (the phenomenon is documented at MPL >= 8;
// stable MPL 3/6 rows must never trip it). It fires when the
// coefficient of variation reaches kBistabilityMinCv, the two
// throughput clusters (split at the lookback mean) lie at least
// kBistabilitySeparation of the mean apart, and each cluster holds at
// least kBistabilityMinClusterFrac of the windows (rejects one-off dips).
constexpr size_t kBistabilityLookback = 20;
constexpr double kBistabilityMinMpl = 7.0;
constexpr double kBistabilityMinCv = 0.4;
constexpr double kBistabilitySeparation = 0.8;
constexpr double kBistabilityMinClusterFrac = 0.25;

constexpr const char* kDetectorNames[] = {"abort_livelock",
                                          "thrashing_bistability"};

}  // namespace

// -- Alert / monitor --------------------------------------------------------

const char* AlertSeverityName(AlertSeverity severity) {
  switch (severity) {
    case AlertSeverity::kWarn:
      return "warn";
    case AlertSeverity::kError:
      return "error";
  }
  return "warn";
}

HealthMonitor::HealthMonitor(HealthOptions options)
    : options_(std::move(options)) {}

void HealthMonitor::OnWindow(const SeriesWindow& window) {
  const size_t index = windows_++;
  ObserveLivelock(index, window);
  ObserveBistability(index, window);
}

void HealthMonitor::ObserveLivelock(size_t index, const SeriesWindow& w) {
  const bool starved = w.committed <= kLivelockMaxCommitted;
  const bool churning =
      w.aborted >= kLivelockMinAborted || w.restarts >= kLivelockMinAborted;
  if (!(starved && churning)) {
    Continue(&livelock_alert_, false, index, w);
    streak_ = 0;
    return;
  }
  if (streak_ == 0) {
    streak_start_ = index;
    streak_start_s_ = w.start_s;
    streak_aborted_ = 0;
    streak_committed_ = 0;
  }
  ++streak_;
  streak_aborted_ += w.aborted;
  streak_committed_ += w.committed;
  if (streak_ != kLivelockMinWindows) {
    Continue(&livelock_alert_, true, index, w);
    return;
  }
  Alert alert;
  alert.detector = kDetectorNames[0];
  alert.severity = AlertSeverity::kError;
  alert.first_window = streak_start_;
  alert.last_window = index;
  alert.start_s = streak_start_s_;
  alert.end_s = WindowEnd(w);
  alert.message =
      "sustained abort livelock: >= " +
      FormatCount(static_cast<int64_t>(kLivelockMinWindows)) +
      " consecutive windows with <= " + FormatCount(kLivelockMaxCommitted) +
      " commits while aborting";
  alert.evidence.emplace_back("windows", static_cast<double>(streak_));
  alert.evidence.emplace_back("aborted", static_cast<double>(streak_aborted_));
  alert.evidence.emplace_back("committed",
                              static_cast<double>(streak_committed_));
  livelock_alert_ = OpenAlert(std::move(alert));
}

void HealthMonitor::ObserveBistability(size_t index, const SeriesWindow& w) {
  committed_.push_back(static_cast<double>(w.committed));
  mpl_.push_back(w.active_mpl);
  if (committed_.size() > kBistabilityLookback) {
    committed_.pop_front();
    mpl_.pop_front();
  }
  if (committed_.size() < kBistabilityLookback) return;

  const size_t n = committed_.size();
  double mean = 0.0;
  double mean_mpl = 0.0;
  for (size_t i = 0; i < n; ++i) {
    mean += committed_[i];
    mean_mpl += mpl_[i];
  }
  mean /= static_cast<double>(n);
  mean_mpl /= static_cast<double>(n);

  bool bimodal = false;
  double cv = 0.0;
  double mean_low = 0.0;
  double mean_high = 0.0;
  if (mean_mpl >= kBistabilityMinMpl && mean > 0.0) {
    double var = 0.0;
    size_t low_n = 0;
    size_t high_n = 0;
    for (size_t i = 0; i < n; ++i) {
      const double d = committed_[i] - mean;
      var += d * d;
      if (committed_[i] < mean) {
        mean_low += committed_[i];
        ++low_n;
      } else {
        mean_high += committed_[i];
        ++high_n;
      }
    }
    var /= static_cast<double>(n);
    cv = std::sqrt(var) / mean;
    const size_t min_cluster = static_cast<size_t>(
        kBistabilityMinClusterFrac * static_cast<double>(n));
    if (low_n >= min_cluster && high_n >= min_cluster && low_n > 0 &&
        high_n > 0) {
      mean_low /= static_cast<double>(low_n);
      mean_high /= static_cast<double>(high_n);
      bimodal = cv >= kBistabilityMinCv &&
                (mean_high - mean_low) >= kBistabilitySeparation * mean;
    }
  }

  if (!bimodal || bistability_alert_ != kNoAlert) {
    Continue(&bistability_alert_, bimodal, index, w);
    return;
  }
  Alert alert;
  alert.detector = kDetectorNames[1];
  alert.severity = AlertSeverity::kWarn;
  alert.first_window = index + 1 - n;
  alert.last_window = index;
  alert.start_s = w.start_s - w.duration_s * static_cast<double>(n - 1);
  alert.end_s = WindowEnd(w);
  alert.message =
      "bistable throughput at high MPL: committed/window splits into ~" +
      FormatNum(mean_high) + " and ~" + FormatNum(mean_low) + " regimes (cv " +
      FormatNum(cv) + ", mean MPL " + FormatNum(mean_mpl) + ")";
  alert.evidence.emplace_back("cv", cv);
  alert.evidence.emplace_back("mean_high", mean_high);
  alert.evidence.emplace_back("mean_low", mean_low);
  alert.evidence.emplace_back("mean_mpl", mean_mpl);
  alert.evidence.emplace_back("lookback", static_cast<double>(n));
  bistability_alert_ = OpenAlert(std::move(alert));
}

void HealthMonitor::Continue(size_t* alert, bool holds, size_t index,
                             const SeriesWindow& w) {
  if (*alert == kNoAlert) return;
  Alert& a = alerts_[*alert];
  if (holds) {
    a.last_window = index;
    a.end_s = WindowEnd(w);
  } else {
    a.open = false;
    *alert = kNoAlert;
  }
}

HealthReport HealthMonitor::Report() const {
  HealthReport report;
  report.source = options_.source;
  report.window_s = options_.window_s;
  report.windows = windows_;
  report.alerts = alerts_;
  return report;
}

void HealthMonitor::ExportGauges(MetricRegistry* metrics) const {
  if (metrics == nullptr) return;
  metrics->gauge("alert.count").Set(static_cast<double>(alerts_.size()));
  const size_t open[] = {livelock_alert_, bistability_alert_};
  for (size_t d = 0; d < 2; ++d) {
    metrics->gauge(std::string("alert.active.") + kDetectorNames[d])
        .Set(open[d] != kNoAlert ? 1.0 : 0.0);
  }
}

size_t HealthMonitor::OpenAlert(Alert alert) {
  alert.open = true;
  if (options_.log_alerts) {
    if (alert.severity == AlertSeverity::kError) {
      ESR_LOG(kError) << "health: " << alert.detector
                      << " alert opened at window " << alert.first_window
                      << ": " << alert.message;
    } else {
      ESR_LOG(kWarning) << "health: " << alert.detector
                        << " alert opened at window " << alert.first_window
                        << ": " << alert.message;
    }
  }
  alerts_.push_back(std::move(alert));
  return alerts_.size() - 1;
}

// -- Offline analysis -------------------------------------------------------

HealthReport AnalyzeSeries(const RunSeries& series, HealthOptions options) {
  if (options.source.empty()) options.source = series.source;
  options.window_s = series.window_s;
  HealthMonitor monitor(std::move(options));
  for (const SeriesWindow& w : series.windows) {
    monitor.OnWindow(w);
  }
  return monitor.Report();
}

// -- Journal ----------------------------------------------------------------

void WriteHealthObject(const HealthReport& report, JsonWriter* w) {
  w->BeginObject();
  w->KV("source", report.source);
  w->KV("window_s", report.window_s);
  w->KV("windows", static_cast<int64_t>(report.windows));
  w->KV("healthy", report.healthy());
  w->KV("alert_count", static_cast<int64_t>(report.alerts.size()));
  w->Key("alerts");
  w->BeginArray();
  for (const Alert& a : report.alerts) {
    w->BeginObject();
    w->KV("detector", a.detector);
    w->KV("severity", AlertSeverityName(a.severity));
    w->KV("first_window", static_cast<int64_t>(a.first_window));
    w->KV("last_window", static_cast<int64_t>(a.last_window));
    w->KV("start_s", a.start_s);
    w->KV("end_s", a.end_s);
    w->KV("open", a.open);
    w->KV("message", a.message);
    w->Key("evidence");
    w->BeginObject();
    for (const auto& kv : a.evidence) {
      w->KV(kv.first, kv.second);
    }
    w->EndObject();
    w->EndObject();
  }
  w->EndArray();
  w->EndObject();
}

void WriteHealthJson(const HealthReport& report, std::ostream& out) {
  JsonWriter w(out);
  w.BeginObject();
  w.Key("health");
  WriteHealthObject(report, &w);
  w.EndObject();
  out << "\n";
}

Status WriteHealthJsonToFile(const HealthReport& report,
                             const std::string& path) {
  std::ofstream out(path, std::ios::out | std::ios::trunc);
  if (!out) {
    return Status::Internal("cannot open health journal for writing: " + path);
  }
  WriteHealthJson(report, out);
  out.flush();
  if (!out) {
    return Status::Internal("failed writing health journal: " + path);
  }
  return Status::OK();
}

Result<HealthReport> ReadHealthJson(std::istream& in) {
  std::ostringstream buf;
  buf << in.rdbuf();
  JsonValue root;
  std::string error;
  if (!ParseJson(buf.str(), &root, &error)) {
    return Status::InvalidArgument("health journal parse error: " + error);
  }
  const JsonValue* health = root.Find("health");
  if (health == nullptr || !health->is_object()) {
    return Status::InvalidArgument(
        "health journal missing top-level \"health\" object");
  }
  HealthReport report;
  if (const JsonValue* v = health->Find("source")) report.source = v->string;
  report.window_s = health->NumberOr("window_s", 1.0);
  report.windows = static_cast<size_t>(health->NumberOr("windows", 0.0));
  const JsonValue* alerts = health->Find("alerts");
  if (alerts == nullptr || !alerts->is_array()) {
    return Status::InvalidArgument("health journal missing \"alerts\" array");
  }
  for (const JsonValue& entry : alerts->array) {
    if (!entry.is_object()) {
      return Status::InvalidArgument("health journal alert is not an object");
    }
    Alert a;
    if (const JsonValue* v = entry.Find("detector")) a.detector = v->string;
    if (const JsonValue* v = entry.Find("severity")) {
      a.severity = v->string == "error" ? AlertSeverity::kError
                                        : AlertSeverity::kWarn;
    }
    a.first_window = static_cast<size_t>(entry.NumberOr("first_window", 0.0));
    a.last_window = static_cast<size_t>(entry.NumberOr("last_window", 0.0));
    a.start_s = entry.NumberOr("start_s", 0.0);
    a.end_s = entry.NumberOr("end_s", 0.0);
    if (const JsonValue* v = entry.Find("open")) a.open = v->bool_value;
    if (const JsonValue* v = entry.Find("message")) a.message = v->string;
    if (const JsonValue* ev = entry.Find("evidence")) {
      for (const auto& kv : ev->object) {
        a.evidence.emplace_back(kv.first, kv.second.number);
      }
    }
    report.alerts.push_back(std::move(a));
  }
  return report;
}

Result<HealthReport> ReadHealthJsonFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    return Status::Internal("cannot open health journal: " + path);
  }
  return ReadHealthJson(in);
}

void WriteHealthText(const HealthReport& report, std::ostream& out) {
  out << "health report";
  if (!report.source.empty()) out << " — " << report.source;
  out << "\n";
  out << "  windows analyzed: " << report.windows << " ("
      << FormatNum(report.window_s) << " s each)\n";
  if (report.healthy()) {
    out << "  status: HEALTHY — no alerts\n";
    return;
  }
  out << "  status: " << report.alerts.size() << " alert(s)\n";
  for (const Alert& a : report.alerts) {
    out << "  [" << AlertSeverityName(a.severity) << "] " << a.detector
        << ": windows " << a.first_window << ".." << a.last_window << " ("
        << FormatNum(a.start_s) << " s.." << FormatNum(a.end_s) << " s)";
    if (a.open) out << " [still open at run end]";
    out << "\n      " << a.message << "\n";
    for (const auto& kv : a.evidence) {
      out << "      " << kv.first << " = " << FormatNum(kv.second) << "\n";
    }
  }
}

// -- Demo series ------------------------------------------------------------

RunSeries BuildLivelockDemoSeries() {
  RunSeries series;
  series.source = "demo livelock (synthetic, after the MPL 2/low episode)";
  series.window_s = 1.0;
  series.node_names = {"root", "accounts"};
  const size_t total_windows = 40;
  for (size_t i = 0; i < total_windows; ++i) {
    SeriesWindow w;
    w.start_s = static_cast<double>(i);
    w.duration_s = 1.0;
    const bool livelocked = i >= 12 && i <= 25;
    if (livelocked) {
      // The recorded episode: zero commits while aborting 61-70 per 5 s
      // window — about 13 per 1 s window here.
      w.committed = 0;
      w.aborted = 13;
      w.restarts = 13;
      w.active_mpl = 2.0;
      w.mean_op_latency_ms = 9.0;
    } else {
      w.committed = 54 + static_cast<int64_t>(i % 3);
      w.aborted = 6;
      w.restarts = 6;
      w.active_mpl = 2.0;
      w.mean_op_latency_ms = 5.0;
    }
    SeriesNodeWindow root;
    root.max_accumulated = 1.2;
    root.min_headroom_frac = 0.7;
    root.limit_at_min = 4.0;
    root.charges = w.aborted + w.committed;
    SeriesNodeWindow accounts;
    accounts.max_accumulated = 0.8;
    accounts.min_headroom_frac = 0.6;
    accounts.limit_at_min = 2.0;
    accounts.charges = w.aborted + w.committed;
    w.nodes = {root, accounts};
    series.windows.push_back(std::move(w));
  }
  return series;
}

RunSeries BuildBistableDemoSeries() {
  RunSeries series;
  series.source = "demo bistability (synthetic, after the MPL >= 8 regimes)";
  series.window_s = 1.0;
  series.node_names = {"root"};
  const size_t total_windows = 40;
  for (size_t i = 0; i < total_windows; ++i) {
    SeriesWindow w;
    w.start_s = static_cast<double>(i);
    w.duration_s = 1.0;
    // The documented split: per-seed committed throughput clusters at
    // ~17 tps and ~7 tps. Alternate regimes in 4-window blocks.
    const bool high_regime = (i / 4) % 2 == 0;
    w.committed = high_regime ? 17 : 7;
    w.aborted = high_regime ? 20 : 35;
    w.restarts = w.aborted;
    w.active_mpl = 9.0;
    w.mean_op_latency_ms = high_regime ? 12.0 : 28.0;
    SeriesNodeWindow root;
    root.max_accumulated = 1.5;
    root.min_headroom_frac = 0.4;
    root.limit_at_min = 4.0;
    root.charges = w.aborted + w.committed;
    w.nodes = {root};
    series.windows.push_back(std::move(w));
  }
  return series;
}

}  // namespace esr
