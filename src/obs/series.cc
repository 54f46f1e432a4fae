#include "obs/series.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <ostream>
#include <sstream>

#include "common/stats.h"
#include "obs/exporter.h"

namespace esr {

std::vector<double> RunSeries::ThroughputSeries() const {
  std::vector<double> out;
  out.reserve(windows.size());
  for (const SeriesWindow& w : windows) {
    out.push_back(w.duration_s > 0.0
                      ? static_cast<double>(w.committed) / w.duration_s
                      : 0.0);
  }
  return out;
}

namespace {

constexpr char kCsvMagic[] = "# esr-series v1";
constexpr char kCsvHeader[] =
    "kind,window,start_s,duration_s,committed,aborted,restarts,active_mpl,"
    "mean_op_latency_ms,node,max_accumulated,min_headroom_frac,limit_at_min,"
    "charges,certified_through_s";

/// Node names come from GroupSchema identifiers; a comma would corrupt
/// the row, so it is replaced rather than quoted (the reader stays a
/// plain split).
std::string SafeName(const std::string& name) {
  std::string out = name;
  for (char& c : out) {
    if (c == ',' || c == '\n' || c == '\r') c = '_';
  }
  return out;
}

std::string FormatG(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

void WriteSeriesCsv(const RunSeries& series, std::ostream& out) {
  out << kCsvMagic << " window_s=" << FormatG(series.window_s) << "\n";
  out << "# source: " << SafeName(series.source) << "\n";
  out << kCsvHeader << "\n";
  for (size_t i = 0; i < series.windows.size(); ++i) {
    const SeriesWindow& w = series.windows[i];
    out << "window," << i << "," << FormatG(w.start_s) << ","
        << FormatG(w.duration_s) << "," << w.committed << "," << w.aborted
        << "," << w.restarts << "," << FormatG(w.active_mpl) << ","
        << FormatG(w.mean_op_latency_ms) << ",,,,,,";
    // Empty trailing field when certification was off: the reader maps it
    // back to -1, keeping off-runs byte-stable.
    if (w.certified_through_s >= 0.0) {
      out << FormatG(w.certified_through_s);
    }
    out << "\n";
    for (size_t n = 0; n < w.nodes.size() && n < series.node_names.size();
         ++n) {
      const SeriesNodeWindow& node = w.nodes[n];
      out << "node," << i << ",,,,,,,," << SafeName(series.node_names[n])
          << "," << FormatG(node.max_accumulated) << ","
          << FormatG(node.min_headroom_frac) << ","
          << FormatG(node.limit_at_min) << "," << node.charges << ",\n";
    }
  }
}

void WriteSeriesJson(const RunSeries& series, std::ostream& out) {
  JsonWriter w(out);
  w.BeginObject();
  w.Key("series");
  w.BeginObject();
  w.KV("source", series.source);
  w.KV("window_s", series.window_s);
  w.Key("nodes");
  w.BeginArray();
  for (const std::string& name : series.node_names) w.Value(name);
  w.EndArray();
  w.Key("windows");
  w.BeginArray();
  for (const SeriesWindow& win : series.windows) {
    w.BeginObject();
    w.KV("start_s", win.start_s);
    w.KV("duration_s", win.duration_s);
    w.KV("committed", win.committed);
    w.KV("aborted", win.aborted);
    w.KV("restarts", win.restarts);
    w.KV("active_mpl", win.active_mpl);
    w.KV("mean_op_latency_ms", win.mean_op_latency_ms);
    w.KV("certified_through_s", win.certified_through_s);
    w.Key("nodes");
    w.BeginArray();
    for (const SeriesNodeWindow& node : win.nodes) {
      w.BeginObject();
      w.KV("max_accumulated", node.max_accumulated);
      w.KV("min_headroom_frac", node.min_headroom_frac);
      w.KV("limit_at_min", node.limit_at_min);
      w.KV("charges", node.charges);
      w.EndObject();
    }
    w.EndArray();
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
  w.EndObject();
  out << "\n";
}

Status ExportSeriesCsvToFile(const RunSeries& series,
                             const std::string& path) {
  std::ofstream out(path);
  if (!out.is_open()) {
    return Status::NotFound("cannot open series output file: " + path);
  }
  WriteSeriesCsv(series, out);
  out.flush();
  if (!out.good()) {
    return Status::Internal("failed writing series to: " + path);
  }
  return Status::OK();
}

namespace {

std::vector<std::string> SplitCsv(const std::string& line) {
  std::vector<std::string> fields;
  std::string cur;
  for (const char c : line) {
    if (c == ',') {
      fields.push_back(cur);
      cur.clear();
    } else if (c != '\r') {
      cur.push_back(c);
    }
  }
  fields.push_back(cur);
  return fields;
}

Status BadRow(size_t line_no, const std::string& why) {
  return Status::InvalidArgument("series CSV line " +
                                 std::to_string(line_no) + ": " + why);
}

}  // namespace

Result<RunSeries> ReadSeriesCsv(std::istream& in) {
  RunSeries series;
  std::string line;
  size_t line_no = 0;

  if (!std::getline(in, line)) {
    return Status::InvalidArgument("empty series file");
  }
  ++line_no;
  if (line.rfind(kCsvMagic, 0) != 0) {
    return Status::InvalidArgument(
        "not an esr-series file (missing '# esr-series v1' header)");
  }
  const size_t ws = line.find("window_s=");
  if (ws != std::string::npos) {
    series.window_s = std::strtod(line.c_str() + ws + 9, nullptr);
  }

  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty()) continue;
    if (line[0] == '#') {
      const std::string kSource = "# source: ";
      if (line.rfind(kSource, 0) == 0) {
        series.source = line.substr(kSource.size());
        while (!series.source.empty() && series.source.back() == '\r') {
          series.source.pop_back();
        }
      }
      continue;
    }
    const std::vector<std::string> f = SplitCsv(line);
    if (f[0] == "kind") continue;  // header row
    // 15 fields since certified_through_s was added; 14 accepted for
    // series written by older builds (certification reads as off).
    if (f.size() != 14 && f.size() != 15) {
      return BadRow(line_no, "expected 14 or 15 fields, got " +
                                 std::to_string(f.size()));
    }
    char* end = nullptr;
    const size_t idx = std::strtoul(f[1].c_str(), &end, 10);
    if (end == f[1].c_str()) return BadRow(line_no, "bad window index");
    if (f[0] == "window") {
      if (idx != series.windows.size()) {
        return BadRow(line_no, "non-contiguous window index");
      }
      SeriesWindow w;
      w.start_s = std::strtod(f[2].c_str(), nullptr);
      w.duration_s = std::strtod(f[3].c_str(), nullptr);
      w.committed = std::strtoll(f[4].c_str(), nullptr, 10);
      w.aborted = std::strtoll(f[5].c_str(), nullptr, 10);
      w.restarts = std::strtoll(f[6].c_str(), nullptr, 10);
      w.active_mpl = std::strtod(f[7].c_str(), nullptr);
      w.mean_op_latency_ms = std::strtod(f[8].c_str(), nullptr);
      if (f.size() == 15 && !f[14].empty()) {
        w.certified_through_s = std::strtod(f[14].c_str(), nullptr);
      }
      series.windows.push_back(std::move(w));
    } else if (f[0] == "node") {
      if (idx >= series.windows.size()) {
        return BadRow(line_no, "node row before its window row");
      }
      const std::string& name = f[9];
      if (name.empty()) return BadRow(line_no, "node row without a name");
      size_t node_idx = 0;
      while (node_idx < series.node_names.size() &&
             series.node_names[node_idx] != name) {
        ++node_idx;
      }
      if (node_idx == series.node_names.size()) {
        series.node_names.push_back(name);
      }
      SeriesWindow& w = series.windows[idx];
      if (w.nodes.size() <= node_idx) w.nodes.resize(node_idx + 1);
      SeriesNodeWindow& node = w.nodes[node_idx];
      node.max_accumulated = std::strtod(f[10].c_str(), nullptr);
      node.min_headroom_frac = std::strtod(f[11].c_str(), nullptr);
      node.limit_at_min = std::strtod(f[12].c_str(), nullptr);
      node.charges = std::strtoll(f[13].c_str(), nullptr, 10);
    } else {
      return BadRow(line_no, "unknown row kind '" + f[0] + "'");
    }
  }
  // Windows written before a node first appeared are shorter; square the
  // table off so index-aligned consumers need no bounds checks.
  for (SeriesWindow& w : series.windows) {
    w.nodes.resize(series.node_names.size());
  }
  return series;
}

Result<RunSeries> ReadSeriesCsvFile(const std::string& path) {
  std::ifstream in(path);
  if (!in.is_open()) {
    return Status::NotFound("cannot open series file: " + path);
  }
  return ReadSeriesCsv(in);
}

SeriesSummary SummarizeSeries(const RunSeries& series) {
  SeriesSummary s;
  s.total_windows = series.windows.size();
  if (series.windows.empty()) return s;

  const MserResult mser = Mser5Truncation(series.ThroughputSeries());
  s.steady_state_found = mser.ok;
  s.warmup_windows = mser.ok ? mser.truncation_windows : 0;

  int64_t committed = 0, aborted = 0;
  double duration = 0.0, mpl_sum = 0.0, latency_sum = 0.0;
  size_t latency_windows = 0;
  for (size_t i = s.warmup_windows; i < series.windows.size(); ++i) {
    const SeriesWindow& w = series.windows[i];
    committed += w.committed;
    aborted += w.aborted;
    duration += w.duration_s;
    mpl_sum += w.active_mpl;
    if (w.committed > 0) {
      latency_sum += w.mean_op_latency_ms;
      ++latency_windows;
    }
  }
  const size_t steady_windows = series.windows.size() - s.warmup_windows;
  s.steady_throughput =
      duration > 0.0 ? static_cast<double>(committed) / duration : 0.0;
  s.steady_abort_rate =
      committed + aborted > 0
          ? static_cast<double>(aborted) /
                static_cast<double>(committed + aborted)
          : 0.0;
  s.steady_mean_mpl =
      steady_windows > 0 ? mpl_sum / static_cast<double>(steady_windows)
                         : 0.0;
  s.steady_mean_op_latency_ms =
      latency_windows > 0
          ? latency_sum / static_cast<double>(latency_windows)
          : 0.0;

  s.nodes.reserve(series.node_names.size());
  for (size_t n = 0; n < series.node_names.size(); ++n) {
    SeriesNodeSummary node;
    node.name = series.node_names[n];
    for (size_t i = 0; i < series.windows.size(); ++i) {
      if (n >= series.windows[i].nodes.size()) continue;
      const SeriesNodeWindow& w = series.windows[i].nodes[n];
      if (w.charges <= 0) continue;
      node.charges += w.charges;
      node.peak_accumulated =
          std::max(node.peak_accumulated, w.max_accumulated);
      if (w.min_headroom_frac < node.min_headroom_frac) {
        node.min_headroom_frac = w.min_headroom_frac;
        node.min_window = i;
        node.limit_at_min = w.limit_at_min;
      }
    }
    if (node.charges > 0) {
      // A node may be charged under several limits (e.g. the root sees
      // both TIL and TEL checks), so pair the utilization with the
      // tightest observation rather than dividing the peak by an
      // unrelated limit.
      node.utilization = 1.0 - node.min_headroom_frac;
    }
    if (node.charges > 0) {
      s.headroom_observed = true;
      if (node.min_headroom_frac < s.tightest_headroom_frac) {
        s.tightest_headroom_frac = node.min_headroom_frac;
        s.tightest_node = node.name;
        s.tightest_window = node.min_window;
        s.tightest_limit = node.limit_at_min;
      }
    }
    s.nodes.push_back(std::move(node));
  }
  s.negative_headroom = s.headroom_observed && s.tightest_headroom_frac < 0.0;

  for (const SeriesWindow& w : series.windows) {
    if (w.certified_through_s < 0.0) continue;
    s.certification_observed = true;
    s.certified_through_s = w.certified_through_s;  // monotone; last wins
  }
  if (s.certification_observed && !series.windows.empty()) {
    const SeriesWindow& last = series.windows.back();
    // A healthy watermark reaches the final boundary; stopping more than
    // one window short means it froze on a violation mid-run.
    const double final_boundary = last.start_s + last.duration_s;
    s.certification_froze =
        s.certified_through_s + series.window_s <= final_boundary;
  }
  return s;
}

void WriteSeriesSummaryJson(const SeriesSummary& summary,
                            std::ostream& out) {
  JsonWriter w(out);
  w.BeginObject();
  WriteSeriesSummaryMembers(summary, &w);
  w.EndObject();
  out << "\n";
}

void WriteSeriesSummaryMembers(const SeriesSummary& summary, JsonWriter* w) {
  w->KV("total_windows", static_cast<int64_t>(summary.total_windows));
  w->KV("steady_state_found", summary.steady_state_found);
  w->KV("warmup_windows", static_cast<int64_t>(summary.warmup_windows));
  w->KV("steady_throughput", summary.steady_throughput);
  w->KV("steady_abort_rate", summary.steady_abort_rate);
  w->KV("steady_mean_mpl", summary.steady_mean_mpl);
  w->KV("steady_mean_op_latency_ms", summary.steady_mean_op_latency_ms);
  w->KV("headroom_observed", summary.headroom_observed);
  w->KV("negative_headroom", summary.negative_headroom);
  w->KV("certification_observed", summary.certification_observed);
  if (summary.certification_observed) {
    w->KV("certified_through_s", summary.certified_through_s);
    w->KV("certification_froze", summary.certification_froze);
  }
  if (summary.headroom_observed) {
    w->Key("tightest");
    w->BeginObject();
    w->KV("node", summary.tightest_node);
    w->KV("window", static_cast<int64_t>(summary.tightest_window));
    w->KV("min_headroom_frac", summary.tightest_headroom_frac);
    w->KV("limit", summary.tightest_limit);
    w->EndObject();
  }
  w->Key("nodes");
  w->BeginArray();
  for (const SeriesNodeSummary& node : summary.nodes) {
    w->BeginObject();
    w->KV("name", node.name);
    w->KV("charges", node.charges);
    w->KV("peak_accumulated", node.peak_accumulated);
    w->KV("min_headroom_frac", node.min_headroom_frac);
    w->KV("min_window", static_cast<int64_t>(node.min_window));
    w->KV("limit_at_min", node.limit_at_min);
    w->KV("utilization", node.utilization);
    w->EndObject();
  }
  w->EndArray();
}

void ExportHeadroomGauges(const RunSeries& series, MetricRegistry* metrics) {
  if (metrics == nullptr) return;
  double global_min = 1.0;
  bool any = false;
  for (size_t n = 0; n < series.node_names.size(); ++n) {
    double node_min = 1.0;
    bool charged = false;
    for (const SeriesWindow& w : series.windows) {
      if (n >= w.nodes.size() || w.nodes[n].charges <= 0) continue;
      charged = true;
      node_min = std::min(node_min, w.nodes[n].min_headroom_frac);
    }
    if (!charged) continue;
    any = true;
    global_min = std::min(global_min, node_min);
    metrics->gauge("headroom.min_frac." + series.node_names[n])
        .Set(node_min);
  }
  if (any) metrics->gauge("headroom.min_frac").Set(global_min);
}

RunSeries BuildDemoSeries(bool with_violation) {
  RunSeries series;
  series.source = with_violation ? "demo(negative-headroom)" : "demo";
  series.window_s = 1.0;
  series.node_names = {"root", "accounts", "branches"};

  // 30 one-second windows: an 8-window exponential-ish ramp, then steady
  // state around 100 txn/s with a small deterministic ripple.
  for (int i = 0; i < 30; ++i) {
    SeriesWindow w;
    w.start_s = static_cast<double>(i);
    w.duration_s = 1.0;
    if (i < 8) {
      w.committed = 40 + i * 8;  // 40 .. 96
    } else {
      w.committed = 100 + ((i % 2 == 0) ? 2 : -2);
    }
    w.aborted = 3 + (i % 3);
    w.restarts = w.aborted;
    w.active_mpl = i < 8 ? 4.0 + 0.5 * i : 8.0;
    w.mean_op_latency_ms = i < 8 ? 14.0 - i : 6.0 + 0.25 * (i % 4);

    SeriesNodeWindow root;
    root.limit_at_min = 10.0;
    root.max_accumulated = i < 8 ? 1.0 + 0.5 * i : 6.0 + 0.1 * (i % 5);
    root.min_headroom_frac =
        (root.limit_at_min - root.max_accumulated) / root.limit_at_min;
    root.charges = w.committed * 3;

    SeriesNodeWindow accounts;
    accounts.limit_at_min = 2.0;
    accounts.max_accumulated = i < 8 ? 0.2 * i : 1.4 + 0.05 * (i % 4);
    accounts.min_headroom_frac =
        (accounts.limit_at_min - accounts.max_accumulated) /
        accounts.limit_at_min;
    accounts.charges = w.committed * 2;
    if (with_violation && i == 20) {
      // One window where a charge slipped past the bound: the failure the
      // exit-code contract exists to catch.
      accounts.max_accumulated = 2.1;
      accounts.min_headroom_frac = -0.05;
    }

    SeriesNodeWindow branches;
    branches.limit_at_min = 5.0;
    branches.max_accumulated = i < 8 ? 0.3 * i : 2.4 + 0.1 * (i % 3);
    branches.min_headroom_frac =
        (branches.limit_at_min - branches.max_accumulated) /
        branches.limit_at_min;
    branches.charges = w.committed;

    w.nodes = {root, accounts, branches};
    series.windows.push_back(std::move(w));
  }
  return series;
}

}  // namespace esr
