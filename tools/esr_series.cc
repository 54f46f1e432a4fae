// Series summarizer: digests a per-window telemetry CSV captured with
// `--series` (any bench figure binary) into a run-quality report —
//
//   1. the steady-state window, found by MSER-5 truncation over the
//      committed-per-window throughput series, with steady-state
//      throughput / abort rate / MPL / operation latency;
//   2. the run's tightest epsilon headroom: which hierarchy node came
//      closest to its inconsistency bound, in which window, under which
//      limit — the margin-to-violation signal, not just the violation;
//   3. a per-node bound-utilization table over all charged nodes;
//   4. the health alert list: the series replayed through the
//      obs/health detectors (abort_livelock, thrashing_bistability) —
//      the monitor the bench harness runs for `--health` and
//      threaded_server runs live, so this replay reproduces exactly the
//      alerts a live monitor would have raised over the same run.
//
// Usage:
//   esr_series <series.csv> [--json]
//   esr_series --demo | --demo-negative | --demo-livelock [--json]
//   esr_series --journal <health.json> [--json]
//
// --demo summarizes a built-in synthetic ramp-then-steady series;
// --demo-negative is the same series with one window pushed past its
// bound, demonstrating — and letting CI assert — that a negative-headroom
// window is detected and named. --demo-livelock is the synthetic
// reproduction of the documented MPL 2/low abort livelock (one
// abort_livelock alert blaming windows 12..25). --journal reprints a
// previously written --health journal and exits by its content, so CI
// and the threaded_server signal test can check a journal without
// re-running the workload. With --json, a series input prints the
// summary object with the journal under its "health" key, which
// --journal reads back.
//
// Exit status mirrors esr_audit: 0 when every window kept positive
// headroom and no alert fired, 2 when any node's headroom went negative
// (a bound violation the engine should have prevented) or any alert
// fired, 1 on usage or I/O errors.

#include <cstdio>
#include <cstring>
#include <iostream>
#include <string>

#include "obs/exporter.h"
#include "obs/health.h"
#include "obs/series.h"

namespace {

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s <series.csv> [--json]\n"
               "       %s --demo | --demo-negative | --demo-livelock"
               " [--json]\n"
               "       %s --journal <health.json> [--json]\n",
               argv0, argv0, argv0);
  return 1;
}

void PrintSummary(const esr::RunSeries& series,
                  const esr::SeriesSummary& s) {
  std::printf("=== series summary: %s ===\n",
              series.source.empty() ? "(unlabeled run)"
                                    : series.source.c_str());
  std::printf("windows: %zu x %.1fs\n", s.total_windows, series.window_s);
  if (s.steady_state_found) {
    std::printf("steady state: found after %zu warmup window(s) (MSER-5)\n",
                s.warmup_windows);
  } else {
    std::printf(
        "steady state: NOT FOUND (MSER-5 never settled; stats below "
        "cover the whole run)\n");
  }
  std::printf("  throughput      %8.2f tps\n", s.steady_throughput);
  std::printf("  abort rate      %8.1f %%\n", 100.0 * s.steady_abort_rate);
  std::printf("  mean active MPL %8.2f\n", s.steady_mean_mpl);
  std::printf("  mean op latency %8.2f ms\n", s.steady_mean_op_latency_ms);

  if (s.certification_observed) {
    std::printf("certified through: %.1f s (streaming bound certification%s)\n",
                s.certified_through_s,
                s.certification_froze ? "; WATERMARK FROZE mid-run" : "");
  }

  if (!s.headroom_observed) {
    std::printf(
        "headroom: no bounded charges observed (unbounded run, or a "
        "build with tracing disabled)\n");
    return;
  }
  std::printf(
      "tightest headroom: %.1f%% at node '%s' in window %zu (limit %g)\n",
      100.0 * s.tightest_headroom_frac, s.tightest_node.c_str(),
      s.tightest_window, s.tightest_limit);

  std::printf("\n%-16s %12s %12s %10s %8s %10s\n", "node", "peak_accum",
              "min_headroom", "window", "limit", "charges");
  for (const esr::SeriesNodeSummary& node : s.nodes) {
    if (node.charges <= 0) continue;
    std::printf("%-16s %12.1f %11.1f%% %10zu %8g %10lld\n",
                node.name.c_str(), node.peak_accumulated,
                100.0 * node.min_headroom_frac, node.min_window,
                node.limit_at_min, static_cast<long long>(node.charges));
  }

  if (s.negative_headroom) {
    std::printf(
        "\nVIOLATION: node '%s' exceeded its bound in window %zu "
        "(headroom %.1f%% of limit %g)\n",
        s.tightest_node.c_str(), s.tightest_window,
        100.0 * s.tightest_headroom_frac, s.tightest_limit);
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::string csv_path;
  std::string journal_path;
  bool json = false;
  bool demo = false;
  bool demo_negative = false;
  bool demo_livelock = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) {
      json = true;
    } else if (std::strcmp(argv[i], "--demo") == 0) {
      demo = true;
    } else if (std::strcmp(argv[i], "--demo-negative") == 0) {
      demo_negative = true;
    } else if (std::strcmp(argv[i], "--demo-livelock") == 0) {
      demo_livelock = true;
    } else if (std::strcmp(argv[i], "--journal") == 0) {
      if (++i >= argc) return Usage(argv[0]);
      journal_path = argv[i];
    } else if (argv[i][0] == '-') {
      return Usage(argv[0]);
    } else if (csv_path.empty()) {
      csv_path = argv[i];
    } else {
      return Usage(argv[0]);
    }
  }
  // Exactly one input: a series file, a journal, or one of the demos.
  const int inputs = (csv_path.empty() ? 0 : 1) +
                     (journal_path.empty() ? 0 : 1) + (demo ? 1 : 0) +
                     (demo_negative ? 1 : 0) + (demo_livelock ? 1 : 0);
  if (inputs != 1) return Usage(argv[0]);

  if (!journal_path.empty()) {
    esr::Result<esr::HealthReport> journal =
        esr::ReadHealthJsonFile(journal_path);
    if (!journal.ok()) {
      std::fprintf(stderr, "esr_series: %s\n",
                   journal.status().message().c_str());
      return 1;
    }
    if (json) {
      esr::WriteHealthJson(*journal, std::cout);
    } else {
      esr::WriteHealthText(*journal, std::cout);
    }
    return journal->healthy() ? 0 : 2;
  }

  esr::RunSeries series;
  if (demo || demo_negative) {
    series = esr::BuildDemoSeries(/*with_violation=*/demo_negative);
  } else if (demo_livelock) {
    series = esr::BuildLivelockDemoSeries();
  } else {
    esr::Result<esr::RunSeries> read = esr::ReadSeriesCsvFile(csv_path);
    if (!read.ok()) {
      std::fprintf(stderr, "esr_series: %s\n",
                   read.status().ToString().c_str());
      return 1;
    }
    series = *std::move(read);
  }

  const esr::SeriesSummary summary = esr::SummarizeSeries(series);
  const esr::HealthReport health = esr::AnalyzeSeries(series);
  if (json) {
    esr::JsonWriter w(std::cout);
    w.BeginObject();
    esr::WriteSeriesSummaryMembers(summary, &w);
    w.Key("health");
    esr::WriteHealthObject(health, &w);
    w.EndObject();
    std::cout << "\n";
  } else {
    PrintSummary(series, summary);
    std::cout << "\n";
    esr::WriteHealthText(health, std::cout);
  }
  if (summary.negative_headroom && json) {
    // The printed report names the violation; keep the JSON stream pure
    // and route the human-readable pointer to stderr.
    std::fprintf(stderr,
                 "esr_series: node '%s' exceeded its bound in window %zu\n",
                 summary.tightest_node.c_str(), summary.tightest_window);
  }
  return (summary.negative_headroom || !health.healthy()) ? 2 : 0;
}
