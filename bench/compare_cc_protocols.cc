// Cross-protocol comparison on the paper's workload: the TO-based ESR
// prototype (the paper's system) against strict 2PL with wait-die (the
// protocol the paper avoided for its deadlock handling, Sec. 4) with the
// same divergence control, and against MVTO (the multiversion scheme
// Sec. 5.1 distinguishes from the proper-value mechanism — queries read
// consistent snapshots, never inconsistent data, at the cost of version
// storage and staleness).

#include "harness/harness.h"

#include <cstdio>

namespace {

using esr::EngineKind;
using esr::EpsilonLevel;
using esr::bench::AveragedResult;
using esr::bench::BaseOptions;
using esr::bench::JobsFromArgs;
using esr::bench::PrintHeader;
using esr::bench::RunScale;
using esr::bench::Sweep;
using esr::bench::Table;

constexpr int kMpls[] = {1, 2, 4, 6, 8, 10};

}  // namespace

int main(int argc, char** argv) {
  esr::bench::TraceCapture trace_capture(argc, argv);
  const RunScale scale = RunScale::FromEnv();
  PrintHeader(
      "Protocol comparison: TO vs 2PL(wait-die) vs MVTO",
      "not in the paper's figures; quantifies the alternatives Secs. 4 "
      "and 5.1 discuss, on the identical workload",
      scale);

  struct Config {
    const char* name;
    EngineKind engine;
    EpsilonLevel level;
  };
  const Config configs[] = {
      {"TO-SR", EngineKind::kTimestampOrdering, EpsilonLevel::kZero},
      {"TO-ESR(high)", EngineKind::kTimestampOrdering, EpsilonLevel::kHigh},
      {"2PL-SR", EngineKind::kTwoPhaseLocking, EpsilonLevel::kZero},
      {"2PL-ESR(high)", EngineKind::kTwoPhaseLocking, EpsilonLevel::kHigh},
      {"MVTO", EngineKind::kMultiversion, EpsilonLevel::kHigh},
  };

  Sweep sweep(scale, JobsFromArgs(argc, argv));
  sweep.set_series_export(esr::bench::SeriesPathFromArgs(argc, argv),
                          "compare_cc_protocols");
  sweep.set_certify(esr::bench::CertifyFromArgs(argc, argv));
  sweep.set_health(esr::bench::HealthPathFromArgs(argc, argv));
  for (int mpl : kMpls) {
    for (const Config& config : configs) {
      auto opt = BaseOptions(config.level, mpl, scale);
      opt.server.engine = config.engine;
      sweep.Add(opt);
    }
  }
  sweep.Run();

  std::printf("Throughput (tps):\n");
  Table tput({"mpl", "TO-SR", "TO-ESR(high)", "2PL-SR", "2PL-ESR(high)",
              "MVTO"});
  Table aborts({"mpl", "TO-SR", "TO-ESR(high)", "2PL-SR", "2PL-ESR(high)",
                "MVTO"});
  Table inconsistent({"mpl", "TO-ESR(high)", "2PL-ESR(high)", "MVTO"});
  size_t point = 0;
  for (int mpl : kMpls) {
    std::vector<std::string> tput_row{std::to_string(mpl)};
    std::vector<std::string> abort_row{std::to_string(mpl)};
    std::vector<std::string> incons_row{std::to_string(mpl)};
    for (const Config& config : configs) {
      const AveragedResult& r = sweep.Result(point++);
      tput_row.push_back(Table::NumCi(r.throughput, r.ci90_rel));
      abort_row.push_back(Table::Int(r.aborts));
      if (config.level == EpsilonLevel::kHigh) {
        incons_row.push_back(Table::Int(r.inconsistent_ops));
      }
    }
    tput.AddRow(tput_row);
    aborts.AddRow(abort_row);
    inconsistent.AddRow(incons_row);
  }
  tput.Print();
  std::printf("\nAborts (retries):\n");
  aborts.Print();
  std::printf("\nSuccessful inconsistent operations (MVTO is always 0 — "
              "snapshot reads are consistent):\n");
  inconsistent.Print();
  std::printf(
      "\nReading: ESR helps 2PL exactly as it helps TO (queries stop "
      "blocking/aborting);\nMVTO gets query survival for free but pays in "
      "version storage and stale answers,\nand its updates still abort on "
      "reads-from-the-future (late writes).\n");
  return 0;
}
