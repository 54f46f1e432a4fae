// Ablation: what if update ETs could import inconsistency too? The paper
// restricts its evaluation to query ETs running against CONSISTENT update
// ETs ("in this paper we focus our attention on the situation where
// query ETs run concurrently with consistent update ETs", Sec. 1), while
// noting that "update ETs can view inconsistent data the same way query
// ETs do". This bench runs the generalization: update ETs get an import
// budget, so their reads stop aborting on late data — at the price that
// update results may themselves be computed from (boundedly) inconsistent
// inputs.

#include "harness/harness.h"

#include <cstdio>
#include <iterator>

namespace {

using esr::Inconsistency;
using esr::bench::AveragedResult;
using esr::bench::BaseOptions;
using esr::bench::JobsFromArgs;
using esr::bench::PrintHeader;
using esr::bench::RunScale;
using esr::bench::Sweep;
using esr::bench::Table;

constexpr int kMpls[] = {2, 4, 6, 8, 10};
constexpr Inconsistency kBudgets[] = {0, 2'000, 10'000, 50'000};

}  // namespace

int main(int argc, char** argv) {
  esr::bench::TraceCapture trace_capture(argc, argv);
  const RunScale scale = RunScale::FromEnv();
  PrintHeader("Ablation: update-ET import budgets (Sec. 1 generalization)",
              "paper evaluates consistent update ETs only (budget 0); "
              "positive budgets trade update consistency for fewer "
              "update aborts",
              scale);

  Sweep sweep(scale, JobsFromArgs(argc, argv));
  sweep.set_series_export(esr::bench::SeriesPathFromArgs(argc, argv),
                          "ablation_update_import");
  sweep.set_certify(esr::bench::CertifyFromArgs(argc, argv));
  sweep.set_health(esr::bench::HealthPathFromArgs(argc, argv));
  for (int mpl : kMpls) {
    for (const Inconsistency budget : kBudgets) {
      // High query/export bounds so the update-read path is what varies.
      auto opt = BaseOptions(/*til=*/100'000, /*tel=*/10'000, mpl, scale);
      opt.workload.update_import_til = budget;
      sweep.Add(opt);
    }
  }
  sweep.Run();

  Table tput({"mpl", "import=0(paper)", "import=2k", "import=10k",
              "import=50k"});
  Table aborts({"mpl", "import=0(paper)", "import=2k", "import=10k",
                "import=50k"});
  size_t point = 0;
  for (int mpl : kMpls) {
    std::vector<std::string> tput_row{std::to_string(mpl)};
    std::vector<std::string> abort_row{std::to_string(mpl)};
    for (size_t b = 0; b < std::size(kBudgets); ++b) {
      const AveragedResult& r = sweep.Result(point++);
      tput_row.push_back(Table::NumCi(r.throughput, r.ci90_rel));
      abort_row.push_back(Table::Int(r.aborts));
    }
    tput.AddRow(tput_row);
    aborts.AddRow(abort_row);
  }
  std::printf("Throughput (tps):\n");
  tput.Print();
  std::printf("\nAborts:\n");
  aborts.Print();
  return 0;
}
