// Ablation: sensitivity to the per-object write-history depth. The paper
// keeps the last 20 writes per object ("20 is an empirical figure derived
// by dividing the measured values of the average duration of query ETs by
// that of update ETs", Sec. 5.1). Too shallow a history makes long
// queries abort with history-exhausted; deeper histories cost memory and
// lookup time. Each benchmark iteration runs a short simulated cluster
// and reports the abort/throughput consequences as counters, averaged
// over a fixed seed set (one seed per iteration, kIterations of them) so
// two runs of the binary print identical counters.

#include <benchmark/benchmark.h>

#include "esr/limits.h"
#include "sim/cluster.h"

namespace esr {
namespace {

constexpr benchmark::IterationCount kIterations = 20;

void BM_ClusterAtHistoryDepth(benchmark::State& state) {
  const size_t depth = static_cast<size_t>(state.range(0));
  double throughput = 0, hist_aborts = 0, aborts = 0, runs = 0;
  for (auto _ : state) {
    ClusterOptions opt;
    opt.mpl = 6;
    const TransactionLimits limits = LimitsForLevel(EpsilonLevel::kHigh);
    opt.workload.til = limits.til;
    opt.workload.tel = limits.tel;
    opt.server.store.history_depth = depth;
    opt.warmup_s = 2.0;
    opt.measure_s = 15.0;
    opt.seed = 1234 + runs;
    Cluster cluster(opt);
    const SimResult r = cluster.Run();
    throughput += r.throughput();
    aborts += static_cast<double>(r.aborts);
    hist_aborts += static_cast<double>(
        cluster.server().metrics().CounterValue("abort.history_exhausted"));
    runs += 1;
  }
  state.counters["tput"] = throughput / runs;
  state.counters["aborts"] = aborts / runs;
  state.counters["hist_aborts"] = hist_aborts / runs;
}
BENCHMARK(BM_ClusterAtHistoryDepth)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Arg(20)
    ->Arg(64)
    ->Iterations(kIterations)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace esr

BENCHMARK_MAIN();
