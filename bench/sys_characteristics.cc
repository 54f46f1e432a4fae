// Sec. 6 substrate calibration: the prototype measured a null RPC of
// ~11 ms, an average op RPC of 17-20 ms, and 50-60 tps at ~10 ops/txn
// under a LOW-conflict load at MPL 10. This harness measures the same
// numbers on the simulated substrate. The RPC latencies match the paper
// by construction; the absolute transaction rate is lower because our
// simulated server is a single FIFO CPU (~3.5 ms/op) — the knob that
// produces the paper's thrashing within MPL <= 10 — and we report it so
// the calibration difference is explicit rather than hidden.

#include "harness/harness.h"

#include <cstdio>

#include "sim/latency_model.h"

namespace {

using esr::LatencyModel;
using esr::LatencyModelOptions;
using esr::bench::BaseOptions;
using esr::bench::JobsFromArgs;
using esr::bench::RunAveraged;
using esr::bench::RunScale;
using esr::bench::Table;

}  // namespace

int main(int argc, char** argv) {
  esr::bench::TraceCapture trace_capture(argc, argv);
  const RunScale scale = RunScale::FromEnv();
  std::printf("=== Sec. 6: Prototype system characteristics ===\n\n");

  // RPC latency model.
  LatencyModelOptions lat_opt;
  LatencyModel model(lat_opt, 1);
  double null_sum = 0, op_sum = 0;
  constexpr int kSamples = 10000;
  for (int i = 0; i < kSamples; ++i) {
    null_sum += static_cast<double>(model.SampleControlRpc()) / 1000.0;
    op_sum += static_cast<double>(model.SampleOpRpc()) / 1000.0 +
              lat_opt.server_cpu_per_op_ms;
  }
  Table rpc({"Metric", "Paper", "Simulated"});
  rpc.AddRow({"null RPC (ms)", "~11", Table::Num(null_sum / kSamples, 1)});
  rpc.AddRow({"avg op RPC incl. server (ms)", "17-20",
              Table::Num(op_sum / kSamples, 1)});
  rpc.Print();

  // Low-conflict baseline throughput at MPL 10, ~10 ops per transaction.
  auto opt = BaseOptions(/*til=*/100'000, /*tel=*/10'000, /*mpl=*/10, scale);
  opt.workload.query_ops_min = 9;
  opt.workload.query_ops_max = 11;
  opt.workload.update_ops_min = 9;
  opt.workload.update_ops_max = 11;
  // Low conflict: spread accesses over the whole database.
  opt.workload.query_hot_prob = 0.02;
  opt.workload.update_read_hot_prob = 0.02;
  opt.workload.update_write_hot_prob = 0.02;
  const auto result = RunAveraged(opt, scale, JobsFromArgs(argc, argv));

  std::printf("\nLow-conflict baseline (MPL 10, ~10 ops/txn):\n");
  std::printf("  paper     : 50-60 tps (multithreaded server, ops overlap)\n");
  std::printf("  simulated : %.1f tps (%.1f ops/txn, %.0f aborts, "
              "latency %.0f ms)\n",
              result.throughput, result.ops_per_committed_txn,
              result.aborts, result.avg_txn_latency_ms);
  std::printf(
      "  note      : the simulated server serializes ops on one "
      "%.1f ms/op CPU,\n"
      "              capping it near %.0f ops/s; see EXPERIMENTS.md for "
      "why this\n"
      "              calibration was chosen.\n",
      lat_opt.server_cpu_per_op_ms, 1000.0 / lat_opt.server_cpu_per_op_ms);
  return 0;
}
