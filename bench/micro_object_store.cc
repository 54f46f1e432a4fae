// Microbenchmark of the ObjectStore as built: each record's write-history
// ring comes from the store's HistoryPool at its first committed write.
// Times the simulator's two hot shapes through the record API — committed
// write recording (ApplyWrite + CommitWrite) round-robin across the store,
// and proper-value scans over neighboring objects, on a store whose rings
// are full and on one never written (no rings) — plus the store's load
// path. Also reports the bytes a never-written and a written object cost.
// Min-of-N ops/sec, with a JsonReport emitted for `--registry <dir>`
// cross-run trends like every figure harness.

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>

#include "common/timestamp.h"
#include "common/types.h"
#include "harness/harness.h"
#include "storage/object_store.h"
#include "storage/write_history.h"

namespace {

using esr::ObjectId;
using esr::ObjectRecord;
using esr::ObjectStore;
using esr::ObjectStoreOptions;
using esr::Timestamp;
using esr::TxnId;
using esr::WriteHistory;
using esr::bench::AveragedResult;
using esr::bench::JsonReport;
using esr::bench::MaybeAppendToRegistry;
using esr::bench::RunScale;
using esr::bench::Table;

template <typename Kernel>
double MinOfN(int reps, double ops, Kernel&& kernel) {
  kernel();  // warm caches and the allocator
  double best_s = 1e300;
  for (int r = 0; r < reps; ++r) {
    const auto start = std::chrono::steady_clock::now();
    kernel();
    const std::chrono::duration<double> elapsed =
        std::chrono::steady_clock::now() - start;
    best_s = std::min(best_s, elapsed.count());
  }
  return ops / best_s;
}

/// Commits one write to every object per round, in id order, at strictly
/// increasing timestamps continuing from `*ts`.
uint64_t CommitChurn(ObjectStore& store, int rounds, int64_t* ts) {
  uint64_t sink = 0;
  for (int r = 0; r < rounds; ++r) {
    for (ObjectId id = 0; id < store.size(); ++id) {
      const TxnId txn = static_cast<TxnId>(*ts);
      ObjectRecord& rec = store.Get(id);
      rec.ApplyWrite(txn, Timestamp{(*ts)++, 0}, static_cast<esr::Value>(r));
      rec.CommitWrite(txn);
    }
  }
  for (ObjectId id = 0; id < store.size(); ++id) {
    sink += store.Get(id).history().size();
  }
  return sink;
}

uint64_t ProperScan(const ObjectStore& store, int rounds) {
  uint64_t sink = 0;
  for (int r = 0; r < rounds; ++r) {
    for (ObjectId id = 0; id < store.size(); ++id) {
      const auto v = store.Get(id).ProperValueFor(
          Timestamp{static_cast<int64_t>((id + r) % 1000) * 64 + 1, 0});
      if (v.has_value()) sink += static_cast<uint64_t>(*v);
    }
  }
  return sink;
}

AveragedResult Point(double value) {
  AveragedResult result;
  result.throughput = value;
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  const RunScale scale = RunScale::FromEnv();
  const bool full = scale.preset == "full";
  const int reps = full ? 12 : 5;
  const size_t kObjects = 1000;  // the paper's database size
  const int record_rounds = full ? 400 : 100;
  const int scan_rounds = full ? 2000 : 500;
  std::printf(
      "=== micro_object_store: the store's pooled on-first-commit "
      "write-history rings, %zu objects (min of %d reps) ===\n\n",
      kObjects, reps);

  JsonReport report("micro_object_store", scale);
  Table table({"kernel", "depth", "Mops/s"});
  Table bytes({"depth", "B/never-written object", "B/written object"});
  uint64_t sink = 0;
  const double record_ops =
      static_cast<double>(record_rounds) * static_cast<double>(kObjects);
  const double scan_ops =
      static_cast<double>(scan_rounds) * static_cast<double>(kObjects);

  for (const size_t depth : {size_t{20}, size_t{64}}) {
    ObjectStoreOptions opt;
    opt.num_objects = kObjects;
    opt.history_depth = depth;
    const double x = static_cast<double>(depth);

    // Never written: every lookup answers from the record alone.
    ObjectStore fresh(opt);
    const double fresh_scan = MinOfN(reps, scan_ops, [&] {
      sink += ProperScan(fresh, scan_rounds);
    });
    table.AddRow({"proper-scan (no rings)", Table::Int(x),
                  Table::Num(fresh_scan / 1e6)});
    report.AddPoint("proper_scan_unwritten", x, Point(fresh_scan));

    // Every object written to steady state (full rings) before timing.
    ObjectStore store(opt);
    int64_t ts = 1;
    sink += CommitChurn(store, static_cast<int>(depth) + 1, &ts);
    const double record = MinOfN(reps, record_ops, [&] {
      sink += CommitChurn(store, record_rounds, &ts);
    });
    table.AddRow({"record", Table::Int(x), Table::Num(record / 1e6)});
    report.AddPoint("record", x, Point(record));

    const double scan = MinOfN(reps, scan_ops, [&] {
      sink += ProperScan(store, scan_rounds);
    });
    table.AddRow({"proper-scan", Table::Int(x), Table::Num(scan / 1e6)});
    report.AddPoint("proper_scan", x, Point(scan));

    // Ring bytes as the pool handed them out, per written object.
    const double never_written = sizeof(ObjectRecord);
    const double written =
        never_written +
        static_cast<double>(store.history_rings() * depth *
                            sizeof(WriteHistory::Entry)) /
            static_cast<double>(kObjects);
    bytes.AddRow({Table::Int(x), Table::Int(never_written),
                  Table::Int(written)});
    report.AddPoint("bytes_never_written", x, Point(never_written));
    report.AddPoint("bytes_written", x, Point(written));
  }

  // Absolute end-to-end sanity point: the real ObjectStore's load path at
  // the paper's size.
  {
    ObjectStoreOptions opt;
    opt.num_objects = kObjects;
    const double loads = full ? 200 : 50;
    const double load_rate = MinOfN(reps, loads, [&] {
      for (int i = 0; i < static_cast<int>(loads); ++i) {
        ObjectStore store(opt);
        sink += static_cast<uint64_t>(store.TotalValue());
      }
    });
    std::printf("store load: %.1f stores/s (%zu objects each)\n\n",
                load_rate, kObjects);
    report.AddPoint("store_load", static_cast<double>(kObjects),
                    Point(load_rate));
  }

  table.Print();
  std::printf("\n");
  bytes.Print();
  if (sink == 0) std::printf("(impossible sink)\n");

  const std::string json_path = JsonReport::PathFromArgs(argc, argv);
  const esr::Status json_status = report.WriteToFile(json_path);
  if (!json_status.ok()) {
    std::fprintf(stderr, "json export failed: %s\n",
                 json_status.ToString().c_str());
    return 1;
  }
  const esr::Status reg_status =
      MaybeAppendToRegistry(argc, argv, report, /*jobs=*/1);
  if (!reg_status.ok()) {
    std::fprintf(stderr, "registry append failed: %s\n",
                 reg_status.ToString().c_str());
    return 1;
  }
  return 0;
}
