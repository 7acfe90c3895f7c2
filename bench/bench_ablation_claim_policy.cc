// Ablation: conservative (pre-claim) locking vs incremental
// (claim-as-needed) two-phase locking.
//
// The paper models conservative locking only, citing Ries & Stonebraker's
// finding that switching to claim-as-needed "did not affect the
// conclusions of the study" (§2, footnote 1). This bench re-verifies that
// claim: the incremental engine acquires locks one at a time interleaved
// with processing, holds earlier locks while waiting, detects waits-for
// cycles and aborts/restarts the requester.
//
// What to look for: the incremental curve keeps the same shape — convex
// with the optimum well below ~200 locks — so the paper's conclusions are
// robust to the protocol choice. Deadlock aborts appear at moderate
// granularity (few locks, heavy contention, shuffled acquisition order)
// and vanish at both extremes.

#include <cstdio>
#include <iostream>

#include "bench/bench_common.h"
#include "db/incremental_simulator.h"

int main(int argc, char** argv) {
  using namespace granulock;
  bench::BenchArgs args = bench::ParseArgsOrDie(argc, argv);
  model::SystemConfig base = model::SystemConfig::Table1Defaults();
  base.npros = 10;
  bench::PrintBanner("Ablation: claim policy",
                     "Conservative pre-claiming (paper) vs incremental "
                     "claim-as-needed 2PL with deadlock detection "
                     "(npros=10, best placement)",
                     base, args);

  // Checkpoint/containment wrapper: series 0/1 = conservative/incremental
  // with best placement, 2/3 = the same with worst placement below.
  // Non-default contention flags change the incremental results, so they
  // extend the fingerprint; default runs keep their historical journals.
  model::SystemConfig fp_cfg = base;
  args.Apply(&fp_cfg);
  std::string canonical =
      fp_cfg.ToString() + ";base_workload;incremental_2pl";
  if (!args.ContentionIsDefault()) canonical += ";" + args.DescribeContention();
  bench::CellRunner cells("ablation_claim_policy", args, canonical);
  db::IncrementalSimulator::Options iopt;
  iopt.contention = args.Contention();
  const std::vector<int64_t> sweep = core::StandardLockSweep(base.dbsize);
  const uint64_t seed = static_cast<uint64_t>(args.seed);

  TablePrinter table({"locks", "conservative tp", "incremental tp",
                      "deadlock aborts", "wait rate"});
  for (size_t p = 0; p < sweep.size(); ++p) {
    const int64_t ltot = sweep[p];
    model::SystemConfig cfg = base;
    cfg.ltot = ltot;
    args.Apply(&cfg);
    const workload::WorkloadSpec spec = workload::WorkloadSpec::Base(cfg);
    auto conservative = cells.Run(
        0, static_cast<int>(p), ltot, seed,
        [&](const fault::CellWatchdog* wd) {
          core::GranularitySimulator::Options opt;
          opt.watchdog = wd;
          return core::GranularitySimulator::RunOnce(cfg, spec, seed, opt);
        });
    auto incremental = cells.Run(
        1, static_cast<int>(p), ltot, seed,
        [&](const fault::CellWatchdog* wd) {
          db::IncrementalSimulator::Options opt = iopt;
          opt.watchdog = wd;
          return db::IncrementalSimulator::RunOnce(cfg, spec, seed, opt);
        });
    const bool ok = conservative.ok() && incremental.ok();
    table.AddRow(
        {StrFormat("%lld", (long long)ltot),
         conservative.ok() ? StrFormat("%.5g", conservative->throughput)
                           : std::string("-"),
         incremental.ok() ? StrFormat("%.5g", incremental->throughput)
                          : std::string("-"),
         ok ? StrFormat("%lld", (long long)incremental->deadlock_aborts)
            : std::string("-"),
         ok ? StrFormat("%.3f", incremental->denial_rate)
            : std::string("-")});
  }
  if (args.csv) {
    table.PrintCsv(std::cout);
  } else {
    table.Print(std::cout);
  }
  std::printf(
      "\nreading the table: both protocols should peak in the same "
      "coarse-to-moderate region, confirming the paper's footnote that the "
      "conservative assumption does not drive its conclusions. Sequential "
      "access (best placement) acquires locks in scan order, so deadlocks "
      "are rare.\n\n");

  // Second series: random access order (worst placement), where
  // hold-and-wait cycles actually form and the deadlock detector earns
  // its keep.
  std::printf("--- random access order (worst placement) ---\n");
  TablePrinter table2({"locks", "conservative tp", "incremental tp",
                       "deadlock aborts", "wait rate"});
  for (size_t p = 0; p < sweep.size(); ++p) {
    const int64_t ltot = sweep[p];
    model::SystemConfig cfg = base;
    cfg.ltot = ltot;
    args.Apply(&cfg);
    workload::WorkloadSpec spec = workload::WorkloadSpec::Base(cfg);
    spec.placement = model::Placement::kWorst;
    auto conservative = cells.Run(
        2, static_cast<int>(p), ltot, seed,
        [&](const fault::CellWatchdog* wd) {
          core::GranularitySimulator::Options opt;
          opt.watchdog = wd;
          return core::GranularitySimulator::RunOnce(cfg, spec, seed, opt);
        });
    auto incremental = cells.Run(
        3, static_cast<int>(p), ltot, seed,
        [&](const fault::CellWatchdog* wd) {
          db::IncrementalSimulator::Options opt = iopt;
          opt.watchdog = wd;
          return db::IncrementalSimulator::RunOnce(cfg, spec, seed, opt);
        });
    const bool ok = conservative.ok() && incremental.ok();
    table2.AddRow(
        {StrFormat("%lld", (long long)ltot),
         conservative.ok() ? StrFormat("%.5g", conservative->throughput)
                           : std::string("-"),
         incremental.ok() ? StrFormat("%.5g", incremental->throughput)
                          : std::string("-"),
         ok ? StrFormat("%lld", (long long)incremental->deadlock_aborts)
            : std::string("-"),
         ok ? StrFormat("%.3f", incremental->denial_rate)
            : std::string("-")});
  }
  if (args.csv) {
    table2.PrintCsv(std::cout);
  } else {
    table2.Print(std::cout);
  }
  std::printf(
      "\nunder random access both protocols agree that ltot = 1 is "
      "optimal; away from it, claim-as-needed collapses into an abort "
      "storm (large transactions holding random granule sets deadlock "
      "almost surely), which strengthens — not weakens — the paper's "
      "coarse-granularity conclusion for large random-access "
      "transactions.\n");
  cells.Finish();
  bench::MaybeWriteTableJsonReport(
      "ablation_claim_policy",
      {{"best_placement", &table}, {"worst_placement", &table2}}, args);
  return 0;
}
