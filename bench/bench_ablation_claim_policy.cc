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
  const bench::BenchArgs args = bench::ParseArgsOrDie(argc, argv);
  model::SystemConfig base = model::SystemConfig::Table1Defaults();
  base.npros = 10;
  bench::PrintBanner("Ablation: claim policy",
                     "Conservative pre-claiming (paper) vs incremental "
                     "claim-as-needed 2PL with deadlock detection "
                     "(npros=10, best placement)",
                     base, args);

  // One cell per (protocol, placement, ltot): series 0/1 =
  // conservative/incremental with best placement over every ltot, then
  // 2/3 = the same with worst placement. Non-default contention flags
  // change the incremental results, so they extend the fingerprint;
  // default runs keep their historical journals.
  bench::BenchGrid grid;
  grid.experiment_id = "ablation_claim_policy";
  grid.seeds = bench::SingleCellSeeds(grid.experiment_id, args);
  grid.labels = {"conservative/best", "incremental/best", "conservative/worst",
                 "incremental/worst"};
  model::SystemConfig fp_cfg = base;
  args.Apply(&fp_cfg);
  std::string canonical =
      "|" + fp_cfg.ToString() + ";base_workload;incremental_2pl";
  if (!args.ContentionIsDefault()) canonical += ";" + args.DescribeContention();
  grid.fingerprint =
      bench::RunFingerprint(grid.experiment_id, args, canonical);
  db::IncrementalSimulator::Options iopt;
  iopt.contention = args.Contention();
  const std::vector<int64_t> sweep = core::StandardLockSweep(base.dbsize);
  for (const model::Placement placement :
       {model::Placement::kBest, model::Placement::kWorst}) {
    const int series = placement == model::Placement::kBest ? 0 : 2;
    for (size_t p = 0; p < sweep.size(); ++p) {
      model::SystemConfig cfg = base;
      cfg.ltot = sweep[p];
      args.Apply(&cfg);
      workload::WorkloadSpec spec = workload::WorkloadSpec::Base(cfg);
      spec.placement = placement;
      grid.points.push_back(
          {series, static_cast<int>(p), cfg.ltot,
           core::EngineCell<core::GranularitySimulator>(cfg, spec, {})});
      grid.points.push_back(
          {series + 1, static_cast<int>(p), cfg.ltot,
           core::EngineCell<db::IncrementalSimulator>(cfg, spec, iopt)});
    }
  }
  core::RunReport report;
  const std::vector<core::ReplicatedMetrics> cells =
      bench::RunBenchGrid(grid, args, &report);

  // Renders one placement's half of the grid.
  const auto render = [&](size_t half) {
    TablePrinter table({"locks", "conservative tp", "incremental tp",
                        "deadlock aborts", "wait rate"});
    for (size_t p = 0; p < sweep.size(); ++p) {
      const size_t i = 2 * (half * sweep.size() + p);
      const core::ReplicatedMetrics& conservative = cells[i];
      const core::ReplicatedMetrics& incremental = cells[i + 1];
      const bool conservative_ok = conservative.replications > 0;
      const bool incremental_ok = incremental.replications > 0;
      const bool ok = conservative_ok && incremental_ok;
      table.AddRow(
          {StrFormat("%lld", (long long)sweep[p]),
           conservative_ok ? StrFormat("%.5g", conservative.mean.throughput)
                           : std::string("-"),
           incremental_ok ? StrFormat("%.5g", incremental.mean.throughput)
                          : std::string("-"),
           ok ? StrFormat("%lld", (long long)incremental.mean.deadlock_aborts)
              : std::string("-"),
           ok ? StrFormat("%.3f", incremental.mean.denial_rate)
              : std::string("-")});
    }
    if (args.csv) {
      table.PrintCsv(std::cout);
    } else {
      table.Print(std::cout);
    }
    return table;
  };
  const TablePrinter table = render(0);
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
  const TablePrinter table2 = render(1);
  std::printf(
      "\nunder random access both protocols agree that ltot = 1 is "
      "optimal; away from it, claim-as-needed collapses into an abort "
      "storm (large transactions holding random granule sets deadlock "
      "almost surely), which strengthens — not weakens — the paper's "
      "coarse-granularity conclusion for large random-access "
      "transactions.\n");
  bench::MaybeWriteTableJsonReport(
      "ablation_claim_policy",
      {{"best_placement", &table}, {"worst_placement", &table2}}, args);
  return 0;
}
