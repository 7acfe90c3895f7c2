// Ablation: multiple-granularity locking on the paper's mixed workload.
//
// The paper's conclusions suggest Gamma-style two-level granularity
// ("providing granularity at the block level and at the file level ... may
// be adequate"): large transactions should take one coarse lock instead of
// hundreds of granule locks, small transactions keep fine locks. This
// bench quantifies that on the §3.6 workload (80% small / 20% large,
// npros = 10) using the explicit-lock-table engine:
//
//  * flat      — every transaction locks its granules individually;
//  * MGL       — transactions with >= 250 entities take one database-level
//                X lock (plus nothing else); smaller ones take IX + granule
//                X locks.
//
// What to look for: at moderate-to-fine granularity the flat strategy
// drowns in the large transactions' lock overhead, while MGL caps that
// cost at one lock, so the MGL curve dominates on the right side of the
// sweep.

#include <algorithm>
#include <cstdio>
#include <iostream>

#include "bench/bench_common.h"
#include "db/explicit_simulator.h"
#include "util/strings.h"

int main(int argc, char** argv) {
  using namespace granulock;
  const bench::BenchArgs args = bench::ParseArgsOrDie(argc, argv);
  model::SystemConfig base = model::SystemConfig::Table1Defaults();
  base.npros = 10;
  base.maxtransize = 500;
  bench::PrintBanner("Ablation: multiple-granularity locking",
                     "Flat granule locks vs hierarchical (coarse lock for "
                     "transactions >= 250 entities), 80/20 mixed workload, "
                     "npros=10, explicit lock table",
                     base, args);

  workload::WorkloadSpec spec;
  spec.sizes = workload::MakeSmallLargeMix(0.8, 50, 500);
  spec.placement = model::Placement::kBest;
  spec.partitioning = workload::PartitioningMethod::kHorizontal;

  db::ExplicitSimulator::Options flat;
  db::ExplicitSimulator::Options mgl;
  mgl.strategy = db::ExplicitSimulator::LockingStrategy::kHierarchical;
  mgl.coarse_threshold = 250;
  // Gamma-style: granules grouped into 50 files, with per-file lock
  // escalation so large scans collapse to file locks even below the
  // whole-database threshold.
  db::ExplicitSimulator::Options gamma = mgl;
  gamma.escalation_threshold = 20;

  // One cell per (strategy, ltot), the three strategies at each ltot in
  // turn. The base config is part of the fingerprint; the per-point
  // ltot/num_files tweaks are functions of the grid.
  bench::BenchGrid grid;
  grid.experiment_id = "ablation_mgl";
  grid.seeds = bench::SingleCellSeeds(grid.experiment_id, args);
  grid.labels = {"flat", "MGL", "MGL+files"};
  model::SystemConfig fp_cfg = base;
  args.Apply(&fp_cfg);
  grid.fingerprint = bench::RunFingerprint(
      grid.experiment_id, args,
      StrFormat("|%s;%s;mgl_threshold=250;escalation=20;files=50",
                fp_cfg.ToString().c_str(), spec.Describe().c_str()));
  const std::vector<int64_t> sweep = core::StandardLockSweep(base.dbsize);
  for (size_t p = 0; p < sweep.size(); ++p) {
    model::SystemConfig cfg = base;
    cfg.ltot = sweep[p];
    args.Apply(&cfg);
    db::ExplicitSimulator::Options gamma_point = gamma;
    gamma_point.num_files = std::min<int64_t>(50, cfg.ltot);
    const auto add = [&](int series,
                         const db::ExplicitSimulator::Options& opt) {
      grid.points.push_back(
          {series, static_cast<int>(p), cfg.ltot,
           core::EngineCell<db::ExplicitSimulator>(cfg, spec, opt)});
    };
    add(0, flat);
    add(1, mgl);
    add(2, gamma_point);
  }
  core::RunReport report;
  const std::vector<core::ReplicatedMetrics> cells =
      bench::RunBenchGrid(grid, args, &report);

  TablePrinter table({"locks", "flat tp", "MGL tp", "MGL+files tp",
                      "flat lock ovh", "MGL lock ovh", "MGL+files ovh"});
  auto tp = [](const core::ReplicatedMetrics& r) {
    return r.replications > 0 ? StrFormat("%.5g", r.mean.throughput)
                              : std::string("-");
  };
  auto ovh = [](const core::ReplicatedMetrics& r) {
    return r.replications > 0
               ? StrFormat("%.5g", r.mean.lockios + r.mean.lockcpus)
               : std::string("-");
  };
  for (size_t p = 0; p < sweep.size(); ++p) {
    const core::ReplicatedMetrics& f = cells[3 * p];
    const core::ReplicatedMetrics& m = cells[3 * p + 1];
    const core::ReplicatedMetrics& g = cells[3 * p + 2];
    table.AddRow({StrFormat("%lld", (long long)sweep[p]), tp(f), tp(m), tp(g),
                  ovh(f), ovh(m), ovh(g)});
  }
  if (args.csv) {
    table.PrintCsv(std::cout);
  } else {
    table.Print(std::cout);
  }
  bench::MaybeWriteTableJsonReport("ablation_mgl", {{"throughput", &table}},
                                   args);
  return 0;
}
