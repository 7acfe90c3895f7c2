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

  // Checkpoint/containment wrapper: each (strategy, ltot) simulation is
  // one cell. The base config is part of the fingerprint; the per-point
  // ltot/num_files tweaks are functions of the grid.
  {
    model::SystemConfig fp_cfg = base;
    args.Apply(&fp_cfg);
    bench::CellRunner cells(
        "ablation_mgl", args,
        fp_cfg.ToString() + ";" + spec.Describe() +
            ";mgl_threshold=250;escalation=20;files=50");

    TablePrinter table({"locks", "flat tp", "MGL tp", "MGL+files tp",
                        "flat lock ovh", "MGL lock ovh", "MGL+files ovh"});
    const std::vector<int64_t> sweep = core::StandardLockSweep(base.dbsize);
    for (size_t p = 0; p < sweep.size(); ++p) {
      const int64_t ltot = sweep[p];
      model::SystemConfig cfg = base;
      cfg.ltot = ltot;
      args.Apply(&cfg);
      db::ExplicitSimulator::Options gamma_point = gamma;
      gamma_point.num_files = std::min<int64_t>(50, ltot);
      const uint64_t seed = static_cast<uint64_t>(args.seed);
      auto run = [&](int series, const db::ExplicitSimulator::Options& opt) {
        return cells.Run(series, static_cast<int>(p), ltot, seed,
                         [&](const fault::CellWatchdog* wd) {
                           db::ExplicitSimulator::Options watched = opt;
                           watched.watchdog = wd;
                           return db::ExplicitSimulator::RunOnce(
                               cfg, spec, seed, watched);
                         });
      };
      auto rf = run(0, flat);
      auto rm = run(1, mgl);
      auto rg = run(2, gamma_point);
      auto tp = [](const Result<core::SimulationMetrics>& r) {
        return r.ok() ? StrFormat("%.5g", r->throughput) : std::string("-");
      };
      auto ovh = [](const Result<core::SimulationMetrics>& r) {
        return r.ok() ? StrFormat("%.5g", r->lockios + r->lockcpus)
                      : std::string("-");
      };
      table.AddRow({StrFormat("%lld", (long long)ltot), tp(rf), tp(rm),
                    tp(rg), ovh(rf), ovh(rm), ovh(rg)});
    }
    cells.Finish();
    if (args.csv) {
      table.PrintCsv(std::cout);
    } else {
      table.Print(std::cout);
    }
    bench::MaybeWriteTableJsonReport("ablation_mgl", {{"throughput", &table}},
                                     args);
  }
  return 0;
}
