// Ablation: the paper's probabilistic (Ries–Stonebraker) conflict model vs
// an explicit lock table over concrete granules.
//
// The paper never validates its conflict approximation against a real lock
// table; this bench does. Both engines simulate the identical closed
// system (Table 1 parameters, npros = 10, best placement, horizontal
// partitioning); they differ only in how lock conflicts are decided:
//
//  * probabilistic — requester blocked by active txn j with prob Lj/ltot;
//  * explicit      — requester blocked iff its concrete granule set
//                    intersects an active transaction's set.
//
// What to look for: the two throughput curves have the same shape and the
// same optimum (ltot = 10 in the full run). The explicit curve sits below
// the probabilistic one at every ltot: within about 3% up to ltot = 200,
// then increasingly lower at finer granularity (17% at ltot = 5000), where
// the model under-predicts denials (0.34 vs 0.46). At small lock counts
// the model is the pessimistic one about denials (contiguous granule runs
// overlap *less* than independent uniform marks), yet the explicit
// engine's throughput is still a little lower there.

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
  bench::PrintBanner("Ablation: conflict model",
                     "Probabilistic conflict approximation (paper) vs "
                     "explicit lock table (npros=10, best placement)",
                     base, args);

  // One cell per (engine, ltot), both engines at each ltot in turn.
  bench::BenchGrid grid;
  grid.experiment_id = "ablation_conflict_model";
  grid.seeds = bench::SingleCellSeeds(grid.experiment_id, args);
  grid.labels = {"probabilistic", "explicit"};
  model::SystemConfig fp_cfg = base;
  args.Apply(&fp_cfg);
  grid.fingerprint = bench::RunFingerprint(
      grid.experiment_id, args,
      StrFormat("|%s;base_workload;explicit_table",
                fp_cfg.ToString().c_str()));
  const std::vector<int64_t> lock_counts =
      core::StandardLockSweep(base.dbsize);
  for (size_t p = 0; p < lock_counts.size(); ++p) {
    model::SystemConfig cfg = base;
    cfg.ltot = lock_counts[p];
    args.Apply(&cfg);
    const workload::WorkloadSpec spec = workload::WorkloadSpec::Base(cfg);
    const int point = static_cast<int>(p);
    grid.points.push_back(
        {0, point, cfg.ltot,
         core::EngineCell<core::GranularitySimulator>(cfg, spec, {})});
    grid.points.push_back(
        {1, point, cfg.ltot,
         core::EngineCell<db::ExplicitSimulator>(cfg, spec, {})});
  }
  core::RunReport report;
  const std::vector<core::ReplicatedMetrics> cells =
      bench::RunBenchGrid(grid, args, &report);

  TablePrinter table({"locks", "probabilistic", "explicit", "prob denial",
                      "expl denial"});
  int64_t best_prob = 1, best_expl = 1;
  double best_prob_tp = -1.0, best_expl_tp = -1.0;
  for (size_t p = 0; p < lock_counts.size(); ++p) {
    const int64_t ltot = lock_counts[p];
    const core::ReplicatedMetrics& prob = cells[2 * p];
    const core::ReplicatedMetrics& expl = cells[2 * p + 1];
    const bool prob_ok = prob.replications > 0;
    const bool expl_ok = expl.replications > 0;
    if (prob_ok && prob.mean.throughput > best_prob_tp) {
      best_prob_tp = prob.mean.throughput;
      best_prob = ltot;
    }
    if (expl_ok && expl.mean.throughput > best_expl_tp) {
      best_expl_tp = expl.mean.throughput;
      best_expl = ltot;
    }
    table.AddRow({StrFormat("%lld", (long long)ltot),
                  prob_ok ? StrFormat("%.5g", prob.mean.throughput)
                          : std::string("-"),
                  expl_ok ? StrFormat("%.5g", expl.mean.throughput)
                          : std::string("-"),
                  prob_ok ? StrFormat("%.3f", prob.mean.denial_rate)
                          : std::string("-"),
                  expl_ok ? StrFormat("%.3f", expl.mean.denial_rate)
                          : std::string("-")});
  }
  if (args.csv) {
    table.PrintCsv(std::cout);
  } else {
    table.Print(std::cout);
  }
  std::printf(
      "\noptimal ltot: probabilistic=%lld (tp %.5g), explicit=%lld (tp "
      "%.5g)\n",
      (long long)best_prob, best_prob_tp, (long long)best_expl, best_expl_tp);
  bench::MaybeWriteTableJsonReport("ablation_conflict_model",
                                   {{"throughput", &table}}, args);
  return 0;
}
