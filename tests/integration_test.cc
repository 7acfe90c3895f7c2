// Cross-module integration tests: each test reproduces (in miniature, with
// short runs and fixed seeds) one of the paper's qualitative findings, so a
// regression that changes the science — not just a unit contract — fails
// loudly. Tolerances are deliberately loose; the figure benches carry the
// precise curves.

#include <gtest/gtest.h>

#include <cmath>

#include "core/experiment.h"
#include "core/granularity_simulator.h"
#include "db/explicit_simulator.h"
#include "sim/stats.h"
#include "workload/size_distribution.h"
#include "workload/workload.h"

namespace granulock {
namespace {

model::SystemConfig BaseConfig(double tmax = 4000.0) {
  model::SystemConfig cfg = model::SystemConfig::Table1Defaults();
  cfg.tmax = tmax;
  return cfg;
}

double Throughput(const model::SystemConfig& cfg,
                  const workload::WorkloadSpec& spec, uint64_t seed = 42) {
  auto result = core::GranularitySimulator::RunOnce(cfg, spec, seed);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return result.ok() ? result->throughput : -1.0;
}

// --- Figure 2 family -------------------------------------------------

TEST(PaperFindingsTest, ThroughputIncreasesWithProcessors) {
  model::SystemConfig cfg = BaseConfig();
  cfg.ltot = 100;
  double prev = 0.0;
  for (int64_t npros : {1, 5, 10, 30}) {
    cfg.npros = npros;
    const double tp = Throughput(cfg, workload::WorkloadSpec::Base(cfg));
    EXPECT_GT(tp, prev) << "npros=" << npros;
    prev = tp;
  }
}

TEST(PaperFindingsTest, ResponseTimeDecreasesWithProcessors) {
  model::SystemConfig cfg = BaseConfig();
  cfg.ltot = 100;
  double prev = 1e18;
  for (int64_t npros : {1, 5, 10, 30}) {
    cfg.npros = npros;
    auto r = core::GranularitySimulator::RunOnce(
        cfg, workload::WorkloadSpec::Base(cfg), 42);
    ASSERT_TRUE(r.ok());
    EXPECT_LT(r->response_time, prev) << "npros=" << npros;
    prev = r->response_time;
  }
}

TEST(PaperFindingsTest, ThroughputIsConvexInLockCount) {
  // Moderate granularity beats both extremes at npros = 10.
  model::SystemConfig cfg = BaseConfig();
  cfg.npros = 10;
  const auto spec = workload::WorkloadSpec::Base(cfg);
  cfg.ltot = 1;
  const double coarse = Throughput(cfg, spec);
  cfg.ltot = 50;
  const double mid = Throughput(cfg, spec);
  cfg.ltot = 5000;
  const double fine = Throughput(cfg, spec);
  EXPECT_GT(mid, coarse);
  EXPECT_GT(mid, fine);
}

TEST(PaperFindingsTest, OptimumIsBelow200Locks) {
  model::SystemConfig cfg = BaseConfig();
  cfg.npros = 30;
  auto sweep = core::SweepLockCounts(cfg, workload::WorkloadSpec::Base(cfg),
                                     core::StandardLockSweep(cfg.dbsize),
                                     42, 1);
  ASSERT_TRUE(sweep.ok());
  EXPECT_LE(core::BestThroughputPoint(*sweep).ltot, 200);
}

TEST(PaperFindingsTest, MissingOptimumPenaltyGrowsWithProcessors) {
  // The throughput lost by running at ltot = dbsize instead of the
  // optimum ("the penalty associated with not maintaining the optimum
  // number of locks") grows with the number of processors.
  auto penalty = [](int64_t npros) {
    model::SystemConfig cfg = BaseConfig();
    cfg.npros = npros;
    auto sweep = core::SweepLockCounts(
        cfg, workload::WorkloadSpec::Base(cfg), {1, 10, 50, 200, 5000},
        42, 1);
    EXPECT_TRUE(sweep.ok());
    const double best =
        core::BestThroughputPoint(*sweep).metrics.mean.throughput;
    const double fine = sweep->back().metrics.mean.throughput;
    return best - fine;
  };
  EXPECT_GT(penalty(30), 5.0 * penalty(1));
}

// --- Figure 3/4/5 family ---------------------------------------------

TEST(PaperFindingsTest, UsefulTimesFallWithProcessors) {
  model::SystemConfig cfg = BaseConfig();
  cfg.ltot = 100;
  cfg.npros = 1;
  auto r1 = core::GranularitySimulator::RunOnce(
      cfg, workload::WorkloadSpec::Base(cfg), 42);
  cfg.npros = 30;
  auto r30 = core::GranularitySimulator::RunOnce(
      cfg, workload::WorkloadSpec::Base(cfg), 42);
  ASSERT_TRUE(r1.ok() && r30.ok());
  EXPECT_LT(r30->usefulios, r1->usefulios);
  EXPECT_LT(r30->usefulcpus, r1->usefulcpus);
}

TEST(PaperFindingsTest, LockOverheadExplodesWithFineGranularity) {
  model::SystemConfig cfg = BaseConfig();
  cfg.npros = 10;
  const auto spec = workload::WorkloadSpec::Base(cfg);
  cfg.ltot = 100;
  auto mid = core::GranularitySimulator::RunOnce(cfg, spec, 42);
  cfg.ltot = 5000;
  auto fine = core::GranularitySimulator::RunOnce(cfg, spec, 42);
  ASSERT_TRUE(mid.ok() && fine.ok());
  EXPECT_GT(fine->lockios + fine->lockcpus,
            3.0 * (mid->lockios + mid->lockcpus));
}

TEST(PaperFindingsTest, DenialRateFallsAsLocksGrow) {
  model::SystemConfig cfg = BaseConfig();
  cfg.npros = 10;
  const auto spec = workload::WorkloadSpec::Base(cfg);
  cfg.ltot = 1;
  auto coarse = core::GranularitySimulator::RunOnce(cfg, spec, 42);
  cfg.ltot = 500;
  auto fine = core::GranularitySimulator::RunOnce(cfg, spec, 42);
  ASSERT_TRUE(coarse.ok() && fine.ok());
  EXPECT_GT(coarse->denial_rate, fine->denial_rate);
}

// --- Figure 6 ---------------------------------------------------------

TEST(PaperFindingsTest, SmallerTransactionsYieldHigherThroughput) {
  model::SystemConfig cfg = BaseConfig();
  cfg.npros = 10;
  cfg.ltot = 100;
  cfg.maxtransize = 50;
  const double small = Throughput(cfg, workload::WorkloadSpec::Base(cfg));
  cfg.maxtransize = 500;
  const double large = Throughput(cfg, workload::WorkloadSpec::Base(cfg));
  EXPECT_GT(small, 2.0 * large);
}

// --- Figure 7 ---------------------------------------------------------

TEST(PaperFindingsTest, CheapLockIoToleratesFineGranularity) {
  // With liotime = 0 the penalty for ltot = dbsize (vs 100 locks) is far
  // smaller than with liotime = 0.2.
  auto fine_penalty = [](double liotime) {
    model::SystemConfig cfg = BaseConfig();
    cfg.npros = 10;
    cfg.liotime = liotime;
    const auto spec = workload::WorkloadSpec::Base(cfg);
    cfg.ltot = 100;
    auto mid = core::GranularitySimulator::RunOnce(cfg, spec, 42);
    cfg.ltot = 5000;
    auto fine = core::GranularitySimulator::RunOnce(cfg, spec, 42);
    EXPECT_TRUE(mid.ok() && fine.ok());
    return 1.0 - fine->throughput / mid->throughput;
  };
  EXPECT_LT(fine_penalty(0.0), 0.5 * fine_penalty(0.2));
}

// --- Figure 8 ---------------------------------------------------------

TEST(PaperFindingsTest, HorizontalPartitioningBeatsRandom) {
  model::SystemConfig cfg = BaseConfig();
  cfg.npros = 10;
  cfg.ltot = 100;
  workload::WorkloadSpec spec = workload::WorkloadSpec::Base(cfg);
  const double horizontal = Throughput(cfg, spec);
  spec.partitioning = workload::PartitioningMethod::kRandom;
  const double random = Throughput(cfg, spec);
  EXPECT_GT(horizontal, random);
}

// --- Figures 9/10 -----------------------------------------------------

TEST(PaperFindingsTest, WorstPlacementDipsAtModerateGranularity) {
  // Throughput at ltot ~ mean transaction entities is lower than at both
  // ltot = 1 and ltot = dbsize (the Figure 9 "valley").
  model::SystemConfig cfg = BaseConfig();
  cfg.npros = 10;
  workload::WorkloadSpec spec = workload::WorkloadSpec::Base(cfg);
  spec.placement = model::Placement::kWorst;
  cfg.ltot = 1;
  const double coarse = Throughput(cfg, spec);
  cfg.ltot = 250;
  const double valley = Throughput(cfg, spec);
  cfg.ltot = 5000;
  const double fine = Throughput(cfg, spec);
  EXPECT_LT(valley, coarse);
  EXPECT_LT(valley, fine);
}

TEST(PaperFindingsTest, RandomAndWorstPlacementBehaveAlike) {
  model::SystemConfig cfg = BaseConfig();
  cfg.npros = 10;
  cfg.ltot = 100;
  workload::WorkloadSpec spec = workload::WorkloadSpec::Base(cfg);
  spec.placement = model::Placement::kRandom;
  const double random = Throughput(cfg, spec);
  spec.placement = model::Placement::kWorst;
  const double worst = Throughput(cfg, spec);
  // Within 40% of each other, and both far below best placement.
  EXPECT_NEAR(random, worst, 0.4 * random);
  spec.placement = model::Placement::kBest;
  EXPECT_GT(Throughput(cfg, spec), 1.5 * random);
}

TEST(PaperFindingsTest, FineGranularityWinsForSmallRandomTransactions) {
  // §4: "we need to have fine granularity (one lock per database entity)
  // when transactions access the database randomly" (small txns, light
  // load).
  model::SystemConfig cfg = BaseConfig();
  cfg.npros = 10;
  cfg.maxtransize = 50;
  workload::WorkloadSpec spec = workload::WorkloadSpec::Base(cfg);
  spec.placement = model::Placement::kRandom;
  cfg.ltot = 50;
  const double mid = Throughput(cfg, spec);
  cfg.ltot = 5000;
  const double fine = Throughput(cfg, spec);
  EXPECT_GT(fine, mid);
}

// --- Figure 11 ---------------------------------------------------------

TEST(PaperFindingsTest, MixedWorkloadFallsBetweenExtremes) {
  model::SystemConfig cfg = BaseConfig();
  cfg.npros = 10;
  cfg.ltot = 5000;
  workload::WorkloadSpec small = workload::WorkloadSpec::Base(cfg);
  small.sizes = std::make_shared<workload::UniformSizeDistribution>(50);
  workload::WorkloadSpec large = workload::WorkloadSpec::Base(cfg);
  large.sizes = std::make_shared<workload::UniformSizeDistribution>(500);
  workload::WorkloadSpec mixed = workload::WorkloadSpec::Base(cfg);
  mixed.sizes = workload::MakeSmallLargeMix(0.8, 50, 500);
  const double tp_small = Throughput(cfg, small);
  const double tp_large = Throughput(cfg, large);
  const double tp_mixed = Throughput(cfg, mixed);
  EXPECT_GT(tp_mixed, tp_large);
  EXPECT_LT(tp_mixed, tp_small);
  // "even the presence of 20% large transactions substantially affects
  // system throughput": the mix is much closer to all-large than the
  // 80/20 weighting of the extremes would suggest.
  EXPECT_LT(tp_mixed, 0.5 * tp_small);
}

// --- Figure 12 ---------------------------------------------------------

TEST(PaperFindingsTest, HeavyLoadPrefersCoarseGranularity) {
  model::SystemConfig cfg = BaseConfig(2500.0);
  cfg.ntrans = 200;
  cfg.npros = 20;
  workload::WorkloadSpec spec = workload::WorkloadSpec::Base(cfg);
  spec.placement = model::Placement::kRandom;
  cfg.ltot = 1;
  const double coarse = Throughput(cfg, spec);
  cfg.ltot = 5000;
  const double fine = Throughput(cfg, spec);
  EXPECT_GT(coarse, fine);
}

// --- Cross-validation: probabilistic vs explicit ----------------------

TEST(CrossValidationTest, ExplicitLockTableAgreesOnShape) {
  // Both engines must agree that moderate granularity beats the extremes,
  // with the same config and workload.
  model::SystemConfig cfg = BaseConfig();
  cfg.npros = 10;
  const auto spec = workload::WorkloadSpec::Base(cfg);
  auto tp_prob = [&](int64_t ltot) {
    model::SystemConfig c = cfg;
    c.ltot = ltot;
    auto r = core::GranularitySimulator::RunOnce(c, spec, 42);
    EXPECT_TRUE(r.ok());
    return r->throughput;
  };
  auto tp_expl = [&](int64_t ltot) {
    model::SystemConfig c = cfg;
    c.ltot = ltot;
    auto r = db::ExplicitSimulator::RunOnce(c, spec, 42);
    EXPECT_TRUE(r.ok());
    return r->throughput;
  };
  EXPECT_GT(tp_prob(50), tp_prob(1));
  EXPECT_GT(tp_prob(50), tp_prob(5000));
  EXPECT_GT(tp_expl(50), tp_expl(1));
  EXPECT_GT(tp_expl(50), tp_expl(5000));
  // And the two engines' curves are within a factor of two pointwise.
  for (int64_t ltot : {1, 50, 500, 5000}) {
    const double p = tp_prob(ltot);
    const double e = tp_expl(ltot);
    EXPECT_LT(p, 2.0 * e) << "ltot=" << ltot;
    EXPECT_LT(e, 2.0 * p) << "ltot=" << ltot;
  }
}

TEST(CrossValidationTest, SerialCaseMatchesExactly) {
  // At ltot = 1 both engines block a request exactly when any transaction
  // is active, so they are the same stochastic system: over 16 seeds each,
  // their means must agree within 4 pooled standard errors. (At ltot =
  // dbsize they do not agree: under best placement the explicit engine's
  // throughput is 15-18% lower at npros 1, 10 and 30.)
  model::SystemConfig cfg = BaseConfig(2000.0);
  cfg.npros = 5;
  cfg.ltot = 1;
  const auto spec = workload::WorkloadSpec::Base(cfg);
  constexpr int kSeeds = 16;
  const char* const kNames[] = {"throughput", "response_time", "lockios"};
  sim::RunningStat prob[3];
  sim::RunningStat expl[3];
  for (uint64_t seed = 1; seed <= kSeeds; ++seed) {
    auto p = core::GranularitySimulator::RunOnce(cfg, spec, seed);
    auto e = db::ExplicitSimulator::RunOnce(cfg, spec, seed);
    ASSERT_TRUE(p.ok() && e.ok());
    EXPECT_LE(p->avg_active, 1.0 + 1e-9);
    EXPECT_LE(e->avg_active, 1.0 + 1e-9);
    const double pv[] = {p->throughput, p->response_time, p->lockios};
    const double ev[] = {e->throughput, e->response_time, e->lockios};
    for (int k = 0; k < 3; ++k) {
      prob[k].Add(pv[k]);
      expl[k].Add(ev[k]);
    }
  }
  for (int k = 0; k < 3; ++k) {
    const double se =
        std::sqrt((prob[k].Variance() + expl[k].Variance()) / kSeeds);
    const double diff = prob[k].Mean() - expl[k].Mean();
    EXPECT_GT(se, 0.0) << kNames[k];
    EXPECT_LE(std::abs(diff), 4.0 * se)
        << kNames[k] << ": probabilistic " << prob[k].Mean() << " vs explicit "
        << expl[k].Mean() << " (z=" << diff / se << ")";
  }
}

}  // namespace
}  // namespace granulock
