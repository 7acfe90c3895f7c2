#include "grid.h"

#include <algorithm>

#include "core/experiment.h"
#include "db/contention_policy.h"
#include "model/placement.h"
#include "util/random.h"
#include "util/strings.h"
#include "workload/size_distribution.h"

namespace perfbench {

using granulock::Result;
using granulock::Rng;
using granulock::Status;
using granulock::StrFormat;
namespace model = granulock::model;
namespace workload = granulock::workload;
namespace db = granulock::db;

namespace {

// Simulated horizon per cell. Every cell still executes thousands of
// events, but a grid pass takes only about a second: each cell's time is
// its minimum over the passes of a run, so more passes per run make the
// figures steadier on a busy host. At tmax=250 an incremental pass took
// three to four seconds, and its cell p90 spread past its bound.
constexpr double kPaperTmax = 250.0;
constexpr double kExplicitTmax = 1000.0;
constexpr double kIncrementalTmax = 125.0;

// Replications per point. The paper grid uses four so that the parallel
// workload's RunReplicated calls can keep four workers busy; every grid
// has at least 100 timed units, so that more than ten lie beyond p90.
constexpr int kPaperReps = 4;
constexpr int kExplicitReps = 3;
constexpr int kIncrementalReps = 9;

constexpr int kParallelThreads = 4;

void AddPoint(Grid* grid, Point point, int reps, uint64_t seed) {
  // Point i's base seed is stream i of the workload seed, so every point
  // draws from its own stream and the whole grid follows from one number.
  const size_t index = grid->points.size();
  point.base_seed = Rng(seed).Fork(static_cast<uint64_t>(index)).NextUint64();
  point.cell_seeds = ReplicationSeeds(point.base_seed, reps);
  grid->points.push_back(std::move(point));
}

// The paper's reproduction: fig02's processor sweep and fig12's placement
// sweep under heavy load, each over the standard lock-count grid.
void BuildPaperSweep(Grid* grid, uint64_t seed) {
  const model::SystemConfig table1 = model::SystemConfig::Table1Defaults();
  for (int64_t npros : {1, 2, 5, 10, 20, 30}) {
    for (int64_t ltot : granulock::core::StandardLockSweep(table1.dbsize)) {
      Point p;
      p.engine = Engine::kProbabilistic;
      p.cfg = table1;
      p.cfg.npros = npros;
      p.cfg.ltot = ltot;
      p.cfg.tmax = kPaperTmax;
      p.spec = workload::WorkloadSpec::Base(p.cfg);
      p.label = StrFormat("fig02/npros=%lld/ltot=%lld", (long long)npros,
                          (long long)ltot);
      AddPoint(grid, std::move(p), kPaperReps, seed);
    }
  }
  for (model::Placement placement :
       {model::Placement::kBest, model::Placement::kRandom,
        model::Placement::kWorst}) {
    for (int64_t ltot : granulock::core::StandardLockSweep(table1.dbsize)) {
      Point p;
      p.engine = Engine::kProbabilistic;
      p.cfg = table1;
      p.cfg.ntrans = 200;
      p.cfg.npros = 20;
      p.cfg.maxtransize = 500;
      p.cfg.ltot = ltot;
      p.cfg.tmax = kPaperTmax;
      p.spec = workload::WorkloadSpec::Base(p.cfg);
      p.spec.placement = placement;
      p.label = StrFormat("fig12/%s/ltot=%lld",
                          model::PlacementToString(placement),
                          (long long)ltot);
      AddPoint(grid, std::move(p), kPaperReps, seed);
    }
  }
}

// §3.6's 80/20 mix on the explicit lock table: flat granule locks,
// hierarchical locks with a coarse threshold, and hierarchical locks with
// 50 files and per-file escalation.
void BuildExplicitMgl(Grid* grid, uint64_t seed) {
  model::SystemConfig base = model::SystemConfig::Table1Defaults();
  base.npros = 10;
  base.maxtransize = 500;
  base.tmax = kExplicitTmax;
  workload::WorkloadSpec spec;
  spec.sizes = workload::MakeSmallLargeMix(0.8, 50, 500);
  spec.placement = model::Placement::kRandom;
  spec.partitioning = workload::PartitioningMethod::kHorizontal;
  using Strategy = db::ExplicitSimulator::LockingStrategy;
  for (int variant = 0; variant < 3; ++variant) {
    for (int64_t ltot : granulock::core::StandardLockSweep(base.dbsize)) {
      Point p;
      p.engine = Engine::kExplicit;
      p.cfg = base;
      p.cfg.ltot = ltot;
      p.spec = spec;
      db::ExplicitSimulator::Options& o = p.explicit_options;
      o.read_fraction = 0.25;
      const char* name = "flat";
      if (variant >= 1) {
        o.strategy = Strategy::kHierarchical;
        o.coarse_threshold = 250;
        name = "mgl";
      }
      if (variant == 2) {
        o.num_files = std::min<int64_t>(50, ltot);
        o.escalation_threshold = 20;
        name = "mgl_files";
      }
      p.label = StrFormat("%s/ltot=%lld", name, (long long)ltot);
      AddPoint(grid, std::move(p), kExplicitReps, seed);
    }
  }
}

// The policy shootout's think-time workload under incremental 2PL, from
// below the thrashing knee (MPL 8) to deep in it (MPL 64).
void BuildIncremental2pl(Grid* grid, uint64_t seed) {
  model::SystemConfig base = model::SystemConfig::Table1Defaults();
  base.ltot = 100;
  base.maxtransize = 20;
  base.think_time = 5.0;
  base.tmax = kIncrementalTmax;
  struct Series {
    const char* name;
    db::ContentionPolicyKind policy;
    bool admission;
  };
  const Series series[] = {
      {"detect", db::ContentionPolicyKind::kDetectRequester, false},
      {"wait_die", db::ContentionPolicyKind::kWaitDie, false},
      {"wait_depth", db::ContentionPolicyKind::kWaitDepth, false},
      {"detect+admission", db::ContentionPolicyKind::kDetectRequester, true},
  };
  for (const Series& s : series) {
    for (int64_t mpl : {8, 24, 64}) {
      Point p;
      p.engine = Engine::kIncremental;
      p.cfg = base;
      p.cfg.ntrans = mpl;
      p.spec = workload::WorkloadSpec::Base(p.cfg);
      p.spec.placement = model::Placement::kWorst;
      p.incremental_options.contention.policy = s.policy;
      p.incremental_options.contention.admission.enabled = s.admission;
      p.label = StrFormat("%s/mpl=%lld", s.name, (long long)mpl);
      AddPoint(grid, std::move(p), kIncrementalReps, seed);
    }
  }
}

}  // namespace

const char* EngineName(Engine engine) {
  switch (engine) {
    case Engine::kProbabilistic:
      return "probabilistic";
    case Engine::kExplicit:
      return "explicit";
    case Engine::kIncremental:
      return "incremental";
  }
  return "?";
}

int64_t Grid::CellCount() const {
  int64_t n = 0;
  for (const Point& p : points) n += static_cast<int64_t>(p.cell_seeds.size());
  return n;
}

std::vector<uint64_t> ReplicationSeeds(uint64_t base_seed, int reps) {
  Rng seeder(base_seed);
  std::vector<uint64_t> seeds;
  for (int r = 0; r < reps; ++r) {
    seeds.push_back(seeder.Fork(static_cast<uint64_t>(r)).NextUint64());
  }
  return seeds;
}

Result<Grid> BuildGrid(const std::string& workload, uint64_t seed,
                       int max_threads) {
  Grid grid;
  grid.workload = workload;
  if (workload == "paper_sweep_parallel") {
    BuildPaperSweep(&grid, seed);
    grid.parallel = true;
    grid.threads = std::max(1, std::min(kParallelThreads, max_threads));
  } else if (workload == "explicit_mgl") {
    BuildExplicitMgl(&grid, seed);
  } else if (workload == "incremental_2pl") {
    BuildIncremental2pl(&grid, seed);
  } else {
    return Status::InvalidArgument("unknown workload: " + workload);
  }
  for (const Point& p : grid.points) {
    Status s = p.cfg.Validate();
    if (s.ok()) s = p.spec.Validate(p.cfg);
    if (!s.ok()) return s;
  }
  return grid;
}

}  // namespace perfbench
