// The benchmark's workloads: a fixed grid of simulation cells per workload.
//
// A grid is a list of points. Each point is one engine configuration (an
// engine, a SystemConfig, a WorkloadSpec and engine options) run for
// `reps` replications. Replication seeds are derived from the point's base
// seed exactly as core::RunReplicated derives them, so a point run cell by
// cell and the same point run through RunReplicated produce bit-identical
// merged metrics. The workload seed given on the command line only feeds
// the base seeds: the engines see nothing but generated configs and
// derived cell seeds.
#ifndef PERFBENCH_GRID_H_
#define PERFBENCH_GRID_H_

#include <cstdint>
#include <string>
#include <vector>

#include "db/explicit_simulator.h"
#include "db/incremental_simulator.h"
#include "model/config.h"
#include "util/status.h"
#include "workload/workload.h"

namespace perfbench {

enum class Engine {
  kProbabilistic,  ///< core::GranularitySimulator (the paper's model)
  kExplicit,       ///< db::ExplicitSimulator (all-or-nothing lock tables)
  kIncremental,    ///< db::IncrementalSimulator (queued 2PL + policies)
};

const char* EngineName(Engine engine);

struct Point {
  std::string label;
  Engine engine = Engine::kProbabilistic;
  granulock::model::SystemConfig cfg;
  granulock::workload::WorkloadSpec spec;
  granulock::db::ExplicitSimulator::Options explicit_options;
  granulock::db::IncrementalSimulator::Options incremental_options;
  uint64_t base_seed = 0;
  /// One seed per replication, derived from `base_seed`.
  std::vector<uint64_t> cell_seeds;
};

struct Grid {
  std::string workload;
  std::vector<Point> points;
  /// Worker threads; > 1 only for the parallel workload, whose points run
  /// through core::RunReplicated on a core::ParallelRunner (its traced
  /// passes still run every cell serially).
  int threads = 1;
  bool parallel = false;

  int64_t CellCount() const;
};

/// Builds `workload`'s grid from `seed`. `max_threads` caps the parallel
/// workload's thread count (the hardware concurrency in practice).
granulock::Result<Grid> BuildGrid(const std::string& workload, uint64_t seed,
                                  int max_threads);

/// The replication seeds core::RunReplicated derives from `base_seed`.
std::vector<uint64_t> ReplicationSeeds(uint64_t base_seed, int reps);

}  // namespace perfbench

#endif  // PERFBENCH_GRID_H_
