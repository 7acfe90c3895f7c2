// Quickstart: simulate the paper's base system once and print every output
// metric.
//
//   $ ./quickstart [--ltot=N] [--npros=N] [--tmax=T] [--seed=S]
//                  [--trace=FILE]    # dump the transaction lifecycle CSV
//
// The three-step pattern below — build a SystemConfig, describe the
// workload with a WorkloadSpec, call GranularitySimulator::RunOnce — is
// the whole public API needed for basic use.

#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <sstream>

#include "core/granularity_simulator.h"
#include "sim/trace.h"
#include "util/fileio.h"
#include "util/flags.h"

int main(int argc, char** argv) {
  using namespace granulock;

  // 1. System parameters (Table 1 of the paper), overridable from flags.
  model::SystemConfig cfg = model::SystemConfig::Table1Defaults();
  int64_t seed = 42;
  std::string trace_path;
  FlagParser parser;
  parser.AddInt64("ltot", &cfg.ltot, 100, "number of locks (granules)");
  parser.AddInt64("npros", &cfg.npros, 10, "number of processors");
  parser.AddInt64("ntrans", &cfg.ntrans, 10, "closed-system transactions");
  parser.AddInt64("maxtransize", &cfg.maxtransize, 500,
                  "maximum transaction size");
  parser.AddDouble("tmax", &cfg.tmax, 10000.0, "simulated time units");
  parser.AddInt64("seed", &seed, 42, "PRNG seed");
  parser.AddString("trace", &trace_path, "",
                   "write the transaction lifecycle trace to this CSV file");
  const Status flag_status = parser.Parse(argc, argv);
  if (flag_status.code() == StatusCode::kFailedPrecondition) return 0;
  if (!flag_status.ok()) {
    std::cerr << flag_status << "\n" << parser.UsageString(argv[0]);
    return 1;
  }

  // 2. Workload: uniform sizes, best placement, horizontal partitioning —
  //    the paper's base workload.
  const workload::WorkloadSpec spec = workload::WorkloadSpec::Base(cfg);

  std::printf("simulating: %s\n", cfg.ToString().c_str());
  std::printf("workload:   %s\n\n", spec.Describe().c_str());

  // 3. Run and report (optionally with the lifecycle tracer attached).
  sim::TraceRecorder trace;
  core::GranularitySimulator::Options options;
  if (!trace_path.empty()) options.obs.trace = &trace;
  const Result<core::SimulationMetrics> result =
      core::GranularitySimulator::RunOnce(cfg, spec,
                                          static_cast<uint64_t>(seed),
                                          options);
  if (!result.ok()) {
    std::cerr << "simulation failed: " << result.status() << "\n";
    return 1;
  }
  std::printf("%s", result->ToString().c_str());
  if (!trace_path.empty()) {
    std::ostringstream out;
    trace.WriteCsv(out);
    const Status ws = WriteFileAtomic(trace_path, out.str());
    if (!ws.ok()) {
      std::cerr << "cannot write " << trace_path << ": " << ws << "\n";
      return 1;
    }
    std::printf("trace             %zu events -> %s\n",
                trace.events().size(), trace_path.c_str());
  }
  return 0;
}
