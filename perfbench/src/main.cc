// granulock_perfbench: runs one workload's cell grid as a closed loop (one
// client issuing cells back to back) and prints one JSON object with the
// measurements. perfbench/run.py builds this binary, adds the set-up time
// and the machine fingerprint, and prints the benchmark's result line.
//
//   granulock_perfbench --workload=explicit_mgl --seed=1 --seconds=30
//                       [--trace] [--spans=PATH] [--setup-only]
//
// Untraced (default): one warm-up pass over the grid, then timed passes
// until --seconds have elapsed since the first cell started. Every cell's
// metrics are checked (checks.h), every pass must reproduce the warm-up
// pass's digest bit for bit, and one cell is run a further time and must
// match too.
//
// Traced (--trace): untraced passes for the reference wall time, then
// passes with an obs::MetricsRegistry attached to every engine and a span
// around every call the benchmark makes into a layer, then the layer
// replays of replay.h. Prints the per-layer metrics; --spans writes the
// spans. End-to-end metrics come only from untraced runs.
//
// --setup-only stops at the first cell and prints its start time, so the
// caller can time process start to first cell.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <iostream>
#include <limits>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "checks.h"
#include "core/experiment.h"
#include "core/granularity_simulator.h"
#include "core/parallel_runner.h"
#include "db/explicit_simulator.h"
#include "db/incremental_simulator.h"
#include "grid.h"
#include "obs/json_writer.h"
#include "obs/registry.h"
#include "replay.h"
#include "report.h"

namespace perfbench {
namespace {

namespace core = granulock::core;
namespace db = granulock::db;
namespace obs = granulock::obs;
using granulock::Result;
using granulock::Status;
using granulock::core::SimulationMetrics;

/// A cell slower than this counts as failed (timed out).
constexpr double kCellTimeoutS = 60.0;
/// Untraced runs time at least this many passes, whatever --seconds says.
constexpr int kMinTimedPasses = 3;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool setup_only = false;
  std::string spans_path;
  /// Self-test hook: perturbs this cell's metrics before they are checked,
  /// so the test can see the check fire. -1 disables.
  int64_t corrupt_cell = -1;
};

bool ParseArgs(int argc, char** argv, Args* args, std::string* error) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const size_t eq = arg.find('=');
    const std::string key = arg.substr(0, eq);
    const std::string value = eq == std::string::npos ? "" : arg.substr(eq + 1);
    char* end = nullptr;
    if (key == "--workload") {
      args->workload = value;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
      if (value.empty() || *end != '\0') {
        *error = "bad --seed: " + value;
        return false;
      }
    } else if (key == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
      if (value.empty() || *end != '\0' || !(args->seconds > 0.0)) {
        *error = "bad --seconds: " + value;
        return false;
      }
    } else if (key == "--trace") {
      args->trace = true;
    } else if (key == "--setup-only") {
      args->setup_only = true;
    } else if (key == "--spans") {
      args->spans_path = value;
    } else if (key == "--corrupt-cell") {
      args->corrupt_cell = std::strtoll(value.c_str(), &end, 10);
    } else {
      *error = "unknown flag: " + arg;
      return false;
    }
  }
  if (args->workload.empty()) {
    *error = "--workload is required";
    return false;
  }
  return true;
}

Result<SimulationMetrics> RunEngine(const Point& p, uint64_t seed,
                                    obs::MetricsRegistry* registry) {
  try {
    switch (p.engine) {
      case Engine::kProbabilistic: {
        core::GranularitySimulator::Options o;
        o.obs.registry = registry;
        core::GranularitySimulator engine(p.cfg, p.spec, seed, o);
        return engine.Run();
      }
      case Engine::kExplicit: {
        db::ExplicitSimulator::Options o = p.explicit_options;
        o.obs.registry = registry;
        return db::ExplicitSimulator::RunOnce(p.cfg, p.spec, seed, o);
      }
      case Engine::kIncremental: {
        db::IncrementalSimulator::Options o = p.incremental_options;
        o.obs.registry = registry;
        return db::IncrementalSimulator::RunOnce(p.cfg, p.spec, seed, o);
      }
    }
  } catch (const std::exception& e) {
    return Status::Internal(std::string("cell threw: ") + e.what());
  }
  return Status::Internal("unknown engine");
}

/// One pass over the grid.
struct PassResult {
  double wall_s = 0.0;
  double cpu_s = 0.0;
  int64_t totcom = 0;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<std::string> failures;
  /// Digest over every point's merged metrics, in grid order.
  uint64_t digest = kDigestSeed;
  /// Digest of each timed unit: a cell (serial) or a point (parallel).
  std::vector<uint64_t> unit_digests;
  std::vector<double> unit_ms;
  std::vector<double> unit_cpu_s;
  /// Traced passes: what each point's engines reported.
  std::vector<PointObservation> observations;
};

void RecordFailure(PassResult* r, int64_t cells, const std::string& where,
                   const std::string& what) {
  r->failed += cells;
  if (r->failures.size() < 8) r->failures.push_back(where + ": " + what);
}

void Observe(obs::MetricsRegistry& registry, const SimulationMetrics& m,
             PointObservation* o) {
  auto counter = [&](const char* name) {
    return registry.GetCounter(name)->value();
  };
  auto gauge = [&](const char* name) {
    return static_cast<int64_t>(registry.GetGauge(name)->value());
  };
  ++o->cells;
  o->events += gauge("sim.events_executed");
  o->queue_hwm = std::max(o->queue_hwm, gauge("sim.event_queue_hwm"));
  o->txn_created += counter("engine.txn_created");
  o->lock_requests += counter("engine.lock_requests");
  o->lock_grants += counter("engine.lock_grants");
  o->lock_denials += counter("engine.lock_denials");
  o->subtxns += counter("engine.subtxns_completed");
  o->deadlock_aborts += m.deadlock_aborts;
  o->totcom += m.totcom;
  o->avg_active += m.avg_active;
  o->avg_blocked += m.avg_blocked;
}

/// Runs every cell through its engine's Run/RunOnce, one after another.
/// With `spans` set the pass is traced: each engine gets a registry and
/// each call a span.
PassResult RunSerialPass(const Grid& grid, const Args& args, SpanLog* spans) {
  PassResult r;
  const bool traced = spans != nullptr;
  if (traced) r.observations.resize(grid.points.size());
  const int pass_span = traced ? spans->Begin("core.pass", -1) : -1;
  const double cpu0 = ProcessCpuSeconds();
  const int64_t t0 = MonotonicNs();
  int64_t cell = 0;
  for (size_t pi = 0; pi < grid.points.size(); ++pi) {
    const Point& p = grid.points[pi];
    SimulationMetrics merged;
    bool point_ok = true;
    for (uint64_t seed : p.cell_seeds) {
      const int64_t id = cell++;
      obs::MetricsRegistry registry;
      const int cell_span =
          traced ? spans->Begin("core.cell", static_cast<int>(id)) : -1;
      const int engine_span =
          traced ? spans->Begin("engine.run", static_cast<int>(id)) : -1;
      const double cell_cpu0 = ProcessCpuSeconds();
      const int64_t c0 = MonotonicNs();
      Result<SimulationMetrics> m =
          RunEngine(p, seed, traced ? &registry : nullptr);
      const double cell_s = static_cast<double>(MonotonicNs() - c0) * 1e-9;
      if (traced) spans->End(engine_span);
      r.unit_ms.push_back(cell_s * 1e3);
      r.unit_cpu_s.push_back(ProcessCpuSeconds() - cell_cpu0);
      ++r.attempted;
      std::string error;
      if (!m.ok()) {
        error = m.status().ToString();
      } else if (cell_s > kCellTimeoutS) {
        error = "timed out";
      } else {
        if (id == args.corrupt_cell) m->response_time *= 1.5;
        error = CheckMetrics(p, *m);
      }
      if (error.empty()) {
        merged.Accumulate(*m);
        r.unit_digests.push_back(FoldDigest(kDigestSeed, *m));
        if (traced) Observe(registry, *m, &r.observations[pi]);
      } else {
        RecordFailure(&r, 1, p.label, error);
        r.unit_digests.push_back(0);
        point_ok = false;
      }
      if (traced) spans->End(cell_span);
    }
    if (point_ok) {
      const int64_t reps = static_cast<int64_t>(p.cell_seeds.size());
      merged.FinalizeMeans(reps);
      r.digest = FoldDigest(r.digest, merged);
      r.totcom += merged.totcom * reps;
    }
  }
  r.wall_s = static_cast<double>(MonotonicNs() - t0) * 1e-9;
  r.cpu_s = ProcessCpuSeconds() - cpu0;
  if (traced) spans->End(pass_span);
  return r;
}

/// Runs every point through core::RunReplicated on `runner`: the point's
/// replications fan out across the workers and merge in replication order.
PassResult RunParallelPass(const Grid& grid, const Args& args,
                           core::ParallelRunner* runner) {
  PassResult r;
  const double cpu0 = ProcessCpuSeconds();
  const int64_t t0 = MonotonicNs();
  for (size_t pi = 0; pi < grid.points.size(); ++pi) {
    const Point& p = grid.points[pi];
    const int reps = static_cast<int>(p.cell_seeds.size());
    const double point_cpu0 = ProcessCpuSeconds();
    const int64_t c0 = MonotonicNs();
    Result<core::ReplicatedMetrics> m = core::RunReplicated(
        p.cfg, p.spec, p.base_seed, reps, core::GranularitySimulator::Options{},
        runner);
    const double point_s = static_cast<double>(MonotonicNs() - c0) * 1e-9;
    r.unit_ms.push_back(point_s * 1e3);
    r.unit_cpu_s.push_back(ProcessCpuSeconds() - point_cpu0);
    r.attempted += reps;
    std::string error;
    if (!m.ok()) {
      error = m.status().ToString();
    } else if (point_s > kCellTimeoutS) {
      error = "timed out";
    } else {
      if (static_cast<int64_t>(pi) == args.corrupt_cell) {
        m->mean.response_time *= 1.5;
      }
      error = CheckMetrics(p, m->mean);
    }
    if (error.empty()) {
      r.unit_digests.push_back(FoldDigest(kDigestSeed, m->mean));
      r.digest = FoldDigest(r.digest, m->mean);
      r.totcom += m->mean.totcom * reps;
    } else {
      RecordFailure(&r, reps, p.label, error);
      r.unit_digests.push_back(0);
    }
  }
  r.wall_s = static_cast<double>(MonotonicNs() - t0) * 1e-9;
  r.cpu_s = ProcessCpuSeconds() - cpu0;
  return r;
}

/// Cell accounting over a whole run.
struct Ledger {
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<std::string> failures;
  uint64_t expected_digest = 0;
  bool have_digest = false;

  /// Adds a pass; its digest must match the first pass's.
  void Add(const PassResult& pass, const char* kind) {
    attempted += pass.attempted;
    failed += pass.failed;
    for (const std::string& f : pass.failures) Note(f);
    if (!have_digest) {
      expected_digest = pass.digest;
      have_digest = true;
    } else if (pass.digest != expected_digest && pass.failed == 0) {
      // The digest cannot say which cell drifted: the whole pass fails.
      failed += pass.attempted;
      Note(std::string(kind) + " pass digest " + HexDigest(pass.digest) +
           " differs from the first pass's " + HexDigest(expected_digest));
    }
  }
  void Note(const std::string& f) {
    if (failures.size() < 8) failures.push_back(f);
  }
};

/// Repeats `pass` until `deadline_ns` would be overrun by one more pass,
/// but at least `min_passes` times.
std::vector<PassResult> RunPasses(const std::function<PassResult()>& pass,
                                  int64_t deadline_ns, int min_passes,
                                  Ledger* ledger, const char* kind) {
  std::vector<PassResult> out;
  while (static_cast<int>(out.size()) < min_passes ||
         MonotonicNs() + static_cast<int64_t>(out.back().wall_s * 1e9) <
             deadline_ns) {
    out.push_back(pass());
    ledger->Add(out.back(), kind);
  }
  return out;
}

/// Runs one timed unit again, outside any pass, and checks it reproduces
/// the first pass's result bit for bit.
void RerunOneUnit(const Grid& grid, const Args& args,
                  core::ParallelRunner* runner, const PassResult& first,
                  Ledger* ledger) {
  const size_t unit = static_cast<size_t>(args.seed % first.unit_digests.size());
  uint64_t digest = 0;
  std::string where;
  if (grid.parallel) {
    const Point& p = grid.points[unit];
    where = p.label;
    Result<core::ReplicatedMetrics> m = core::RunReplicated(
        p.cfg, p.spec, p.base_seed, static_cast<int>(p.cell_seeds.size()),
        core::GranularitySimulator::Options{}, runner);
    if (m.ok()) digest = FoldDigest(kDigestSeed, m->mean);
  } else {
    size_t cell = 0;
    for (const Point& p : grid.points) {
      if (unit < cell + p.cell_seeds.size()) {
        where = p.label;
        Result<SimulationMetrics> m =
            RunEngine(p, p.cell_seeds[unit - cell], nullptr);
        if (m.ok()) digest = FoldDigest(kDigestSeed, *m);
        break;
      }
      cell += p.cell_seeds.size();
    }
  }
  ++ledger->attempted;
  if (first.unit_digests[unit] == 0 || digest != first.unit_digests[unit]) {
    ++ledger->failed;
    ledger->Note(where + ": rerun is not bit-identical to the first run");
  }
}

uint64_t InputsDigest(const Grid& grid) {
  std::ostringstream s;
  for (const Point& p : grid.points) {
    const auto& e = p.explicit_options;
    const auto& i = p.incremental_options;
    s << p.label << '|' << EngineName(p.engine) << '|' << p.cfg.ToString()
      << '|' << p.spec.Describe() << '|' << static_cast<int>(e.strategy)
      << ',' << e.coarse_threshold << ',' << e.num_files << ','
      << e.escalation_threshold << ',' << e.read_fraction << '|'
      << static_cast<int>(i.contention.policy) << ','
      << i.contention.admission.enabled << '|';
    for (uint64_t seed : p.cell_seeds) s << seed << ',';
    s << '\n';
  }
  const std::string text = s.str();
  return FoldBytes(kDigestSeed, text.data(), text.size());
}

void WriteMetric(obs::JsonWriter& w, const char* name, double value,
                 const char* unit) {
  w.Key(name).BeginObject();
  w.Key("value").Value(value);
  w.Key("unit").Value(unit);
  w.EndObject();
}

/// The grid at its steadiest: every timed unit at its fastest.
struct FastestGrid {
  double wall_s = 0.0;
  double cpu_s = 0.0;
  std::vector<double> unit_ms;
};

/// Other tenants of a shared host only ever slow the benchmark down, and
/// on a busy host they do so for seconds at a time, so a median over
/// passes follows the neighbours. Every pass runs the same units, so each
/// unit's time is taken as its minimum over the passes (the same for its
/// CPU time). The grid's time is the sum of those minima plus the
/// smallest time any pass spent outside its units (checks, digests).
FastestGrid Fastest(const std::vector<PassResult>& passes) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  FastestGrid g;
  g.unit_ms.assign(passes.front().unit_ms.size(), kInf);
  std::vector<double> unit_cpu(g.unit_ms.size(), kInf);
  double wall_outside = kInf;
  double cpu_outside = kInf;
  for (const PassResult& p : passes) {
    double wall_in = 0.0;
    double cpu_in = 0.0;
    for (size_t u = 0; u < p.unit_ms.size(); ++u) {
      g.unit_ms[u] = std::min(g.unit_ms[u], p.unit_ms[u]);
      unit_cpu[u] = std::min(unit_cpu[u], p.unit_cpu_s[u]);
      wall_in += p.unit_ms[u] * 1e-3;
      cpu_in += p.unit_cpu_s[u];
    }
    wall_outside = std::min(wall_outside, p.wall_s - wall_in);
    cpu_outside = std::min(cpu_outside, p.cpu_s - cpu_in);
  }
  for (size_t u = 0; u < g.unit_ms.size(); ++u) {
    g.wall_s += g.unit_ms[u] * 1e-3;
    g.cpu_s += unit_cpu[u];
  }
  g.wall_s += std::max(0.0, wall_outside);
  g.cpu_s += std::max(0.0, cpu_outside);
  return g;
}

void WriteEndToEnd(obs::JsonWriter& w, const std::vector<PassResult>& passes,
                   double peak_rss_mib) {
  const FastestGrid g = Fastest(passes);
  w.Key("metrics").BeginObject();
  WriteMetric(w, "sim_txns_per_s",
              static_cast<double>(passes.front().totcom) / g.wall_s, "txn/s");
  WriteMetric(w, "wall_s", g.wall_s, "s");
  WriteMetric(w, "cell_p50_ms", Quantile(g.unit_ms, 0.5), "ms");
  WriteMetric(w, "cell_p90_ms", Quantile(g.unit_ms, 0.9), "ms");
  WriteMetric(w, "cpu_s", g.cpu_s, "s");
  WriteMetric(w, "peak_rss_mb", peak_rss_mib, "MiB");
  w.EndObject();
  w.Key("cell_samples").Value(static_cast<int64_t>(g.unit_ms.size()));
  w.Key("pass_wall_s").BeginArray();
  for (const PassResult& p : passes) w.Value(p.wall_s);
  w.EndArray();
}

/// Count-weighted mean price: what one operation cost on average where
/// the workload performed it; the plain mean over points where it never
/// did (the layer is idle on this workload, but its price is still
/// measured).
double WeightedPrice(const std::vector<Counts>& counts,
                     const std::vector<Prices>& prices, double Counts::*count,
                     double Prices::*price) {
  double weight = 0.0;
  double total = 0.0;
  double plain = 0.0;
  for (size_t i = 0; i < counts.size(); ++i) {
    weight += counts[i].*count;
    total += counts[i].*count * prices[i].*price;
    plain += prices[i].*price;
  }
  if (weight > 0.0) return total / weight;
  return counts.empty() ? 0.0 : plain / static_cast<double>(counts.size());
}

double LayerNs(const std::vector<Counts>& counts,
               const std::vector<Prices>& prices,
               std::initializer_list<std::pair<double Counts::*,
                                               double Prices::*>> terms) {
  double ns = 0.0;
  for (size_t i = 0; i < counts.size(); ++i) {
    for (const auto& [count, price] : terms) {
      ns += counts[i].*count * prices[i].*price;
    }
  }
  return ns;
}

void WritePerLayer(obs::JsonWriter& w, const Grid& grid,
                   const std::vector<PointObservation>& observations,
                   const std::vector<Prices>& prices, double engine_run_s,
                   double workload_wall_s, double untraced_serial_wall_s,
                   double traced_wall_s) {
  std::vector<Counts> counts;
  PointObservation sum;
  for (size_t i = 0; i < observations.size(); ++i) {
    const PointObservation& o = observations[i];
    counts.push_back(CountOperations(grid.points[i], o));
    sum.cells += o.cells;
    sum.events += o.events;
    sum.queue_hwm = std::max(sum.queue_hwm, o.queue_hwm);
    sum.txn_created += o.txn_created;
    sum.deadlock_aborts += o.deadlock_aborts;
    sum.totcom += o.totcom;
    if (grid.points[i].engine != Engine::kProbabilistic) {
      sum.lock_requests += o.lock_requests;
      sum.lock_grants += o.lock_grants;
    }
  }
  double server_jobs = 0.0;
  double conflict_draws = 0.0;
  for (const Counts& c : counts) {
    server_jobs += c.server_jobs;
    conflict_draws += c.conflict_draws;
  }
  const double engine_ns = engine_run_s * 1e9;
  using C = Counts;
  using P = Prices;
  const double shares[] = {
      LayerNs(counts, prices,
              {{&C::events, &P::event}, {&C::server_jobs, &P::server_job}}) /
          engine_ns,
      LayerNs(counts, prices, {{&C::conflict_draws, &P::conflict_draw}}) /
          engine_ns,
      LayerNs(counts, prices,
              {{&C::txns, &P::txn}, {&C::factory_builds, &P::factory_build}}) /
          engine_ns,
      LayerNs(counts, prices,
              {{&C::acquire_all, &P::acquire_all},
               {&C::queued_acquires, &P::queued_acquire},
               {&C::cycle_checks, &P::cycle_check}}) /
          engine_ns,
      LayerNs(counts, prices,
              {{&C::select_granules, &P::select_granules},
               {&C::waits_for_builds, &P::waits_for_build}}) /
          engine_ns,
  };
  double attributed = 0.0;
  for (double s : shares) attributed += s;
  const double totcom = static_cast<double>(sum.totcom);

  w.Key("per_layer").BeginObject();
  WriteMetric(w, "core.cells", static_cast<double>(sum.cells), "count");
  WriteMetric(w, "core.engine_run_s", engine_run_s, "s");
  WriteMetric(w, "core.parallel_efficiency",
              engine_run_s / (grid.threads * workload_wall_s), "ratio");
  WriteMetric(w, "core.unattributed_share", 1.0 - attributed, "ratio");
  WriteMetric(w, "sim.events", static_cast<double>(sum.events), "count");
  WriteMetric(w, "sim.events_per_txn",
              totcom > 0 ? static_cast<double>(sum.events) / totcom : 0.0,
              "count");
  WriteMetric(w, "sim.queue_hwm", static_cast<double>(sum.queue_hwm), "count");
  WriteMetric(w, "sim.server_jobs", server_jobs, "count");
  WriteMetric(w, "sim.ns_per_event",
              WeightedPrice(counts, prices, &C::events, &P::event), "ns");
  WriteMetric(w, "sim.ns_per_server_job",
              WeightedPrice(counts, prices, &C::server_jobs, &P::server_job),
              "ns");
  WriteMetric(w, "sim.share", shares[0], "ratio");
  WriteMetric(w, "model.conflict_draws", conflict_draws, "count");
  WriteMetric(w, "model.ns_per_conflict_draw",
              WeightedPrice(counts, prices, &C::conflict_draws,
                            &P::conflict_draw),
              "ns");
  WriteMetric(w, "model.share", shares[1], "ratio");
  WriteMetric(w, "workload.txns_generated",
              static_cast<double>(sum.txn_created), "count");
  WriteMetric(w, "workload.ns_per_txn",
              WeightedPrice(counts, prices, &C::txns, &P::txn), "ns");
  WriteMetric(w, "workload.factory_build_ms",
              WeightedPrice(counts, prices, &C::factory_builds,
                            &P::factory_build) *
                  1e-6,
              "ms");
  WriteMetric(w, "workload.share", shares[2], "ratio");
  WriteMetric(w, "lockmgr.acquire_calls",
              static_cast<double>(sum.lock_requests), "count");
  WriteMetric(w, "lockmgr.grant_ratio",
              sum.lock_requests > 0
                  ? static_cast<double>(sum.lock_grants) /
                        static_cast<double>(sum.lock_requests)
                  : 0.0,
              "ratio");
  WriteMetric(w, "lockmgr.ns_per_acquire_all",
              WeightedPrice(counts, prices, &C::acquire_all, &P::acquire_all),
              "ns");
  WriteMetric(w, "lockmgr.ns_per_queued_acquire",
              WeightedPrice(counts, prices, &C::queued_acquires,
                            &P::queued_acquire),
              "ns");
  WriteMetric(w, "lockmgr.ns_per_cycle_check",
              WeightedPrice(counts, prices, &C::cycle_checks, &P::cycle_check),
              "ns");
  WriteMetric(w, "lockmgr.share", shares[3], "ratio");
  WriteMetric(w, "db.ns_per_select_granules",
              WeightedPrice(counts, prices, &C::select_granules,
                            &P::select_granules),
              "ns");
  WriteMetric(w, "db.ns_per_waits_for_build",
              WeightedPrice(counts, prices, &C::waits_for_builds,
                            &P::waits_for_build),
              "ns");
  WriteMetric(w, "db.aborts", static_cast<double>(sum.deadlock_aborts),
              "count");
  WriteMetric(w, "db.commit_ratio",
              totcom / (totcom + static_cast<double>(sum.deadlock_aborts)),
              "ratio");
  WriteMetric(w, "db.share", shares[4], "ratio");
  WriteMetric(w, "obs.trace_overhead",
              traced_wall_s / untraced_serial_wall_s - 1.0, "ratio");
  w.EndObject();
}

int Main(int argc, char** argv) {
  Args args;
  std::string error;
  if (!ParseArgs(argc, argv, &args, &error)) {
    std::fprintf(stderr, "granulock_perfbench: %s\n", error.c_str());
    return 2;
  }
  const int hardware = static_cast<int>(
      std::max(1u, std::thread::hardware_concurrency()));
  Result<Grid> built = BuildGrid(args.workload, args.seed, hardware);
  if (!built.ok()) {
    std::fprintf(stderr, "granulock_perfbench: %s\n",
                 built.status().ToString().c_str());
    return 2;
  }
  const Grid& grid = *built;
  core::ParallelRunner runner(grid.threads);
  if (grid.threads > 1) {
    // Start the workers now: thread-pool start is set-up, not cell time.
    runner.ParallelFor(static_cast<size_t>(grid.threads), [](size_t) {});
  }
  const int64_t first_cell_ns = MonotonicNs();

  std::ostringstream out;
  obs::JsonWriter w(out);
  w.BeginObject();
  w.Key("workload").Value(grid.workload);
  w.Key("seed").Value(args.seed);
  w.Key("threads").Value(grid.threads);
  w.Key("cells_per_pass").Value(grid.CellCount());
  w.Key("first_cell_ns").Value(first_cell_ns);
  w.Key("inputs_digest").Value(HexDigest(InputsDigest(grid)));
  if (args.setup_only) {
    w.EndObject();
    std::cout << out.str() << std::endl;
    return 0;
  }

  const int64_t seconds_ns = static_cast<int64_t>(args.seconds * 1e9);
  auto serial = [&] { return RunSerialPass(grid, args, nullptr); };
  auto parallel = [&] { return RunParallelPass(grid, args, &runner); };
  const std::function<PassResult()> workload_pass =
      grid.parallel ? std::function<PassResult()>(parallel)
                    : std::function<PassResult()>(serial);

  Ledger ledger;
  const PassResult warmup = workload_pass();
  ledger.Add(warmup, "warm-up");
  RerunOneUnit(grid, args, &runner, warmup, &ledger);

  if (!args.trace) {
    const std::vector<PassResult> passes =
        RunPasses(workload_pass, first_cell_ns + seconds_ns, kMinTimedPasses,
                  &ledger, "timed");
    WriteEndToEnd(w, passes, PeakRssMiB());
    w.Key("passes").Value(static_cast<int64_t>(passes.size()));
  } else {
    // Budget: 15% parallel passes (parallel workload only), 25% untraced
    // serial reference passes, 30% traced passes, the rest for the layer
    // replays; each phase runs at least once.
    SpanLog spans;
    double workload_wall_s = 0.0;
    if (grid.parallel) {
      workload_wall_s =
          Fastest(RunPasses(workload_pass,
                            MonotonicNs() + seconds_ns * 15 / 100, 1, &ledger,
                            "parallel"))
              .wall_s;
    }
    const double untraced_wall_s =
        Fastest(RunPasses(serial, MonotonicNs() + seconds_ns * 25 / 100, 1,
                          &ledger, "untraced"))
            .wall_s;
    if (!grid.parallel) workload_wall_s = untraced_wall_s;
    const std::vector<PassResult> traced = RunPasses(
        [&] { return RunSerialPass(grid, args, &spans); },
        MonotonicNs() + seconds_ns * 30 / 100, 1, &ledger, "traced");
    const double replay_s = std::max(0.2 * args.seconds,
                                     static_cast<double>(first_cell_ns +
                                                         seconds_ns -
                                                         MonotonicNs()) *
                                         1e-9);
    // Like the cells, every price is the fastest of several rounds spread
    // over the replay phase.
    constexpr int kReplayRounds = 3;
    const double budget_per_op = std::clamp(
        replay_s / (10.0 * kReplayRounds *
                    static_cast<double>(grid.points.size())),
        2e-4, 2e-2);
    const int replay_span = spans.Begin("replay", -1);
    std::vector<Prices> prices(grid.points.size());
    for (int round = 0; round < kReplayRounds; ++round) {
      for (size_t i = 0; i < grid.points.size(); ++i) {
        const Prices p = PricePoint(grid.points[i],
                                    traced.back().observations[i],
                                    budget_per_op, args.seed, &spans);
        prices[i] = round == 0 ? p : FasterOf(prices[i], p);
      }
    }
    spans.End(replay_span);
    // Serial passes time one unit per engine call, so the fastest units
    // add up to the engine time.
    const FastestGrid traced_grid = Fastest(traced);
    double engine_run_s = 0.0;
    for (double ms : traced_grid.unit_ms) engine_run_s += ms * 1e-3;
    WritePerLayer(w, grid, traced.back().observations, prices, engine_run_s,
                  workload_wall_s, untraced_wall_s, traced_grid.wall_s);
    if (!args.spans_path.empty() &&
        !spans.WriteJson(args.spans_path, grid.workload)) {
      ledger.Note("cannot write spans to " + args.spans_path);
      ++ledger.failed;
    }
  }

  w.Key("digest").Value(HexDigest(ledger.expected_digest));
  w.Key("attempted").Value(ledger.attempted);
  w.Key("failed").Value(ledger.failed);
  w.Key("failures").BeginArray();
  for (const std::string& f : ledger.failures) w.Value(f);
  w.EndArray();
  std::string reason;
  const bool valid = BuildIsValidForTiming(&reason);
  w.Key("build").BeginObject();
  WriteBuildFacts(w);
  w.Key("valid").Value(valid);
  w.Key("invalid_reason").Value(reason);
  w.EndObject();
  w.EndObject();
  std::cout << out.str() << std::endl;
  return ledger.failed == 0 && valid ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
