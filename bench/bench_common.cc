#include "bench/bench_common.h"

#include <atomic>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <sstream>

#include "core/checkpoint.h"
#include "core/fault.h"
#include "obs/json_writer.h"
#include "sim/invariants.h"
#include "util/fileio.h"
#include "util/logging.h"
#include "util/strings.h"
#include "util/wall_clock.h"

namespace granulock::bench {

void BenchArgs::Register(FlagParser& parser) {
  parser.AddInt64("seed", &seed, 42, "base PRNG seed");
  parser.AddInt64("reps", &reps, 1, "replications per sweep point");
  parser.AddDouble("tmax", &tmax, 10000.0, "simulated time units per run");
  parser.AddDouble("warmup", &warmup, 0.0,
                   "time units discarded before measuring");
  parser.AddInt64("threads", &threads, 1,
                  "worker threads for (sweep point x replication) fan-out; "
                  "0 = hardware concurrency. Results are bit-identical for "
                  "any thread count");
  parser.AddBool("csv", &csv, false, "emit CSV instead of aligned tables");
  parser.AddBool("quick", &quick, false, "shrink tmax 10x for a smoke run");
  parser.AddBool("json_out", &json_out, false,
                 "also write BENCH_<id>.json with the full result grid");
  parser.AddBool("profile_contention", &profile_contention, false,
                 "re-run each surviving sweep cell with the contention "
                 "profiler attached: per-granule wait attribution, "
                 "mode-conflict matrix, blocking-chain depths, waits-for "
                 "snapshots (BENCH_<id>.waitsfor.dot), the contention time "
                 "series (BENCH_<id>.contention.csv), and the thrashing "
                 "boundary; adds a 'contention' section to --json_out");
  parser.AddBool("audit", &audit, false,
                 "run deep invariant audits at every quiescent point "
                 "(slower; aborts on the first violated invariant)");
  parser.AddString("log_level", &log_level, "info",
                   "minimum log severity: debug|info|warning|error");
  parser.AddBool("checkpoint", &checkpoint, false,
                 "journal each completed (point x replication) cell to "
                 "BENCH_<id>.ckpt.jsonl as the run goes");
  parser.AddBool("resume", &resume, false,
                 "reuse cells journaled by an earlier interrupted run "
                 "(implies --checkpoint); results are byte-identical to an "
                 "uninterrupted run");
  parser.AddString("checkpoint_path", &checkpoint_path, "",
                   "override the checkpoint journal path");
  parser.AddInt64("max_cell_retries", &max_cell_retries, 0,
                  "re-run a failed cell up to this many extra times with "
                  "the same derived seed");
  parser.AddBool("allow_partial", &allow_partial, false,
                 "keep running past failed cells; the report carries a "
                 "structured failure summary instead of aborting");
  parser.AddDouble("cell_timeout_s", &cell_timeout_s, 0.0,
                   "wall-clock budget per cell attempt, enforced at "
                   "deterministic simulated-time boundaries; 0 = none");
  parser.AddString("fault_inject", &fault_inject, "",
                   "arm a deterministic fault: <point>@<hit>[xN][:key=<u64>] "
                   "with points cell_throw, cell_timeout, cell_audit_fail, "
                   "write_short_write, signal_mid_sweep, policy_victim_flip");
  parser.AddString("policy", &policy, "detect",
                   "contention-resolution policy for the incremental "
                   "engine: detect (requester aborts on a cycle; the "
                   "bit-identical default), detect_fewest_locks, "
                   "detect_youngest, wound_wait, wait_die, wait_depth");
  parser.AddDouble("backoff_factor", &backoff_factor, 1.0,
                   "multiply the restart-backoff mean by this per restart "
                   "of the same transaction (>= 1; 1 = fixed mean, the "
                   "historical behavior)");
  parser.AddDouble("backoff_cap", &backoff_cap, 0.0,
                   "upper bound on the grown backoff mean; 0 = uncapped");
  parser.AddInt64("max_restarts", &max_restarts, -1,
                  "per-transaction restart budget; a victim past it is "
                  "sacrificed (terminal abort, replaced by a fresh "
                  "transaction); -1 = unlimited");
  parser.AddBool("admission", &admission, false,
                 "enable the MPL admission controller (blocked-fraction "
                 "feedback with hysteretic recovery) in the incremental "
                 "engine");
}

db::ContentionOptions BenchArgs::Contention() const {
  db::ContentionOptions out;
  const Result<db::ContentionPolicyKind> kind =
      db::ParseContentionPolicy(policy);
  GRANULOCK_CHECK(kind.ok()) << kind.status();  // ParseArgsOrDie validated
  out.policy = *kind;
  out.governor.backoff_factor = backoff_factor;
  out.governor.max_backoff = backoff_cap;
  out.governor.max_restarts = max_restarts;
  out.admission.enabled = admission;
  return out;
}

bool BenchArgs::ContentionIsDefault() const {
  return policy == "detect" && backoff_factor == 1.0 && backoff_cap == 0.0 &&
         max_restarts == -1 && !admission;
}

std::string BenchArgs::DescribeContention() const {
  return StrFormat("policy=%s;bf=%.17g;bc=%.17g;mr=%lld;adm=%d",
                   policy.c_str(), backoff_factor, backoff_cap,
                   (long long)max_restarts, admission ? 1 : 0);
}

void BenchArgs::Apply(model::SystemConfig* cfg) const {
  cfg->tmax = quick ? tmax / 10.0 : tmax;
  cfg->warmup = quick ? warmup / 10.0 : warmup;
}

std::string BenchArgs::JournalPath(const std::string& experiment_id) const {
  if (!checkpoint_path.empty()) return checkpoint_path;
  return StrFormat("BENCH_%s.ckpt.jsonl", experiment_id.c_str());
}

namespace {

// Set from the signal handlers; read by cells at watchdog polls and by the
// figure driver between cells. Async-signal-safe: the handler only stores
// to lock-free atomics.
std::atomic<bool> g_interrupt{false};
std::atomic<int> g_signal{0};

void OnTerminationSignal(int sig) {
  g_interrupt.store(true, std::memory_order_relaxed);
  g_signal.store(sig, std::memory_order_relaxed);
}

bool Interrupted() { return g_interrupt.load(std::memory_order_relaxed); }

/// Conventional exit code for the received signal (128 + signo).
int InterruptExitCode() {
  return 128 + g_signal.load(std::memory_order_relaxed);
}

bool ParseLogLevel(const std::string& name, LogLevel* out) {
  if (name == "debug") {
    *out = LogLevel::kDebug;
  } else if (name == "info") {
    *out = LogLevel::kInfo;
  } else if (name == "warning") {
    *out = LogLevel::kWarning;
  } else if (name == "error") {
    *out = LogLevel::kError;
  } else {
    return false;
  }
  return true;
}

}  // namespace

BenchArgs ParseArgsOrDie(int argc, char** argv) {
  BenchArgs args;
  FlagParser parser;
  args.Register(parser);
  const Status status = parser.Parse(argc, argv);
  if (status.code() == StatusCode::kFailedPrecondition) {
    std::exit(0);  // --help already printed usage
  }
  if (!status.ok()) {
    std::cerr << status << "\n" << parser.UsageString(argv[0]);
    std::exit(1);
  }
  LogLevel level = LogLevel::kInfo;
  if (!ParseLogLevel(args.log_level, &level)) {
    std::cerr << "unknown --log_level '" << args.log_level
              << "' (expected debug|info|warning|error)\n";
    std::exit(1);
  }
  SetLogThreshold(level);
  const Result<int> resolved = core::ResolveThreadCount(args.threads);
  if (!resolved.ok()) {
    std::cerr << resolved.status() << "\n" << parser.UsageString(argv[0]);
    std::exit(1);
  }
  args.resolved_threads = *resolved;
  const Result<db::ContentionPolicyKind> kind =
      db::ParseContentionPolicy(args.policy);
  if (!kind.ok()) {
    std::cerr << kind.status() << "\n" << parser.UsageString(argv[0]);
    std::exit(1);
  }
  {
    const db::ContentionOptions contention = args.Contention();
    const Status valid = db::ValidateContentionOptions(contention.governor,
                                                       contention.admission);
    if (!valid.ok()) {
      std::cerr << valid << "\n" << parser.UsageString(argv[0]);
      std::exit(1);
    }
  }
  sim::invariants::SetDeepAudit(args.audit);
  if (args.audit) {
    GRANULOCK_LOG(Info) << "--audit: deep invariant audits enabled";
  }
  if (args.resume) args.checkpoint = true;
  if (!args.fault_inject.empty()) {
    const Status armed =
        fault::Injector::Global().ArmFromFlag(args.fault_inject);
    if (!armed.ok()) {
      std::cerr << armed << "\n" << parser.UsageString(argv[0]);
      std::exit(1);
    }
    GRANULOCK_LOG(Warning) << "--fault_inject=" << args.fault_inject
                           << ": deterministic fault armed";
  }
  std::signal(SIGINT, OnTerminationSignal);
  std::signal(SIGTERM, OnTerminationSignal);
  return args;
}

void PrintBanner(const std::string& experiment_id,
                 const std::string& description,
                 const model::SystemConfig& cfg, const BenchArgs& args) {
  std::printf("=== %s ===\n", experiment_id.c_str());
  std::printf("%s\n", description.c_str());
  std::printf("base config: %s\n", cfg.ToString().c_str());
  std::printf("seed=%lld reps=%lld threads=%d\n\n", (long long)args.seed,
              (long long)args.reps, args.resolved_threads);
}

const char* MetricName(Metric metric) {
  switch (metric) {
    case Metric::kThroughput:
      return "throughput (txn/unit)";
    case Metric::kResponseTime:
      return "response time (units)";
    case Metric::kUsefulIo:
      return "useful I/O time per processor";
    case Metric::kUsefulCpu:
      return "useful CPU time per processor";
    case Metric::kLockOverheadIo:
      return "lock I/O overhead (lockios)";
    case Metric::kLockOverheadCpu:
      return "lock CPU overhead (lockcpus)";
    case Metric::kLockOverheadTotal:
      return "total lock overhead (lockios + lockcpus)";
    case Metric::kDenialRate:
      return "lock denial rate";
  }
  return "?";
}

double MetricValue(Metric metric, const core::SimulationMetrics& m) {
  switch (metric) {
    case Metric::kThroughput:
      return m.throughput;
    case Metric::kResponseTime:
      return m.response_time;
    case Metric::kUsefulIo:
      return m.usefulios;
    case Metric::kUsefulCpu:
      return m.usefulcpus;
    case Metric::kLockOverheadIo:
      return m.lockios;
    case Metric::kLockOverheadCpu:
      return m.lockcpus;
    case Metric::kLockOverheadTotal:
      return m.lockios + m.lockcpus;
    case Metric::kDenialRate:
      return m.denial_rate;
  }
  return 0.0;
}

uint64_t RunFingerprint(const std::string& experiment_id,
                        const BenchArgs& args, const std::string& inputs) {
  return core::FingerprintString(
      experiment_id +
      StrFormat("|seed=%lld|reps=%lld|tmax=%.17g|warmup=%.17g|q=%d",
                (long long)args.seed, (long long)args.reps, args.tmax,
                args.warmup, args.quick ? 1 : 0) +
      inputs);
}

std::vector<uint64_t> SingleCellSeeds(const std::string& experiment_id,
                                      const BenchArgs& args) {
  if (args.reps != 1) {
    std::fprintf(stderr,
                 "--reps=%lld is not supported by %s: each of its cells runs "
                 "once with --seed; pass --reps=1\n",
                 (long long)args.reps, experiment_id.c_str());
    std::exit(2);
  }
  return {static_cast<uint64_t>(args.seed)};
}

namespace {

/// Opens the checkpoint journal per `--checkpoint/--resume`, or returns
/// null when checkpointing is off. Exits with an actionable message on
/// open failure (corrupt journal, fingerprint mismatch).
std::unique_ptr<core::CheckpointJournal> OpenJournalOrDie(
    const std::string& experiment_id, const BenchArgs& args,
    uint64_t fingerprint) {
  if (!args.checkpoint_enabled()) return nullptr;
  auto journal = core::CheckpointJournal::Open(
      args.JournalPath(experiment_id), fingerprint, args.resume);
  if (!journal.ok()) {
    std::cerr << "cannot open checkpoint journal: " << journal.status()
              << "\n";
    std::exit(1);
  }
  if ((*journal)->loaded_cells() > 0) {
    GRANULOCK_LOG(Info) << "--resume: replaying " << (*journal)->loaded_cells()
                        << " journaled cells from " << (*journal)->path();
  }
  return std::move(journal).value();
}

/// Names a cell of `grid` for humans: its series label, swept value and
/// replication.
std::string DescribeCell(const BenchGrid& grid, const core::CellFailure& f) {
  return StrFormat("series '%s' %s=%lld rep=%d",
                   grid.labels[static_cast<size_t>(f.series)].c_str(),
                   grid.axis.c_str(), (long long)f.value, f.rep);
}

/// Prints the cell-failure roll-up: one line per failed cell, plus retry
/// and timeout totals. No-op when nothing failed or retried.
void PrintFailureSummary(const BenchGrid& grid,
                         const core::RunReport& report) {
  if (report.failures.empty() && report.cell_retries == 0) return;
  std::printf("cell failure summary: %lld failed, %lld retries, %lld timed "
              "out, %lld completed\n",
              (long long)report.failures.size(),
              (long long)report.cell_retries,
              (long long)report.cells_timed_out,
              (long long)report.cells_completed);
  for (const core::CellFailure& f : report.failures) {
    std::printf("  %s: %s (%d attempt%s%s)\n", DescribeCell(grid, f).c_str(),
                f.status.ToString().c_str(), f.attempts,
                f.attempts == 1 ? "" : "s", f.timed_out ? ", timed out" : "");
  }
  std::printf("\n");
}

}  // namespace

std::vector<core::ReplicatedMetrics> RunBenchGrid(
    const BenchGrid& grid, const BenchArgs& args, core::RunReport* report,
    const std::function<void(const std::vector<core::ReplicatedMetrics>&)>&
        on_interrupt) {
  if (grid.seeds.empty()) {
    std::fprintf(stderr, "--reps=%lld: need at least one replication\n",
                 (long long)args.reps);
    std::exit(1);
  }
  const std::unique_ptr<core::CheckpointJournal> journal =
      OpenJournalOrDie(grid.experiment_id, args, grid.fingerprint);
  core::CellPolicy policy;
  policy.journal = journal.get();
  policy.max_cell_retries = static_cast<int>(args.max_cell_retries);
  policy.allow_partial = args.allow_partial;
  policy.cell_timeout_s = args.cell_timeout_s;
  policy.interrupt = &g_interrupt;
  policy.report = report;
  core::ParallelRunner runner(args.resolved_threads);
  core::GridResult result = core::RunGrid(
      grid.points, grid.seeds, grid.serial ? nullptr : &runner, policy);

  if (!result.first_failure.status.ok() && !args.allow_partial) {
    std::fprintf(stderr, "cell failed: %s: %s\n",
                 DescribeCell(grid, result.first_failure).c_str(),
                 result.first_failure.status.ToString().c_str());
    if (journal != nullptr) {
      std::fprintf(stderr,
                   "completed cells are journaled in %s; rerun with --resume "
                   "to retry only the failed cells\n",
                   journal->path().c_str());
    }
    std::exit(1);
  }
  if (result.interrupted || Interrupted()) {
    if (on_interrupt) on_interrupt(result.points);
    if (journal != nullptr) {
      std::fprintf(stderr,
                   "interrupted: completed cells are journaled in %s; rerun "
                   "with --resume to finish\n",
                   journal->path().c_str());
    } else {
      std::fprintf(stderr,
                   "interrupted (hint: --checkpoint makes this resumable)\n");
    }
    std::exit(InterruptExitCode());
  }
  PrintFailureSummary(grid, *report);
  return std::move(result.points);
}

namespace {

/// The post-sweep contention pass (--profile_contention): re-runs every
/// surviving (series, ltot) cell once, serially, with a fresh
/// `ContentionProfiler` attached and the same rep-0 seed the sweep used —
/// the profiled run IS replication 0, bit for bit. Fills
/// `data->contention`, writes BENCH_<id>.waitsfor.dot with the densest
/// waits-for snapshot across the grid and BENCH_<id>.contention.csv with
/// the hottest cell's time series.
void ProfileContention(const std::string& experiment_id, FigureData* data,
                       const BenchArgs& args) {
  const uint64_t seed =
      core::DeriveReplicationSeeds(static_cast<uint64_t>(args.seed), 1)[0];
  data->contention.assign(data->series.size(), SeriesContention{});
  std::string best_dot;
  std::string best_csv;
  int64_t best_waits = -1;
  for (size_t s = 0; s < data->series.size(); ++s) {
    SeriesContention& out = data->contention[s];
    std::vector<double> xs;
    std::vector<double> ys;
    for (size_t l = 0; l < data->lock_counts.size(); ++l) {
      if (data->values[s][l].replications == 0) continue;
      xs.push_back(static_cast<double>(data->lock_counts[l]));
      ys.push_back(data->values[s][l].mean.throughput);
    }
    out.boundary = obs::DetectThrashingBoundary(xs, ys);
    model::SystemConfig cfg = data->series[s].cfg;
    args.Apply(&cfg);
    for (size_t l = 0; l < data->lock_counts.size(); ++l) {
      if (data->values[s][l].replications == 0) continue;
      model::SystemConfig cell_cfg = cfg;
      cell_cfg.ltot = data->lock_counts[l];
      obs::ContentionProfiler profiler;
      core::GranularitySimulator::Options options = data->series[s].options;
      options.obs.contention = &profiler;
      const auto metrics = core::GranularitySimulator::RunOnce(
          cell_cfg, data->series[s].spec, seed, options);
      if (!metrics.ok()) {
        GRANULOCK_LOG(Warning)
            << "contention profile for series '" << data->series[s].label
            << "' ltot=" << cell_cfg.ltot << ": " << metrics.status();
        continue;
      }
      ContentionPoint point;
      point.ltot = data->lock_counts[l];
      point.waits = profiler.total_waits();
      std::ostringstream json;
      profiler.WriteJson(json);
      point.profile_json = json.str();
      if (point.waits > best_waits) {
        best_waits = point.waits;
        std::ostringstream dot;
        profiler.WriteDot(dot);
        best_dot = dot.str();
        std::ostringstream csv;
        profiler.series().WriteCsv(csv);
        best_csv = csv.str();
      }
      out.points.push_back(std::move(point));
    }
  }
  if (best_waits < 0) best_dot = "digraph waits_for {\n}\n";
  const std::string dot_path =
      StrFormat("BENCH_%s.waitsfor.dot", experiment_id.c_str());
  const Status dot_written = WriteFileAtomic(dot_path, best_dot);
  if (dot_written.ok()) {
    std::printf("wrote %s\n", dot_path.c_str());
  } else {
    GRANULOCK_LOG(Error) << "waits-for snapshot: " << dot_written;
  }
  if (!best_csv.empty()) {
    const std::string csv_path =
        StrFormat("BENCH_%s.contention.csv", experiment_id.c_str());
    const Status csv_written = WriteFileAtomic(csv_path, best_csv);
    if (csv_written.ok()) {
      std::printf("wrote %s\n", csv_path.c_str());
    } else {
      GRANULOCK_LOG(Error) << "contention series: " << csv_written;
    }
  }
}

}  // namespace

FigureData RunFigure(const std::string& experiment_id,
                     const std::vector<Series>& series, const BenchArgs& args,
                     std::vector<int64_t> lock_counts) {
  GRANULOCK_CHECK(!series.empty());
  const WallTimer wall_timer;
  FigureData data;
  data.series = series;
  data.lock_counts = lock_counts.empty()
                         ? core::StandardLockSweep(series[0].cfg.dbsize)
                         : std::move(lock_counts);
  const size_t num_points = data.lock_counts.size();
  BenchGrid grid;
  grid.experiment_id = experiment_id;
  std::string inputs = "|grid=";
  for (int64_t ltot : data.lock_counts) {
    inputs += StrFormat("%lld,", (long long)ltot);
  }
  grid.seeds = core::DeriveReplicationSeeds(static_cast<uint64_t>(args.seed),
                                            static_cast<int>(args.reps));
  for (size_t s = 0; s < series.size(); ++s) {
    model::SystemConfig cfg = series[s].cfg;
    args.Apply(&cfg);
    inputs += "|series=" + series[s].label + ";" + cfg.ToString() + ";" +
              series[s].spec.Describe();
    grid.labels.push_back(series[s].label);
    grid.serial = grid.serial || series[s].options.obs.any();
    for (size_t l = 0; l < num_points; ++l) {
      cfg.ltot = data.lock_counts[l];
      grid.points.push_back(core::GridPoint{
          static_cast<int>(s), static_cast<int>(l), cfg.ltot,
          core::EngineCell<core::GranularitySimulator>(cfg, series[s].spec,
                                                       series[s].options)});
    }
  }
  grid.fingerprint = RunFingerprint(experiment_id, args, inputs);

  // Lays the grid's points (series-major) out as values[s][l].
  const auto fill = [&](const std::vector<core::ReplicatedMetrics>& points) {
    data.values.clear();
    for (auto it = points.begin(); it != points.end(); it += num_points) {
      data.values.emplace_back(it, it + num_points);
    }
    data.wall_seconds = wall_timer.Seconds();
  };
  fill(RunBenchGrid(grid, args, &data.report, [&](const auto& partial) {
    fill(partial);
    const std::string path =
        StrFormat("BENCH_%s.partial.json", experiment_id.c_str());
    // Atomic: a second signal landing mid-write must not tear the report.
    const Status written = WriteFileAtomic(
        path, RenderJsonReport(experiment_id, data, args) + "\n");
    if (written.ok()) {
      std::fprintf(stderr, "partial results in %s\n", path.c_str());
    } else {
      GRANULOCK_LOG(Error) << "partial report: " << written;
    }
  }));
  data.registry = std::make_shared<obs::MetricsRegistry>();
  core::PublishCellStats(data.report, data.registry.get());
  if (args.profile_contention) {
    ProfileContention(experiment_id, &data, args);
  }
  return data;
}

void PrintMetricTable(const FigureData& data, Metric metric,
                      const BenchArgs& args) {
  std::printf("--- %s ---\n", MetricName(metric));
  std::vector<std::string> header{"locks"};
  for (const Series& s : data.series) header.push_back(s.label);
  TablePrinter table(std::move(header));
  for (size_t l = 0; l < data.lock_counts.size(); ++l) {
    std::vector<std::string> row;
    row.push_back(StrFormat("%lld", (long long)data.lock_counts[l]));
    for (size_t s = 0; s < data.series.size(); ++s) {
      if (data.values[s][l].replications == 0) {
        row.push_back("-");  // cell missing (failed or not reached)
      } else {
        row.push_back(
            StrFormat("%.5g", MetricValue(metric, data.values[s][l].mean)));
      }
    }
    table.AddRow(std::move(row));
  }
  if (args.csv) {
    table.PrintCsv(std::cout);
  } else {
    table.Print(std::cout);
  }
  std::printf("\n");

  // The response-time table gets a tail-latency companion: the mean hides
  // exactly the convoy effects the paper's thrashing region produces.
  if (metric != Metric::kResponseTime) return;
  std::printf("--- response percentiles (p50/p95/p99) ---\n");
  std::vector<std::string> pct_header{"locks"};
  for (const Series& s : data.series) pct_header.push_back(s.label);
  TablePrinter pct_table(std::move(pct_header));
  for (size_t l = 0; l < data.lock_counts.size(); ++l) {
    std::vector<std::string> row;
    row.push_back(StrFormat("%lld", (long long)data.lock_counts[l]));
    for (size_t s = 0; s < data.series.size(); ++s) {
      const core::ReplicatedMetrics& rep = data.values[s][l];
      if (rep.replications == 0) {
        row.push_back("-");
      } else {
        row.push_back(StrFormat("%.4g/%.4g/%.4g", rep.mean.response_p50,
                                rep.mean.response_p95, rep.mean.response_p99));
      }
    }
    pct_table.AddRow(std::move(row));
  }
  if (args.csv) {
    pct_table.PrintCsv(std::cout);
  } else {
    pct_table.Print(std::cout);
  }
  std::printf("\n");
}

namespace {

void WriteArgsJson(obs::JsonWriter& w, const BenchArgs& args) {
  w.Key("params").BeginObject();
  w.Key("seed").Value(args.seed);
  w.Key("reps").Value(args.reps);
  w.Key("tmax").Value(args.tmax);
  w.Key("warmup").Value(args.warmup);
  w.Key("quick").Value(args.quick);
  w.EndObject();
}

}  // namespace

std::string RenderJsonReport(const std::string& experiment_id,
                             const FigureData& data, const BenchArgs& args) {
  // Total simulation events across the grid; RunReplicated reports the
  // per-point total over replications, so summing the grid gives the
  // whole bench's event count.
  double total_events = 0.0;
  for (const auto& series_values : data.values) {
    for (const auto& rep : series_values) {
      total_events += static_cast<double>(rep.mean.events_executed);
    }
  }
  std::ostringstream os;
  obs::JsonWriter w(os);
  w.BeginObject();
  w.Key("experiment").Value(experiment_id);
  WriteArgsJson(w, args);
  w.Key("wall_seconds").Value(data.wall_seconds);
  w.Key("events_executed").Value(total_events);
  w.Key("events_per_sec")
      .Value(data.wall_seconds > 0.0 ? total_events / data.wall_seconds
                                     : 0.0);
  w.Key("lock_counts").BeginArray();
  for (int64_t ltot : data.lock_counts) w.Value(ltot);
  w.EndArray();
  w.Key("series").BeginArray();
  for (size_t s = 0; s < data.series.size(); ++s) {
    w.BeginObject();
    w.Key("label").Value(data.series[s].label);
    w.Key("points").BeginArray();
    for (size_t l = 0; l < data.lock_counts.size(); ++l) {
      const core::ReplicatedMetrics& rep = data.values[s][l];
      if (rep.replications == 0) continue;  // missing cell
      const core::SimulationMetrics& m = rep.mean;
      w.BeginObject();
      w.Key("ltot").Value(data.lock_counts[l]);
      w.Key("throughput").Value(m.throughput);
      w.Key("throughput_hw95").Value(rep.throughput_hw95);
      w.Key("response_time").Value(m.response_time);
      w.Key("response_hw95").Value(rep.response_hw95);
      w.Key("usefulcpus").Value(m.usefulcpus);
      w.Key("usefulios").Value(m.usefulios);
      w.Key("lockcpus").Value(m.lockcpus);
      w.Key("lockios").Value(m.lockios);
      w.Key("denial_rate").Value(m.denial_rate);
      w.Key("deadlock_aborts").Value(m.deadlock_aborts);
      w.Key("txn_restarts").Value(m.txn_restarts);
      w.Key("txn_sacrificed").Value(m.txn_sacrificed);
      w.Key("response_p95").Value(m.response_p95);
      w.Key("response_p99").Value(m.response_p99);
      w.Key("events_executed").Value(m.events_executed);
      w.Key("phase_pending_wait").Value(m.phase_pending_wait);
      w.Key("phase_lock_wait").Value(m.phase_lock_wait);
      w.Key("phase_io_service").Value(m.phase_io_service);
      w.Key("phase_cpu_service").Value(m.phase_cpu_service);
      w.Key("phase_sync_wait").Value(m.phase_sync_wait);
      w.EndObject();
    }
    w.EndArray();
    w.EndObject();
  }
  w.EndArray();
  // Only present under --profile_contention, so reports without it keep
  // their historical bytes.
  if (!data.contention.empty()) {
    w.Key("contention").BeginArray();
    for (size_t s = 0; s < data.contention.size(); ++s) {
      const SeriesContention& sc = data.contention[s];
      w.BeginObject();
      w.Key("label").Value(data.series[s].label);
      w.Key("points").BeginArray();
      for (const ContentionPoint& point : sc.points) {
        w.BeginObject();
        w.Key("ltot").Value(point.ltot);
        w.Key("profile").Raw(point.profile_json);
        w.EndObject();
      }
      w.EndArray();
      w.Key("thrashing_boundary").BeginObject();
      w.Key("found").Value(sc.boundary.found);
      w.Key("boundary_ltot").Value(sc.boundary.boundary_x);
      w.Key("peak_ltot").Value(sc.boundary.peak_x);
      w.Key("peak_throughput").Value(sc.boundary.peak_y);
      w.Key("collapse_fraction").Value(sc.boundary.collapse_fraction);
      w.EndObject();
      w.EndObject();
    }
    w.EndArray();
  }
  // Always present (and empty on a clean run) so a resumed run renders the
  // same bytes as an uninterrupted one.
  w.Key("failures").BeginArray();
  for (const core::CellFailure& f : data.report.failures) {
    w.BeginObject();
    w.Key("series").Value(
        data.series[static_cast<size_t>(f.series)].label);
    w.Key("ltot").Value(f.value);
    w.Key("rep").Value(static_cast<int64_t>(f.rep));
    w.Key("attempts").Value(static_cast<int64_t>(f.attempts));
    w.Key("timed_out").Value(f.timed_out);
    w.Key("status").Value(StatusCodeToString(f.status.code()));
    w.Key("message").Value(f.status.message());
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
  return os.str();
}

Status WriteJsonReport(const std::string& experiment_id,
                       const FigureData& data, const BenchArgs& args) {
  const std::string body = RenderJsonReport(experiment_id, data, args);
  const std::string path = StrFormat("BENCH_%s.json", experiment_id.c_str());
  GRANULOCK_RETURN_NOT_OK(WriteFileAtomic(path, body + "\n"));
  std::printf("wrote %s\n", path.c_str());
  return Status::OK();
}

void MaybeWriteJsonReport(const std::string& experiment_id,
                          const FigureData& data, const BenchArgs& args) {
  if (!args.json_out) return;
  const Status status = WriteJsonReport(experiment_id, data, args);
  if (!status.ok()) {
    GRANULOCK_LOG(Error) << "JSON report: " << status;
  }
}

void MaybeWriteTableJsonReport(
    const std::string& experiment_id,
    const std::vector<std::pair<std::string, const TablePrinter*>>& tables,
    const BenchArgs& args) {
  if (!args.json_out) return;
  std::ostringstream os;
  obs::JsonWriter w(os);
  w.BeginObject();
  w.Key("experiment").Value(experiment_id);
  WriteArgsJson(w, args);
  w.Key("tables").BeginObject();
  for (const auto& [name, table] : tables) {
    w.Key(name).BeginObject();
    w.Key("columns").BeginArray();
    for (const std::string& col : table->header()) w.Value(col);
    w.EndArray();
    w.Key("rows").BeginArray();
    for (const auto& row : table->rows()) {
      w.BeginArray();
      for (const std::string& cell : row) w.Value(cell);
      w.EndArray();
    }
    w.EndArray();
    w.EndObject();
  }
  w.EndObject();
  w.EndObject();

  const std::string path = StrFormat("BENCH_%s.json", experiment_id.c_str());
  const Status written = WriteFileAtomic(path, os.str() + "\n");
  if (!written.ok()) {
    GRANULOCK_LOG(Error) << "JSON report: " << written;
    return;
  }
  std::printf("wrote %s\n", path.c_str());
}

void PrintOptimaSummary(const FigureData& data) {
  std::printf("throughput-optimal lock count per series:\n");
  for (size_t s = 0; s < data.series.size(); ++s) {
    size_t best = data.lock_counts.size();  // sentinel: no surviving point
    for (size_t l = 0; l < data.lock_counts.size(); ++l) {
      if (data.values[s][l].replications == 0) continue;
      if (best == data.lock_counts.size() ||
          data.values[s][l].mean.throughput >
              data.values[s][best].mean.throughput) {
        best = l;
      }
    }
    if (best == data.lock_counts.size()) {
      std::printf("  %-28s (no surviving points)\n",
                  data.series[s].label.c_str());
      continue;
    }
    std::printf("  %-28s ltot* = %-6lld (throughput %.5g)\n",
                data.series[s].label.c_str(),
                (long long)data.lock_counts[best],
                data.values[s][best].mean.throughput);
  }
  std::printf("\n");
}

}  // namespace granulock::bench
