// Policy shootout: contention-resolution policies under rising load.
//
// The paper assumes conservative locking ("deadlock is impossible", §2)
// and never has to choose a deadlock-handling policy. The incremental
// claim-as-needed engine does, and Thomasian's survey (arXiv 2404.02276)
// shows that the choice — together with restart throttling and admission
// control — is what decides whether a locking system degrades gracefully
// or collapses past its thrashing boundary. This bench sweeps every
// contention policy across the multiprogramming level (MPL = ntrans) on a
// random-access workload where the default detect-and-abort-the-requester
// policy demonstrably thrashes.
//
// What to look for: the `detect` baseline peaks and then collapses as MPL
// grows (restart storms); the timestamp policies (wound_wait, wait_die)
// and wait_depth push the thrashing boundary later or avoid it entirely;
// and `detect+admission` holds throughput flat past the baseline's
// collapse point by contracting the effective MPL when the blocked
// fraction crosses its gate. tools/check_policy_shootout.py gates these
// claims in CI against BENCH_policy_shootout.json.

#include <cstdio>
#include <iostream>
#include <sstream>
#include <vector>

#include "bench/bench_common.h"
#include "db/incremental_simulator.h"
#include "obs/json_writer.h"
#include "sim/stats.h"
#include "util/fileio.h"
#include "util/random.h"

namespace {

using namespace granulock;

constexpr const char* kExperimentId = "policy_shootout";

/// One labelled curve: a full contention configuration swept over MPL.
struct PolicySeries {
  std::string label;
  db::ContentionOptions contention;
};

/// Per-(series, MPL) aggregate, merged post-join in grid order exactly
/// like core::SweepLockCounts merges replications.
struct PointResult {
  core::ReplicatedMetrics metrics;  // replications == 0 => missing cell
};

std::string DescribeSeries(const PolicySeries& s) {
  return StrFormat(
      "%s;policy=%s;bf=%.17g;bc=%.17g;mr=%lld;adm=%d", s.label.c_str(),
      db::ContentionPolicyName(s.contention.policy),
      s.contention.governor.backoff_factor, s.contention.governor.max_backoff,
      (long long)s.contention.governor.max_restarts,
      s.contention.admission.enabled ? 1 : 0);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace granulock;
  bench::BenchArgs args = bench::ParseArgsOrDie(argc, argv);

  // A random-access workload tuned so the baseline policy thrashes inside
  // the MPL grid: moderate granule count and mid-size transactions make
  // hold-and-wait cycles (and therefore restart storms) common once the
  // MPL passes the knee.
  model::SystemConfig base = model::SystemConfig::Table1Defaults();
  base.ltot = 100;
  base.maxtransize = 20;
  // Closed system WITH user think time: a lone transaction fork-joins its
  // stages across every node, so without think time MPL 1-2 already
  // saturates the hardware and no MPL sweep can show a rising limb. Think
  // time gives each MPL slot idle periods to fill — throughput climbs
  // with MPL until lock conflicts (and restart storms) bend it over,
  // which is exactly the knee the policies differ on.
  base.think_time = 5.0;
  const std::vector<int64_t> mpl_grid = {2, 4, 8, 12, 16, 24, 32, 48, 64};

  bench::PrintBanner(
      "Policy shootout",
      "Contention-resolution policies x multiprogramming level on a "
      "random-access (worst placement) workload under incremental 2PL",
      base, args);

  // Series: every victim policy with the flag-configured governor, plus
  // the detect baseline guarded by the admission controller. The governor
  // defaults are the bit-identical historical ones, so `detect` IS the
  // pre-policy engine.
  std::vector<PolicySeries> series;
  for (int k = 0; k < db::kNumContentionPolicies; ++k) {
    PolicySeries s;
    s.contention = args.Contention();
    s.contention.policy = static_cast<db::ContentionPolicyKind>(k);
    s.contention.admission.enabled = false;
    s.label = db::ContentionPolicyName(s.contention.policy);
    series.push_back(std::move(s));
  }
  {
    PolicySeries s;
    s.contention = args.Contention();
    s.contention.policy = db::ContentionPolicyKind::kDetectRequester;
    s.contention.admission.enabled = true;
    s.label = "detect+admission";
    series.push_back(std::move(s));
  }

  // Journal fingerprint: everything that determines the grid's results.
  std::string canonical = std::string(kExperimentId) +
                          StrFormat("|seed=%lld|reps=%lld|tmax=%.17g|"
                                    "warmup=%.17g|q=%d",
                                    (long long)args.seed, (long long)args.reps,
                                    args.tmax, args.warmup,
                                    args.quick ? 1 : 0);
  canonical += "|mpl=";
  for (int64_t mpl : mpl_grid) canonical += StrFormat("%lld,", (long long)mpl);
  {
    model::SystemConfig fp_cfg = base;
    args.Apply(&fp_cfg);
    canonical += "|cfg=" + fp_cfg.ToString() + ";worst_placement";
  }
  for (const PolicySeries& s : series) {
    canonical += "|series=" + DescribeSeries(s);
  }
  std::unique_ptr<core::CheckpointJournal> journal = bench::OpenJournalOrDie(
      kExperimentId, args, core::FingerprintString(canonical));

  // Replication seeds, derived exactly as core::DeriveReplicationSeeds
  // does — computed up front so cells can run on any worker in any order
  // while staying bit-identical to a serial run.
  const int reps = static_cast<int>(args.reps);
  std::vector<uint64_t> seeds;
  {
    Rng seeder(static_cast<uint64_t>(args.seed));
    for (int r = 0; r < reps; ++r) {
      seeds.push_back(seeder.Fork(static_cast<uint64_t>(r)).NextUint64());
    }
  }

  // Fan the whole (series x MPL x replication) grid out as one batch.
  const size_t num_series = series.size();
  const size_t num_points = mpl_grid.size();
  const size_t num_reps = static_cast<size_t>(reps);
  core::RunReport report;
  std::vector<core::CellPolicy> policies;
  policies.reserve(num_series);
  for (size_t s = 0; s < num_series; ++s) {
    policies.push_back(bench::MakeCellPolicy(args, journal.get(),
                                             static_cast<int>(s), &report));
  }
  std::vector<core::CellOutcome> outcomes(num_series * num_points * num_reps);
  auto cell_index = [&](size_t s, size_t p, size_t r) {
    return (s * num_points + p) * num_reps + r;
  };
  auto run_cell = [&](size_t i) {
    const size_t s = i / (num_points * num_reps);
    const size_t p = (i / num_reps) % num_points;
    const size_t r = i % num_reps;
    model::SystemConfig cfg = base;
    cfg.ntrans = mpl_grid[p];
    args.Apply(&cfg);
    workload::WorkloadSpec spec = workload::WorkloadSpec::Base(cfg);
    spec.placement = model::Placement::kWorst;
    const core::CellKey key{static_cast<int>(s), static_cast<int>(p),
                            static_cast<int>(r)};
    outcomes[i] = core::RunCell(
        policies[s], key, seeds[r], [&](const fault::CellWatchdog* wd) {
          db::IncrementalSimulator::Options opt;
          opt.contention = series[s].contention;
          opt.watchdog = wd;
          return db::IncrementalSimulator::RunOnce(cfg, spec, seeds[r], opt);
        });
  };
  core::ParallelRunner runner(args.resolved_threads);
  if (runner.threads() > 1) {
    runner.ParallelFor(outcomes.size(), run_cell);
  } else {
    for (size_t i = 0; i < outcomes.size(); ++i) {
      run_cell(i);
      const core::CellOutcome& o = outcomes[i];
      if (o.result.ok()) continue;
      if (o.result.status().code() == StatusCode::kCancelled ||
          !args.allow_partial) {
        break;
      }
    }
  }

  // Post-join scan in grid index order: accounting, per-point merge, and
  // deterministic failure selection (same contract as SweepLockCounts).
  std::vector<std::vector<PointResult>> grid(
      num_series, std::vector<PointResult>(num_points));
  Status first_failure;
  bool interrupted = bench::Interrupted();
  for (size_t s = 0; s < num_series; ++s) {
    for (size_t p = 0; p < num_points; ++p) {
      core::ReplicatedMetrics merged;
      sim::RunningStat tp_stat;
      sim::RunningStat rt_stat;
      for (size_t r = 0; r < num_reps; ++r) {
        const core::CellOutcome& o = outcomes[cell_index(s, p, r)];
        if (o.from_checkpoint) {
          ++report.cells_from_checkpoint;
          ++report.cells_completed;
        } else if (o.ran) {
          if (o.attempts > 1) report.cell_retries += o.attempts - 1;
          if (o.result.ok()) {
            ++report.cells_completed;
          } else if (o.result.status().code() == StatusCode::kCancelled) {
            interrupted = true;
            continue;
          } else {
            if (o.timed_out) ++report.cells_timed_out;
            report.failures.push_back(core::CellFailure{
                static_cast<int>(s), static_cast<int>(p), mpl_grid[p],
                static_cast<int>(r), o.attempts, o.timed_out,
                o.result.status()});
            if (first_failure.ok()) first_failure = o.result.status();
            continue;
          }
        } else {
          continue;  // fail-fast stopped before reaching this cell
        }
        merged.mean.Accumulate(*o.result);
        tp_stat.Add(o.result->throughput);
        rt_stat.Add(o.result->response_time);
        ++merged.replications;
      }
      if (merged.replications > 0) {
        merged.mean.FinalizeMeans(merged.replications);
        merged.throughput_hw95 = sim::ConfidenceHalfWidth(
            tp_stat.count(), tp_stat.StdDev(), 0.95);
        merged.response_hw95 = sim::ConfidenceHalfWidth(
            rt_stat.count(), rt_stat.StdDev(), 0.95);
      }
      grid[s][p].metrics = merged;
    }
  }
  if (interrupted) {
    if (!first_failure.ok()) {
      std::fprintf(stderr,
                   "note: a cell had already failed before the interrupt: "
                   "%s\n",
                   first_failure.ToString().c_str());
    }
    if (journal != nullptr) {
      std::fprintf(stderr,
                   "interrupted: completed cells are journaled in %s; rerun "
                   "with --resume to finish\n",
                   journal->path().c_str());
    } else {
      std::fprintf(stderr,
                   "interrupted (hint: --checkpoint makes this resumable)\n");
    }
    return bench::InterruptExitCode();
  }
  if (!first_failure.ok() && !args.allow_partial) {
    std::fprintf(stderr, "cell failed: %s\n",
                 first_failure.ToString().c_str());
    if (journal != nullptr) {
      std::fprintf(stderr,
                   "completed cells are journaled in %s; rerun with --resume "
                   "to retry only the failed cells\n",
                   journal->path().c_str());
    }
    return 1;
  }

  // Per-series thrashing boundary over the MPL axis.
  std::vector<obs::ThrashingBoundary> boundaries(num_series);
  for (size_t s = 0; s < num_series; ++s) {
    std::vector<double> xs;
    std::vector<double> ys;
    for (size_t p = 0; p < num_points; ++p) {
      if (grid[s][p].metrics.replications == 0) continue;
      xs.push_back(static_cast<double>(mpl_grid[p]));
      ys.push_back(grid[s][p].metrics.mean.throughput);
    }
    boundaries[s] = obs::DetectThrashingBoundary(xs, ys);
  }

  // ---- tables ----------------------------------------------------------
  const auto print_table = [&](const char* title, auto value) {
    std::printf("--- %s ---\n", title);
    std::vector<std::string> header{"mpl"};
    for (const PolicySeries& s : series) header.push_back(s.label);
    TablePrinter table(std::move(header));
    for (size_t p = 0; p < num_points; ++p) {
      std::vector<std::string> row;
      row.push_back(StrFormat("%lld", (long long)mpl_grid[p]));
      for (size_t s = 0; s < num_series; ++s) {
        if (grid[s][p].metrics.replications == 0) {
          row.push_back("-");
        } else {
          row.push_back(value(grid[s][p].metrics.mean));
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
  };
  print_table("throughput (txn/unit)", [](const core::SimulationMetrics& m) {
    return StrFormat("%.5g", m.throughput);
  });
  print_table("response p95/p99", [](const core::SimulationMetrics& m) {
    return StrFormat("%.4g/%.4g", m.response_p95, m.response_p99);
  });
  print_table("aborts (restarted+sacrificed)",
              [](const core::SimulationMetrics& m) {
                return StrFormat("%lld (%lld+%lld)",
                                 (long long)m.deadlock_aborts,
                                 (long long)m.txn_restarts,
                                 (long long)m.txn_sacrificed);
              });
  std::printf("thrashing boundary per policy (MPL axis):\n");
  for (size_t s = 0; s < num_series; ++s) {
    const obs::ThrashingBoundary& b = boundaries[s];
    if (b.found) {
      std::printf("  %-22s boundary at MPL %g (peak %.5g at MPL %g, "
                  "collapse %.1f%%)\n",
                  series[s].label.c_str(), b.boundary_x, b.peak_y, b.peak_x,
                  100.0 * b.collapse_fraction);
    } else {
      std::printf("  %-22s no boundary found (peak %.5g at MPL %g)\n",
                  series[s].label.c_str(), b.peak_y, b.peak_x);
    }
  }
  std::printf("\n");
  if (!report.failures.empty() || report.cell_retries > 0) {
    std::printf("cell failure summary: %lld failed, %lld retries, %lld timed "
                "out, %lld completed\n",
                (long long)report.failures.size(),
                (long long)report.cell_retries,
                (long long)report.cells_timed_out,
                (long long)report.cells_completed);
    for (const core::CellFailure& f : report.failures) {
      std::printf("  series '%s' mpl=%lld rep=%d: %s (%d attempt%s%s)\n",
                  series[static_cast<size_t>(f.series)].label.c_str(),
                  (long long)f.ltot, f.rep, f.status.ToString().c_str(),
                  f.attempts, f.attempts == 1 ? "" : "s",
                  f.timed_out ? ", timed out" : "");
    }
    std::printf("\n");
  }

  // ---- JSON report -----------------------------------------------------
  // No wall-clock anywhere: the bytes are a pure function of the simulated
  // results, so the CI threads-1-vs-8 and baseline comparisons can demand
  // tolerance 0.
  if (args.json_out) {
    std::ostringstream os;
    obs::JsonWriter w(os);
    w.BeginObject();
    w.Key("experiment").Value(std::string(kExperimentId));
    w.Key("params").BeginObject();
    w.Key("seed").Value(args.seed);
    w.Key("reps").Value(args.reps);
    w.Key("tmax").Value(args.tmax);
    w.Key("warmup").Value(args.warmup);
    w.Key("quick").Value(args.quick);
    w.EndObject();
    w.Key("mpl_grid").BeginArray();
    for (int64_t mpl : mpl_grid) w.Value(mpl);
    w.EndArray();
    w.Key("series").BeginArray();
    for (size_t s = 0; s < num_series; ++s) {
      w.BeginObject();
      w.Key("label").Value(series[s].label);
      w.Key("policy").Value(
          std::string(db::ContentionPolicyName(series[s].contention.policy)));
      w.Key("admission").Value(series[s].contention.admission.enabled);
      w.Key("points").BeginArray();
      for (size_t p = 0; p < num_points; ++p) {
        const core::ReplicatedMetrics& rep = grid[s][p].metrics;
        if (rep.replications == 0) continue;  // missing cell
        const core::SimulationMetrics& m = rep.mean;
        w.BeginObject();
        // "ltot" carries the MPL so tools/compare_bench.py (which keys
        // points by (label, ltot)) works unchanged; "mpl" is the honest
        // name for readers.
        w.Key("ltot").Value(mpl_grid[p]);
        w.Key("mpl").Value(mpl_grid[p]);
        w.Key("throughput").Value(m.throughput);
        w.Key("throughput_hw95").Value(rep.throughput_hw95);
        w.Key("response_time").Value(m.response_time);
        w.Key("response_hw95").Value(rep.response_hw95);
        w.Key("response_p95").Value(m.response_p95);
        w.Key("response_p99").Value(m.response_p99);
        w.Key("denial_rate").Value(m.denial_rate);
        w.Key("deadlock_aborts").Value(m.deadlock_aborts);
        w.Key("txn_restarts").Value(m.txn_restarts);
        w.Key("txn_sacrificed").Value(m.txn_sacrificed);
        w.Key("avg_admission_held").Value(m.avg_admission_held);
        w.Key("events_executed").Value(m.events_executed);
        w.Key("phase_pending_wait").Value(m.phase_pending_wait);
        w.Key("phase_lock_wait").Value(m.phase_lock_wait);
        w.Key("phase_io_service").Value(m.phase_io_service);
        w.Key("phase_cpu_service").Value(m.phase_cpu_service);
        w.Key("phase_sync_wait").Value(m.phase_sync_wait);
        w.EndObject();
      }
      w.EndArray();
      w.Key("thrashing_boundary").BeginObject();
      w.Key("found").Value(boundaries[s].found);
      w.Key("boundary_mpl").Value(boundaries[s].boundary_x);
      w.Key("peak_mpl").Value(boundaries[s].peak_x);
      w.Key("peak_throughput").Value(boundaries[s].peak_y);
      w.Key("collapse_fraction").Value(boundaries[s].collapse_fraction);
      w.EndObject();
      w.EndObject();
    }
    w.EndArray();
    w.Key("failures").BeginArray();
    for (const core::CellFailure& f : report.failures) {
      w.BeginObject();
      w.Key("series").Value(series[static_cast<size_t>(f.series)].label);
      w.Key("mpl").Value(f.ltot);
      w.Key("rep").Value(static_cast<int64_t>(f.rep));
      w.Key("attempts").Value(static_cast<int64_t>(f.attempts));
      w.Key("timed_out").Value(f.timed_out);
      w.Key("status").Value(StatusCodeToString(f.status.code()));
      w.Key("message").Value(f.status.message());
      w.EndObject();
    }
    w.EndArray();
    w.EndObject();
    const std::string path = StrFormat("BENCH_%s.json", kExperimentId);
    const Status written = WriteFileAtomic(path, os.str() + "\n");
    if (written.ok()) {
      std::printf("wrote %s\n", path.c_str());
    } else {
      GRANULOCK_LOG(Error) << "JSON report: " << written;
    }
  }
  return 0;
}
