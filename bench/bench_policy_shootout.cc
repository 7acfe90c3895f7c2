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
#include "util/fileio.h"

namespace {

using namespace granulock;

constexpr const char* kExperimentId = "policy_shootout";

/// One labelled curve: a full contention configuration swept over MPL.
struct PolicySeries {
  std::string label;
  db::ContentionOptions contention;
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

  // One grid: every (series, MPL) point, series-major, each replication on
  // its stream of --seed. The journal fingerprint covers everything that
  // determines the results.
  bench::BenchGrid grid;
  grid.experiment_id = kExperimentId;
  grid.seeds = core::DeriveReplicationSeeds(static_cast<uint64_t>(args.seed),
                                            static_cast<int>(args.reps));
  grid.axis = "mpl";
  std::string inputs = "|mpl=";
  for (int64_t mpl : mpl_grid) inputs += StrFormat("%lld,", (long long)mpl);
  {
    model::SystemConfig fp_cfg = base;
    args.Apply(&fp_cfg);
    inputs += "|cfg=" + fp_cfg.ToString() + ";worst_placement";
  }
  const size_t num_series = series.size();
  const size_t num_points = mpl_grid.size();
  for (size_t s = 0; s < num_series; ++s) {
    inputs += "|series=" + DescribeSeries(series[s]);
    grid.labels.push_back(series[s].label);
    for (size_t p = 0; p < num_points; ++p) {
      model::SystemConfig cfg = base;
      cfg.ntrans = mpl_grid[p];
      args.Apply(&cfg);
      workload::WorkloadSpec spec = workload::WorkloadSpec::Base(cfg);
      spec.placement = model::Placement::kWorst;
      db::IncrementalSimulator::Options opt;
      opt.contention = series[s].contention;
      grid.points.push_back(
          {static_cast<int>(s), static_cast<int>(p), mpl_grid[p],
           core::EngineCell<db::IncrementalSimulator>(cfg, spec, opt)});
    }
  }
  grid.fingerprint = bench::RunFingerprint(kExperimentId, args, inputs);
  core::RunReport report;
  const std::vector<core::ReplicatedMetrics> points =
      bench::RunBenchGrid(grid, args, &report);
  const auto at = [&](size_t s, size_t p) -> const core::ReplicatedMetrics& {
    return points[s * num_points + p];
  };

  // Per-series thrashing boundary over the MPL axis.
  std::vector<obs::ThrashingBoundary> boundaries(num_series);
  for (size_t s = 0; s < num_series; ++s) {
    std::vector<double> xs;
    std::vector<double> ys;
    for (size_t p = 0; p < num_points; ++p) {
      if (at(s, p).replications == 0) continue;
      xs.push_back(static_cast<double>(mpl_grid[p]));
      ys.push_back(at(s, p).mean.throughput);
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
        if (at(s, p).replications == 0) {
          row.push_back("-");
        } else {
          row.push_back(value(at(s, p).mean));
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
        const core::ReplicatedMetrics& rep = at(s, p);
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
      w.Key("mpl").Value(f.value);
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
