// Integration tests for the observability layer (src/obs/ + the engine
// hooks): attaching sinks must never change simulated results, the phase
// spans must reconcile exactly with each transaction's response time, the
// Chrome trace must be valid JSON with per-processor tracks, and the
// always-on phase decomposition must sum to the mean response time on
// every engine.

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <string>

#include "core/granularity_simulator.h"
#include "db/explicit_simulator.h"
#include "db/incremental_simulator.h"
#include "db/transfer_simulator.h"
#include "obs/contention.h"
#include "obs/json_writer.h"
#include "obs/registry.h"
#include "obs/span_trace.h"
#include "obs/time_series.h"
#include "sim/trace.h"

namespace granulock {
namespace {

model::SystemConfig TestConfig() {
  model::SystemConfig cfg = model::SystemConfig::Table1Defaults();
  cfg.ltot = 50;
  cfg.npros = 2;
  cfg.maxtransize = 50;
  cfg.tmax = 800.0;
  return cfg;
}

// Claim-as-needed under contention: worst placement at MPL 16, where every
// contention policy aborts and restarts transactions mid-stage.
model::SystemConfig ContendedConfig() {
  model::SystemConfig cfg = TestConfig();
  cfg.ntrans = 16;
  return cfg;
}

workload::WorkloadSpec WorstPlacement(const model::SystemConfig& cfg) {
  workload::WorkloadSpec spec = workload::WorkloadSpec::Base(cfg);
  spec.placement = model::Placement::kWorst;
  return spec;
}

// Field-by-field bit-identity of two runs. EXPECT_EQ on doubles is exact
// equality — that is the contract: observability must not perturb the
// simulation at all, not merely stay within tolerance.
void ExpectBitIdentical(const core::SimulationMetrics& a,
                        const core::SimulationMetrics& b) {
  EXPECT_EQ(a.totcpus, b.totcpus);
  EXPECT_EQ(a.totios, b.totios);
  EXPECT_EQ(a.lockcpus, b.lockcpus);
  EXPECT_EQ(a.lockios, b.lockios);
  EXPECT_EQ(a.usefulcpus, b.usefulcpus);
  EXPECT_EQ(a.usefulios, b.usefulios);
  EXPECT_EQ(a.totcom, b.totcom);
  EXPECT_EQ(a.throughput, b.throughput);
  EXPECT_EQ(a.response_time, b.response_time);
  EXPECT_EQ(a.totcpus_sum, b.totcpus_sum);
  EXPECT_EQ(a.totios_sum, b.totios_sum);
  EXPECT_EQ(a.lockcpus_sum, b.lockcpus_sum);
  EXPECT_EQ(a.lockios_sum, b.lockios_sum);
  EXPECT_EQ(a.measured_time, b.measured_time);
  EXPECT_EQ(a.response_time_stddev, b.response_time_stddev);
  EXPECT_EQ(a.response_p50, b.response_p50);
  EXPECT_EQ(a.response_p95, b.response_p95);
  EXPECT_EQ(a.response_p99, b.response_p99);
  EXPECT_EQ(a.lock_requests, b.lock_requests);
  EXPECT_EQ(a.lock_denials, b.lock_denials);
  EXPECT_EQ(a.denial_rate, b.denial_rate);
  EXPECT_EQ(a.avg_active, b.avg_active);
  EXPECT_EQ(a.avg_blocked, b.avg_blocked);
  EXPECT_EQ(a.avg_pending, b.avg_pending);
  EXPECT_EQ(a.cpu_utilization, b.cpu_utilization);
  EXPECT_EQ(a.io_utilization, b.io_utilization);
  EXPECT_EQ(a.deadlock_aborts, b.deadlock_aborts);
  EXPECT_EQ(a.events_executed, b.events_executed);
  EXPECT_EQ(a.phase_pending_wait, b.phase_pending_wait);
  EXPECT_EQ(a.phase_lock_wait, b.phase_lock_wait);
  EXPECT_EQ(a.phase_io_service, b.phase_io_service);
  EXPECT_EQ(a.phase_cpu_service, b.phase_cpu_service);
  EXPECT_EQ(a.phase_sync_wait, b.phase_sync_wait);
}

void ExpectPhasesSumToResponse(const core::SimulationMetrics& m) {
  const double sum = m.phase_pending_wait + m.phase_lock_wait +
                     m.phase_io_service + m.phase_cpu_service +
                     m.phase_sync_wait;
  EXPECT_NEAR(sum, m.response_time,
              1e-6 * std::max(1.0, std::abs(m.response_time)))
      << "pending=" << m.phase_pending_wait << " lock=" << m.phase_lock_wait
      << " io=" << m.phase_io_service << " cpu=" << m.phase_cpu_service
      << " sync=" << m.phase_sync_wait;
  EXPECT_GT(m.totcom, 0);
}

// --------------------------------------------------------------------
// Bit-identity with observability on vs off, per engine.

TEST(ObservabilityIdentityTest, GranularityEngine) {
  const model::SystemConfig cfg = TestConfig();
  const workload::WorkloadSpec spec = workload::WorkloadSpec::Base(cfg);

  auto plain = core::GranularitySimulator::RunOnce(cfg, spec, 7);
  ASSERT_TRUE(plain.ok()) << plain.status();

  obs::MetricsRegistry registry;
  obs::SpanRecorder spans;
  obs::TimeSeriesSampler sampler(25.0);
  core::GranularitySimulator::Options options;
  options.obs = {&registry, &spans, &sampler};
  auto observed = core::GranularitySimulator::RunOnce(cfg, spec, 7, options);
  ASSERT_TRUE(observed.ok()) << observed.status();

  ExpectBitIdentical(*plain, *observed);
  // The sinks did collect: the run was observed, just not perturbed.
  EXPECT_GT(registry.size(), 0u);
  EXPECT_GT(spans.spans().size(), 0u);
  EXPECT_GT(sampler.pushed(), 0u);
}

TEST(ObservabilityIdentityTest, ExplicitEngine) {
  const model::SystemConfig cfg = TestConfig();
  const workload::WorkloadSpec spec = workload::WorkloadSpec::Base(cfg);

  auto plain = db::ExplicitSimulator::RunOnce(cfg, spec, 7);
  ASSERT_TRUE(plain.ok()) << plain.status();

  obs::MetricsRegistry registry;
  obs::SpanRecorder spans;
  obs::TimeSeriesSampler sampler(25.0);
  db::ExplicitSimulator::Options options;
  options.obs = {&registry, &spans, &sampler};
  auto observed = db::ExplicitSimulator::RunOnce(cfg, spec, 7, options);
  ASSERT_TRUE(observed.ok()) << observed.status();

  ExpectBitIdentical(*plain, *observed);
  EXPECT_GT(spans.spans().size(), 0u);
}

TEST(ObservabilityIdentityTest, IncrementalEngine) {
  const model::SystemConfig cfg = TestConfig();
  const workload::WorkloadSpec spec = workload::WorkloadSpec::Base(cfg);

  auto plain = db::IncrementalSimulator::RunOnce(cfg, spec, 7);
  ASSERT_TRUE(plain.ok()) << plain.status();

  obs::MetricsRegistry registry;
  obs::SpanRecorder spans;
  obs::TimeSeriesSampler sampler(25.0);
  db::IncrementalSimulator::Options options;
  options.obs = {&registry, &spans, &sampler};
  auto observed = db::IncrementalSimulator::RunOnce(cfg, spec, 7, options);
  ASSERT_TRUE(observed.ok()) << observed.status();

  ExpectBitIdentical(*plain, *observed);
  EXPECT_GT(spans.spans().size(), 0u);
}

TEST(ObservabilityIdentityTest, TransferEngine) {
  model::SystemConfig cfg = TestConfig();
  cfg.dbsize = 200;  // accounts
  cfg.ltot = 20;
  using ConcurrencyControl = db::TransferSimulator::ConcurrencyControl;
  for (const ConcurrencyControl cc : {ConcurrencyControl::kConservativeLocking,
                                      ConcurrencyControl::kNoLocking}) {
    const bool locking = cc == ConcurrencyControl::kConservativeLocking;
    SCOPED_TRACE(locking ? "conservative locking" : "no locking");
    db::TransferSimulator::Options options;
    options.concurrency_control = cc;
    auto plain = db::TransferSimulator::RunOnce(cfg, 7, options);
    ASSERT_TRUE(plain.ok()) << plain.status();

    obs::MetricsRegistry registry;
    obs::SpanRecorder spans;
    obs::TimeSeriesSampler sampler(25.0);
    obs::ContentionProfiler contention;
    sim::TraceRecorder trace;
    options.obs = {&registry, &spans, &sampler, &contention, &trace};
    auto observed = db::TransferSimulator::RunOnce(cfg, 7, options);
    ASSERT_TRUE(observed.ok()) << observed.status();

    const core::SimulationMetrics& m = observed->metrics;
    ExpectBitIdentical(plain->metrics, m);
    EXPECT_EQ(plain->final_total, observed->final_total);
    EXPECT_EQ(registry.GetGauge("sim.events_executed")->value(),
              static_cast<double>(m.events_executed));
    EXPECT_GT(sampler.pushed(), 0u);

    // The protocol reports the lifecycle. With no warm-up and no think
    // time, each completion creates its replacement at once.
    EXPECT_GT(m.totcom, 0);
    EXPECT_EQ(registry.GetCounter("engine.txn_created")->value(),
              cfg.ntrans + m.totcom);
    EXPECT_EQ(registry.GetCounter("engine.lock_requests")->value(),
              m.lock_requests);
    EXPECT_EQ(registry.GetCounter("engine.lock_denials")->value(),
              m.lock_denials);
    EXPECT_EQ(registry.GetCounter("engine.txn_completed")->value(),
              m.totcom);
    EXPECT_FALSE(trace.events().empty());
    if (locking) {
      EXPECT_GT(m.lock_requests, 0);
      EXPECT_GT(contention.total_grants(), 0);
    } else {
      // No locks to set, so no transfer requests any.
      EXPECT_EQ(m.lock_requests, 0);
    }
    // Pending and lock-wait spans only: the execution step records none,
    // so no transfer is reconciled.
    EXPECT_GT(spans.spans().size(), 0u);
    EXPECT_EQ(spans.completed_txns(), 0u);
  }
}

// --------------------------------------------------------------------
// The always-on phase decomposition sums to the response time.

TEST(PhaseDecompositionTest, GranularityEngineSumsToResponse) {
  const model::SystemConfig cfg = TestConfig();
  auto m = core::GranularitySimulator::RunOnce(
      cfg, workload::WorkloadSpec::Base(cfg), 11);
  ASSERT_TRUE(m.ok()) << m.status();
  ExpectPhasesSumToResponse(*m);
  // The paper's pipeline spends real time in every phase here.
  EXPECT_GT(m->phase_io_service, 0.0);
  EXPECT_GT(m->phase_cpu_service, 0.0);
  EXPECT_GT(m->phase_lock_wait, 0.0);
}

TEST(PhaseDecompositionTest, ExplicitEngineSumsToResponse) {
  const model::SystemConfig cfg = TestConfig();
  auto m = db::ExplicitSimulator::RunOnce(
      cfg, workload::WorkloadSpec::Base(cfg), 11);
  ASSERT_TRUE(m.ok()) << m.status();
  ExpectPhasesSumToResponse(*m);
}

TEST(PhaseDecompositionTest, IncrementalEngineSumsToResponse) {
  const model::SystemConfig cfg = ContendedConfig();
  for (int k = 0; k < db::kNumContentionPolicies; ++k) {
    const auto policy = static_cast<db::ContentionPolicyKind>(k);
    SCOPED_TRACE(db::ContentionPolicyName(policy));
    db::IncrementalSimulator::Options options;
    options.contention.policy = policy;
    auto m = db::IncrementalSimulator::RunOnce(cfg, WorstPlacement(cfg), 11,
                                               options);
    ASSERT_TRUE(m.ok()) << m.status();
    ExpectPhasesSumToResponse(*m);
    EXPECT_GT(m->deadlock_aborts, 0);  // the abort paths ran
    // No pending queue in the claim-as-needed engine.
    EXPECT_EQ(m->phase_pending_wait, 0.0);
  }
}

TEST(PhaseDecompositionTest, SurvivesWarmupDiscard) {
  model::SystemConfig cfg = TestConfig();
  cfg.warmup = 200.0;
  auto m = core::GranularitySimulator::RunOnce(
      cfg, workload::WorkloadSpec::Base(cfg), 13);
  ASSERT_TRUE(m.ok()) << m.status();
  ExpectPhasesSumToResponse(*m);
}

// --------------------------------------------------------------------
// Span traces: exact per-transaction reconciliation + Chrome JSON shape.

TEST(SpanTraceTest, SpansReconcileWithResponseTimes) {
  const model::SystemConfig cfg = TestConfig();
  const workload::WorkloadSpec spec = workload::WorkloadSpec::Base(cfg);
  for (uint64_t seed : {1u, 2u, 3u}) {
    obs::SpanRecorder spans;
    core::GranularitySimulator::Options options;
    options.obs.spans = &spans;
    auto m = core::GranularitySimulator::RunOnce(cfg, spec, seed, options);
    ASSERT_TRUE(m.ok()) << m.status();
    EXPECT_EQ(spans.dropped(), 0u);
    EXPECT_GT(spans.completed_txns(), 0u);
    const Status reconciled = spans.CheckReconciliation();
    EXPECT_TRUE(reconciled.ok()) << "seed " << seed << ": " << reconciled;
  }
}

TEST(SpanTraceTest, ExplicitEngineSpansReconcile) {
  const model::SystemConfig cfg = TestConfig();
  obs::SpanRecorder spans;
  db::ExplicitSimulator::Options options;
  options.obs.spans = &spans;
  auto m = db::ExplicitSimulator::RunOnce(
      cfg, workload::WorkloadSpec::Base(cfg), 5, options);
  ASSERT_TRUE(m.ok()) << m.status();
  const Status reconciled = spans.CheckReconciliation();
  EXPECT_TRUE(reconciled.ok()) << reconciled;
}

TEST(SpanTraceTest, IncrementalEngineSpansReconcile) {
  const model::SystemConfig cfg = ContendedConfig();
  for (int k = 0; k < db::kNumContentionPolicies; ++k) {
    const auto policy = static_cast<db::ContentionPolicyKind>(k);
    SCOPED_TRACE(db::ContentionPolicyName(policy));
    obs::SpanRecorder spans;
    db::IncrementalSimulator::Options options;
    options.contention.policy = policy;
    options.obs.spans = &spans;
    auto m = db::IncrementalSimulator::RunOnce(cfg, WorstPlacement(cfg), 5,
                                               options);
    ASSERT_TRUE(m.ok()) << m.status();
    EXPECT_GT(m->deadlock_aborts, 0);
    EXPECT_GT(spans.completed_txns(), 0u);
    const Status reconciled = spans.CheckReconciliation();
    EXPECT_TRUE(reconciled.ok()) << reconciled;
  }
}

TEST(SpanTraceTest, ChromeTraceValidatesWithPerProcessorTracks) {
  const model::SystemConfig cfg = TestConfig();  // npros = 2
  obs::SpanRecorder spans;
  core::GranularitySimulator::Options options;
  options.obs.spans = &spans;
  auto m = core::GranularitySimulator::RunOnce(
      cfg, workload::WorkloadSpec::Base(cfg), 3, options);
  ASSERT_TRUE(m.ok()) << m.status();

  std::ostringstream os;
  spans.WriteChromeTrace(os);
  const std::string trace = os.str();
  ASSERT_TRUE(obs::ValidateJson(trace).ok());
  EXPECT_NE(trace.find("\"traceEvents\""), std::string::npos);
  // Lifecycle track plus one named track per processor.
  EXPECT_NE(trace.find("\"lifecycle\""), std::string::npos);
  EXPECT_NE(trace.find("\"node0\""), std::string::npos);
  EXPECT_NE(trace.find("\"node1\""), std::string::npos);
  // All five phases show up as span names.
  for (int p = 0; p < obs::kNumPhases; ++p) {
    EXPECT_NE(trace.find(std::string("\"") +
                         obs::PhaseName(static_cast<obs::Phase>(p)) + "\""),
              std::string::npos)
        << "missing phase " << p;
  }
}

// --------------------------------------------------------------------
// Registry self-profiling and the time-series sampler.

TEST(RegistryIntegrationTest, EnginePublishesProfilingInstruments) {
  const model::SystemConfig cfg = TestConfig();
  obs::MetricsRegistry registry;
  core::GranularitySimulator::Options options;
  options.obs.registry = &registry;
  auto m = core::GranularitySimulator::RunOnce(
      cfg, workload::WorkloadSpec::Base(cfg), 9, options);
  ASSERT_TRUE(m.ok()) << m.status();

  // Lifecycle counters agree with the run's own accounting. Counters span
  // the whole run (no warmup here), so completion counts line up exactly.
  EXPECT_EQ(registry.GetCounter("engine.txn_completed")->value(), m->totcom);
  EXPECT_EQ(registry.GetCounter("engine.lock_requests")->value(),
            m->lock_requests);
  EXPECT_EQ(registry.GetCounter("engine.lock_denials")->value(),
            m->lock_denials);
  const obs::Histogram* rt =
      registry.GetHistogram("engine.response_time", {1.0});
  EXPECT_EQ(rt->count(), m->totcom);

  // Engine self-profiling gauges, published at the end of the run.
  EXPECT_EQ(registry.GetGauge("sim.events_executed")->value(),
            static_cast<double>(m->events_executed));
  EXPECT_GT(registry.GetGauge("sim.event_queue_hwm")->value(), 0.0);
  EXPECT_GT(registry.GetGauge("engine.wall_seconds")->value(), 0.0);
  EXPECT_GT(registry.GetGauge("engine.events_per_sec")->value(), 0.0);

  std::ostringstream os;
  registry.WriteJson(os);
  EXPECT_TRUE(obs::ValidateJson(os.str()).ok()) << os.str();
}

TEST(SamplerIntegrationTest, SamplesAtConfiguredCadence) {
  const model::SystemConfig cfg = TestConfig();  // tmax = 800
  obs::TimeSeriesSampler sampler(100.0);
  core::GranularitySimulator::Options options;
  options.obs.sampler = &sampler;
  auto m = core::GranularitySimulator::RunOnce(
      cfg, workload::WorkloadSpec::Base(cfg), 9, options);
  ASSERT_TRUE(m.ok()) << m.status();

  // Ticks at 100, 200, ..., 800.
  EXPECT_EQ(sampler.pushed(), 8u);
  const auto rows = sampler.Rows();
  ASSERT_EQ(rows.size(), 8u);
  EXPECT_DOUBLE_EQ(rows.front().time, 100.0);
  EXPECT_DOUBLE_EQ(rows.back().time, 800.0);
  // active/blocked/pending/throughput + per-node cpu and disk utilization.
  EXPECT_EQ(sampler.columns().size(),
            4u + 2u * static_cast<size_t>(cfg.npros));
  for (const auto& row : rows) {
    for (double v : row.values) {
      EXPECT_GE(v, 0.0);
      EXPECT_TRUE(std::isfinite(v));
    }
  }
  std::ostringstream os;
  sampler.WriteCsv(os);
  EXPECT_EQ(os.str().find("time,"), 0u);
}

}  // namespace
}  // namespace granulock
