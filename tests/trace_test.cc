#include "sim/trace.h"

#include <gtest/gtest.h>

#include <sstream>

#include "core/granularity_simulator.h"
#include "db/explicit_simulator.h"
#include "db/incremental_simulator.h"

namespace granulock::sim {
namespace {

TEST(TraceRecorderTest, RecordsInOrder) {
  TraceRecorder trace;
  trace.Record(1.0, 1, TraceEventType::kCreated);
  trace.Record(2.0, 1, TraceEventType::kLockRequested, 5);
  ASSERT_EQ(trace.events().size(), 2u);
  EXPECT_EQ(trace.events()[0].type, TraceEventType::kCreated);
  EXPECT_EQ(trace.events()[1].detail, 5);
  EXPECT_EQ(trace.dropped(), 0u);
}

TEST(TraceRecorderTest, CapacityBoundsStorage) {
  TraceRecorder trace(3);
  for (int i = 0; i < 10; ++i) {
    trace.Record(static_cast<double>(i), 1, TraceEventType::kCreated);
  }
  EXPECT_EQ(trace.events().size(), 3u);
  EXPECT_EQ(trace.dropped(), 7u);
}

TEST(TraceRecorderTest, ClearResets) {
  TraceRecorder trace(2);
  trace.Record(1.0, 1, TraceEventType::kCreated);
  trace.Record(2.0, 1, TraceEventType::kCompleted);
  trace.Record(3.0, 1, TraceEventType::kCompleted);  // dropped
  trace.Clear();
  EXPECT_TRUE(trace.events().empty());
  EXPECT_EQ(trace.dropped(), 0u);
}

TEST(TraceRecorderTest, CsvOutput) {
  TraceRecorder trace;
  trace.Record(1.5, 7, TraceEventType::kLockGranted, 3);
  std::ostringstream os;
  trace.WriteCsv(os);
  EXPECT_EQ(os.str(), "time,txn,event,detail\n1.500000,7,lock_granted,3\n");
}

TEST(TraceRecorderTest, EventTypeNames) {
  EXPECT_STREQ(TraceEventTypeToString(TraceEventType::kCreated), "created");
  EXPECT_STREQ(TraceEventTypeToString(TraceEventType::kLockRequested),
               "lock_requested");
  EXPECT_STREQ(TraceEventTypeToString(TraceEventType::kLockGranted),
               "lock_granted");
  EXPECT_STREQ(TraceEventTypeToString(TraceEventType::kLockDenied),
               "lock_denied");
  EXPECT_STREQ(TraceEventTypeToString(TraceEventType::kCompleted),
               "completed");
  EXPECT_STREQ(TraceEventTypeToString(TraceEventType::kAborted), "aborted");
}

// --- lifecycle validator ------------------------------------------------

TEST(TraceValidateTest, AcceptsWellFormedLifecycle) {
  TraceRecorder trace;
  trace.Record(0.0, 1, TraceEventType::kCreated);
  trace.Record(1.0, 1, TraceEventType::kLockRequested);
  trace.Record(2.0, 1, TraceEventType::kLockDenied, 2);
  trace.Record(3.0, 1, TraceEventType::kLockRequested);
  trace.Record(4.0, 1, TraceEventType::kLockGranted);
  trace.Record(9.0, 1, TraceEventType::kCompleted);
  EXPECT_TRUE(trace.ValidateLifecycles().ok());
}

TEST(TraceValidateTest, RejectsTimeGoingBackwards) {
  TraceRecorder trace;
  trace.Record(2.0, 1, TraceEventType::kCreated);
  trace.Record(1.0, 2, TraceEventType::kCreated);
  EXPECT_FALSE(trace.ValidateLifecycles().ok());
}

TEST(TraceValidateTest, RejectsEventsBeforeCreation) {
  TraceRecorder trace;
  trace.Record(1.0, 1, TraceEventType::kLockRequested);
  EXPECT_FALSE(trace.ValidateLifecycles().ok());
}

TEST(TraceValidateTest, RejectsDoubleCreation) {
  TraceRecorder trace;
  trace.Record(1.0, 1, TraceEventType::kCreated);
  trace.Record(2.0, 1, TraceEventType::kCreated);
  EXPECT_FALSE(trace.ValidateLifecycles().ok());
}

TEST(TraceValidateTest, RejectsGrantWithoutRequest) {
  TraceRecorder trace;
  trace.Record(1.0, 1, TraceEventType::kCreated);
  trace.Record(2.0, 1, TraceEventType::kLockGranted);
  EXPECT_FALSE(trace.ValidateLifecycles().ok());
}

TEST(TraceValidateTest, RejectsOverlappingRequests) {
  TraceRecorder trace;
  trace.Record(1.0, 1, TraceEventType::kCreated);
  trace.Record(2.0, 1, TraceEventType::kLockRequested);
  trace.Record(3.0, 1, TraceEventType::kLockRequested);
  EXPECT_FALSE(trace.ValidateLifecycles().ok());
}

TEST(TraceValidateTest, RejectsActivityAfterCompletion) {
  TraceRecorder trace;
  trace.Record(1.0, 1, TraceEventType::kCreated);
  trace.Record(2.0, 1, TraceEventType::kCompleted);
  trace.Record(3.0, 1, TraceEventType::kLockRequested);
  EXPECT_FALSE(trace.ValidateLifecycles().ok());
}

// --- end-to-end against the paper engine ---------------------------------

TEST(TraceIntegrationTest, SimulatorTraceValidatesAndMatchesMetrics) {
  model::SystemConfig cfg = model::SystemConfig::Table1Defaults();
  cfg.tmax = 800.0;
  TraceRecorder trace;
  core::GranularitySimulator::Options options;
  options.obs.trace = &trace;
  auto result = core::GranularitySimulator::RunOnce(
      cfg, workload::WorkloadSpec::Base(cfg), 42, options);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(trace.ValidateLifecycles().ok())
      << trace.ValidateLifecycles().ToString();
  // Event counts line up with the reported metrics.
  int64_t requested = 0, granted = 0, denied = 0, completed = 0;
  for (const TraceEvent& ev : trace.events()) {
    switch (ev.type) {
      case TraceEventType::kLockRequested:
        ++requested;
        break;
      case TraceEventType::kLockGranted:
        ++granted;
        break;
      case TraceEventType::kLockDenied:
        ++denied;
        break;
      case TraceEventType::kCompleted:
        ++completed;
        break;
      default:
        break;
    }
  }
  EXPECT_EQ(requested, result->lock_requests);
  EXPECT_EQ(denied, result->lock_denials);
  EXPECT_EQ(completed, result->totcom);
  EXPECT_EQ(granted, requested - denied);
  EXPECT_EQ(trace.dropped(), 0u);
}

TEST(TraceIntegrationTest, TracingDoesNotChangeTheSimulation) {
  model::SystemConfig cfg = model::SystemConfig::Table1Defaults();
  cfg.tmax = 800.0;
  const auto spec = workload::WorkloadSpec::Base(cfg);
  auto untraced = core::GranularitySimulator::RunOnce(cfg, spec, 7);
  TraceRecorder trace;
  core::GranularitySimulator::Options options;
  options.obs.trace = &trace;
  auto traced = core::GranularitySimulator::RunOnce(cfg, spec, 7, options);
  ASSERT_TRUE(untraced.ok() && traced.ok());
  EXPECT_EQ(untraced->totcom, traced->totcom);
  EXPECT_DOUBLE_EQ(untraced->throughput, traced->throughput);
  EXPECT_DOUBLE_EQ(untraced->totcpus, traced->totcpus);
  EXPECT_EQ(untraced->events_executed, traced->events_executed);
}

TEST(TraceIntegrationTest, ExplicitEngineTraceValidates) {
  model::SystemConfig cfg = model::SystemConfig::Table1Defaults();
  cfg.tmax = 800.0;
  TraceRecorder trace;
  db::ExplicitSimulator::Options options;
  options.obs.trace = &trace;
  auto result = db::ExplicitSimulator::RunOnce(
      cfg, workload::WorkloadSpec::Base(cfg), 42, options);
  ASSERT_TRUE(result.ok());
  const Status verdict = trace.ValidateLifecycles();
  EXPECT_TRUE(verdict.ok()) << verdict.ToString();
  EXPECT_FALSE(trace.events().empty());
}

TEST(TraceIntegrationTest, IncrementalEngineRecordsAborts) {
  // Contended random access: deadlock victims must appear as `aborted`
  // events, and the abort count must match the metrics.
  model::SystemConfig cfg = model::SystemConfig::Table1Defaults();
  cfg.tmax = 800.0;
  cfg.ltot = 20;
  cfg.ntrans = 20;
  cfg.maxtransize = 100;
  workload::WorkloadSpec spec = workload::WorkloadSpec::Base(cfg);
  spec.placement = model::Placement::kWorst;
  TraceRecorder trace;
  db::IncrementalSimulator::Options options;
  options.obs.trace = &trace;
  auto result = db::IncrementalSimulator::RunOnce(cfg, spec, 3, options);
  ASSERT_TRUE(result.ok());
  const Status verdict = trace.ValidateLifecycles();
  EXPECT_TRUE(verdict.ok()) << verdict.ToString();
  int64_t aborts = 0;
  for (const TraceEvent& ev : trace.events()) {
    if (ev.type == TraceEventType::kAborted) ++aborts;
  }
  EXPECT_EQ(aborts, result->deadlock_aborts);
  EXPECT_GT(aborts, 0);
}

}  // namespace
}  // namespace granulock::sim
