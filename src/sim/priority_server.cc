#include "sim/priority_server.h"

#include <bit>
#include <utility>

#include "sim/invariants.h"
#include "util/logging.h"

namespace granulock::sim {

LockLane::LockLane(Simulator* sim, std::string name)
    : sim_(sim), name_(std::move(name)) {
  GRANULOCK_CHECK(sim_ != nullptr);
}

template <typename F>
int LockLane::ForEachWorkingMember(F f) {
  int count = 0;
  for (size_t w = 0; w < working_.size(); ++w) {
    for (uint64_t bits = working_[w]; bits != 0; bits &= bits - 1) {
      f(members_[w * 64 + static_cast<size_t>(std::countr_zero(bits))]);
      ++count;
    }
  }
  return count;
}

void LockLane::Submit(SimTime service, Completion on_complete) {
  GRANULOCK_CHECK_GE(service, 0.0) << "negative service demand on " << name_;
  ++accepted_;
  queue_.push_back(Job{service, on_complete});
  if (queue_.size() > 1) return;  // waits behind the job in service
  // Preemptive-resume: lock work interrupts every member's transaction
  // work. With the lane idle, a working member has a job in service.
  const int in_service = ForEachWorkingMember(
      [](PriorityServer* member) { member->SuspendService(); });
  const int npros = static_cast<int>(members_.size());
  Transition(npros - in_service, npros);
  BeginService();
}

void LockLane::BeginService() {
  service_start_ = sim_->Now();
  sim_->ScheduleAfter(queue_.front().service, [this] { FinishCurrent(); });
}

void LockLane::FinishCurrent() {
  busy_time_ += sim_->Now() - service_start_;
  ++completed_;
  ++finished_;
  GRANULOCK_DCHECK_LE(finished_, accepted_)
      << "lane " << name_ << " finished more jobs than were submitted";
  Completion done = queue_.front().on_complete;
  queue_.pop_front();
  if (queue_.empty()) {
    const int resumed = ForEachWorkingMember(
        [](PriorityServer* member) { member->ResumeService(); });
    const int npros = static_cast<int>(members_.size());
    Transition(resumed - npros, -npros);
  } else {
    // Hand-off: every member goes straight on to the next lock job. The
    // union still closes its span at this instant, as with one server per
    // node, and the next completion is scheduled before the finished
    // job's continuation runs.
    Transition(0, 0);
    BeginService();
  }
  if (done) done();
}

double LockLane::BusyTime() const {
  double t = busy_time_;
  if (busy()) t += sim_->Now() - service_start_;
  return t;
}

void LockLane::ResetStats() {
  busy_time_ = 0.0;
  completed_ = 0;
  // Drop the already-delivered portion of the in-progress job from the
  // post-reset accounting window; its completion event is unaffected.
  if (busy()) service_start_ = sim_->Now();
}

void LockLane::CheckConsistency() const {
  // Conservation: accepted == finished + queued (the head in service).
  GRANULOCK_AUDIT_CHECK_EQ(accepted_, finished_ + queue_.size())
      << "lane " << name_ << ": accepted=" << accepted_
      << " finished=" << finished_ << " queued=" << queue_.size();
  GRANULOCK_AUDIT_CHECK_GE(busy_time_, 0.0) << "lane " << name_;
  // The windowed completion counter can never exceed the lifetime one.
  GRANULOCK_AUDIT_CHECK_LE(completed_, finished_) << "lane " << name_;
  for (size_t i = 0; i < queue_.size(); ++i) {
    GRANULOCK_AUDIT_CHECK_GE(queue_[i].service, 0.0)
        << "lane " << name_ << " queued job";
  }
  for (const PriorityServer* member : members_) {
    GRANULOCK_AUDIT_CHECK_EQ(IsWorking(member->index_),
                             !member->queue_.empty())
        << "lane " << name_ << " mistracks whether server "
        << member->name() << " has transaction work";
    // While the lane is busy every member serves it, so a job in service
    // is suspended; while it is idle, none is, and queued work is served.
    GRANULOCK_AUDIT_CHECK_EQ(member->suspended_, busy() && member->serving_)
        << "server " << member->name() << " in-service job suspended="
        << member->suspended_ << " while lane " << name_
        << " busy=" << busy();
    GRANULOCK_AUDIT_CHECK(busy() || member->serving_ ||
                          member->queue_.empty())
        << "server " << member->name() << " idles with queued work";
  }
  if (!busy()) return;
  GRANULOCK_AUDIT_CHECK_LE(service_start_, sim_->Now())
      << "lane " << name_ << " service started in the future";
}

PriorityServer::PriorityServer(Simulator* sim, std::string name)
    : sim_(sim),
      name_(std::move(name)),
      own_lane_(std::make_unique<LockLane>(sim, name_)),
      lane_(own_lane_.get()) {
  JoinLane();
}

PriorityServer::PriorityServer(Simulator* sim, std::string name,
                               LockLane* lane)
    : sim_(sim), name_(std::move(name)), lane_(lane) {
  GRANULOCK_CHECK(sim_ != nullptr);
  GRANULOCK_CHECK(lane_ != nullptr && lane_->sim_ == sim_)
      << "server " << name_ << " must share its lane's simulator";
  GRANULOCK_CHECK(!lane_->busy()) << "server " << name_
                                  << " cannot join a busy lane";
  JoinLane();
}

void PriorityServer::JoinLane() {
  index_ = lane_->members_.size();
  lane_->members_.push_back(this);
  lane_->working_.resize((lane_->members_.size() + 63) / 64);
}

void PriorityServer::SetBusyUnion(BusyUnionTracker* tracker) {
  GRANULOCK_CHECK(lane_->members_.size() == 1 ||
                  lane_->busy_union_ == nullptr ||
                  lane_->busy_union_ == tracker)
      << "server " << name_ << " must share the busy union of lane "
      << lane_->name();
  lane_->busy_union_ = tracker;
}

void PriorityServer::Submit(ServiceClass cls, SimTime service,
                            Completion on_complete) {
  if (cls == ServiceClass::kLock) {
    lane_->Submit(service, on_complete);
    return;
  }
  GRANULOCK_CHECK_GE(service, 0.0) << "negative service demand on " << name_;
  ++accepted_;
  queue_.push_back(Job{service, on_complete});
  lane_->SetWorking(index_, true);
  StartNextIfIdle();
}

void PriorityServer::StartNextIfIdle() {
  if (serving_ || lane_->busy() || queue_.empty()) return;
  NotifyTransition(+1);
  StartHead();
}

void PriorityServer::StartHead() {
  serving_ = true;
  service_start_ = accounted_from_ = sim_->Now();
  completion_event_ = sim_->ScheduleAfter(queue_.front().remaining,
                                          [this] { FinishCurrent(); });
}

void PriorityServer::FinishCurrent() {
  GRANULOCK_CHECK(serving_ && !suspended_);
  busy_time_ += sim_->Now() - accounted_from_;
  ++completed_;
  ++finished_;
  GRANULOCK_DCHECK_LE(finished_, accepted_)
      << "server " << name_
      << " finished more transaction jobs than were submitted";
  NotifyTransition(-1);
  Completion done = queue_.front().on_complete;
  queue_.pop_front();
  serving_ = false;
  StartNextIfIdle();
  if (!serving_) lane_->SetWorking(index_, false);
  if (done) done();
}

void PriorityServer::SuspendService() {
  const SimTime now = sim_->Now();
  busy_time_ += now - accounted_from_;
  SimTime& remaining = queue_.front().remaining;
  remaining -= now - service_start_;
  if (remaining < 0.0) remaining = 0.0;
  sim_->Suspend(completion_event_);
  suspended_ = true;
}

void PriorityServer::ResumeService() {
  if (!suspended_) {
    StartHead();
    return;
  }
  suspended_ = false;
  const SimTime now = sim_->Now();
  service_start_ = accounted_from_ = now;
  sim_->Resume(completion_event_, now + queue_.front().remaining);
}

double PriorityServer::BusyTime(ServiceClass cls) const {
  if (cls == ServiceClass::kLock) return lane_->BusyTime();
  double t = busy_time_;
  if (serving_ && !suspended_) t += sim_->Now() - accounted_from_;
  return t;
}

double PriorityServer::TotalBusyTime() const {
  return BusyTime(ServiceClass::kLock) + BusyTime(ServiceClass::kTransaction);
}

uint64_t PriorityServer::CompletedJobs(ServiceClass cls) const {
  return cls == ServiceClass::kLock ? lane_->CompletedJobs() : completed_;
}

void PriorityServer::ResetStats() {
  busy_time_ = 0.0;
  completed_ = 0;
  // Drop the already-delivered portion of the in-progress job from the
  // post-reset accounting window. Its service start stays put, so a later
  // preemption still credits all the service it received. A suspended job
  // has been credited already and restarts its accounting on resume.
  if (serving_ && !suspended_) accounted_from_ = sim_->Now();
  if (own_lane_ != nullptr) own_lane_->ResetStats();
}

size_t PriorityServer::QueueLength(ServiceClass cls) const {
  if (cls == ServiceClass::kLock) return lane_->QueueLength();
  // The head counts as queued unless it is running.
  return queue_.size() - (serving_ && !suspended_ ? 1 : 0);
}

void PriorityServer::CheckConsistency() const {
  // Conservation: accepted == finished + queued (the head in service
  // while serving).
  GRANULOCK_AUDIT_CHECK_EQ(accepted_, finished_ + queue_.size())
      << "server " << name_ << ": accepted=" << accepted_
      << " finished=" << finished_ << " queued=" << queue_.size()
      << " serving=" << serving_;
  GRANULOCK_AUDIT_CHECK(!serving_ || !queue_.empty())
      << "server " << name_ << " serves a job it does not hold";
  GRANULOCK_AUDIT_CHECK_GE(busy_time_, 0.0) << "server " << name_;
  // The windowed completion counter can never exceed the lifetime one.
  GRANULOCK_AUDIT_CHECK_LE(completed_, finished_) << "server " << name_;
  for (size_t i = 0; i < queue_.size(); ++i) {
    GRANULOCK_AUDIT_CHECK_GE(queue_[i].remaining, 0.0)
        << "server " << name_ << " queued job";
  }
  if (serving_) {
    GRANULOCK_AUDIT_CHECK_LE(service_start_, accounted_from_)
        << "server " << name_ << " accounts service before it started";
    GRANULOCK_AUDIT_CHECK_LE(accounted_from_, sim_->Now())
        << "server " << name_ << " service started in the future";
  }
  if (own_lane_ != nullptr) own_lane_->CheckConsistency();
}

}  // namespace granulock::sim
