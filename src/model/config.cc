#include "model/config.h"

#include <cmath>

#include "util/strings.h"

namespace granulock::model {

Status SystemConfig::Validate() const {
  if (dbsize < 1) {
    return Status::InvalidArgument("dbsize must be >= 1");
  }
  if (ltot < 1 || ltot > dbsize) {
    return Status::InvalidArgument(
        StrFormat("ltot must be in [1, dbsize=%lld], got %lld",
                  (long long)dbsize, (long long)ltot));
  }
  if (ntrans < 1) {
    return Status::InvalidArgument("ntrans must be >= 1");
  }
  if (maxtransize < 1 || maxtransize > dbsize) {
    return Status::InvalidArgument(
        StrFormat("maxtransize must be in [1, dbsize=%lld], got %lld",
                  (long long)dbsize, (long long)maxtransize));
  }
  // Every check below is a comparison, which a NaN passes; reject the
  // non-finite values first.
  if (!std::isfinite(cputime) || !std::isfinite(iotime) ||
      !std::isfinite(lcputime) || !std::isfinite(liotime)) {
    return Status::InvalidArgument("service times must be finite");
  }
  if (!std::isfinite(tmax) || !std::isfinite(warmup) ||
      !std::isfinite(think_time)) {
    return Status::InvalidArgument(
        "tmax, warmup and think_time must be finite");
  }
  if (cputime < 0.0 || iotime < 0.0 || lcputime < 0.0 || liotime < 0.0) {
    return Status::InvalidArgument("service times must be non-negative");
  }
  if (cputime + iotime <= 0.0) {
    return Status::InvalidArgument(
        "at least one of cputime/iotime must be positive");
  }
  if (npros < 1) {
    return Status::InvalidArgument("npros must be >= 1");
  }
  if (tmax <= 0.0) {
    return Status::InvalidArgument("tmax must be positive");
  }
  if (warmup < 0.0 || warmup >= tmax) {
    return Status::InvalidArgument("warmup must be in [0, tmax)");
  }
  if (think_time < 0.0) {
    return Status::InvalidArgument("think_time must be non-negative");
  }
  return Status::OK();
}

SystemConfig SystemConfig::Table1Defaults() {
  SystemConfig cfg;
  cfg.dbsize = 5000;
  cfg.ltot = 100;
  cfg.ntrans = 10;
  cfg.maxtransize = 500;
  cfg.cputime = 0.05;
  cfg.iotime = 0.2;
  cfg.lcputime = 0.01;
  cfg.liotime = 0.2;
  cfg.npros = 10;
  cfg.tmax = 10000.0;
  cfg.warmup = 0.0;
  return cfg;
}

std::string SystemConfig::ToString() const {
  return StrFormat(
      "dbsize=%lld ltot=%lld ntrans=%lld maxtransize=%lld cputime=%g "
      "iotime=%g lcputime=%g liotime=%g npros=%lld tmax=%g warmup=%g "
      "think_time=%g",
      (long long)dbsize, (long long)ltot, (long long)ntrans,
      (long long)maxtransize, cputime, iotime, lcputime, liotime,
      (long long)npros, tmax, warmup, think_time);
}

}  // namespace granulock::model
