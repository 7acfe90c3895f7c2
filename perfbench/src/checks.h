// Output checks every cell must pass, and the digest that pins a
// workload's simulated results.
#ifndef PERFBENCH_CHECKS_H_
#define PERFBENCH_CHECKS_H_

#include <cstddef>
#include <cstdint>
#include <string>

#include "core/metrics.h"
#include "grid.h"

namespace perfbench {

/// Checks one cell's (or one point's merged) metrics against the model's
/// identities:
///  * every field is finite;
///  * the response-time phases sum to the response time within 1e-9 of it;
///  * 0 <= lock_denials <= lock_requests;
///  * deadlock_aborts == txn_restarts + txn_sacrificed;
///  * probabilistic cells complete no more transactions than
///    model::ComputeThroughputBounds().Upper() allows over the run, with the
///    finite-run allowance explained in checks.cc.
/// Returns "" when every check passes, else a description of the first
/// failure.
std::string CheckMetrics(const Point& point,
                         const granulock::core::SimulationMetrics& m);

/// Folds `m`'s simulated outputs into the FNV-1a digest `h`. Every field
/// of SimulationMetrics is hashed by its bit pattern except
/// `events_executed`: the event count is a property of the implementation
/// (folding two events into one is a valid optimisation), not of the
/// simulated system.
uint64_t FoldDigest(uint64_t h, const granulock::core::SimulationMetrics& m);

/// FNV-1a offset basis, the digest of nothing.
inline constexpr uint64_t kDigestSeed = 0xcbf29ce484222325ull;

/// Folds `n` raw bytes into the FNV-1a digest `h`.
uint64_t FoldBytes(uint64_t h, const void* data, size_t n);

std::string HexDigest(uint64_t h);

}  // namespace perfbench

#endif  // PERFBENCH_CHECKS_H_
