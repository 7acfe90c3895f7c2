#ifndef GRANULOCK_DB_GRANULE_SELECTOR_H_
#define GRANULOCK_DB_GRANULE_SELECTOR_H_

#include <cstdint>
#include <vector>

#include "model/placement.h"
#include "util/random.h"

namespace granulock::db {

/// Draws the *concrete* set of granules (ids in [0, ltot)) locked by a
/// transaction that accesses `nu` entities of a `dbsize`-entity database
/// under the given placement strategy. This is the explicit-lock-table
/// counterpart of `model::LocksRequired`, which only computes the count:
///
/// * kBest — the `ceil(nu*ltot/dbsize)` granules are contiguous, starting
///   at a uniformly random granule (wrapping), modelling a sequential scan
///   beginning at a random position.
/// * kRandom — `nu` distinct entities are drawn uniformly; each entity `e`
///   belongs to granule `floor(e * ltot / dbsize)`; the set of distinct
///   granules touched is returned (its expected size is Yao's formula).
/// * kWorst — `min(nu, ltot)` distinct granules drawn uniformly (every
///   entity in its own granule, spread maximally).
///
/// Requires 1 <= nu <= dbsize and 1 <= ltot <= dbsize. The result, which
/// replaces `*out`, is sorted, duplicate-free and non-empty. `out` keeps
/// its capacity, so a reused buffer makes selection allocation-free.
void SelectGranules(model::Placement placement, int64_t dbsize, int64_t ltot,
                    int64_t nu, Rng& rng, std::vector<int64_t>* out);
std::vector<int64_t> SelectGranules(model::Placement placement,
                                    int64_t dbsize, int64_t ltot, int64_t nu,
                                    Rng& rng);

/// Maps entity `e` (in [0, dbsize)) to its granule under the equal-division
/// scheme used by `SelectGranules`: granule `floor(e * ltot / dbsize)`.
int64_t GranuleOfEntity(int64_t entity, int64_t dbsize, int64_t ltot);

}  // namespace granulock::db

#endif  // GRANULOCK_DB_GRANULE_SELECTOR_H_
