#include "db/granule_selector.h"

#include <algorithm>

#include "util/logging.h"

namespace granulock::db {

int64_t GranuleOfEntity(int64_t entity, int64_t dbsize, int64_t ltot) {
  GRANULOCK_CHECK_GE(entity, 0);
  GRANULOCK_CHECK_LT(entity, dbsize);
  // 128-bit intermediate: entity * ltot can exceed 2^63 for very large
  // configured databases.
  const auto g = static_cast<int64_t>(
      (static_cast<__int128>(entity) * ltot) / dbsize);
  return std::min(g, ltot - 1);
}

void SelectGranules(model::Placement placement, int64_t dbsize, int64_t ltot,
                    int64_t nu, Rng& rng, std::vector<int64_t>* out) {
  GRANULOCK_CHECK_GE(nu, 1);
  GRANULOCK_CHECK_LE(nu, dbsize);
  GRANULOCK_CHECK_GE(ltot, 1);
  GRANULOCK_CHECK_LE(ltot, dbsize);
  switch (placement) {
    case model::Placement::kBest: {
      // The run start, start+1, ... wraps past ltot-1 to 0 (count <= ltot),
      // so in ascending order its wrapped tail comes first.
      const int64_t count = model::BestPlacementLocks(dbsize, ltot, nu);
      const int64_t start = rng.UniformInt(0, ltot - 1);
      const int64_t end = std::min(start + count, ltot);
      out->clear();
      for (int64_t g = 0; g < start + count - end; ++g) out->push_back(g);
      for (int64_t g = start; g < end; ++g) out->push_back(g);
      return;
    }
    case model::Placement::kRandom: {
      rng.SampleWithoutReplacement(dbsize, nu, out);
      for (int64_t& entity : *out) {
        entity = GranuleOfEntity(entity, dbsize, ltot);
      }
      // Entities are sorted, and GranuleOfEntity is monotone, so the
      // granules are sorted too; just deduplicate.
      out->erase(std::unique(out->begin(), out->end()), out->end());
      return;
    }
    case model::Placement::kWorst:
      rng.SampleWithoutReplacement(ltot, model::WorstPlacementLocks(ltot, nu),
                                   out);
      return;
  }
  GRANULOCK_LOG(Fatal) << "unknown placement";
}

std::vector<int64_t> SelectGranules(model::Placement placement,
                                    int64_t dbsize, int64_t ltot, int64_t nu,
                                    Rng& rng) {
  std::vector<int64_t> out;
  SelectGranules(placement, dbsize, ltot, nu, rng, &out);
  return out;
}

}  // namespace granulock::db
