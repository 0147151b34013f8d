#ifndef MOBIEYES_CORE_SHARD_TRANSPORT_H_
#define MOBIEYES_CORE_SHARD_TRANSPORT_H_

#include <vector>

#include "mobieyes/common/ids.h"
#include "mobieyes/geo/grid.h"

namespace mobieyes::core {

// Tap the ShardRouter drives when its RQI slices are replicated out of
// process (DESIGN.md §13). The router stays the single authoritative
// dispatcher — the transport observes every RQI edit so it can mirror it to
// the owning shard's daemon. Whether a daemon is up never changes what the
// router dispatches.
//
// All hooks fire on the dispatch thread, outside WAL replay (a replayed op
// was already mirrored by the pre-crash run).
class ShardTransport {
 public:
  virtual ~ShardTransport() = default;

  // An RQI registration (add = true) or removal on `shard`'s slice.
  virtual void OnRqiOp(bool add, int shard, QueryId qid,
                       const geo::CellRange& mon_region) = 0;

  // Authority mode (DESIGN.md §14): execute the RQI row read for `cell` on
  // `shard`'s authoritative executor, filling *out with the monitoring
  // query ids in row order. Returns false when the transport is not
  // authoritative for the shard right now (replica mode, daemon down or
  // resyncing) — the router then serves the scan from its warm local
  // mirror, which is the same-step failover path.
  virtual bool AuthorityScan(int shard, const geo::CellCoord& cell,
                             std::vector<QueryId>* out) {
    (void)shard;
    (void)cell;
    (void)out;
    return false;
  }
};

}  // namespace mobieyes::core

#endif  // MOBIEYES_CORE_SHARD_TRANSPORT_H_
