#ifndef MOBIEYES_CORE_SERVER_SHARD_H_
#define MOBIEYES_CORE_SERVER_SHARD_H_

#include <algorithm>
#include <cstdint>
#include <vector>

#include "mobieyes/common/ids.h"
#include "mobieyes/common/status.h"
#include "mobieyes/core/options.h"
#include "mobieyes/core/rqi.h"
#include "mobieyes/geo/grid.h"

namespace mobieyes::core {

// Grid-to-shard partition (DESIGN.md §10): contiguous bands of grid rows,
// shard k owning rows [k*band, (k+1)*band). A pure function of the grid
// shape and the shard count, so every component — router, shards, daemons,
// a restore with a different shard count — derives the same ownership.
class ShardMap {
 public:
  ShardMap(const geo::Grid& grid, const ShardingOptions& options);

  int num_shards() const { return num_shards_; }

  // Owning shard of a grid cell, in [0, num_shards).
  int ShardOf(const geo::CellCoord& cell) const {
    if (num_shards_ == 1) return 0;
    return std::min(cell.j / band_rows_, num_shards_ - 1);
  }

  // Shards owning at least one cell of `range`, ascending: ownership is
  // monotone in the row, so the range's row interval maps to a contiguous
  // shard interval.
  std::vector<int> ShardsIntersecting(const geo::CellRange& range) const;

 private:
  int num_shards_;
  int32_t band_rows_;  // rows per shard band
};

// One row band's slice of the reverse query index: the RQI rows of the
// cells the shard owns, plus their digest. The FOT and SQT are keyed by
// object and query, not by cell, and live in the ShardRouter; a shard holds
// exactly what its daemon mirrors, scans and verifies (DESIGN.md §13).
class ServerShard {
 public:
  struct Stats {
    // Always 0: nothing runs per shard in the step phase any more. Kept
    // because stepbench's frozen snapshot code still reads it.
    uint64_t step_micros = 0;
  };

  ServerShard(int shard_id, const geo::Grid& grid, const ShardMap& map)
      : shard_id_(shard_id), grid_(&grid), map_(&map), rqi_(grid) {}

  int shard_id() const { return shard_id_; }
  bool OwnsCell(const geo::CellCoord& cell) const {
    return map_->ShardOf(cell) == shard_id_;
  }

  // --- RQI slice (mutated only by the router, serially) --------------------
  // Full-grid-shaped index populated only on owned cells. Registration is
  // filtered per cell, preserving the monolith's per-row insertion order
  // (rows are independent, so filtering cannot reorder within a row).

  void RqiAdd(QueryId qid, const geo::CellRange& mon_region);
  void RqiRemove(QueryId qid, const geo::CellRange& mon_region);
  const std::vector<QueryId>& QueriesForCell(const geo::CellCoord& c) const {
    return rqi_.QueriesForCell(c);
  }

  // --- Process-transport replication (DESIGN.md §13) -----------------------

  // Digest of the RQI slice: the wrapping sum over owned non-empty rows of
  // a row hash seeded with the flat cell index and mixed entry by entry, so
  // it is sensitive to each row's order. RqiAdd/RqiRemove keep it current
  // at O(row length) per cell; reading it is O(1). Agreement on this digest
  // is what a shard daemon's acks and scan replies assert.
  uint64_t StateDigest() const { return digest_; }

  // Full-state image for a daemon (re)join: the RQI rows of owned cells and
  // the digest above. Appends to *out.
  void EncodeStateSync(std::vector<uint8_t>* out) const;

  // Replaces this shard's state with a sync image produced by
  // EncodeStateSync on a shard with the same id and map. Verifies the
  // embedded digest.
  Status LoadStateSync(const uint8_t* data, size_t size);

  // Drops all state (checkpoint decode starts from empty shards).
  void Clear();

  const Stats& stats() const { return stats_; }

 private:
  // Runs `edit` on the RQI row of owned cell `c` and moves digest_ by the
  // change in that row's hash.
  template <typename Edit>
  void EditRow(const geo::CellCoord& c, Edit&& edit);

  int shard_id_;
  const geo::Grid* grid_;
  const ShardMap* map_;

  ReverseQueryIndex rqi_;
  uint64_t digest_ = 0;  // StateDigest(), kept current by every RQI edit
  Stats stats_;
};

}  // namespace mobieyes::core

#endif  // MOBIEYES_CORE_SERVER_SHARD_H_
