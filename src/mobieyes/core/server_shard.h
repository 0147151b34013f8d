#ifndef MOBIEYES_CORE_SERVER_SHARD_H_
#define MOBIEYES_CORE_SERVER_SHARD_H_

#include <algorithm>
#include <cstdint>
#include <limits>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "mobieyes/common/ids.h"
#include "mobieyes/common/status.h"
#include "mobieyes/common/units.h"
#include "mobieyes/core/options.h"
#include "mobieyes/core/rqi.h"
#include "mobieyes/geo/grid.h"
#include "mobieyes/net/message.h"

namespace mobieyes::core {

inline constexpr Seconds kNeverExpires =
    std::numeric_limits<Seconds>::infinity();

// FOT row (paper §3.2): last reported kinematics of a focal object plus
// the queries bound to it.
struct FotEntry {
  net::FocalState state;
  double max_speed = 0.0;  // miles/second, carried for safe periods
  // Last known grid cell, kept current by cell-change reports. The
  // recorded kinematics must stay untouched between velocity reports or
  // dead-reckoning predictions downstream would diverge.
  geo::CellCoord cell;
  std::vector<QueryId> queries;
};

// SQT row (paper §3.2) plus the expiry time: the paper's example queries
// are time-bounded ("during next 2 hours"), so a query may carry a
// duration after which the server uninstalls it everywhere.
struct SqtEntry {
  QueryId qid = kInvalidQueryId;
  ObjectId focal_oid = kInvalidObjectId;
  geo::QueryRegion region;
  double filter_threshold = 1.0;
  geo::CellCoord curr_cell;
  geo::CellRange mon_region;
  Seconds expires_at = kNeverExpires;
  // Soft-state lease (options.lease_duration > 0): when the deadline
  // passes, the server re-broadcasts the query's monitoring-region state
  // so clients that missed the original install or update recover.
  Seconds lease_renew_at = std::numeric_limits<Seconds>::infinity();
  std::unordered_set<ObjectId> result;
};

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

// One grid partition's slice of the server state: the FOT/SQT entries homed
// on its cells and the RQI rows of the cells it owns. A shard is a passive
// state container plus its step-phase scans — all orchestration (uplink
// dispatch, broadcasts, cross-shard reads) lives in the ShardRouter, which
// is what keeps a multi-shard run's observable behavior identical to the
// monolith.
class ServerShard {
 public:
  // Per-shard operational counters, exported as shard_id-tagged gauges
  // (timing-flagged: operational visibility, excluded from deterministic
  // metric exports, which must not vary with the shard count).
  struct Stats {
    uint64_t handoffs_in = 0;
    uint64_t handoffs_out = 0;
    // Step-phase wall time spent on this shard's scans and checkpoint
    // chunks; the max across shards is the largest shard body.
    uint64_t step_micros = 0;
  };

  // Checkpoint fragment: this shard's table entries, encoded per entry in
  // ascending key order. The router k-way merges fragments from all shards
  // into the global sorted-key image — byte-identical to the monolith's.
  struct ImageChunk {
    std::vector<int64_t> keys;    // ascending
    std::vector<size_t> offsets;  // keys.size() + 1 offsets into bytes
    std::vector<uint8_t> bytes;
  };

  ServerShard(int shard_id, const geo::Grid& grid, const ShardMap& map)
      : shard_id_(shard_id), grid_(&grid), map_(&map), rqi_(grid) {}

  int shard_id() const { return shard_id_; }
  bool OwnsCell(const geo::CellCoord& cell) const {
    return map_->ShardOf(cell) == shard_id_;
  }

  // --- State tables (mutated only by the router, serially) -----------------

  std::unordered_map<ObjectId, FotEntry>& fot() { return fot_; }
  const std::unordered_map<ObjectId, FotEntry>& fot() const { return fot_; }
  std::unordered_map<QueryId, SqtEntry>& sqt() { return sqt_; }
  const std::unordered_map<QueryId, SqtEntry>& sqt() const { return sqt_; }

  FotEntry* FindFocal(ObjectId oid);
  const FotEntry* FindFocal(ObjectId oid) const;
  SqtEntry* FindQuery(QueryId qid);
  const SqtEntry* FindQuery(QueryId qid) const;

  // --- RQI slice -----------------------------------------------------------
  // Full-grid-shaped index populated only on owned cells. Registration is
  // filtered per cell, preserving the monolith's per-row insertion order
  // (rows are independent, so filtering cannot reorder within a row).

  void RqiAdd(QueryId qid, const geo::CellRange& mon_region);
  void RqiRemove(QueryId qid, const geo::CellRange& mon_region);
  const std::vector<QueryId>& QueriesForCell(const geo::CellCoord& c) const {
    return rqi_.QueriesForCell(c);
  }

  // --- Step-phase scans (read-only; append matching query ids to *out) ----

  void CollectExpired(Seconds now, std::vector<QueryId>* out) const;
  void CollectLeaseDue(Seconds now, std::vector<QueryId>* out) const;

  // --- Ownership handoff (DESIGN.md §10) -----------------------------------

  // Detaches a focal object and every query bound to it into a handoff
  // message for `to_shard`. RQI rows stay put — they are keyed by cell, not
  // by owner, so a handoff moves table entries only.
  net::ShardHandoff ExtractFocal(ObjectId oid, int to_shard);

  // Installs a handoff's FOT row and SQT entries into this shard,
  // preserving the binding order carried by the message.
  void AdoptFocal(net::ShardHandoff handoff);

  // --- Checkpointing -------------------------------------------------------

  ImageChunk EncodeFotChunk() const;
  ImageChunk EncodeSqtChunk() const;

  // --- Process-transport replication (DESIGN.md §13) -----------------------

  // Digest of the RQI slice: the wrapping sum over owned non-empty rows of
  // a row hash seeded with the flat cell index and mixed entry by entry, so
  // it is sensitive to each row's order. RqiAdd/RqiRemove keep it current
  // at O(row length) per cell; reading it is O(1). The RQI is the
  // delta-replicated table of the process backplane, so agreement on this
  // digest is what a shard daemon's acks and scan replies assert.
  uint64_t StateDigest() const { return digest_; }

  // Full-state image for a daemon (re)join: the checkpoint chunks (FOT,
  // SQT — the same per-entry encoding Checkpoint writes) plus the RQI rows
  // of owned cells and the digest above. Appends to *out.
  void EncodeStateSync(std::vector<uint8_t>* out) const;

  // Replaces this shard's state with a sync image produced by
  // EncodeStateSync on a shard with the same id and map. Verifies the
  // embedded digest.
  Status LoadStateSync(const uint8_t* data, size_t size);

  // Drops all state (checkpoint decode starts from empty shards).
  void Clear();

  const Stats& stats() const { return stats_; }
  Stats& stats() { return stats_; }

 private:
  // Runs `edit` on the RQI row of owned cell `c` and moves digest_ by the
  // change in that row's hash.
  template <typename Edit>
  void EditRow(const geo::CellCoord& c, Edit&& edit);

  int shard_id_;
  const geo::Grid* grid_;
  const ShardMap* map_;

  std::unordered_map<ObjectId, FotEntry> fot_;
  std::unordered_map<QueryId, SqtEntry> sqt_;
  ReverseQueryIndex rqi_;
  uint64_t digest_ = 0;  // StateDigest(), kept current by every RQI edit
  Stats stats_;
};

}  // namespace mobieyes::core

#endif  // MOBIEYES_CORE_SERVER_SHARD_H_
