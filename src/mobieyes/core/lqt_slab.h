#ifndef MOBIEYES_CORE_LQT_SLAB_H_
#define MOBIEYES_CORE_LQT_SLAB_H_

#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "mobieyes/common/ids.h"
#include "mobieyes/common/units.h"
#include "mobieyes/geo/grid.h"
#include "mobieyes/geo/query_region.h"
#include "mobieyes/net/message.h"

namespace mobieyes::core {

// LQT key signature (DESIGN.md §16): a 64-bit Bloom summary of the qids and
// focal oids one LQT holds, two bits per key. A key whose bits are not all
// set in the signature is provably absent from the LQT; a key whose bits
// are all set may be present or may collide.
inline uint64_t LqtKeyBits(uint64_t hash) {
  return (uint64_t{1} << (hash >> 58)) | (uint64_t{1} << ((hash >> 52) & 63));
}
inline uint64_t LqtQidKey(QueryId qid) {
  return LqtKeyBits(static_cast<uint64_t>(qid) * 0x9E3779B97F4A7C15ULL);
}
inline uint64_t LqtFocalKey(ObjectId focal_oid) {
  return LqtKeyBits(static_cast<uint64_t>(focal_oid) * 0xC2B2AE3D27D4EB4FULL);
}
inline bool LqtMayHold(uint64_t signature, uint64_t key) {
  return (signature & key) == key;
}

// The query state an LQT row holds (paper §3.2): everything a holder takes
// from the server's QueryInfo except the qid. Kept once per distinct
// content in LqtSlab's version table.
struct QueryVersion {
  ObjectId focal_oid = kInvalidObjectId;
  net::FocalState focal;
  geo::QueryRegion region;
  double filter_threshold = 1.0;
  geo::CellRange mon_region;
  double focal_max_speed = 0.0;
};

// One LQT row: the state that is each holder's own.
struct LqtRow {
  QueryId qid = kInvalidQueryId;
  Seconds ptm = 0.0;  // safe period (§4.2): next evaluation due at or after
  // Soft-state lease (lease_duration > 0): the row is dropped if no server
  // broadcast refreshes it before this time.
  Seconds lease_expires_at = std::numeric_limits<Seconds>::infinity();
  uint32_t version = 0;  // LqtSlab::version(version) is the query state
  bool is_target = false;
};
static_assert(sizeof(LqtRow) <= 40, "LQT rows must stay compact");

// Every object's LQT in one slab (DESIGN.md §16). Object k owns the rows
// [begin, begin + size) of one vector, kept in the client's
// (focal_oid, reach desc, qid) order; the query state they point to lives
// in a version table, interned by exact (bitwise) content and freed by
// reference count, so holders that saw the same updates share one version
// and a holder that missed one keeps the old.
//
// An insert into a full range moves the range to the end of the slab with
// twice the room, which may reallocate the slab: no row pointer or span
// survives an insert anywhere. Compaction rewrites the live rows in oid
// order; its caller runs it only between client turns.
class LqtSlab {
 public:
  // Rows the slab may hold outside its live ranges beyond the live count
  // before compaction; keeps small deployments from compacting every tick.
  static constexpr size_t kCompactionSlack = 64;

  explicit LqtSlab(size_t objects)
      : ranges_(objects), signatures_(objects, 0) {}

  size_t size(size_t k) const { return ranges_[k].size; }
  // Valid until the next Insert (to any object) or compaction.
  std::span<LqtRow> rows(size_t k) {
    return {rows_.data() + ranges_[k].begin, ranges_[k].size};
  }
  LqtRow& row(size_t k, size_t i) { return rows_[ranges_[k].begin + i]; }
  const LqtRow& row(size_t k, size_t i) const {
    return rows_[ranges_[k].begin + i];
  }
  // The query state of a row; invalidated by the next Acquire.
  const QueryVersion& version(uint32_t v) const {
    return versions_[v].content;
  }
  // version(v).region.MaxReach(), computed once per version.
  Miles max_reach(uint32_t v) const { return versions_[v].max_reach; }
  // Exact key signature of object k's rows.
  uint64_t signature(size_t k) const { return signatures_[k]; }

  // Inserts `row`, which holds a reference from Acquire, at position i.
  void Insert(size_t k, size_t i, const LqtRow& row);
  // Erases row i and releases its version reference.
  void Erase(size_t k, size_t i);
  void Clear(size_t k);

  // Finds or creates the version with exactly this content and takes a
  // reference to it.
  uint32_t Acquire(const QueryVersion& content);
  // Points `row` at the version whose content is its current version's
  // with the focal state, monitoring region and focal maximum speed an
  // update carries, moving the reference. Rows do not move; the version
  // table may, so the region and speed are taken by value.
  void Repoint(LqtRow& row, const net::FocalState& focal,
               geo::CellRange mon_region, double focal_max_speed) {
    const uint32_t from = row.version;
    const QueryVersion& current = versions_[from].content;
    if (SameUpdate(current.focal, current.mon_region, current.focal_max_speed,
                   focal, mon_region, focal_max_speed)) {
      return;  // the row already holds this content
    }
    row.version = AcquireUpdated(from, focal, mon_region, focal_max_speed);
    Release(from);
  }

  // Rewrites the live rows in oid order once the rows outside every live
  // range outnumber the live rows (plus a fixed slack), so the slab stays
  // within about twice its live rows and the tick walks one stream. After
  // a compaction each of the slab's two buffers has room for at most
  // kKeptCapacity * (2 * live + kCompactionSlack) rows.
  void CompactIfSparse();
  static constexpr size_t kKeptCapacity = 4;

  size_t live_rows() const { return live_rows_; }
  size_t slab_rows() const { return rows_.size(); }
  // Rows both buffers (the slab and its compaction target) have room for.
  size_t slab_capacity() const {
    return rows_.capacity() + spare_rows_.capacity();
  }
  size_t live_versions() const { return live_versions_; }

 private:
  struct Range {
    uint32_t begin = 0;
    uint32_t size = 0;
    uint32_t capacity = 0;
  };
  struct VersionSlot {
    QueryVersion content;
    Miles max_reach = 0.0;
    uint64_t hash = 0;
    uint32_t refs = 0;
  };

  // Bitwise equality of the fields an update carries.
  static bool SameUpdate(const net::FocalState& a, const geo::CellRange& ar,
                         double as, const net::FocalState& b,
                         const geo::CellRange& br, double bs);
  // Repoint's slow path: interns the updated content.
  uint32_t AcquireUpdated(uint32_t from, const net::FocalState& focal,
                          geo::CellRange mon_region, double focal_max_speed);
  // Moves object k's range to the end of the slab with room to grow.
  void Grow(size_t k);
  void Release(uint32_t v);
  void RecomputeSignature(size_t k);
  // Open-addressing index over live versions: slot value v + 1, 0 = empty.
  size_t FindSlot(const QueryVersion& content, uint64_t hash) const;
  void Rehash(size_t buckets);

  std::vector<LqtRow> rows_;
  std::vector<LqtRow> spare_rows_;  // compaction target, kept for reuse
  std::vector<Range> ranges_;
  // Apart from the ranges: the broadcast relevance check reads only these,
  // for every covered object, so they stay a small dense array.
  std::vector<uint64_t> signatures_;
  size_t live_rows_ = 0;

  std::vector<VersionSlot> versions_;
  std::vector<uint32_t> free_versions_;
  std::vector<uint32_t> index_;
  size_t live_versions_ = 0;
};

}  // namespace mobieyes::core

#endif  // MOBIEYES_CORE_LQT_SLAB_H_
