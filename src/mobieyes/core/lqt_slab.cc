#include "mobieyes/core/lqt_slab.h"

#include <algorithm>
#include <array>
#include <bit>
#include <iterator>
#include <tuple>

namespace mobieyes::core {

namespace {

// A version's identity: every field as its exact bit pattern, so two
// versions are shared only when a holder could not tell them apart.
using ContentWords = std::array<uint64_t, 14>;

ContentWords Words(const QueryVersion& v) {
  auto bits = [](double x) { return std::bit_cast<uint64_t>(x); };
  auto pair = [](int32_t lo, int32_t hi) {
    return (static_cast<uint64_t>(static_cast<uint32_t>(lo)) << 32) |
           static_cast<uint32_t>(hi);
  };
  return {static_cast<uint64_t>(v.focal_oid),
          bits(v.focal.pos.x),
          bits(v.focal.pos.y),
          bits(v.focal.vel.x),
          bits(v.focal.vel.y),
          bits(v.focal.tm),
          static_cast<uint64_t>(v.region.shape),
          bits(v.region.radius),
          bits(v.region.half_w),
          bits(v.region.half_h),
          bits(v.filter_threshold),
          pair(v.mon_region.i_lo, v.mon_region.i_hi),
          pair(v.mon_region.j_lo, v.mon_region.j_hi),
          bits(v.focal_max_speed)};
}

uint64_t Hash(const ContentWords& words) {
  // Multilinear: independent products, so the words hash in parallel.
  static constexpr uint64_t kKeys[] = {
      0x9E3779B97F4A7C15ULL, 0xC2B2AE3D27D4EB4FULL, 0x165667B19E3779F9ULL,
      0xD6E8FEB86659FD93ULL, 0xFF51AFD7ED558CCDULL, 0xC4CEB9FE1A85EC53ULL,
      0x27D4EB2F165667C5ULL, 0x94D049BB133111EBULL, 0xBF58476D1CE4E5B9ULL,
      0x2545F4914F6CDD1DULL, 0x5851F42D4C957F2DULL, 0x14057B7EF767814FULL,
      0xDA942042E4DD58B5ULL, 0x8CB92BA72F3D8DD7ULL};
  static_assert(std::size(kKeys) == std::tuple_size_v<ContentWords>);
  uint64_t hash = 0;
  for (size_t w = 0; w < words.size(); ++w) {
    hash += (words[w] ^ (w + 1)) * kKeys[w];
  }
  // splitmix64 finalizer: linear probing reads the low bits.
  hash ^= hash >> 30;
  hash *= 0xBF58476D1CE4E5B9ULL;
  hash ^= hash >> 27;
  hash *= 0x94D049BB133111EBULL;
  return hash ^ (hash >> 31);
}

}  // namespace

void LqtSlab::Insert(size_t k, size_t i, const LqtRow& row) {
  Range& range = ranges_[k];
  if (range.size == range.capacity) Grow(k);
  LqtRow* base = rows_.data() + range.begin;
  std::copy_backward(base + i, base + range.size, base + range.size + 1);
  base[i] = row;
  ++range.size;
  ++live_rows_;
  signatures_[k] |= LqtQidKey(row.qid) |
                    LqtFocalKey(versions_[row.version].content.focal_oid);
}

void LqtSlab::Erase(size_t k, size_t i) {
  Range& range = ranges_[k];
  LqtRow* base = rows_.data() + range.begin;
  Release(base[i].version);
  std::copy(base + i + 1, base + range.size, base + i);
  --range.size;
  --live_rows_;
  RecomputeSignature(k);
}

void LqtSlab::Clear(size_t k) {
  Range& range = ranges_[k];
  for (const LqtRow& row : rows(k)) Release(row.version);
  live_rows_ -= range.size;
  range.size = 0;
  signatures_[k] = 0;
}

void LqtSlab::Grow(size_t k) {
  Range& range = ranges_[k];
  const uint32_t capacity = std::max<uint32_t>(2, 2 * range.capacity);
  const auto end = static_cast<uint32_t>(rows_.size());
  if (range.begin + range.capacity == end) {
    // The last range in the slab grows in place.
    rows_.resize(range.begin + capacity);
  } else {
    rows_.resize(end + capacity);
    std::copy_n(rows_.begin() + range.begin, range.size, rows_.begin() + end);
    range.begin = end;
  }
  range.capacity = capacity;
}

void LqtSlab::CompactIfSparse() {
  const size_t bound = 2 * live_rows_ + kCompactionSlack;
  if (rows_.size() <= bound) return;
  // Both buffers are kept for reuse, so a steady slab allocates nothing.
  // Between compactions it fills at most `bound` rows plus one step's
  // growth, and a vector at most doubles past what it holds; a buffer with
  // room for more than kKeptCapacity * bound rows is left over from a spike
  // (a crash-restore reinstall) and goes back to the allocator.
  const size_t kept = kKeptCapacity * bound;
  if (spare_rows_.capacity() > kept) spare_rows_ = std::vector<LqtRow>();
  spare_rows_.clear();
  for (Range& range : ranges_) {
    const auto begin = static_cast<uint32_t>(spare_rows_.size());
    spare_rows_.insert(spare_rows_.end(), rows_.begin() + range.begin,
                       rows_.begin() + range.begin + range.size);
    range.begin = begin;
    range.capacity = range.size;
  }
  rows_.swap(spare_rows_);
  if (spare_rows_.capacity() > kept) spare_rows_ = std::vector<LqtRow>();
}

void LqtSlab::RecomputeSignature(size_t k) {
  uint64_t signature = 0;
  for (const LqtRow& row : rows(k)) {
    signature |= LqtQidKey(row.qid) |
                 LqtFocalKey(versions_[row.version].content.focal_oid);
  }
  signatures_[k] = signature;
}

size_t LqtSlab::FindSlot(const QueryVersion& content, uint64_t hash) const {
  const ContentWords words = Words(content);
  const size_t mask = index_.size() - 1;
  for (size_t pos = hash & mask;; pos = (pos + 1) & mask) {
    const uint32_t slot = index_[pos];
    if (slot == 0) return pos;
    const VersionSlot& version = versions_[slot - 1];
    if (version.hash == hash && Words(version.content) == words) return pos;
  }
}

void LqtSlab::Rehash(size_t buckets) {
  index_.assign(buckets, 0);
  const size_t mask = buckets - 1;
  for (size_t v = 0; v < versions_.size(); ++v) {
    if (versions_[v].refs == 0) continue;
    size_t pos = versions_[v].hash & mask;
    while (index_[pos] != 0) pos = (pos + 1) & mask;
    index_[pos] = static_cast<uint32_t>(v + 1);
  }
}

uint32_t LqtSlab::Acquire(const QueryVersion& content) {
  if (2 * (live_versions_ + 1) > index_.size()) {
    Rehash(std::max<size_t>(64, 2 * index_.size()));
  }
  const uint64_t hash = Hash(Words(content));
  const size_t pos = FindSlot(content, hash);
  if (index_[pos] != 0) {
    const uint32_t v = index_[pos] - 1;
    ++versions_[v].refs;
    return v;
  }
  uint32_t v;
  if (!free_versions_.empty()) {
    v = free_versions_.back();
    free_versions_.pop_back();
  } else {
    v = static_cast<uint32_t>(versions_.size());
    versions_.emplace_back();
  }
  VersionSlot& slot = versions_[v];
  slot.content = content;
  slot.max_reach = content.region.MaxReach();
  slot.hash = hash;
  slot.refs = 1;
  index_[pos] = v + 1;
  ++live_versions_;
  return v;
}

void LqtSlab::Release(uint32_t v) {
  if (--versions_[v].refs > 0) return;
  // Backward-shift deletion keeps every probe chain unbroken.
  const size_t mask = index_.size() - 1;
  size_t hole = versions_[v].hash & mask;
  while (index_[hole] != v + 1) hole = (hole + 1) & mask;
  for (size_t next = (hole + 1) & mask; index_[next] != 0;
       next = (next + 1) & mask) {
    const size_t home = versions_[index_[next] - 1].hash & mask;
    if (((next - home) & mask) >= ((next - hole) & mask)) {
      index_[hole] = index_[next];
      hole = next;
    }
  }
  index_[hole] = 0;
  free_versions_.push_back(v);
  --live_versions_;
}

bool LqtSlab::SameUpdate(const net::FocalState& a, const geo::CellRange& ar,
                         double as, const net::FocalState& b,
                         const geo::CellRange& br, double bs) {
  auto same = [](double x, double y) {
    return std::bit_cast<uint64_t>(x) == std::bit_cast<uint64_t>(y);
  };
  return same(a.pos.x, b.pos.x) && same(a.pos.y, b.pos.y) &&
         same(a.vel.x, b.vel.x) && same(a.vel.y, b.vel.y) &&
         same(a.tm, b.tm) && ar.i_lo == br.i_lo && ar.i_hi == br.i_hi &&
         ar.j_lo == br.j_lo && ar.j_hi == br.j_hi && same(as, bs);
}

uint32_t LqtSlab::AcquireUpdated(uint32_t from, const net::FocalState& focal,
                                 geo::CellRange mon_region,
                                 double focal_max_speed) {
  QueryVersion content = versions_[from].content;
  content.focal = focal;
  content.mon_region = mon_region;
  content.focal_max_speed = focal_max_speed;
  return Acquire(content);
}

}  // namespace mobieyes::core
