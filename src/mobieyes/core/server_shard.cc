#include "mobieyes/core/server_shard.h"

#include <algorithm>
#include <utility>

#include "mobieyes/net/codec.h"

namespace mobieyes::core {

namespace {

// Hash-map keys in deterministic order, so two checkpoints of identical
// logical state are byte-identical.
template <typename Map>
std::vector<typename Map::key_type> SortedKeys(const Map& map) {
  std::vector<typename Map::key_type> keys;
  keys.reserve(map.size());
  for (const auto& [key, value] : map) keys.push_back(key);
  std::sort(keys.begin(), keys.end());
  return keys;
}

// splitmix64's finalizer: a bijective 64-bit mix.
uint64_t Mix(uint64_t x) {
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ull;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

// One RQI row's term of StateDigest(): seeded with the flat cell index and
// mixed entry by entry, so reordering a row or moving an entry to another
// cell changes it. An empty row contributes 0, like a cell never touched.
uint64_t RowHash(int64_t flat, const std::vector<QueryId>& row) {
  if (row.empty()) return 0;
  uint64_t h = Mix(static_cast<uint64_t>(flat) + 0x9e3779b97f4a7c15ull);
  for (QueryId qid : row) h = Mix(h ^ static_cast<uint64_t>(qid));
  return h;
}

}  // namespace

ShardMap::ShardMap(const geo::Grid& grid, const ShardingOptions& options)
    : num_shards_(std::max(1, options.num_shards)) {
  // 64-bit: a shard count decoded from a config frame may be near INT_MAX.
  band_rows_ = static_cast<int32_t>(
      (int64_t{grid.rows()} + num_shards_ - 1) / num_shards_);
  if (band_rows_ < 1) band_rows_ = 1;
}

std::vector<int> ShardMap::ShardsIntersecting(
    const geo::CellRange& range) const {
  std::vector<int> shards;
  if (range.empty()) return shards;
  const int hi = ShardOf({range.i_lo, range.j_hi});
  for (int s = ShardOf({range.i_lo, range.j_lo}); s <= hi; ++s) {
    shards.push_back(s);
  }
  return shards;
}

FotEntry* ServerShard::FindFocal(ObjectId oid) {
  auto it = fot_.find(oid);
  return it == fot_.end() ? nullptr : &it->second;
}

const FotEntry* ServerShard::FindFocal(ObjectId oid) const {
  auto it = fot_.find(oid);
  return it == fot_.end() ? nullptr : &it->second;
}

SqtEntry* ServerShard::FindQuery(QueryId qid) {
  auto it = sqt_.find(qid);
  return it == sqt_.end() ? nullptr : &it->second;
}

const SqtEntry* ServerShard::FindQuery(QueryId qid) const {
  auto it = sqt_.find(qid);
  return it == sqt_.end() ? nullptr : &it->second;
}

template <typename Edit>
void ServerShard::EditRow(const geo::CellCoord& c, Edit&& edit) {
  const int64_t flat = grid_->FlatIndex(c);
  const std::vector<QueryId>& row = rqi_.QueriesForCell(c);
  digest_ -= RowHash(flat, row);
  edit();
  digest_ += RowHash(flat, row);
}

void ServerShard::RqiAdd(QueryId qid, const geo::CellRange& mon_region) {
  mon_region.ForEach([&](int32_t i, int32_t j) {
    geo::CellCoord c{i, j};
    if (OwnsCell(c)) EditRow(c, [&] { rqi_.AddCell(qid, c); });
  });
}

void ServerShard::RqiRemove(QueryId qid, const geo::CellRange& mon_region) {
  mon_region.ForEach([&](int32_t i, int32_t j) {
    geo::CellCoord c{i, j};
    if (OwnsCell(c)) EditRow(c, [&] { rqi_.RemoveCell(qid, c); });
  });
}

void ServerShard::CollectExpired(Seconds now,
                                 std::vector<QueryId>* out) const {
  for (const auto& [qid, entry] : sqt_) {
    if (entry.expires_at <= now) out->push_back(qid);
  }
}

void ServerShard::CollectLeaseDue(Seconds now,
                                  std::vector<QueryId>* out) const {
  for (const auto& [qid, entry] : sqt_) {
    if (entry.lease_renew_at <= now) out->push_back(qid);
  }
}

net::ShardHandoff ServerShard::ExtractFocal(ObjectId oid, int to_shard) {
  net::ShardHandoff handoff;
  handoff.from_shard = shard_id_;
  handoff.to_shard = to_shard;
  handoff.oid = oid;

  auto fot_it = fot_.find(oid);
  if (fot_it == fot_.end()) return handoff;
  FotEntry focal = std::move(fot_it->second);
  fot_.erase(fot_it);

  handoff.state = focal.state;
  handoff.max_speed = focal.max_speed;
  handoff.cell = focal.cell;
  handoff.queries.reserve(focal.queries.size());
  for (QueryId qid : focal.queries) {
    auto sqt_it = sqt_.find(qid);
    if (sqt_it == sqt_.end()) continue;
    SqtEntry entry = std::move(sqt_it->second);
    sqt_.erase(sqt_it);
    net::ShardQueryState q;
    q.qid = entry.qid;
    q.focal_oid = entry.focal_oid;
    q.region = entry.region;
    q.filter_threshold = entry.filter_threshold;
    q.curr_cell = entry.curr_cell;
    q.mon_region = entry.mon_region;
    q.expires_at = entry.expires_at;
    q.lease_renew_at = entry.lease_renew_at;
    q.result.assign(entry.result.begin(), entry.result.end());
    handoff.queries.push_back(std::move(q));
  }
  ++stats_.handoffs_out;
  return handoff;
}

void ServerShard::AdoptFocal(net::ShardHandoff handoff) {
  FotEntry focal;
  focal.state = handoff.state;
  focal.max_speed = handoff.max_speed;
  focal.cell = handoff.cell;
  focal.queries.reserve(handoff.queries.size());
  for (net::ShardQueryState& q : handoff.queries) {
    SqtEntry entry;
    entry.qid = q.qid;
    entry.focal_oid = q.focal_oid;
    entry.region = q.region;
    entry.filter_threshold = q.filter_threshold;
    entry.curr_cell = q.curr_cell;
    entry.mon_region = q.mon_region;
    entry.expires_at = q.expires_at;
    entry.lease_renew_at = q.lease_renew_at;
    entry.result.insert(q.result.begin(), q.result.end());
    focal.queries.push_back(q.qid);
    sqt_.emplace(q.qid, std::move(entry));
  }
  fot_.emplace(handoff.oid, std::move(focal));
  ++stats_.handoffs_in;
}

ServerShard::ImageChunk ServerShard::EncodeFotChunk() const {
  ImageChunk chunk;
  chunk.keys = SortedKeys(fot_);
  chunk.offsets.reserve(chunk.keys.size() + 1);
  net::ByteWriter w(&chunk.bytes);
  chunk.offsets.push_back(0);
  for (ObjectId oid : chunk.keys) {
    const FotEntry& entry = fot_.at(oid);
    w.I64(oid);
    w.State(entry.state);
    w.F64(entry.max_speed);
    w.Cell(entry.cell);
    // The bound-query list keeps its live order: broadcast order during
    // velocity relays follows it.
    w.U32(static_cast<uint32_t>(entry.queries.size()));
    for (QueryId qid : entry.queries) w.I64(qid);
    chunk.offsets.push_back(chunk.bytes.size());
  }
  return chunk;
}

ServerShard::ImageChunk ServerShard::EncodeSqtChunk() const {
  ImageChunk chunk;
  chunk.keys = SortedKeys(sqt_);
  chunk.offsets.reserve(chunk.keys.size() + 1);
  net::ByteWriter w(&chunk.bytes);
  chunk.offsets.push_back(0);
  for (QueryId qid : chunk.keys) {
    const SqtEntry& entry = sqt_.at(qid);
    w.I64(entry.qid);
    w.I64(entry.focal_oid);
    w.Region(entry.region);
    w.F64(entry.filter_threshold);
    w.Cell(entry.curr_cell);
    w.Range(entry.mon_region);
    w.F64(entry.expires_at);
    w.F64(entry.lease_renew_at);
    std::vector<ObjectId> result(entry.result.begin(), entry.result.end());
    std::sort(result.begin(), result.end());
    w.U32(static_cast<uint32_t>(result.size()));
    for (ObjectId oid : result) w.I64(oid);
    chunk.offsets.push_back(chunk.bytes.size());
  }
  return chunk;
}

void ServerShard::EncodeStateSync(std::vector<uint8_t>* out) const {
  net::ByteWriter w(out);
  ImageChunk fot = EncodeFotChunk();
  w.U32(static_cast<uint32_t>(fot.keys.size()));
  out->insert(out->end(), fot.bytes.begin(), fot.bytes.end());
  ImageChunk sqt = EncodeSqtChunk();
  w.U32(static_cast<uint32_t>(sqt.keys.size()));
  out->insert(out->end(), sqt.bytes.begin(), sqt.bytes.end());

  uint32_t row_count = 0;
  std::vector<uint8_t> rows;
  net::ByteWriter rw(&rows);
  for (int32_t j = 0; j < grid_->rows(); ++j) {
    for (int32_t i = 0; i < grid_->columns(); ++i) {
      geo::CellCoord c{i, j};
      if (!OwnsCell(c)) continue;
      const std::vector<QueryId>& row = rqi_.QueriesForCell(c);
      if (row.empty()) continue;
      rw.Cell(c);
      rw.U32(static_cast<uint32_t>(row.size()));
      for (QueryId qid : row) rw.I64(qid);
      ++row_count;
    }
  }
  w.U32(row_count);
  out->insert(out->end(), rows.begin(), rows.end());
  w.U64(StateDigest());
}

Status ServerShard::LoadStateSync(const uint8_t* data, size_t size) {
  net::ByteReader r(data, size);
  Clear();
  uint32_t fot_count = r.U32();
  for (uint32_t k = 0; r.ok() && k < fot_count; ++k) {
    ObjectId oid = r.I64();
    FotEntry entry;
    entry.state = r.State();
    entry.max_speed = r.F64();
    entry.cell = r.Cell();
    uint32_t nq = r.U32();
    if (nq > r.remaining() / 8) {
      r.Fail();
      break;
    }
    entry.queries.reserve(nq);
    for (uint32_t q = 0; q < nq; ++q) entry.queries.push_back(r.I64());
    if (r.ok()) fot_.emplace(oid, std::move(entry));
  }
  uint32_t sqt_count = r.U32();
  for (uint32_t k = 0; r.ok() && k < sqt_count; ++k) {
    SqtEntry entry;
    entry.qid = r.I64();
    entry.focal_oid = r.I64();
    entry.region = r.Region();
    entry.filter_threshold = r.F64();
    entry.curr_cell = r.Cell();
    entry.mon_region = r.Range();
    entry.expires_at = r.F64();
    entry.lease_renew_at = r.F64();
    uint32_t n = r.U32();
    if (n > r.remaining() / 8) {
      r.Fail();
      break;
    }
    for (uint32_t q = 0; q < n; ++q) entry.result.insert(r.I64());
    if (r.ok()) sqt_.emplace(entry.qid, std::move(entry));
  }
  uint32_t row_count = r.U32();
  for (uint32_t k = 0; r.ok() && k < row_count; ++k) {
    geo::CellCoord c = r.Cell();
    uint32_t n = r.U32();
    // EncodeStateSync writes owned rows only; a row for any other cell
    // would sit outside the digest, so the image is refused instead.
    if (n > r.remaining() / 8 || !grid_->IsValid(c) || !OwnsCell(c)) {
      r.Fail();
      break;
    }
    EditRow(c, [&] {
      for (uint32_t q = 0; q < n; ++q) rqi_.AddCell(r.I64(), c);
    });
  }
  uint64_t digest = r.U64();
  if (!r.ok() || r.remaining() != 0) {
    Clear();
    return Status::InvalidArgument("shard sync: malformed image");
  }
  if (digest != StateDigest()) {
    Clear();
    return Status::InvalidArgument("shard sync: digest mismatch");
  }
  return Status::OK();
}

void ServerShard::Clear() {
  fot_.clear();
  sqt_.clear();
  rqi_ = ReverseQueryIndex(*grid_);
  digest_ = 0;
}

}  // namespace mobieyes::core
