#include "mobieyes/core/server_shard.h"

#include <algorithm>

#include "mobieyes/net/codec.h"

namespace mobieyes::core {

namespace {

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

void ServerShard::EncodeStateSync(std::vector<uint8_t>* out) const {
  net::ByteWriter w(out);
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
  rqi_ = ReverseQueryIndex(*grid_);
  digest_ = 0;
}

}  // namespace mobieyes::core
