// ServerShard::StateDigest() (DESIGN.md §13): the digest RqiAdd/RqiRemove
// keep current must equal the digest of the same rows however they were
// built, must see row order and cell placement, and must survive the state
// sync image that a rejoining shard daemon loads.

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "mobieyes/common/random.h"
#include "mobieyes/core/options.h"
#include "mobieyes/core/server_shard.h"
#include "mobieyes/geo/grid.h"

namespace mobieyes::core {
namespace {

// A 10x10 grid split into two row bands: shard 0 owns rows 0-4.
struct TwoShardGrid {
  geo::Grid grid = *geo::Grid::Make(geo::Rect{0, 0, 100, 100}, 10.0);
  ShardMap map{grid, ShardingOptions{2}};

  ServerShard Shard() const { return ServerShard(0, grid, map); }
};

geo::CellRange CellOnly(int32_t i, int32_t j) { return {i, i, j, j}; }

// Rebuilds every owned row of `from` in `to` by single-cell appends,
// visiting cells in reverse row-major order: no removals, and a different
// op sequence from whatever built `from`.
void CopyRowsBackwards(const TwoShardGrid& g, const ServerShard& from,
                       ServerShard* to) {
  for (int32_t j = g.grid.rows() - 1; j >= 0; --j) {
    for (int32_t i = g.grid.columns() - 1; i >= 0; --i) {
      for (QueryId qid : from.QueriesForCell({i, j})) {
        to->RqiAdd(qid, CellOnly(i, j));
      }
    }
  }
}

void ExpectSameRows(const TwoShardGrid& g, const ServerShard& a,
                    const ServerShard& b) {
  for (int32_t j = 0; j < g.grid.rows(); ++j) {
    for (int32_t i = 0; i < g.grid.columns(); ++i) {
      EXPECT_EQ(a.QueriesForCell({i, j}), b.QueriesForCell({i, j}))
          << "cell " << i << "," << j;
    }
  }
}

TEST(ShardDigestTest, EditSequencesMatchADirectBuildOfTheFinalRows) {
  TwoShardGrid g;
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    Rng rng(seed);
    ServerShard edited = g.Shard();
    // Fixed prefix: a qid listed twice in one row, and a removal from the
    // middle of a row.
    edited.RqiAdd(1, CellOnly(2, 2));
    edited.RqiAdd(2, CellOnly(2, 2));
    edited.RqiAdd(1, CellOnly(2, 2));
    edited.RqiAdd(3, CellOnly(2, 2));
    edited.RqiRemove(2, CellOnly(2, 2));
    ASSERT_EQ(edited.QueriesForCell({2, 2}), (std::vector<QueryId>{1, 1, 3}));
    // Random ranges over the whole grid: half of their cells belong to the
    // other shard and must leave the digest alone. A small qid pool makes
    // duplicates and mid-row removals common.
    for (int op = 0; op < 400; ++op) {
      auto qid = static_cast<QueryId>(rng.NextUint64(12));
      auto i_lo = static_cast<int32_t>(rng.NextUint64(10));
      auto j_lo = static_cast<int32_t>(rng.NextUint64(10));
      auto i_hi = i_lo + static_cast<int32_t>(rng.NextUint64(10 - i_lo));
      auto j_hi = j_lo + static_cast<int32_t>(rng.NextUint64(10 - j_lo));
      geo::CellRange range{i_lo, i_hi, j_lo, j_hi};
      if (rng.NextUint64(3) == 0) {
        edited.RqiRemove(qid, range);
      } else {
        edited.RqiAdd(qid, range);
      }
    }

    ServerShard direct = g.Shard();
    CopyRowsBackwards(g, edited, &direct);
    ExpectSameRows(g, edited, direct);
    EXPECT_EQ(direct.StateDigest(), edited.StateDigest()) << "seed " << seed;
  }
}

TEST(ShardDigestTest, CellsOfOtherShardsLeaveTheDigestAlone) {
  TwoShardGrid g;
  ServerShard shard = g.Shard();
  shard.RqiAdd(4, CellOnly(1, 1));
  const uint64_t before = shard.StateDigest();
  shard.RqiAdd(5, geo::CellRange{0, 9, 5, 9});  // rows 5-9: shard 1's
  EXPECT_EQ(shard.StateDigest(), before);
  shard.RqiRemove(4, CellOnly(1, 7));
  EXPECT_EQ(shard.StateDigest(), before);
}

TEST(ShardDigestTest, RowOrderAndCellPlacementChangeTheDigest) {
  TwoShardGrid g;
  ServerShard forward = g.Shard();
  forward.RqiAdd(5, CellOnly(3, 1));
  forward.RqiAdd(7, CellOnly(3, 1));
  ServerShard swapped = g.Shard();
  swapped.RqiAdd(7, CellOnly(3, 1));
  swapped.RqiAdd(5, CellOnly(3, 1));
  EXPECT_NE(forward.StateDigest(), swapped.StateDigest());

  // 7 moved to the next cell; then that one-entry row moved on again,
  // which keeps the rows themselves and changes only where one sits.
  ServerShard moved = g.Shard();
  moved.RqiAdd(5, CellOnly(3, 1));
  moved.RqiAdd(7, CellOnly(4, 1));
  EXPECT_NE(forward.StateDigest(), moved.StateDigest());
  ServerShard moved_again = g.Shard();
  moved_again.RqiAdd(5, CellOnly(3, 1));
  moved_again.RqiAdd(7, CellOnly(4, 2));
  EXPECT_NE(moved.StateDigest(), moved_again.StateDigest());
}

TEST(ShardDigestTest, RemovingEveryEntryAndClearGiveTheEmptyDigest) {
  TwoShardGrid g;
  const uint64_t empty = g.Shard().StateDigest();
  ServerShard shard = g.Shard();
  shard.RqiAdd(9, geo::CellRange{0, 4, 0, 4});
  shard.RqiAdd(8, geo::CellRange{2, 6, 1, 3});
  EXPECT_NE(shard.StateDigest(), empty);
  shard.RqiRemove(9, geo::CellRange{0, 4, 0, 4});
  shard.RqiRemove(8, geo::CellRange{2, 6, 1, 3});
  EXPECT_EQ(shard.StateDigest(), empty);

  shard.RqiAdd(9, geo::CellRange{0, 4, 0, 4});
  shard.Clear();
  EXPECT_EQ(shard.StateDigest(), empty);
}

TEST(ShardDigestTest, StateSyncKeepsTheDigestAndRefusesAFlippedRowEntry) {
  TwoShardGrid g;
  ServerShard source = g.Shard();
  source.RqiAdd(21, CellOnly(0, 0));
  source.RqiAdd(22, geo::CellRange{0, 3, 0, 2});
  source.RqiAdd(23, geo::CellRange{1, 8, 2, 6});
  source.RqiRemove(22, CellOnly(1, 1));

  std::vector<uint8_t> image;
  source.EncodeStateSync(&image);
  ServerShard loaded = g.Shard();
  ASSERT_TRUE(loaded.LoadStateSync(image.data(), image.size()).ok());
  EXPECT_EQ(loaded.StateDigest(), source.StateDigest());
  ExpectSameRows(g, source, loaded);

  // The image is the row count and then the first row: cell (0,0), its
  // length, and its first qid (21) at byte 16.
  ASSERT_EQ(image[16], 21);
  std::vector<uint8_t> flipped = image;
  flipped[16] ^= 0x01;
  ServerShard refused = g.Shard();
  EXPECT_FALSE(refused.LoadStateSync(flipped.data(), flipped.size()).ok());
  EXPECT_EQ(refused.StateDigest(), g.Shard().StateDigest());
}

}  // namespace
}  // namespace mobieyes::core
