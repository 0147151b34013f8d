// The fleet's LQT slab (DESIGN.md §16): versions are shared by exact
// content and freed by reference count, and compaction keeps every
// object's rows in order while giving dead rows and their memory back.

#include "mobieyes/core/lqt_slab.h"

#include <gtest/gtest.h>

#include <vector>

namespace mobieyes::core {
namespace {

QueryVersion Content(ObjectId focal_oid, double x) {
  QueryVersion content;
  content.focal_oid = focal_oid;
  content.focal.pos = geo::Point{x, 1.0};
  content.region = geo::QueryRegion::MakeCircle(2.0);
  content.mon_region = geo::CellRange{0, 3, 0, 3};
  return content;
}

LqtRow Row(LqtSlab& slab, QueryId qid, const QueryVersion& content) {
  LqtRow row;
  row.qid = qid;
  row.version = slab.Acquire(content);
  return row;
}

TEST(LqtSlabTest, EqualContentSharesOneVersionUntilTheLastRowGoes) {
  LqtSlab slab(3);
  slab.Insert(0, 0, Row(slab, 1, Content(7, 1.0)));
  slab.Insert(1, 0, Row(slab, 1, Content(7, 1.0)));
  slab.Insert(2, 0, Row(slab, 1, Content(7, 2.0)));
  EXPECT_EQ(slab.row(0, 0).version, slab.row(1, 0).version);
  EXPECT_NE(slab.row(0, 0).version, slab.row(2, 0).version);
  EXPECT_EQ(slab.live_versions(), 2u);

  // -0.0 == 0.0, but a holder can tell them apart: bitwise identity only.
  slab.Insert(2, 1, Row(slab, 2, Content(7, -0.0)));
  slab.Insert(2, 2, Row(slab, 3, Content(7, 0.0)));
  EXPECT_NE(slab.row(2, 1).version, slab.row(2, 2).version);

  slab.Erase(0, 0);
  EXPECT_EQ(slab.live_versions(), 4u);
  slab.Clear(1);
  slab.Clear(2);
  EXPECT_EQ(slab.live_versions(), 0u);
  EXPECT_EQ(slab.live_rows(), 0u);
}

TEST(LqtSlabTest, RepointFindsExactlyTheUpdatedContent) {
  LqtSlab slab(2);
  slab.Insert(0, 0, Row(slab, 1, Content(7, 1.0)));
  slab.Insert(1, 0, Row(slab, 1, Content(7, 1.0)));
  net::FocalState moved;
  moved.pos = geo::Point{5.0, 5.0};
  moved.tm = 30.0;
  const geo::CellRange region{1, 4, 1, 4};
  slab.Repoint(slab.row(0, 0), moved, region, 0.25);
  slab.Repoint(slab.row(1, 0), moved, region, 0.25);
  ASSERT_EQ(slab.row(0, 0).version, slab.row(1, 0).version);
  const QueryVersion& got = slab.version(slab.row(0, 0).version);
  EXPECT_EQ(got.focal_oid, 7);
  EXPECT_EQ(got.focal.pos, moved.pos);
  EXPECT_EQ(got.focal.tm, 30.0);
  EXPECT_EQ(got.mon_region.i_lo, 1);
  EXPECT_EQ(got.focal_max_speed, 0.25);
  EXPECT_EQ(got.region.radius, 2.0);  // fields an update does not carry
  EXPECT_EQ(slab.live_versions(), 1u);
}

TEST(LqtSlabTest, CompactionKeepsEveryObjectsRowsInOrder) {
  constexpr size_t kObjects = 50;
  LqtSlab slab(kObjects);
  // Interleaved inserts move ranges to the end of the slab again and again.
  for (QueryId qid = 0; qid < 12; ++qid) {
    for (size_t k = 0; k < kObjects; ++k) {
      slab.Insert(k, 0, Row(slab, qid, Content(7, 1.0)));
    }
  }
  for (size_t k = 0; k < kObjects; ++k) {
    while (slab.size(k) > 1 + k % 3) slab.Erase(k, 1);
  }
  ASSERT_GT(slab.slab_rows(),
            2 * slab.live_rows() + LqtSlab::kCompactionSlack);
  std::vector<std::vector<QueryId>> before(kObjects);
  for (size_t k = 0; k < kObjects; ++k) {
    for (const LqtRow& row : slab.rows(k)) before[k].push_back(row.qid);
  }

  // The sparse buffer has room for more than the slab keeps: it goes back.
  const size_t kept = LqtSlab::kKeptCapacity *
                      (2 * slab.live_rows() + LqtSlab::kCompactionSlack);
  const size_t sparse_capacity = slab.slab_capacity();
  ASSERT_GT(sparse_capacity, kept);
  slab.CompactIfSparse();
  EXPECT_EQ(slab.slab_rows(), slab.live_rows());
  EXPECT_LE(slab.slab_capacity(), 2 * kept);
  EXPECT_LT(slab.slab_capacity(), sparse_capacity);
  for (size_t k = 0; k < kObjects; ++k) {
    std::vector<QueryId> after;
    for (const LqtRow& row : slab.rows(k)) after.push_back(row.qid);
    EXPECT_EQ(after, before[k]) << "object " << k;
  }
  // A compacted range is tight; inserting into it moves it and keeps order.
  slab.Insert(3, 0, Row(slab, 99, Content(7, 1.0)));
  EXPECT_EQ(slab.row(3, 0).qid, 99);
  EXPECT_EQ(slab.size(3), 2u);
}

}  // namespace
}  // namespace mobieyes::core
