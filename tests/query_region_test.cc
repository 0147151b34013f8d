// Tests for general query region shapes (§2.3: "a rectangle, or a circle,
// or any other closed shape description"): geometry of QueryRegion plus the
// end-to-end protocol behavior of rectangular moving queries.

#include <gtest/gtest.h>

#include "mobieyes/geo/query_region.h"
#include "mobieyes/sim/oracle.h"
#include "test_harness.h"

namespace mobieyes {
namespace {

using geo::Point;
using geo::QueryRegion;
using geo::Vec2;
using test::MiniDeployment;
using test::ObjectSpec;

// --- Geometry ----------------------------------------------------------------

TEST(QueryRegionTest, CircleContainment) {
  QueryRegion circle = QueryRegion::MakeCircle(5.0);
  EXPECT_TRUE(circle.valid());
  EXPECT_TRUE(circle.Contains(Point{0, 0}, Point{3, 4}));    // on boundary
  EXPECT_FALSE(circle.Contains(Point{0, 0}, Point{3.1, 4.1}));
  EXPECT_TRUE(circle.Contains(Point{10, 10}, Point{13, 14}));  // translated
}

TEST(QueryRegionTest, RectangleContainment) {
  QueryRegion rect = QueryRegion::MakeRectangle(6.0, 2.0);
  EXPECT_TRUE(rect.valid());
  EXPECT_TRUE(rect.Contains(Point{0, 0}, Point{3, 1}));     // corner, closed
  EXPECT_TRUE(rect.Contains(Point{0, 0}, Point{-3, -1}));
  EXPECT_FALSE(rect.Contains(Point{0, 0}, Point{3.01, 0}));
  EXPECT_FALSE(rect.Contains(Point{0, 0}, Point{0, 1.01}));
  // Wide but short: a point inside the circumscribing circle yet outside
  // the rectangle.
  EXPECT_FALSE(rect.Contains(Point{0, 0}, Point{0, 2.5}));
}

TEST(QueryRegionTest, ReachAndMaxReach) {
  QueryRegion circle = QueryRegion::MakeCircle(5.0);
  EXPECT_DOUBLE_EQ(circle.ReachX(), 5.0);
  EXPECT_DOUBLE_EQ(circle.ReachY(), 5.0);
  EXPECT_DOUBLE_EQ(circle.MaxReach(), 5.0);

  QueryRegion rect = QueryRegion::MakeRectangle(6.0, 8.0);
  EXPECT_DOUBLE_EQ(rect.ReachX(), 3.0);
  EXPECT_DOUBLE_EQ(rect.ReachY(), 4.0);
  EXPECT_DOUBLE_EQ(rect.MaxReach(), 5.0);  // 3-4-5 half diagonal
}

TEST(QueryRegionTest, Validity) {
  EXPECT_FALSE(QueryRegion::MakeCircle(0.0).valid());
  EXPECT_FALSE(QueryRegion::MakeCircle(-1.0).valid());
  EXPECT_FALSE(QueryRegion::MakeRectangle(0.0, 5.0).valid());
  EXPECT_FALSE(QueryRegion::MakeRectangle(5.0, -1.0).valid());
  EXPECT_TRUE(QueryRegion::MakeRectangle(0.1, 0.1).valid());
}

// --- Protocol with rectangular regions ---------------------------------------

TEST(RectQueryTest, ServerRejectsInvalidRegion) {
  MiniDeployment deployment({ObjectSpec(Point{50, 50})});
  EXPECT_FALSE(deployment.server()
                   .InstallQuery(0, QueryRegion::MakeRectangle(0.0, 4.0), 1.0)
                   .ok());
}

TEST(RectQueryTest, AnisotropicMonitoringRegion) {
  MiniDeployment deployment({ObjectSpec(Point{55, 55})});
  // 24 miles wide, 2 miles tall: reaches 12 miles in x (beyond the
  // neighbor cells at alpha = 10) but only 1 mile in y.
  auto qid = deployment.server().InstallQuery(
      0, QueryRegion::MakeRectangle(24.0, 2.0), 1.0);
  ASSERT_TRUE(qid.ok());
  const auto* entry = deployment.server().FindQuery(*qid);
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->mon_region.i_lo, 3);  // columns 3..7
  EXPECT_EQ(entry->mon_region.i_hi, 7);
  EXPECT_EQ(entry->mon_region.j_lo, 4);  // rows 4..6 only
  EXPECT_EQ(entry->mon_region.j_hi, 6);
}

TEST(RectQueryTest, ContainmentFollowsRectangleNotCircle) {
  MiniDeployment deployment({
      {Point{55, 55}},  // focal
      {Point{59, 55}},  // 4 east: inside the wide rectangle
      {Point{55, 59}},  // 4 north: outside (rect is short)
  });
  auto qid = deployment.server().InstallQuery(
      0, QueryRegion::MakeRectangle(10.0, 2.0), 1.0);
  ASSERT_TRUE(qid.ok());
  deployment.Tick();
  auto result = deployment.server().QueryResult(*qid);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->contains(1));
  EXPECT_FALSE(result->contains(2));
}

TEST(RectQueryTest, TracksOracleUnderConstantMotion) {
  std::vector<ObjectSpec> specs = {
      {Point{40, 50}, Vec2{0.02, 0.0}},   // focal
      {Point{50, 50}, Vec2{-0.02, 0.0}},  // closing in along x
      {Point{42, 56}, Vec2{0.0, -0.01}},  // approaching from the north
      {Point{46, 47}, Vec2{0.01, 0.01}},
  };
  MiniDeployment deployment(specs);
  QueryRegion region = QueryRegion::MakeRectangle(8.0, 4.0);
  auto qid = deployment.server().InstallQuery(0, region, 1.0);
  ASSERT_TRUE(qid.ok());
  sim::ExactOracle oracle(deployment.world());
  for (int step = 0; step < 12; ++step) {
    deployment.Tick();
    auto exact = oracle.Evaluate(0, region, 1.0);
    auto reported = deployment.server().QueryResult(*qid);
    ASSERT_TRUE(reported.ok());
    ASSERT_EQ(*reported, exact) << "step " << step;
  }
}

TEST(RectQueryTest, MixedShapeGroupStaysCorrect) {
  // A circle and a rectangle bound to the same focal object: grouping must
  // not let the circumscribing-radius short-circuit corrupt the rectangle's
  // exact containment.
  MiniDeployment deployment({
      {Point{55, 55}},  // focal
      {Point{55, 58}},  // 3 north: inside circle(4), outside rect 10x2
  });
  auto circle_qid = deployment.server().InstallQuery(0, 4.0, 1.0);
  auto rect_qid = deployment.server().InstallQuery(
      0, QueryRegion::MakeRectangle(10.0, 2.0), 1.0);
  ASSERT_TRUE(circle_qid.ok());
  ASSERT_TRUE(rect_qid.ok());
  deployment.Tick();
  EXPECT_TRUE(deployment.server().QueryResult(*circle_qid)->contains(1));
  EXPECT_FALSE(deployment.server().QueryResult(*rect_qid)->contains(1));
}

TEST(RectQueryTest, SafePeriodSoundForRectangles) {
  std::vector<ObjectSpec> specs = {
      {Point{30, 50}, Vec2{0.05, 0.0}, 0.05},
      {Point{60, 50}, Vec2{-0.05, 0.0}, 0.05},
  };
  core::MobiEyesOptions with_sp;
  with_sp.enable_safe_period = true;
  MiniDeployment safe(specs, with_sp, /*alpha=*/50.0);
  MiniDeployment plain(specs, {}, /*alpha=*/50.0);
  QueryRegion region = QueryRegion::MakeRectangle(8.0, 3.0);
  auto qid_safe = safe.server().InstallQuery(0, region, 1.0);
  auto qid_plain = plain.server().InstallQuery(0, region, 1.0);
  ASSERT_TRUE(qid_safe.ok());
  ASSERT_TRUE(qid_plain.ok());
  for (int step = 0; step < 12; ++step) {
    safe.Tick();
    plain.Tick();
    ASSERT_EQ(safe.server().QueryResult(*qid_safe)->contains(1),
              plain.server().QueryResult(*qid_plain)->contains(1))
        << "step " << step;
  }
  EXPECT_GT(safe.fleet().safe_period_skips(), 0u);
}

}  // namespace
}  // namespace mobieyes
