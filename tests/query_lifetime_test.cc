// Tests for time-bounded queries: the paper's example MQs carry durations
// ("within 5 miles ... during next 2 hours"), so queries can self-expire.

#include <gtest/gtest.h>

#include "test_harness.h"

namespace mobieyes::core {
namespace {

using geo::Point;
using geo::Vec2;
using test::MiniDeployment;
using test::ObjectSpec;

TEST(QueryLifetimeTest, DefaultQueriesNeverExpire) {
  MiniDeployment deployment({{Point{55, 55}}, {Point{57, 55}}});
  auto qid = deployment.server().InstallQuery(0, 4.0, 1.0);
  ASSERT_TRUE(qid.ok());
  deployment.TickN(50);
  EXPECT_NE(deployment.server().FindQuery(*qid), nullptr);
  EXPECT_EQ(deployment.fleet().lqt_size(1), 1u);
}

TEST(QueryLifetimeTest, QueryExpiresAfterDuration) {
  MiniDeployment deployment({{Point{55, 55}}, {Point{57, 55}}});
  // 90 seconds = 3 ticks of 30 s.
  auto qid = deployment.server().InstallQuery(0, 4.0, 1.0, 90.0);
  ASSERT_TRUE(qid.ok());
  const auto* entry = deployment.server().FindQuery(*qid);
  ASSERT_NE(entry, nullptr);
  EXPECT_DOUBLE_EQ(entry->expires_at, 90.0);

  deployment.TickN(2);  // t = 60: still live
  EXPECT_NE(deployment.server().FindQuery(*qid), nullptr);
  EXPECT_TRUE(deployment.fleet().has_mq(0));

  deployment.Tick();  // t = 90: expires
  EXPECT_EQ(deployment.server().FindQuery(*qid), nullptr);
  EXPECT_EQ(deployment.fleet().lqt_size(1), 0u);
  EXPECT_FALSE(deployment.fleet().has_mq(0));
  EXPECT_EQ(deployment.server().query_count(), 0u);
}

TEST(QueryLifetimeTest, ExpiryIsRelativeToInstallTime) {
  MiniDeployment deployment({{Point{55, 55}}, {Point{57, 55}}});
  deployment.TickN(2);  // server clock at t = 60
  auto qid = deployment.server().InstallQuery(0, 4.0, 1.0, 60.0);
  ASSERT_TRUE(qid.ok());
  const auto* entry = deployment.server().FindQuery(*qid);
  ASSERT_NE(entry, nullptr);
  EXPECT_DOUBLE_EQ(entry->expires_at, 120.0);
  deployment.Tick();  // t = 90
  EXPECT_NE(deployment.server().FindQuery(*qid), nullptr);
  deployment.Tick();  // t = 120: gone
  EXPECT_EQ(deployment.server().FindQuery(*qid), nullptr);
}

TEST(QueryLifetimeTest, MixedLifetimesExpireIndependently) {
  MiniDeployment deployment({{Point{55, 55}}, {Point{57, 55}}});
  auto short_qid = deployment.server().InstallQuery(0, 4.0, 1.0, 30.0);
  auto long_qid = deployment.server().InstallQuery(0, 3.0, 1.0, 120.0);
  auto forever_qid = deployment.server().InstallQuery(0, 2.0, 1.0);
  ASSERT_TRUE(short_qid.ok());
  ASSERT_TRUE(long_qid.ok());
  ASSERT_TRUE(forever_qid.ok());
  ASSERT_EQ(deployment.fleet().lqt_size(1), 3u);

  deployment.Tick();  // t = 30: short query gone
  EXPECT_EQ(deployment.server().FindQuery(*short_qid), nullptr);
  EXPECT_NE(deployment.server().FindQuery(*long_qid), nullptr);
  EXPECT_EQ(deployment.fleet().lqt_size(1), 2u);
  // The focal still has live queries: hasMQ stays set.
  EXPECT_TRUE(deployment.fleet().has_mq(0));

  deployment.TickN(3);  // t = 120: long query gone too
  EXPECT_EQ(deployment.server().FindQuery(*long_qid), nullptr);
  EXPECT_NE(deployment.server().FindQuery(*forever_qid), nullptr);
  EXPECT_EQ(deployment.fleet().lqt_size(1), 1u);
  EXPECT_TRUE(deployment.fleet().has_mq(0));
}

TEST(QueryLifetimeTest, RejectsNonPositiveDuration) {
  MiniDeployment deployment({ObjectSpec(Point{55, 55})});
  EXPECT_FALSE(deployment.server().InstallQuery(0, 4.0, 1.0, 0.0).ok());
  EXPECT_FALSE(deployment.server().InstallQuery(0, 4.0, 1.0, -5.0).ok());
}

TEST(QueryLifetimeTest, ExpiredQueryResultStopsUpdating) {
  MiniDeployment deployment({
      {Point{55, 55}},
      {Point{62, 55}, Vec2{-0.1, 0.0}},  // would become a target at t ~ 30
  });
  auto qid = deployment.server().InstallQuery(0, 4.0, 1.0, 30.0);
  ASSERT_TRUE(qid.ok());
  deployment.Tick();  // expires exactly as the object would enter
  EXPECT_EQ(deployment.server().QueryResult(*qid).status().code(),
            StatusCode::kNotFound);
  // No stale LQT entries can resurrect the query.
  deployment.TickN(2);
  EXPECT_EQ(deployment.server().query_count(), 0u);
  EXPECT_EQ(deployment.fleet().lqt_size(1), 0u);
}

}  // namespace
}  // namespace mobieyes::core
