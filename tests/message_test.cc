#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "mobieyes/common/random.h"
#include "mobieyes/net/message.h"

namespace mobieyes::net {
namespace {

TEST(MessageTest, MakeMessageDeducesType) {
  EXPECT_EQ(MakeMessage(QueryInstallRequest{}).type,
            MessageType::kQueryInstallRequest);
  EXPECT_EQ(MakeMessage(PositionReport{}).type, MessageType::kPositionReport);
  EXPECT_EQ(MakeMessage(PositionVelocityReport{}).type,
            MessageType::kPositionVelocityReport);
  EXPECT_EQ(MakeMessage(VelocityChangeReport{}).type,
            MessageType::kVelocityChangeReport);
  EXPECT_EQ(MakeMessage(CellChangeReport{}).type,
            MessageType::kCellChangeReport);
  EXPECT_EQ(MakeMessage(ResultBitmapReport{}).type,
            MessageType::kResultBitmapReport);
  EXPECT_EQ(MakeMessage(FocalNotification{}).type,
            MessageType::kFocalNotification);
  EXPECT_EQ(MakeMessage(PositionVelocityRequest{}).type,
            MessageType::kPositionVelocityRequest);
  EXPECT_EQ(MakeMessage(QueryInstallBroadcast{}).type,
            MessageType::kQueryInstallBroadcast);
  EXPECT_EQ(MakeMessage(VelocityChangeBroadcast{}).type,
            MessageType::kVelocityChangeBroadcast);
  EXPECT_EQ(MakeMessage(QueryUpdateBroadcast{}).type,
            MessageType::kQueryUpdateBroadcast);
  EXPECT_EQ(MakeMessage(QueryRemoveBroadcast{}).type,
            MessageType::kQueryRemoveBroadcast);
  EXPECT_EQ(MakeMessage(NewQueriesNotification{}).type,
            MessageType::kNewQueriesNotification);
}

TEST(MessageTest, FixedSizePayloads) {
  EXPECT_EQ(WireSizeBytes(MakeMessage(PositionReport{})),
            kHeaderBytes + kIdBytes + kPointBytes);
  EXPECT_EQ(WireSizeBytes(MakeMessage(VelocityChangeReport{})),
            kHeaderBytes + kIdBytes + kFocalStateBytes);
  EXPECT_EQ(WireSizeBytes(MakeMessage(CellChangeReport{})),
            kHeaderBytes + kIdBytes + 2 * kCellBytes);
  EXPECT_EQ(WireSizeBytes(MakeMessage(FocalNotification{})),
            kHeaderBytes + 2 * kIdBytes);
  EXPECT_EQ(WireSizeBytes(MakeMessage(PositionVelocityRequest{})),
            kHeaderBytes + kIdBytes);
}

TEST(MessageTest, BroadcastSizeScalesWithQueryCount) {
  QueryInstallBroadcast broadcast;
  size_t empty = WireSizeBytes(MakeMessage(broadcast));
  broadcast.queries.resize(3);
  size_t three = WireSizeBytes(MakeMessage(broadcast));
  EXPECT_EQ(three - empty, 3 * kQueryInfoBytes);
}

TEST(MessageTest, ResultBitmapRoundsBitsUpToBytes) {
  ResultBitmapReport report;
  report.qids.resize(1);
  size_t one = WireSizeBytes(MakeMessage(report));
  EXPECT_EQ(one, kHeaderBytes + kIdBytes + kIdBytes + 1);
  report.qids.resize(8);
  EXPECT_EQ(WireSizeBytes(MakeMessage(report)),
            kHeaderBytes + kIdBytes + 8 * kIdBytes + 1);
  report.qids.resize(9);
  EXPECT_EQ(WireSizeBytes(MakeMessage(report)),
            kHeaderBytes + kIdBytes + 9 * kIdBytes + 2);
}

TEST(MessageTest, LazyVelocityBroadcastCarriesQueryInfoOnce) {
  VelocityChangeBroadcast eager;
  size_t eager_size = WireSizeBytes(MakeMessage(eager));
  EXPECT_EQ(eager_size, kHeaderBytes + kIdBytes + kFocalStateBytes);

  VelocityChangeBroadcast lazy;
  lazy.carries_query_info = true;
  lazy.queries.resize(2);
  // The focal kinematics are shared: each query adds only its static part.
  EXPECT_EQ(WireSizeBytes(MakeMessage(lazy)),
            eager_size + 2 * (kQueryInfoBytes - kFocalStateBytes));
}

TEST(MessageTest, PredictPositionExtrapolatesLinearly) {
  FocalState state;
  state.pos = geo::Point{10.0, 20.0};
  state.vel = geo::Vec2{1.0, -2.0};
  state.tm = 100.0;
  geo::Point predicted = state.PredictPosition(103.0);
  EXPECT_DOUBLE_EQ(predicted.x, 13.0);
  EXPECT_DOUBLE_EQ(predicted.y, 14.0);
  // At the recording time the prediction is the recorded position.
  geo::Point same = state.PredictPosition(100.0);
  EXPECT_DOUBLE_EQ(same.x, 10.0);
  EXPECT_DOUBLE_EQ(same.y, 20.0);
}

// The level a reconciling object reports is the largest whose floor does
// not exceed its attribute, so the server's floor test can only drop a
// query the object's own filter declines.
void ExpectLargestLevelAtOrBelow(double attr) {
  const uint8_t level = AttrLevel(attr);
  ASSERT_LE(level, kMaxAttrLevel) << attr;
  EXPECT_LE(AttrFloor(level), attr) << attr;
  if (level < kMaxAttrLevel) {
    EXPECT_GT(AttrFloor(static_cast<uint8_t>(level + 1)), attr) << attr;
  }
}

TEST(MessageTest, AttrLevelIsTheLargestWhoseFloorDoesNotExceedAttr) {
  using Limits = std::numeric_limits<double>;
  constexpr double kInf = Limits::infinity();
  EXPECT_EQ(AttrLevel(-0.5), 0);
  EXPECT_EQ(AttrLevel(-kInf), 0);
  EXPECT_EQ(AttrLevel(-Limits::denorm_min()), 0);
  EXPECT_EQ(AttrLevel(Limits::quiet_NaN()), 0);
  EXPECT_EQ(AttrFloor(0), -kInf);
  EXPECT_EQ(AttrFloor(1), 0.0);
  EXPECT_EQ(AttrFloor(kMaxAttrLevel), 1.0);
  EXPECT_EQ(AttrLevel(0.0), 1);
  EXPECT_EQ(AttrLevel(-0.0), 1);
  EXPECT_EQ(AttrLevel(0.75), 95);
  EXPECT_EQ(AttrLevel(1.0), kMaxAttrLevel);
  EXPECT_EQ(AttrLevel(kInf), kMaxAttrLevel);

  std::vector<double> attrs = {0.0, -0.0, 0.75, 1.0, 2.0, kInf};
  attrs.push_back(Limits::denorm_min());
  attrs.push_back(Limits::min() / 2);  // a denormal
  attrs.push_back(Limits::min());
  for (int k = 0; k < kMaxAttrLevel; ++k) {
    const double step = k / static_cast<double>(kMaxAttrLevel - 1);
    attrs.push_back(step);
    attrs.push_back(std::nextafter(step, -kInf));
    attrs.push_back(std::nextafter(step, kInf));
  }
  Rng rng(29);
  for (int k = 0; k < 100000; ++k) attrs.push_back(rng.NextDouble());
  for (double attr : attrs) ExpectLargestLevelAtOrBelow(attr);
}

TEST(MessageTest, TypeNamesAreDistinct) {
  EXPECT_STREQ(MessageTypeName(MessageType::kPositionReport),
               "PositionReport");
  EXPECT_STREQ(MessageTypeName(MessageType::kQueryInstallBroadcast),
               "QueryInstallBroadcast");
  EXPECT_STRNE(MessageTypeName(MessageType::kCellChangeReport),
               MessageTypeName(MessageType::kVelocityChangeReport));
}

}  // namespace
}  // namespace mobieyes::net
