#include <gtest/gtest.h>

#include <algorithm>
#include <initializer_list>
#include <set>

#include "mobieyes/common/random.h"
#include "mobieyes/net/codec.h"
#include "mobieyes/net/framing.h"

namespace mobieyes::net {
namespace {

FocalState SomeState() {
  FocalState state;
  state.pos = geo::Point{12.5, -3.75};
  state.vel = geo::Vec2{0.025, -0.0125};
  state.tm = 1234.5;
  return state;
}

QueryInfo SomeInfo(QueryId qid, const FocalState& focal = SomeState()) {
  QueryInfo info;
  info.qid = qid;
  info.focal_oid = 42;
  info.focal = focal;
  info.region = geo::QueryRegion::MakeCircle(5.25);
  info.filter_threshold = 0.75;
  info.mon_region = geo::CellRange{3, 7, 2, 6};
  info.focal_max_speed = 0.0694;
  return info;
}

void ExpectStateEq(const FocalState& a, const FocalState& b) {
  EXPECT_EQ(a.pos, b.pos);
  EXPECT_EQ(a.vel, b.vel);
  EXPECT_DOUBLE_EQ(a.tm, b.tm);
}

void ExpectInfoEq(const QueryInfo& a, const QueryInfo& b) {
  EXPECT_EQ(a.qid, b.qid);
  EXPECT_EQ(a.focal_oid, b.focal_oid);
  ExpectStateEq(a.focal, b.focal);
  EXPECT_EQ(a.region, b.region);
  EXPECT_DOUBLE_EQ(a.filter_threshold, b.filter_threshold);
  EXPECT_EQ(a.mon_region, b.mon_region);
  EXPECT_DOUBLE_EQ(a.focal_max_speed, b.focal_max_speed);
}

// Round-trips a message and returns the decoded payload.
template <typename T>
T RoundTrip(const T& payload) {
  Message message = MakeMessage(payload);
  std::vector<uint8_t> wire = MessageCodec::Encode(message);
  // The documented size model must equal the real encoding, byte for byte.
  EXPECT_EQ(wire.size(), WireSizeBytes(message))
      << MessageTypeName(message.type);
  auto decoded = MessageCodec::Decode(wire);
  EXPECT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->type, message.type);
  return std::get<T>(decoded->payload);
}

TEST(CodecTest, QueryInstallRequestRoundTrip) {
  QueryInstallRequest p{17, geo::QueryRegion::MakeCircle(4.5), 0.75};
  QueryInstallRequest q = RoundTrip(p);
  EXPECT_EQ(q.oid, 17);
  EXPECT_EQ(q.region, geo::QueryRegion::MakeCircle(4.5));
  EXPECT_DOUBLE_EQ(q.filter_threshold, 0.75);
}

TEST(CodecTest, RectangularRegionRoundTrip) {
  QueryInstallRequest p{18, geo::QueryRegion::MakeRectangle(6.0, 3.0), 0.5};
  QueryInstallRequest q = RoundTrip(p);
  EXPECT_EQ(q.region.shape, geo::QueryRegion::Shape::kRectangle);
  EXPECT_DOUBLE_EQ(q.region.half_w, 3.0);
  EXPECT_DOUBLE_EQ(q.region.half_h, 1.5);

  QueryInfo info = SomeInfo(3);
  info.region = geo::QueryRegion::MakeRectangle(2.0, 8.0);
  QueryInstallBroadcast broadcast;
  broadcast.queries.push_back(info);
  QueryInstallBroadcast round = RoundTrip(broadcast);
  ASSERT_EQ(round.queries.size(), 1u);
  EXPECT_EQ(round.queries[0].region, info.region);
}

TEST(CodecTest, PositionReportRoundTrip) {
  PositionReport p{9, geo::Point{1.5, 2.5}};
  PositionReport q = RoundTrip(p);
  EXPECT_EQ(q.oid, 9);
  EXPECT_EQ(q.pos, (geo::Point{1.5, 2.5}));
}

TEST(CodecTest, PositionVelocityReportRoundTrip) {
  PositionVelocityReport p{3, SomeState(), 0.07};
  PositionVelocityReport q = RoundTrip(p);
  EXPECT_EQ(q.oid, 3);
  ExpectStateEq(q.state, SomeState());
  EXPECT_DOUBLE_EQ(q.max_speed, 0.07);
}

TEST(CodecTest, VelocityChangeReportRoundTrip) {
  VelocityChangeReport p{5, SomeState()};
  VelocityChangeReport q = RoundTrip(p);
  EXPECT_EQ(q.oid, 5);
  ExpectStateEq(q.state, SomeState());
}

TEST(CodecTest, CellChangeReportRoundTrip) {
  CellChangeReport p{8, geo::CellCoord{1, 2}, geo::CellCoord{3, 4}};
  CellChangeReport q = RoundTrip(p);
  EXPECT_EQ(q.oid, 8);
  EXPECT_EQ(q.prev_cell, (geo::CellCoord{1, 2}));
  EXPECT_EQ(q.new_cell, (geo::CellCoord{3, 4}));
}

TEST(CodecTest, ResultBitmapReportRoundTrip) {
  ResultBitmapReport p;
  p.oid = 11;
  for (QueryId qid = 100; qid < 110; ++qid) p.qids.push_back(qid);
  p.bitmap = 0b1010110011;
  ResultBitmapReport q = RoundTrip(p);
  EXPECT_EQ(q.oid, 11);
  EXPECT_EQ(q.qids, p.qids);
  EXPECT_EQ(q.bitmap, p.bitmap);
}

TEST(CodecTest, ResultBitmapReportEmptyAndFull) {
  ResultBitmapReport empty;
  empty.oid = 1;
  EXPECT_TRUE(RoundTrip(empty).qids.empty());

  ResultBitmapReport full;
  full.oid = 2;
  for (QueryId qid = 0; qid < 64; ++qid) full.qids.push_back(qid);
  full.bitmap = ~uint64_t{0};
  ResultBitmapReport q = RoundTrip(full);
  EXPECT_EQ(q.qids.size(), 64u);
  EXPECT_EQ(q.bitmap, ~uint64_t{0});
}

TEST(CodecTest, FocalNotificationRoundTrip) {
  FocalNotification p{6, kInvalidQueryId};
  FocalNotification q = RoundTrip(p);
  EXPECT_EQ(q.oid, 6);
  EXPECT_EQ(q.qid, kInvalidQueryId);
}

TEST(CodecTest, PositionVelocityRequestRoundTrip) {
  EXPECT_EQ(RoundTrip(PositionVelocityRequest{21}).oid, 21);
}

TEST(CodecTest, QueryInstallBroadcastRoundTrip) {
  QueryInstallBroadcast p;
  p.queries.push_back(SomeInfo(1));
  p.queries.push_back(SomeInfo(2));
  QueryInstallBroadcast q = RoundTrip(p);
  ASSERT_EQ(q.queries.size(), 2u);
  ExpectInfoEq(q.queries[0], p.queries[0]);
  ExpectInfoEq(q.queries[1], p.queries[1]);
}

TEST(CodecTest, EagerVelocityChangeBroadcastRoundTrip) {
  VelocityChangeBroadcast p;
  p.focal_oid = 42;
  p.state = SomeState();
  VelocityChangeBroadcast q = RoundTrip(p);
  EXPECT_EQ(q.focal_oid, 42);
  EXPECT_FALSE(q.carries_query_info);
  EXPECT_TRUE(q.queries.empty());
}

TEST(CodecTest, LazyVelocityChangeBroadcastSharesKinematics) {
  VelocityChangeBroadcast p;
  p.focal_oid = 42;
  p.state = SomeState();
  p.carries_query_info = true;
  // In the protocol the carried queries' focal state always equals the
  // broadcast state (BuildQueryInfo reads the just-updated FOT), which is
  // what lets the encoding carry the kinematics once.
  p.queries.push_back(SomeInfo(7, p.state));
  p.queries.push_back(SomeInfo(8, p.state));
  VelocityChangeBroadcast q = RoundTrip(p);
  ASSERT_TRUE(q.carries_query_info);
  ASSERT_EQ(q.queries.size(), 2u);
  ExpectInfoEq(q.queries[0], p.queries[0]);
  ExpectInfoEq(q.queries[1], p.queries[1]);
}

TEST(CodecTest, QueryUpdateBroadcastRoundTrip) {
  QueryUpdateBroadcast p;
  p.queries.push_back(SomeInfo(5));
  QueryUpdateBroadcast q = RoundTrip(p);
  ASSERT_EQ(q.queries.size(), 1u);
  ExpectInfoEq(q.queries[0], p.queries[0]);
}

TEST(CodecTest, QueryRemoveBroadcastRoundTrip) {
  QueryRemoveBroadcast p;
  p.qids = {4, 5, 6};
  EXPECT_EQ(RoundTrip(p).qids, p.qids);
}

TEST(CodecTest, NewQueriesNotificationRoundTrip) {
  NewQueriesNotification p;
  p.oid = 77;
  p.queries.push_back(SomeInfo(9));
  NewQueriesNotification q = RoundTrip(p);
  EXPECT_EQ(q.oid, 77);
  ASSERT_EQ(q.queries.size(), 1u);
  ExpectInfoEq(q.queries[0], p.queries[0]);
}

// --- Corruption handling -----------------------------------------------------

TEST(CodecTest, DecodeRejectsShortBuffer) {
  std::vector<uint8_t> tiny(8, 0);
  EXPECT_FALSE(MessageCodec::Decode(tiny).ok());
}

TEST(CodecTest, DecodeRejectsBadMagic) {
  std::vector<uint8_t> wire =
      MessageCodec::Encode(MakeMessage(PositionVelocityRequest{1}));
  wire[0] ^= 0xFF;
  EXPECT_FALSE(MessageCodec::Decode(wire).ok());
}

TEST(CodecTest, DecodeRejectsUnknownType) {
  std::vector<uint8_t> wire =
      MessageCodec::Encode(MakeMessage(PositionVelocityRequest{1}));
  wire[4] = 0xEE;  // type byte
  EXPECT_FALSE(MessageCodec::Decode(wire).ok());
}

TEST(CodecTest, DecodeRejectsTruncatedBody) {
  std::vector<uint8_t> wire =
      MessageCodec::Encode(MakeMessage(VelocityChangeReport{1, SomeState()}));
  wire.pop_back();
  EXPECT_FALSE(MessageCodec::Decode(wire).ok());
}

TEST(CodecTest, DecodeRejectsTrailingBytes) {
  std::vector<uint8_t> wire =
      MessageCodec::Encode(MakeMessage(PositionVelocityRequest{1}));
  wire.push_back(0);
  EXPECT_FALSE(MessageCodec::Decode(wire).ok());
}

// Fuzz: random single-byte corruptions of valid messages must never crash
// or mis-size the decoder — it either rejects the buffer or produces some
// well-formed message.
TEST(CodecTest, DecodeSurvivesRandomCorruption) {
  Rng rng(601);
  std::vector<Message> corpus;
  corpus.push_back(MakeMessage(PositionReport{1, geo::Point{2, 3}}));
  corpus.push_back(MakeMessage(VelocityChangeReport{4, SomeState()}));
  QueryInstallBroadcast broadcast;
  broadcast.queries.push_back(SomeInfo(1));
  broadcast.queries.push_back(SomeInfo(2));
  corpus.push_back(MakeMessage(broadcast));
  ResultBitmapReport report;
  report.oid = 9;
  report.qids = {10, 11, 12};
  report.bitmap = 5;
  corpus.push_back(MakeMessage(report));

  for (const Message& message : corpus) {
    std::vector<uint8_t> wire = MessageCodec::Encode(message);
    for (int trial = 0; trial < 500; ++trial) {
      std::vector<uint8_t> mutated = wire;
      size_t pos = rng.NextUint64(mutated.size());
      mutated[pos] ^= static_cast<uint8_t>(1 + rng.NextUint64(255));
      auto decoded = MessageCodec::Decode(mutated);  // must not crash
      (void)decoded;
    }
    // Random truncations as well.
    for (size_t len = 0; len < wire.size(); ++len) {
      std::vector<uint8_t> truncated(wire.begin(), wire.begin() + len);
      EXPECT_FALSE(MessageCodec::Decode(truncated).ok());
    }
  }
}

TEST(CodecTest, DecodeRejectsRandomGarbage) {
  Rng rng(602);
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<uint8_t> garbage(rng.NextUint64(128));
    for (auto& byte : garbage) {
      byte = static_cast<uint8_t>(rng.NextUint64(256));
    }
    auto decoded = MessageCodec::Decode(garbage);
    // A random buffer essentially never carries the magic number.
    EXPECT_FALSE(decoded.ok());
  }
}

TEST(CodecTest, DecodeRejectsCountBodyMismatch) {
  QueryRemoveBroadcast p;
  p.qids = {1, 2, 3};
  std::vector<uint8_t> wire = MessageCodec::Encode(MakeMessage(p));
  wire[6] = 5;  // count field low byte: claims 5 ids, body has 3
  EXPECT_FALSE(MessageCodec::Decode(wire).ok());
}

// Every (cold_start, attr_level) pair round-trips through the header flags
// byte, and neither flag changes the encoded size.
TEST(CodecTest, LqtReconcileRequestRoundTripsColdStartFlag) {
  LqtReconcileRequest p;
  p.oid = 13;
  p.cell = geo::CellCoord{4, 6};
  p.known_qids = {2, 5, 9};
  p.target_qids = {5};
  const size_t size = WireSizeBytes(MakeMessage(p));
  for (bool cold : {false, true}) {
    for (int level = 0; level <= kMaxAttrLevel; ++level) {
      p.cold_start = cold;
      p.attr_level = static_cast<uint8_t>(level);
      Message message = MakeMessage(p);
      std::vector<uint8_t> wire = MessageCodec::Encode(message);
      EXPECT_EQ(wire.size(), size);
      EXPECT_EQ(wire.size(), WireSizeBytes(message));
      auto decoded = MessageCodec::Decode(wire);
      ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
      const auto& q = std::get<LqtReconcileRequest>(decoded->payload);
      EXPECT_EQ(q.cold_start, cold);
      EXPECT_EQ(q.attr_level, level);
      EXPECT_EQ(q.known_qids, p.known_qids);
      EXPECT_EQ(q.target_qids, p.target_qids);
    }
  }
}

TEST(CodecTest, DecodeRejectsBadRegionShapeTag) {
  std::vector<uint8_t> wire = MessageCodec::Encode(
      MakeMessage(QueryInstallRequest{3, geo::QueryRegion::MakeCircle(2.0),
                                      0.5}));
  // Body layout: i64 oid, then the region starting with its shape tag.
  wire[16 + 8] = 7;  // neither kCircle (0) nor kRectangle (1)
  EXPECT_FALSE(MessageCodec::Decode(wire).ok());
}

TEST(CodecTest, DecodeRejectsOversizedBitmapCount) {
  ResultBitmapReport p;
  p.oid = 4;
  p.qids = {1, 2, 3};
  p.bitmap = 0b101;
  std::vector<uint8_t> wire = MessageCodec::Encode(MakeMessage(p));
  wire[6] = 200;  // bitmap reports carry at most 64 qids
  EXPECT_FALSE(MessageCodec::Decode(wire).ok());
}

// A qid list longer than the bitmap encodes without shifting past bit 63
// (the ninth bitmap byte is zero) and Decode rejects it like any count over
// 64. Clients never send one: they split reports into 64-query chunks.
TEST(CodecTest, OversizedBitmapListEncodesWithoutOverflow) {
  ResultBitmapReport p;
  p.oid = 4;
  for (QueryId qid = 1; qid <= 65; ++qid) p.qids.push_back(qid);
  p.bitmap = ~uint64_t{0};
  std::vector<uint8_t> wire = MessageCodec::Encode(MakeMessage(p));
  EXPECT_EQ(wire.size(), WireSizeBytes(MakeMessage(p)));
  EXPECT_EQ(wire.back(), 0);
  EXPECT_FALSE(MessageCodec::Decode(wire).ok());
}

// One representative of every message type: the decoder must reject every
// truncation of every type (no assert, no crash) and survive arbitrary
// single-byte mutations.
std::vector<Message> FullCorpus() {
  std::vector<Message> corpus;
  corpus.push_back(MakeMessage(
      QueryInstallRequest{1, geo::QueryRegion::MakeCircle(3.0), 0.5}));
  corpus.push_back(MakeMessage(PositionReport{2, geo::Point{1, 2}}));
  corpus.push_back(MakeMessage(PositionVelocityReport{3, SomeState(), 0.1}));
  corpus.push_back(MakeMessage(VelocityChangeReport{4, SomeState()}));
  corpus.push_back(MakeMessage(
      CellChangeReport{5, geo::CellCoord{0, 1}, geo::CellCoord{1, 1}}));
  ResultBitmapReport bitmap;
  bitmap.oid = 6;
  bitmap.qids = {7, 8};
  bitmap.bitmap = 0b10;
  corpus.push_back(MakeMessage(bitmap));
  corpus.push_back(MakeMessage(FocalNotification{7, 1}));
  corpus.push_back(MakeMessage(PositionVelocityRequest{8}));
  QueryInstallBroadcast install;
  install.queries.push_back(SomeInfo(1));
  corpus.push_back(MakeMessage(install));
  VelocityChangeBroadcast velocity;
  velocity.focal_oid = 9;
  velocity.state = SomeState();
  velocity.carries_query_info = true;
  velocity.queries.push_back(SomeInfo(2, velocity.state));
  corpus.push_back(MakeMessage(velocity));
  QueryUpdateBroadcast update;
  update.queries.push_back(SomeInfo(3));
  corpus.push_back(MakeMessage(update));
  QueryRemoveBroadcast remove;
  remove.qids = {4, 5};
  corpus.push_back(MakeMessage(remove));
  NewQueriesNotification notification;
  notification.oid = 10;
  notification.queries.push_back(SomeInfo(6));
  corpus.push_back(MakeMessage(notification));
  corpus.push_back(MakeMessage(UplinkAck{11, 42}));
  LqtReconcileRequest reconcile;
  reconcile.oid = 12;
  reconcile.cell = geo::CellCoord{2, 3};
  reconcile.known_qids = {1, 2};
  reconcile.target_qids = {2};
  reconcile.cold_start = true;
  reconcile.attr_level = 64;
  corpus.push_back(MakeMessage(reconcile));
  return corpus;
}

TEST(CodecTest, EveryMessageTypeRejectsTruncationAndSurvivesMutation) {
  std::vector<Message> corpus = FullCorpus();
  ASSERT_EQ(corpus.size(), kNumMessageTypes);
  std::set<MessageType> seen;
  Rng rng(603);
  for (const Message& message : corpus) {
    seen.insert(message.type);
    std::vector<uint8_t> wire = MessageCodec::Encode(message);
    for (size_t len = 0; len < wire.size(); ++len) {
      std::vector<uint8_t> truncated(wire.begin(), wire.begin() + len);
      EXPECT_FALSE(MessageCodec::Decode(truncated).ok())
          << MessageTypeName(message.type) << " accepted a truncation to "
          << len << " bytes";
    }
    for (int trial = 0; trial < 200; ++trial) {
      std::vector<uint8_t> mutated = wire;
      size_t pos = rng.NextUint64(mutated.size());
      mutated[pos] ^= static_cast<uint8_t>(1 + rng.NextUint64(255));
      auto decoded = MessageCodec::Decode(mutated);  // must not crash
      (void)decoded;
    }
    // Type byte 15 was the retired server-internal shard handoff's; a
    // message claiming it is refused whatever its body.
    std::vector<uint8_t> retired = wire;
    retired[4] = 15;
    EXPECT_FALSE(MessageCodec::Decode(retired).ok())
        << MessageTypeName(message.type) << " decoded with type byte 15";
  }
  EXPECT_EQ(seen.size(), kNumMessageTypes);
}

// ---------------------------------------------------------------------------
// Backplane frame decoding (DESIGN.md §13): hostile byte streams against the
// incremental FrameDecoder. Every case is a raw stream plus the frames and
// stats it must produce, and every stream is decoded twice more — fed one
// byte at a time and in 3-byte chunks — to prove the split points of a TCP
// read never change the result.

std::vector<uint8_t> EncodeTestFrame(FrameKind kind, uint8_t shard,
                                     int64_t step,
                                     const std::vector<uint8_t>& payload) {
  Frame frame;
  frame.kind = kind;
  frame.shard = shard;
  frame.step = step;
  frame.payload = payload;
  std::vector<uint8_t> out;
  EncodeFrame(frame, &out);
  return out;
}

// A 24-byte v2 header claiming `payload_len` bytes of payload (none
// appended), with arbitrary version/kind/checksum bytes — for bad-version,
// oversized-length, bad-kind and checksum-mismatch cases.
std::vector<uint8_t> RawHeader(uint8_t kind, uint32_t payload_len,
                               uint8_t version = kFrameVersion,
                               uint32_t payload_crc = 0) {
  std::vector<uint8_t> out;
  for (int k = 0; k < 4; ++k) {
    out.push_back(static_cast<uint8_t>(kFrameMagic >> (8 * k)));
  }
  out.push_back(version);
  out.push_back(kind);
  out.push_back(0);  // shard
  out.push_back(0);  // flags
  for (int k = 0; k < 8; ++k) out.push_back(0);  // step
  for (int k = 0; k < 4; ++k) {
    out.push_back(static_cast<uint8_t>(payload_len >> (8 * k)));
  }
  for (int k = 0; k < 4; ++k) {
    out.push_back(static_cast<uint8_t>(payload_crc >> (8 * k)));
  }
  return out;
}

std::vector<uint8_t> Concat(std::initializer_list<std::vector<uint8_t>> parts) {
  std::vector<uint8_t> out;
  for (const auto& part : parts) {
    out.insert(out.end(), part.begin(), part.end());
  }
  return out;
}

struct HostileStreamCase {
  const char* name;
  std::vector<uint8_t> stream;
  size_t expect_frames;
  uint64_t expect_resync_min;  // at least this much garbage skipped
  uint64_t expect_oversized;
  uint64_t expect_bad_kind;
  size_t expect_pending;  // bytes still buffered after the full stream
  uint64_t expect_bad_version = 0;
  uint64_t expect_checksum_min = 0;  // at least this many payload-crc hits
};

std::vector<Frame> FeedAll(const std::vector<uint8_t>& stream,
                           size_t chunk, FrameDecoder* decoder) {
  std::vector<Frame> frames;
  for (size_t pos = 0; pos < stream.size(); pos += chunk) {
    size_t n = std::min(chunk, stream.size() - pos);
    decoder->Feed(stream.data() + pos, n, &frames);
  }
  return frames;
}

TEST(FramingTest, HostileByteStreams) {
  const std::vector<uint8_t> good =
      EncodeTestFrame(FrameKind::kStepBatch, 2, 41, {1, 2, 3, 4, 5});
  const std::vector<uint8_t> good2 =
      EncodeTestFrame(FrameKind::kHeartbeatAck, 3, 42, {});
  const std::vector<uint8_t> garbage = {0x00, 0xff, 0x4d, 0x6f,
                                        0x42, 0x00, 0x7f};
  // Truncated copy of `good`: header + 2 of 5 payload bytes.
  const std::vector<uint8_t> truncated(
      good.begin(), good.begin() + kFrameHeaderBytes + 2);
  // Copies of `good` with a corrupted payload byte / corrupted stored
  // checksum: the header parses, the payload arrives, and the FNV-1a check
  // must reject the frame (one byte consumed, resync hunts on).
  std::vector<uint8_t> bad_payload = good;
  bad_payload[kFrameHeaderBytes + 2] ^= 0x40;
  std::vector<uint8_t> bad_crc = good;
  bad_crc[kFrameHeaderBytes - 1] ^= 0x01;

  std::vector<HostileStreamCase> cases = {
      {"single frame", good, 1, 0, 0, 0, 0},
      {"two frames back to back", Concat({good, good2}), 2, 0, 0, 0, 0},
      {"garbage prefix resync", Concat({garbage, good}), 1, garbage.size(),
       0, 0, 0},
      {"garbage between frames", Concat({good, garbage, good2}), 2,
       garbage.size(), 0, 0, 0},
      {"oversized length prefix then frame",
       Concat({RawHeader(4, kMaxFramePayload + 1), good}), 1, 1, 1, 0, 0},
      {"bad kind then frame",
       Concat({RawHeader(200, 4), good}), 1, 1, 0, 1, 0},
      {"bad kind zero-length",
       Concat({RawHeader(static_cast<uint8_t>(FrameKind::kNumFrameKinds), 0),
               good2}),
       1, 1, 0, 1, 0},
      {"stale version v1 then frame",
       Concat({RawHeader(4, 4, /*version=*/1), good}), 1, 1, 0, 0, 0,
       /*bad_version=*/1},
      {"future version then frame",
       Concat({RawHeader(4, 4, /*version=*/0x7f), good}), 1, 1, 0, 0, 0,
       /*bad_version=*/1},
      {"corrupted payload byte then frame",
       Concat({bad_payload, good2}), 1, 1, 0, 0, 0, 0,
       /*checksum_min=*/1},
      {"corrupted stored checksum then frame",
       Concat({bad_crc, good2}), 1, 1, 0, 0, 0, 0, /*checksum_min=*/1},
      {"zero-length frame with bad checksum",
       Concat({RawHeader(4, 0, kFrameVersion, /*payload_crc=*/0), good}), 1,
       1, 0, 0, 0, 0, /*checksum_min=*/1},
      {"truncated frame stays pending", truncated, 0, 0, 0, 0,
       truncated.size()},
      {"frame then truncated tail", Concat({good, truncated}), 1, 0, 0, 0,
       truncated.size()},
      // Exactly one header's worth so the skip fires at the same point for
      // every chunking (the decoder hunts only once a full header could
      // be buffered).
      {"pure garbage no magic", std::vector<uint8_t>(kFrameHeaderBytes, 0xaa),
       0, kFrameHeaderBytes, 0, 0, 0},
      {"lone magic waits for header",
       {0x46, 0x42, 0x6f, 0x4d}, 0, 0, 0, 0, 4},
  };

  for (const HostileStreamCase& c : cases) {
    SCOPED_TRACE(c.name);
    for (size_t chunk : {c.stream.size(), size_t{1}, size_t{3}}) {
      if (chunk == 0) continue;
      SCOPED_TRACE("chunk=" + std::to_string(chunk));
      FrameDecoder decoder;
      std::vector<Frame> frames = FeedAll(c.stream, chunk, &decoder);
      EXPECT_EQ(frames.size(), c.expect_frames);
      EXPECT_GE(decoder.stats().resync_bytes, c.expect_resync_min);
      EXPECT_EQ(decoder.stats().oversized, c.expect_oversized);
      EXPECT_EQ(decoder.stats().bad_kind, c.expect_bad_kind);
      EXPECT_EQ(decoder.stats().bad_version, c.expect_bad_version);
      EXPECT_GE(decoder.stats().checksum_mismatch, c.expect_checksum_min);
      EXPECT_EQ(decoder.pending_bytes(), c.expect_pending);
      EXPECT_EQ(decoder.stats().frames, c.expect_frames);
    }
  }
}

TEST(FramingTest, DecodedFramesSurviveSplitsIntact) {
  // The payload carries every byte value so a resync bug that eats payload
  // bytes (e.g. a payload containing the magic) cannot hide.
  std::vector<uint8_t> payload;
  for (int k = 0; k < 256; ++k) payload.push_back(static_cast<uint8_t>(k));
  for (int k = 0; k < 4; ++k) {
    payload.push_back(static_cast<uint8_t>(kFrameMagic >> (8 * k)));
  }
  const std::vector<uint8_t> wire =
      EncodeTestFrame(FrameKind::kStateSync, 7, 123456789, payload);
  for (size_t chunk = 1; chunk <= wire.size(); ++chunk) {
    FrameDecoder decoder;
    std::vector<Frame> frames = FeedAll(wire, chunk, &decoder);
    ASSERT_EQ(frames.size(), 1u) << "chunk=" << chunk;
    EXPECT_EQ(frames[0].kind, FrameKind::kStateSync);
    EXPECT_EQ(frames[0].shard, 7);
    EXPECT_EQ(frames[0].step, 123456789);
    EXPECT_EQ(frames[0].payload, payload);
    EXPECT_EQ(decoder.pending_bytes(), 0u);
  }
}

TEST(FramingTest, RandomCorruptionNeverCrashesOrHangs) {
  Rng rng(907);
  std::vector<uint8_t> stream;
  for (int frame = 0; frame < 8; ++frame) {
    std::vector<uint8_t> payload(rng.NextUint64(64));
    for (auto& b : payload) b = static_cast<uint8_t>(rng.NextUint64(256));
    auto wire = EncodeTestFrame(
        static_cast<FrameKind>(rng.NextUint64(
            static_cast<uint64_t>(FrameKind::kNumFrameKinds))),
        static_cast<uint8_t>(frame), frame, payload);
    stream.insert(stream.end(), wire.begin(), wire.end());
  }
  for (int trial = 0; trial < 300; ++trial) {
    std::vector<uint8_t> mutated = stream;
    for (int flips = 0; flips < 4; ++flips) {
      size_t pos = rng.NextUint64(mutated.size());
      mutated[pos] ^= static_cast<uint8_t>(1 + rng.NextUint64(255));
    }
    FrameDecoder decoder;
    std::vector<Frame> frames;
    decoder.Feed(mutated.data(), mutated.size(), &frames);
    // Whatever survived, the decoder must account for every input byte.
    EXPECT_LE(decoder.pending_bytes(), mutated.size());
    for (const Frame& f : frames) {
      EXPECT_LT(static_cast<int>(f.kind),
                static_cast<int>(FrameKind::kNumFrameKinds));
      EXPECT_LE(f.payload.size(), kMaxFramePayload);
    }
  }
}

}  // namespace
}  // namespace mobieyes::net
