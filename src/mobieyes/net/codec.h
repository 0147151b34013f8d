#ifndef MOBIEYES_NET_CODEC_H_
#define MOBIEYES_NET_CODEC_H_

#include <cstdint>
#include <cstring>
#include <vector>

#include "mobieyes/common/status.h"
#include "mobieyes/net/message.h"

namespace mobieyes::net {

// --- Little-endian primitive writers/readers --------------------------------
// Shared by the wire codec below and by the server checkpoint format
// (core::Snapshot), so both speak the same fixed-width binary dialect.

class ByteWriter {
 public:
  explicit ByteWriter(std::vector<uint8_t>* out) : out_(out) {}

  void U8(uint8_t v) { out_->push_back(v); }
  void U16(uint16_t v) { Raw(&v, 2); }
  void U32(uint32_t v) { Raw(&v, 4); }
  void U64(uint64_t v) { Raw(&v, 8); }
  void I32(int32_t v) { Raw(&v, 4); }
  void I64(int64_t v) { Raw(&v, 8); }
  void F64(double v) { Raw(&v, 8); }

  void Point(const geo::Point& p) {
    F64(p.x);
    F64(p.y);
  }
  void Vec(const geo::Vec2& v) {
    F64(v.x);
    F64(v.y);
  }
  void Cell(const geo::CellCoord& c) {
    I32(c.i);
    I32(c.j);
  }
  void Range(const geo::CellRange& r) {
    I32(r.i_lo);
    I32(r.i_hi);
    I32(r.j_lo);
    I32(r.j_hi);
  }
  void State(const FocalState& s) {
    Point(s.pos);
    Vec(s.vel);
    F64(s.tm);
  }
  void Region(const geo::QueryRegion& region) {
    U8(region.shape == geo::QueryRegion::Shape::kCircle ? 0 : 1);
    if (region.shape == geo::QueryRegion::Shape::kCircle) {
      F64(region.radius);
      F64(0.0);
    } else {
      F64(region.half_w);
      F64(region.half_h);
    }
  }
  void Info(const QueryInfo& info) {
    I64(info.qid);
    I64(info.focal_oid);
    State(info.focal);
    Region(info.region);
    F64(info.filter_threshold);
    Range(info.mon_region);
    F64(info.focal_max_speed);
  }
  // The static (kinematics-free) part of a QueryInfo, used by the lazy
  // velocity-change expansion where the focal state is carried once.
  void InfoStatic(const QueryInfo& info) {
    I64(info.qid);
    I64(info.focal_oid);
    Region(info.region);
    F64(info.filter_threshold);
    Range(info.mon_region);
    F64(info.focal_max_speed);
  }

 private:
  void Raw(const void* data, size_t n) {
    const auto* bytes = static_cast<const uint8_t*>(data);
    out_->insert(out_->end(), bytes, bytes + n);
  }

  std::vector<uint8_t>* out_;
};

// Bounds-checked reader: every primitive read past the end (or through a
// malformed tag) trips the sticky failure flag and yields zeros, so decode
// paths can read a whole struct and check ok() once — no partial reads ever
// touch uninitialized memory, and corruption can never assert or index out
// of range.
class ByteReader {
 public:
  ByteReader(const uint8_t* data, size_t size) : data_(data), size_(size) {}

  bool ok() const { return ok_; }
  size_t remaining() const { return size_ - pos_; }
  // Marks the stream corrupt (bad enum tag, impossible count...); all
  // subsequent reads return zeros.
  void Fail() { ok_ = false; }
  // Advances past `n` bytes the caller consumed out-of-band (bulk copies).
  void Skip(size_t n) {
    if (!ok_ || pos_ + n > size_) {
      ok_ = false;
      return;
    }
    pos_ += n;
  }

  uint8_t U8() {
    uint8_t v = 0;
    Raw(&v, 1);
    return v;
  }
  uint16_t U16() {
    uint16_t v = 0;
    Raw(&v, 2);
    return v;
  }
  uint32_t U32() {
    uint32_t v = 0;
    Raw(&v, 4);
    return v;
  }
  uint64_t U64() {
    uint64_t v = 0;
    Raw(&v, 8);
    return v;
  }
  int32_t I32() {
    int32_t v = 0;
    Raw(&v, 4);
    return v;
  }
  int64_t I64() {
    int64_t v = 0;
    Raw(&v, 8);
    return v;
  }
  double F64() {
    double v = 0;
    Raw(&v, 8);
    return v;
  }

  geo::Point Point() {
    geo::Point p;
    p.x = F64();
    p.y = F64();
    return p;
  }
  geo::Vec2 Vec() {
    geo::Vec2 v;
    v.x = F64();
    v.y = F64();
    return v;
  }
  geo::CellCoord Cell() {
    geo::CellCoord c;
    c.i = I32();
    c.j = I32();
    return c;
  }
  geo::CellRange Range() {
    geo::CellRange r;
    r.i_lo = I32();
    r.i_hi = I32();
    r.j_lo = I32();
    r.j_hi = I32();
    return r;
  }
  FocalState State() {
    FocalState s;
    s.pos = Point();
    s.vel = Vec();
    s.tm = F64();
    return s;
  }
  geo::QueryRegion Region() {
    uint8_t shape = U8();
    double a = F64();
    double b = F64();
    if (shape == 0) {
      return geo::QueryRegion::MakeCircle(a);
    }
    if (shape == 1) {
      return geo::QueryRegion::MakeRectangle(2.0 * a, 2.0 * b);
    }
    // Unknown shape tag: corrupt stream, not a rectangle-by-default.
    Fail();
    return geo::QueryRegion::MakeCircle(1.0);
  }
  QueryInfo Info() {
    QueryInfo info;
    info.qid = I64();
    info.focal_oid = I64();
    info.focal = State();
    info.region = Region();
    info.filter_threshold = F64();
    info.mon_region = Range();
    info.focal_max_speed = F64();
    return info;
  }
  QueryInfo InfoStatic() {
    QueryInfo info;
    info.qid = I64();
    info.focal_oid = I64();
    info.region = Region();
    info.filter_threshold = F64();
    info.mon_region = Range();
    info.focal_max_speed = F64();
    return info;
  }

 private:
  void Raw(void* out, size_t n) {
    if (!ok_ || pos_ + n > size_) {
      ok_ = false;
      std::memset(out, 0, n);
      return;
    }
    std::memcpy(out, data_ + pos_, n);
    pos_ += n;
  }

  const uint8_t* data_;
  size_t size_;
  size_t pos_ = 0;
  bool ok_ = true;
};

// Binary wire codec for the MobiEyes protocol. The simulation itself passes
// Message objects in memory for speed, but a real deployment (and the
// byte-accounting model in message.h) needs a concrete encoding. The format
// is little-endian with fixed-width fields:
//
//   header (16 bytes): magic u32 | type u8 | flags u8 | count u16 | body u64
//   body: payload fields in declaration order, using the field sizes
//         documented in message.h (ids i64, scalars f64, points 2xf64,
//         cells 2xi32, cell ranges 4xi32).
//
// Encode output length equals WireSizeBytes(message) exactly; a test pins
// this so the energy model (Fig. 9) cannot drift from the real encoding.
class MessageCodec {
 public:
  static constexpr uint32_t kMagic = 0x4d6f4559;  // "MoEY"

  // Serializes a message. Never fails: all payloads are encodable (bitmap
  // reports are truncated to 64 queries by construction).
  static std::vector<uint8_t> Encode(const Message& message);

  // Encode variant that reuses caller-owned buffers: *out receives the
  // encoded message (cleared first, capacity kept) and *scratch holds the
  // body while the header is assembled. Batched encode loops (WAL
  // serialization) call this so steady-state encoding
  // allocates nothing once the buffers have warmed up.
  static void EncodeInto(const Message& message, std::vector<uint8_t>* scratch,
                         std::vector<uint8_t>* out);

  // Parses a buffer produced by Encode. Returns InvalidArgument on a bad
  // magic number, unknown type, truncated buffer, trailing bytes, or any
  // malformed tag/count inside the body (unknown region shape, bitmap
  // count past the 64-query capacity, inconsistent list lengths). Decoding
  // never asserts on hostile bytes.
  static Result<Message> Decode(const std::vector<uint8_t>& buffer);
};

}  // namespace mobieyes::net

#endif  // MOBIEYES_NET_CODEC_H_
