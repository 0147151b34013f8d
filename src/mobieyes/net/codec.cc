#include "mobieyes/net/codec.h"

namespace mobieyes::net {

namespace {

struct EncodeBody {
  ByteWriter& w;
  uint16_t count = 0;  // element count lifted into the header
  uint8_t flags = 0;

  void operator()(const QueryInstallRequest& p) {
    w.I64(p.oid);
    w.Region(p.region);
    w.F64(p.filter_threshold);
  }
  void operator()(const PositionReport& p) {
    w.I64(p.oid);
    w.Point(p.pos);
  }
  void operator()(const PositionVelocityReport& p) {
    w.I64(p.oid);
    w.State(p.state);
    w.F64(p.max_speed);
  }
  void operator()(const VelocityChangeReport& p) {
    w.I64(p.oid);
    w.State(p.state);
  }
  void operator()(const CellChangeReport& p) {
    w.I64(p.oid);
    w.Cell(p.prev_cell);
    w.Cell(p.new_cell);
  }
  void operator()(const ResultBitmapReport& p) {
    count = static_cast<uint16_t>(p.qids.size());
    w.I64(p.oid);
    for (QueryId qid : p.qids) w.I64(qid);
    // ceil(n/8) bitmap bytes, little-endian bit order. The bitmap holds
    // kResultBitmapCapacity bits; bytes past them (a list Decode rejects)
    // are written as zero rather than shifted out of range.
    for (size_t byte = 0; byte < (p.qids.size() + 7) / 8; ++byte) {
      const bool in_bitmap = 8 * byte < kResultBitmapCapacity;
      w.U8(in_bitmap ? static_cast<uint8_t>(p.bitmap >> (8 * byte)) : 0);
    }
  }
  void operator()(const FocalNotification& p) {
    w.I64(p.oid);
    w.I64(p.qid);
  }
  void operator()(const PositionVelocityRequest& p) { w.I64(p.oid); }
  void operator()(const QueryInstallBroadcast& p) {
    count = static_cast<uint16_t>(p.queries.size());
    for (const QueryInfo& info : p.queries) w.Info(info);
  }
  void operator()(const VelocityChangeBroadcast& p) {
    count = static_cast<uint16_t>(p.queries.size());
    flags = p.carries_query_info ? 1 : 0;
    w.I64(p.focal_oid);
    w.State(p.state);
    if (p.carries_query_info) {
      for (const QueryInfo& info : p.queries) w.InfoStatic(info);
    }
  }
  void operator()(const QueryUpdateBroadcast& p) {
    count = static_cast<uint16_t>(p.queries.size());
    for (const QueryInfo& info : p.queries) w.Info(info);
  }
  void operator()(const QueryRemoveBroadcast& p) {
    count = static_cast<uint16_t>(p.qids.size());
    for (QueryId qid : p.qids) w.I64(qid);
  }
  void operator()(const NewQueriesNotification& p) {
    count = static_cast<uint16_t>(p.queries.size());
    w.I64(p.oid);
    for (const QueryInfo& info : p.queries) w.Info(info);
  }
  void operator()(const UplinkAck& p) {
    w.I64(p.oid);
    w.U32(p.seq);
  }
  void operator()(const LqtReconcileRequest& p) {
    // Header count carries the known list; the target subset's length rides
    // in the body as a u16 (it never exceeds the known list).
    count = static_cast<uint16_t>(p.known_qids.size());
    flags = static_cast<uint8_t>((p.attr_level << 1) | (p.cold_start ? 1 : 0));
    w.I64(p.oid);
    w.Cell(p.cell);
    w.U16(static_cast<uint16_t>(p.target_qids.size()));
    for (QueryId qid : p.target_qids) w.I64(qid);
    for (QueryId qid : p.known_qids) w.I64(qid);
  }
};

}  // namespace

std::vector<uint8_t> MessageCodec::Encode(const Message& message) {
  std::vector<uint8_t> scratch;
  std::vector<uint8_t> out;
  EncodeInto(message, &scratch, &out);
  return out;
}

void MessageCodec::EncodeInto(const Message& message,
                              std::vector<uint8_t>* scratch,
                              std::vector<uint8_t>* out) {
  // Body first so the header can carry count/flags and the body length.
  std::vector<uint8_t>& body = *scratch;
  body.clear();
  ByteWriter body_writer(&body);
  EncodeBody encoder{body_writer};
  std::visit(encoder, message.payload);

  out->clear();
  out->reserve(kHeaderBytes + body.size());
  ByteWriter header(out);
  header.U32(kMagic);
  header.U8(static_cast<uint8_t>(message.type));
  header.U8(encoder.flags);
  header.U16(encoder.count);
  header.U64(static_cast<uint64_t>(body.size()));
  out->insert(out->end(), body.begin(), body.end());
}

Result<Message> MessageCodec::Decode(const std::vector<uint8_t>& buffer) {
  ByteReader r(buffer.data(), buffer.size());
  if (buffer.size() < kHeaderBytes) {
    return Status::InvalidArgument("buffer shorter than header");
  }
  if (r.U32() != kMagic) {
    return Status::InvalidArgument("bad magic number");
  }
  uint8_t raw_type = r.U8();
  uint8_t flags = r.U8();
  uint16_t count = r.U16();
  uint64_t body_size = r.U64();
  if (body_size != buffer.size() - kHeaderBytes) {
    return Status::InvalidArgument("body length mismatch");
  }
  if (raw_type >= kNumMessageTypes) {
    return Status::InvalidArgument("unknown message type");
  }
  auto type = static_cast<MessageType>(raw_type);

  // Count loops below stop as soon as the reader fails, so a header lying
  // about its element count cannot force large garbage allocations.
  MessagePayload payload;
  switch (type) {
    case MessageType::kQueryInstallRequest: {
      QueryInstallRequest p;
      p.oid = r.I64();
      p.region = r.Region();
      p.filter_threshold = r.F64();
      payload = p;
      break;
    }
    case MessageType::kPositionReport: {
      PositionReport p;
      p.oid = r.I64();
      p.pos = r.Point();
      payload = p;
      break;
    }
    case MessageType::kPositionVelocityReport: {
      PositionVelocityReport p;
      p.oid = r.I64();
      p.state = r.State();
      p.max_speed = r.F64();
      payload = p;
      break;
    }
    case MessageType::kVelocityChangeReport: {
      VelocityChangeReport p;
      p.oid = r.I64();
      p.state = r.State();
      payload = p;
      break;
    }
    case MessageType::kCellChangeReport: {
      CellChangeReport p;
      p.oid = r.I64();
      p.prev_cell = r.Cell();
      p.new_cell = r.Cell();
      payload = p;
      break;
    }
    case MessageType::kResultBitmapReport: {
      // Clients split their reports into chunks of at most
      // kResultBitmapCapacity queries; a larger count would shift past the
      // uint64 below — reject it outright.
      if (count > kResultBitmapCapacity) {
        return Status::InvalidArgument("bitmap report exceeds 64 queries");
      }
      ResultBitmapReport p;
      p.oid = r.I64();
      for (uint16_t k = 0; k < count && r.ok(); ++k) {
        p.qids.push_back(r.I64());
      }
      for (size_t byte = 0; byte < (count + 7u) / 8u && r.ok(); ++byte) {
        p.bitmap |= static_cast<uint64_t>(r.U8()) << (8 * byte);
      }
      payload = p;
      break;
    }
    case MessageType::kFocalNotification: {
      FocalNotification p;
      p.oid = r.I64();
      p.qid = r.I64();
      payload = p;
      break;
    }
    case MessageType::kPositionVelocityRequest: {
      PositionVelocityRequest p;
      p.oid = r.I64();
      payload = p;
      break;
    }
    case MessageType::kQueryInstallBroadcast: {
      QueryInstallBroadcast p;
      for (uint16_t k = 0; k < count && r.ok(); ++k) {
        p.queries.push_back(r.Info());
      }
      payload = p;
      break;
    }
    case MessageType::kVelocityChangeBroadcast: {
      VelocityChangeBroadcast p;
      p.focal_oid = r.I64();
      p.state = r.State();
      p.carries_query_info = (flags & 1) != 0;
      if (p.carries_query_info) {
        for (uint16_t k = 0; k < count && r.ok(); ++k) {
          QueryInfo info = r.InfoStatic();
          info.focal = p.state;  // shared kinematics
          p.queries.push_back(info);
        }
      }
      payload = p;
      break;
    }
    case MessageType::kQueryUpdateBroadcast: {
      QueryUpdateBroadcast p;
      for (uint16_t k = 0; k < count && r.ok(); ++k) {
        p.queries.push_back(r.Info());
      }
      payload = p;
      break;
    }
    case MessageType::kQueryRemoveBroadcast: {
      QueryRemoveBroadcast p;
      for (uint16_t k = 0; k < count && r.ok(); ++k) {
        p.qids.push_back(r.I64());
      }
      payload = p;
      break;
    }
    case MessageType::kNewQueriesNotification: {
      NewQueriesNotification p;
      p.oid = r.I64();
      for (uint16_t k = 0; k < count && r.ok(); ++k) {
        p.queries.push_back(r.Info());
      }
      payload = p;
      break;
    }
    case MessageType::kUplinkAck: {
      UplinkAck p;
      p.oid = r.I64();
      p.seq = r.U32();
      payload = p;
      break;
    }
    case MessageType::kLqtReconcileRequest: {
      LqtReconcileRequest p;
      p.cold_start = (flags & 1) != 0;
      p.attr_level = static_cast<uint8_t>(flags >> 1);
      p.oid = r.I64();
      p.cell = r.Cell();
      uint16_t targets = r.U16();
      if (targets > count) {
        return Status::InvalidArgument("target count exceeds known count");
      }
      for (uint16_t k = 0; k < targets && r.ok(); ++k) {
        p.target_qids.push_back(r.I64());
      }
      for (uint16_t k = 0; k < count && r.ok(); ++k) {
        p.known_qids.push_back(r.I64());
      }
      payload = p;
      break;
    }
  }
  if (!r.ok()) {
    return Status::InvalidArgument("truncated or malformed message body");
  }
  if (r.remaining() != 0) {
    return Status::InvalidArgument("trailing bytes after body");
  }
  return Message{type, std::move(payload)};
}

}  // namespace mobieyes::net
