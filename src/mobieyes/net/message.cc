#include "mobieyes/net/message.h"

#include <limits>

namespace mobieyes::net {

namespace {

// Maps a payload alternative to its MessageType tag.
struct TypeOf {
  MessageType operator()(const QueryInstallRequest&) const {
    return MessageType::kQueryInstallRequest;
  }
  MessageType operator()(const PositionReport&) const {
    return MessageType::kPositionReport;
  }
  MessageType operator()(const PositionVelocityReport&) const {
    return MessageType::kPositionVelocityReport;
  }
  MessageType operator()(const VelocityChangeReport&) const {
    return MessageType::kVelocityChangeReport;
  }
  MessageType operator()(const CellChangeReport&) const {
    return MessageType::kCellChangeReport;
  }
  MessageType operator()(const ResultBitmapReport&) const {
    return MessageType::kResultBitmapReport;
  }
  MessageType operator()(const FocalNotification&) const {
    return MessageType::kFocalNotification;
  }
  MessageType operator()(const PositionVelocityRequest&) const {
    return MessageType::kPositionVelocityRequest;
  }
  MessageType operator()(const QueryInstallBroadcast&) const {
    return MessageType::kQueryInstallBroadcast;
  }
  MessageType operator()(const VelocityChangeBroadcast&) const {
    return MessageType::kVelocityChangeBroadcast;
  }
  MessageType operator()(const QueryUpdateBroadcast&) const {
    return MessageType::kQueryUpdateBroadcast;
  }
  MessageType operator()(const QueryRemoveBroadcast&) const {
    return MessageType::kQueryRemoveBroadcast;
  }
  MessageType operator()(const NewQueriesNotification&) const {
    return MessageType::kNewQueriesNotification;
  }
  MessageType operator()(const UplinkAck&) const {
    return MessageType::kUplinkAck;
  }
  MessageType operator()(const LqtReconcileRequest&) const {
    return MessageType::kLqtReconcileRequest;
  }
};

struct BodySize {
  size_t operator()(const QueryInstallRequest&) const {
    return kIdBytes + kRegionBytes + kScalarBytes;
  }
  size_t operator()(const PositionReport&) const {
    return kIdBytes + kPointBytes;
  }
  size_t operator()(const PositionVelocityReport&) const {
    return kIdBytes + kFocalStateBytes + kScalarBytes;
  }
  size_t operator()(const VelocityChangeReport&) const {
    return kIdBytes + kFocalStateBytes;
  }
  size_t operator()(const CellChangeReport&) const {
    return kIdBytes + 2 * kCellBytes;
  }
  size_t operator()(const ResultBitmapReport& r) const {
    // One bit of bitmap per query, rounded up to whole bytes (§4.1).
    return kIdBytes + r.qids.size() * kIdBytes + (r.qids.size() + 7) / 8;
  }
  size_t operator()(const FocalNotification&) const { return 2 * kIdBytes; }
  size_t operator()(const PositionVelocityRequest&) const { return kIdBytes; }
  size_t operator()(const QueryInstallBroadcast& b) const {
    return b.queries.size() * kQueryInfoBytes;
  }
  size_t operator()(const VelocityChangeBroadcast& b) const {
    size_t base = kIdBytes + kFocalStateBytes;
    if (b.carries_query_info) {
      // Kinematics are already carried once; the lazy expansion adds the
      // per-query static part (ids, radius, filter, region, max speed).
      base += b.queries.size() * (kQueryInfoBytes - kFocalStateBytes);
    }
    return base;
  }
  size_t operator()(const QueryUpdateBroadcast& b) const {
    return b.queries.size() * kQueryInfoBytes;
  }
  size_t operator()(const QueryRemoveBroadcast& b) const {
    return b.qids.size() * kIdBytes;
  }
  size_t operator()(const NewQueriesNotification& n) const {
    return kIdBytes + n.queries.size() * kQueryInfoBytes;
  }
  size_t operator()(const UplinkAck&) const { return kIdBytes + kSeqBytes; }
  size_t operator()(const LqtReconcileRequest& r) const {
    // oid, cell, a u16 target count, then both id lists.
    return kIdBytes + kCellBytes + 2 +
           (r.known_qids.size() + r.target_qids.size()) * kIdBytes;
  }
};

}  // namespace

Message MakeMessage(MessagePayload payload) {
  MessageType type = std::visit(TypeOf{}, payload);
  return Message{type, std::move(payload)};
}

size_t WireSizeBytes(const Message& message) {
  return kHeaderBytes + std::visit(BodySize{}, message.payload);
}

uint8_t AttrLevel(double attr) {
  if (!(attr >= 0.0)) return 0;  // negative or NaN
  if (attr >= 1.0) return kMaxAttrLevel;
  // The scaled guess can round either way; the two walks make the result
  // exact against AttrFloor itself.
  int level = static_cast<int>(attr * (kMaxAttrLevel - 1)) + 1;
  while (level < kMaxAttrLevel &&
         AttrFloor(static_cast<uint8_t>(level + 1)) <= attr) {
    ++level;
  }
  while (level > 1 && AttrFloor(static_cast<uint8_t>(level)) > attr) --level;
  return static_cast<uint8_t>(level);
}

double AttrFloor(uint8_t level) {
  if (level == 0) return -std::numeric_limits<double>::infinity();
  return (level - 1) / static_cast<double>(kMaxAttrLevel - 1);
}

const char* MessageTypeName(MessageType type) {
  switch (type) {
    case MessageType::kQueryInstallRequest:
      return "QueryInstallRequest";
    case MessageType::kPositionReport:
      return "PositionReport";
    case MessageType::kPositionVelocityReport:
      return "PositionVelocityReport";
    case MessageType::kVelocityChangeReport:
      return "VelocityChangeReport";
    case MessageType::kCellChangeReport:
      return "CellChangeReport";
    case MessageType::kResultBitmapReport:
      return "ResultBitmapReport";
    case MessageType::kFocalNotification:
      return "FocalNotification";
    case MessageType::kPositionVelocityRequest:
      return "PositionVelocityRequest";
    case MessageType::kQueryInstallBroadcast:
      return "QueryInstallBroadcast";
    case MessageType::kVelocityChangeBroadcast:
      return "VelocityChangeBroadcast";
    case MessageType::kQueryUpdateBroadcast:
      return "QueryUpdateBroadcast";
    case MessageType::kQueryRemoveBroadcast:
      return "QueryRemoveBroadcast";
    case MessageType::kNewQueriesNotification:
      return "NewQueriesNotification";
    case MessageType::kUplinkAck:
      return "UplinkAck";
    case MessageType::kLqtReconcileRequest:
      return "LqtReconcileRequest";
  }
  return "Unknown";
}

}  // namespace mobieyes::net
