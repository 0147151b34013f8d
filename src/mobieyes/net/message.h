#ifndef MOBIEYES_NET_MESSAGE_H_
#define MOBIEYES_NET_MESSAGE_H_

#include <cstddef>
#include <cstdint>
#include <variant>
#include <vector>

#include "mobieyes/common/ids.h"
#include "mobieyes/common/units.h"
#include "mobieyes/geo/grid.h"
#include "mobieyes/geo/point.h"
#include "mobieyes/geo/query_region.h"

namespace mobieyes::net {

// ---------------------------------------------------------------------------
// Payloads. These mirror the information flows of §3 of the paper. Uplink
// messages go from a moving object to the server; downlink messages go from
// the server to one object (one-to-one) or to all objects under a base
// station (broadcast).
// ---------------------------------------------------------------------------

// Kinematic state sample of an object, recorded object-side at time tm.
struct FocalState {
  geo::Point pos;
  geo::Vec2 vel;  // miles/second
  Seconds tm = 0.0;

  // Dead-reckoned position at time `now` (paper §3.6).
  geo::Point PredictPosition(Seconds now) const {
    return pos + vel * (now - tm);
  }
};

// Everything an object needs to install one query into its LQT.
struct QueryInfo {
  QueryId qid = kInvalidQueryId;
  ObjectId focal_oid = kInvalidObjectId;
  FocalState focal;
  geo::QueryRegion region;
  // Filter: a target object with property attr satisfies the filter iff
  // attr <= filter_threshold (selectivity = threshold for uniform attr).
  double filter_threshold = 1.0;
  geo::CellRange mon_region;
  // Upper bound on the focal object's speed (miles/second), for the safe
  // period optimization (§4.2).
  double focal_max_speed = 0.0;
};

// --- Uplink payloads --------------------------------------------------------

// A user on a mobile device poses a new query bound to itself.
struct QueryInstallRequest {
  ObjectId oid = kInvalidObjectId;
  geo::QueryRegion region;
  double filter_threshold = 1.0;
};

// Plain position sample, used by the centralized "naive" baseline where
// every object reports its position to the server each time step (§5.3).
struct PositionReport {
  ObjectId oid = kInvalidObjectId;
  geo::Point pos;
};

// Response to a PositionVelocityRequest during installation (§3.3 step 3).
struct PositionVelocityReport {
  ObjectId oid = kInvalidObjectId;
  FocalState state;
  double max_speed = 0.0;
};

// Focal object's significant velocity-vector change (dead reckoning, §3.4).
struct VelocityChangeReport {
  ObjectId oid = kInvalidObjectId;
  FocalState state;
};

// Object moved to a new grid cell (§3.5).
struct CellChangeReport {
  ObjectId oid = kInvalidObjectId;
  geo::CellCoord prev_cell;
  geo::CellCoord new_cell;
};

// The most queries one ResultBitmapReport carries: one bit each in its
// uint64 bitmap. Longer flip lists go out in several reports.
inline constexpr size_t kResultBitmapCapacity = 64;

// Differential result update: bit k of `bitmap` is the new containment
// status for qids[k]. Grouped queries (§4.1) share one report; ungrouped
// queries send a report with a single qid.
struct ResultBitmapReport {
  ObjectId oid = kInvalidObjectId;
  std::vector<QueryId> qids;
  uint64_t bitmap = 0;
};

// --- Downlink payloads ------------------------------------------------------

// Tells the focal object that a query is now bound to it (sets hasMQ).
struct FocalNotification {
  ObjectId oid = kInvalidObjectId;
  QueryId qid = kInvalidQueryId;
};

// Server asks an object for its current kinematics (§3.3 step 3).
struct PositionVelocityRequest {
  ObjectId oid = kInvalidObjectId;
};

// Broadcast installing new queries over their monitoring regions.
struct QueryInstallBroadcast {
  std::vector<QueryInfo> queries;
};

// Broadcast relaying a focal object's velocity change to the monitoring
// regions of its queries. Under eager propagation the receivers already hold
// the queries and only kinematics are carried; under lazy propagation (§3.5)
// the broadcast is expanded with full query info so newly-arrived objects
// can install the queries they missed.
struct VelocityChangeBroadcast {
  ObjectId focal_oid = kInvalidObjectId;
  FocalState state;
  bool carries_query_info = false;  // lazy propagation expansion
  std::vector<QueryInfo> queries;   // only when carries_query_info
};

// Broadcast after a focal object crossed into a new grid cell, sent to the
// union of the old and new monitoring regions (§3.5): receivers install,
// update, or drop the queries depending on their own cell.
struct QueryUpdateBroadcast {
  std::vector<QueryInfo> queries;
};

// Broadcast removing deleted queries.
struct QueryRemoveBroadcast {
  std::vector<QueryId> qids;
};

// One-to-one response under eager propagation: the queries an object must
// newly install after changing its grid cell (§3.5).
struct NewQueriesNotification {
  ObjectId oid = kInvalidObjectId;
  std::vector<QueryInfo> queries;
};

// One-to-one acknowledgement of a tracked uplink (protocol hardening): the
// server echoes the sequence number carried in the uplink's envelope so the
// sender can stop retransmitting it.
struct UplinkAck {
  ObjectId oid = kInvalidObjectId;
  uint32_t seq = 0;
};

// --- Reconciliation (protocol hardening) ------------------------------------

// Periodic uplink letting the server diff an object's LQT against the RQI:
// the object reports its current cell, every query id it holds, the subset
// it currently considers itself a target of, and a lower bound on its filter
// attribute. The server answers with a one-to-one NewQueriesNotification for
// the missing queries the object can install (a query whose filter threshold
// lies below the bound would fail the object's filter test) and a one-to-one
// QueryRemoveBroadcast payload for stale ones, and resynchronizes its result
// membership for the reported queries — this is what lets an object that was
// disconnected (and missed installs, updates and removals) rebuild its LQT.
struct LqtReconcileRequest {
  ObjectId oid = kInvalidObjectId;
  geo::CellCoord cell;
  std::vector<QueryId> known_qids;
  std::vector<QueryId> target_qids;  // subset of known_qids
  // Set by a client that just cold-restarted (Client::Reset): its previous
  // containment state is gone, so the server must clear the object from all
  // result sets (stale memberships cannot be trusted) and re-assert hasMQ
  // if the object is focal. Carried in bit 0 of the header flags byte.
  bool cold_start = false;
  // AttrLevel of the sender's filter attribute, in [0, kMaxAttrLevel];
  // carried in the flags byte's seven other bits. Neither flag adds body
  // bytes, so WireSizeBytes does not depend on them.
  uint8_t attr_level = 0;
};

// The filter-attribute bound of an LqtReconcileRequest, on a grid of 126
// steps over [0, 1]: level 0 bounds nothing, and level L in
// [1, kMaxAttrLevel] says attr >= (L - 1) / 126. These two functions are
// the whole encoding; the client and the server share nothing else.
inline constexpr uint8_t kMaxAttrLevel = 127;
// The largest level whose AttrFloor does not exceed `attr`; 0 for a
// negative or NaN attr.
uint8_t AttrLevel(double attr);
// The bound `level` guarantees: (level - 1) / 126, or -infinity for 0.
double AttrFloor(uint8_t level);

// ---------------------------------------------------------------------------
// Message envelope
// ---------------------------------------------------------------------------

enum class MessageType {
  kQueryInstallRequest,
  kPositionReport,
  kPositionVelocityReport,
  kVelocityChangeReport,
  kCellChangeReport,
  kResultBitmapReport,
  kFocalNotification,
  kPositionVelocityRequest,
  kQueryInstallBroadcast,
  kVelocityChangeBroadcast,
  kQueryUpdateBroadcast,
  kQueryRemoveBroadcast,
  kNewQueriesNotification,
  kUplinkAck,
  kLqtReconcileRequest,
};

// Number of MessageType alternatives; used to size per-type counter arrays.
inline constexpr size_t kNumMessageTypes =
    static_cast<size_t>(MessageType::kLqtReconcileRequest) + 1;

using MessagePayload =
    std::variant<QueryInstallRequest, PositionReport, PositionVelocityReport,
                 VelocityChangeReport, CellChangeReport, ResultBitmapReport,
                 FocalNotification, PositionVelocityRequest,
                 QueryInstallBroadcast, VelocityChangeBroadcast,
                 QueryUpdateBroadcast, QueryRemoveBroadcast,
                 NewQueriesNotification, UplinkAck, LqtReconcileRequest>;

struct Message {
  MessageType type;
  MessagePayload payload;
  // Link-layer sequence number, like the src/dst addresses part of the
  // notional header rather than the payload. Non-zero marks a tracked uplink
  // the server must acknowledge with an UplinkAck echoing this value; zero
  // (the default) is fire-and-forget, the paper's base protocol.
  uint32_t seq = 0;
};

// Convenience constructor deducing `type` from the payload alternative.
Message MakeMessage(MessagePayload payload);

// --- Wire sizes -------------------------------------------------------------
// On-air size model used for the byte/energy accounting of Fig. 9. Field
// sizes follow a plain fixed-width binary encoding.

inline constexpr size_t kHeaderBytes = 16;   // src, dst, type, length
inline constexpr size_t kIdBytes = 8;        // object / query id
inline constexpr size_t kPointBytes = 16;    // two doubles
inline constexpr size_t kVecBytes = 16;      // two doubles
inline constexpr size_t kTimeBytes = 8;      // timestamp
inline constexpr size_t kCellBytes = 8;      // two int32 cell indices
inline constexpr size_t kSeqBytes = 4;       // ack sequence number
inline constexpr size_t kCellRangeBytes = 16;  // four int32 bounds
inline constexpr size_t kScalarBytes = 8;    // threshold / speed
inline constexpr size_t kRegionBytes = 1 + 2 * kScalarBytes;  // shape + extents
inline constexpr size_t kFocalStateBytes = kPointBytes + kVecBytes + kTimeBytes;
inline constexpr size_t kQueryInfoBytes = kIdBytes * 2 + kFocalStateBytes +
                                          kRegionBytes + kScalarBytes * 2 +
                                          kCellRangeBytes;

// Total on-air bytes for a message, including the header.
size_t WireSizeBytes(const Message& message);

// Human-readable message type name (diagnostics and tests).
const char* MessageTypeName(MessageType type);

}  // namespace mobieyes::net

#endif  // MOBIEYES_NET_MESSAGE_H_
