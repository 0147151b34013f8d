#ifndef MOBIEYES_CORE_SNAPSHOT_H_
#define MOBIEYES_CORE_SNAPSHOT_H_

#include <cstdint>
#include <vector>

#include "mobieyes/common/ids.h"
#include "mobieyes/net/message.h"

namespace mobieyes::core {

// One write-ahead-log record: a state-mutating uplink exactly as it arrived
// at the server (sender + full envelope, including the reliable-uplink
// sequence number so replay passes through the same dedup path).
struct WalRecord {
  ObjectId from = kInvalidObjectId;
  net::Message message;
};

// Durable store of one MobiEyesServer: the last checkpoint image plus a
// bounded write-ahead log of the state-mutating uplinks accepted since. The
// store models the stable storage a real mediator would sync to — it is
// owned outside the server process (by the Simulation), so it survives a
// server crash and seeds Server::Restore() on the replacement instance.
//
// Recovery contract: decode(checkpoint) + replay(wal, in order) reproduces
// the server's pre-crash state exactly, as long as the WAL never overflowed.
// When more than `wal_limit` uplinks arrive between checkpoints, the log
// stops recording (keeping its consistent prefix) and counts the overflow;
// the restored state is then merely *stale*, and the soft-state machinery
// (leases + LQT reconciliation) closes the remaining gap.
class Snapshot {
 public:
  // Serialized server image (empty until the first Server::Checkpoint()).
  std::vector<uint8_t> checkpoint;
  // Uplinks accepted after the checkpoint, in arrival order.
  std::vector<WalRecord> wal;
  size_t wal_limit = 4096;
  // Uplinks that arrived after the WAL filled and were not logged.
  uint64_t wal_dropped = 0;

  bool has_checkpoint() const { return !checkpoint.empty(); }

  // Logs one uplink, or counts it dropped once the WAL is full. Dropping
  // the *newest* records (rather than the oldest) keeps the log a replayable
  // prefix: replaying a log with a hole would apply newer state on top of a
  // gap and could resurrect already-superseded entries.
  void Append(ObjectId from, const net::Message& message);

  // Installs a fresh checkpoint image and truncates the WAL (the image
  // already reflects everything the log held).
  void Install(std::vector<uint8_t> image);
};

}  // namespace mobieyes::core

#endif  // MOBIEYES_CORE_SNAPSHOT_H_
