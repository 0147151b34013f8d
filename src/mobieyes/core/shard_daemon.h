#ifndef MOBIEYES_CORE_SHARD_DAEMON_H_
#define MOBIEYES_CORE_SHARD_DAEMON_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "mobieyes/common/random.h"
#include "mobieyes/common/status.h"
#include "mobieyes/core/server_shard.h"
#include "mobieyes/geo/grid.h"
#include "mobieyes/net/backplane.h"
#include "mobieyes/net/framing.h"

namespace mobieyes::core {

// --- Step-batch payload codec (DESIGN.md §13) -------------------------------
//
// One kStepBatch frame carries every RQI edit a shard replica must apply
// for one simulation step, coalesced: u32 op count, then per op a u8 opcode
// (0 rqi_add, 1 rqi_remove) and its body (qid i64 + mon_region 4xi32).

class StepBatchBuilder {
 public:
  void RqiOp(bool add, QueryId qid, const geo::CellRange& mon_region);

  bool empty() const { return count_ == 0; }
  uint32_t op_count() const { return count_; }
  // Moves the finished payload (count prefix + ops) out; the builder resets.
  std::vector<uint8_t> Finish();

 private:
  uint32_t count_ = 0;
  std::vector<uint8_t> ops_;
};

// Applies a kStepBatch payload to `shard`. Fails atomically per op (a
// malformed op stops the batch); sets *ops_applied when non-null.
Status ApplyStepBatch(const uint8_t* data, size_t size, ServerShard* shard,
                      uint32_t* ops_applied);

// --- Config payload ----------------------------------------------------------
// kConfig carries everything a daemon needs to rebuild its shard's world
// view: universe rect (4xf64), alpha f64, shard count u32.

struct ShardConfig {
  geo::Rect universe{0.0, 0.0, 1.0, 1.0};
  double alpha = 1.0;
  ShardingOptions sharding;
};

void EncodeShardConfig(const ShardConfig& config, std::vector<uint8_t>* out);
Status DecodeShardConfig(const uint8_t* data, size_t size,
                         ShardConfig* config);

// --- Hello payload -----------------------------------------------------------
// kHello carries the daemon's backplane version, one u32. It changes whenever
// a frame layout or the state digest's definition does, so the supervisor
// refuses a daemon built from other sources instead of failing every digest
// check against it.

// v6: step batches and sync images carry RQI rows only
inline constexpr uint32_t kHelloVersion = 6;

void EncodeHello(std::vector<uint8_t>* out);
// OK for a payload that is exactly this build's kHelloVersion; otherwise an
// error naming the version received and this build's.
Status CheckHello(const uint8_t* data, size_t size);

// --- Daemon ------------------------------------------------------------------

struct ShardDaemonOptions {
  std::string address;  // supervisor's backplane, "uds:/path/to.sock"
  int shard_id = 0;
  uint64_t seed = 1;  // reconnect jitter stream
  // Give up (exit nonzero) when the supervisor stays unreachable this long.
  int connect_timeout_ms = 10000;
  bool verbose = false;
};

// One shard replica process (tools/mobieyes_shardd): connects to the
// supervisor, announces itself with kHello, then applies whatever config,
// state syncs and step batches arrive, acking each with its state digest.
// On EOF it reconnects with seeded-jitter exponential backoff; a clean
// kShutdown ends the process.
class ShardDaemon {
 public:
  explicit ShardDaemon(const ShardDaemonOptions& options);

  // Connect-serve loop; returns the process exit code.
  int Run();

  // Applies one frame, queueing any ack on `link`. Returns false when the
  // daemon should exit (kShutdown). Exposed for tests.
  bool HandleFrame(const net::Frame& frame, net::PeerLink* link);

  const ServerShard* shard() const { return shard_.get(); }

 private:
  bool ServeConnection(int fd);

  ShardDaemonOptions options_;
  Rng rng_;
  std::unique_ptr<geo::Grid> grid_;
  std::unique_ptr<ShardMap> map_;
  std::unique_ptr<ServerShard> shard_;
};

}  // namespace mobieyes::core

#endif  // MOBIEYES_CORE_SHARD_DAEMON_H_
