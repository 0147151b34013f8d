#ifndef MOBIEYES_CORE_SHARD_SUPERVISOR_H_
#define MOBIEYES_CORE_SHARD_SUPERVISOR_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "mobieyes/common/random.h"
#include "mobieyes/common/status.h"
#include "mobieyes/core/shard_daemon.h"
#include "mobieyes/core/shard_router.h"
#include "mobieyes/core/shard_transport.h"
#include "mobieyes/net/backplane.h"
#include "mobieyes/net/framing.h"

namespace mobieyes::obs {
class LifecycleTracker;
}  // namespace mobieyes::obs

namespace mobieyes::core {

struct SupervisorOptions {
  // Daemon binary. Empty: $MOBIEYES_SHARDD, then mobieyes_shardd next to
  // the running binary or in a sibling tools/ directory.
  std::string shardd_path;
  // Listen address ("uds:/path/to.sock"). Empty: a fresh UDS socket under
  // a private temp directory, removed at shutdown.
  std::string address;

  bool operator==(const SupervisorOptions&) const = default;
};

struct SupervisorStats {
  uint64_t frames_sent = 0;
  uint64_t frames_received = 0;
  uint64_t bytes_sent = 0;
  uint64_t bytes_received = 0;
  uint64_t batches_sent = 0;
  uint64_t heartbeats_sent = 0;
  uint64_t syncs_sent = 0;
  uint64_t acks_received = 0;
  uint64_t rpc_timeouts = 0;
  uint64_t digest_mismatches = 0;
  uint64_t restarts = 0;         // respawns after a detected death
  uint64_t replayed_frames = 0;  // logged frames re-sent on rejoin
  uint64_t send_drops = 0;       // frames refused by a full send queue
  // Wall round-trip of resolved RPCs (frame send -> ack read).
  uint64_t rtt_micros_total = 0;
  uint64_t rtt_samples = 0;
  // Authority mode: scans answered by a daemon vs served by the local
  // mirror (daemon down, resyncing, or failed mid-scan).
  uint64_t scans_remote = 0;
  uint64_t scans_local = 0;
  // Authority revoked mid-step (death, digest divergence) / granted back
  // at a step boundary. The initial grants count as cutovers too.
  uint64_t failovers = 0;
  uint64_t cutovers = 0;
  // Chaos layer: frame faults injected (drop/delay/truncate/flip) and
  // scheduled SIGKILLs fired.
  uint64_t chaos_frames = 0;
  uint64_t chaos_kills = 0;
  // Wall round-trip of remote-answered scans (request send -> result read).
  uint64_t scan_rtt_micros_total = 0;
  uint64_t scan_rtt_samples = 0;
};

// Runs one daemon process per shard and keeps each a faithful replica of
// the router's shard state (DESIGN.md §13). The router stays the single
// serial dispatcher — the supervisor mirrors its shard ops over the
// backplane as one coalesced frame per peer per step, verifies replica
// agreement via digest-carrying acks, detects death by socket EOF, RPC
// deadline or heartbeat miss, and restarts dead daemons from the stored
// sync image (checkpoint chunks) plus the buffered frame log. The router
// keeps dispatching every uplink while a daemon is down; the rejoining
// replica catches up from the image and the log.
//
// With `authority` set (DESIGN.md §14) the daemons additionally execute
// the RQI row reads: the router's shard objects become a warm standby
// mirror, scans go to the daemons as blocking digest-verified RPCs, and a
// dead or diverged daemon fails over to the mirror within the same virtual
// step. The seeded plan `fault` layers deterministic chaos (frame drops,
// delays, truncations, bit flips, scheduled SIGKILLs) over the backplane
// after startup. `seed` seeds the respawn jitter and the daemons.
class ShardSupervisor : public ShardTransport {
 public:
  ShardSupervisor(const SupervisorOptions& options, bool authority,
                  const net::BackplaneFaultPlan& fault, uint64_t seed);
  ~ShardSupervisor() override;

  // Points the supervisor at the authoritative router and registers itself
  // as the router's transport. Call before Start, and again after a server
  // restore rebuilds the router (followed by OnServerRestored).
  void AttachRouter(ShardRouter* router);

  // Listens, spawns every daemon and completes the config+sync handshake.
  Status Start();

  // One scheduler turn, called once per simulation step after all uplinks
  // dispatched: flushes the coalesced batch (or a heartbeat) to every
  // peer, reads acks, enforces RPC deadlines, respawns due daemons and
  // completes rejoin handshakes.
  void PumpStep(int64_t step);

  // SIGKILLs shard's daemon (crash_sweep's kill -9 fault event). The shard
  // is immediately marked down; the normal respawn path revives it.
  void KillShard(int shard);

  // Re-captures the sync image of every shard and forces a full resync of
  // every peer — the authoritative state was replaced (server restore).
  void OnServerRestored();

  // Captures fresh sync images (checkpoint boundary). Call right after
  // PumpStep, when no ops are pending.
  void CaptureSyncAll();

  // Waits (wall-bounded) until every peer is up with no outstanding RPCs
  // and empty send queues. Test/shutdown aid.
  Status Quiesce(int timeout_ms);

  // Clean stop: kShutdown to every live daemon, reap children, close and
  // remove the socket. Idempotent; also run by the destructor.
  void Shutdown();

  // --- ShardTransport ------------------------------------------------------
  void OnRqiOp(bool add, int shard, QueryId qid,
               const geo::CellRange& mon_region) override;
  void OnHandoff(int from_shard, int to_shard, ObjectId oid,
                 const net::Message& message) override;
  // Authority-mode scan: flushes the shard's coalesced ops (so the daemon
  // observes every mutation this dispatch already applied), then blocks on
  // a kScanRequest. The result is accepted only with the daemon's state
  // digest matching the local mirror's; on death, deadline or divergence
  // the scan fails over to the mirror within the same step (returns
  // false). See DESIGN.md §14.
  bool AuthorityScan(int shard, const geo::CellCoord& cell,
                     std::vector<QueryId>* out) override;

  // --- Introspection -------------------------------------------------------
  int num_peers() const { return static_cast<int>(peers_.size()); }
  bool AllAvailable() const;
  int64_t down_shards() const;
  size_t queue_bytes(int shard) const;
  const SupervisorStats& stats() const { return stats_; }
  const std::string& address() const { return backplane_.bound_address(); }
  void set_lifecycle(obs::LifecycleTracker* lifecycle) {
    lifecycle_ = lifecycle;
  }

  // Resolves the daemon binary path (options override, $MOBIEYES_SHARDD,
  // then siblings of the running executable). Empty when none is found.
  static std::string FindShardd(const std::string& override_path);

  // Backoff before respawn attempt `attempts` (1-based), in steps: base
  // doubles per consecutive failure, seeded jitter in [0, base] is added,
  // and the result is clamped to [base, max(base, max_steps)]. Exposed for
  // the bounds test.
  static int64_t RespawnBackoffSteps(int attempts, int base_steps,
                                     int max_steps, Rng* rng);

 private:
  struct PendingRpc {
    int64_t step = 0;
    uint64_t expected_digest = 0;
    bool is_sync = false;
    bool is_heartbeat = false;
    bool is_scan = false;
    int64_t sent_micros = 0;  // steady-clock stamp for RTT
  };

  // A chaos-delayed frame's wire bytes, released at a later step. Frames
  // queued behind a held one are held too, preserving send order.
  struct HeldFrame {
    std::vector<uint8_t> wire;
    int64_t release_step = 0;
  };

  // A step batch kept for rejoin replay, with the authoritative digest the
  // replica must land on after applying it.
  struct LoggedFrame {
    net::Frame frame;
    uint64_t digest = 0;
  };

  struct Peer {
    int shard = 0;
    pid_t pid = -1;
    std::unique_ptr<net::PeerLink> link;
    bool up = false;         // handshake complete, replica current
    bool need_sync = false;  // full resync owed (mismatch, restore)
    // Authority mode: this daemon currently executes the shard's scans.
    // Granted only at a step boundary (clean cutover), revoked on death or
    // digest divergence (failover to the local mirror).
    bool authoritative = false;
    StepBatchBuilder pending;
    std::deque<PendingRpc> rpcs;
    std::deque<HeldFrame> held;  // chaos-delayed outbound frames
    // Rejoin material: last captured sync image + batches sent since.
    std::vector<uint8_t> sync_image;
    uint64_t sync_digest = 0;
    std::deque<LoggedFrame> frame_log;
    bool log_overflow = false;
    int64_t last_activity_step = 0;  // last frame sent
    int64_t next_respawn_step = 0;
    int respawn_attempts = 0;
    // Lazily computed digest of the local mirror, invalidated by every
    // replicated op. StateDigest() walks the whole shard, and authority
    // mode needs the digest per scan, not just per step.
    uint64_t mirror_digest = 0;
    bool mirror_digest_valid = false;
  };

  Status SpawnDaemon(Peer* peer);
  void MarkDown(Peer* peer);
  void CaptureSync(Peer* peer);
  void SendSync(Peer* peer);
  void SendBatchOrHeartbeat(Peer* peer);
  void LogFrame(Peer* peer, const net::Frame& frame);
  void AcceptNewConnections();
  void ReceiveAll();
  void HandlePeerFrame(Peer* peer, const net::Frame& frame);
  void RespawnDue();
  uint64_t RpcKey(const Peer& peer, const PendingRpc& rpc) const;
  // Chaos-aware send: encodes the frame, rolls the fault plan against it
  // (drop / delay / truncate / flip), and queues whatever survives on the
  // link. Returns false only when the link refused the bytes — an injected
  // fault still reports success, so loss is detected by the RPC deadline,
  // exactly like a real flaky transport.
  bool SendFrame(Peer* peer, const net::Frame& frame);
  // Flushes chaos-held frames whose release step arrived (all of them when
  // `force`, for shutdown paths that no longer advance steps).
  void ReleaseDelayed(Peer* peer, bool force);
  // Revokes scan authority mid-step (counts a failover).
  void RevokeAuthority(Peer* peer);
  // Grants authority to synced idle peers (counts cutovers). Step-boundary
  // only, so a rejoining daemon never serves a partially-shipped step.
  void GrantAuthority();
  // Flushes the peer's coalesced ops as a mid-step batch. False when the
  // send failed (peer marked down inside).
  bool FlushPendingBatch(Peer* peer);
  // Blocks on the peer's socket while its oldest RPC is past the step
  // deadline but inside the wall budget, handling whatever arrives. False
  // when that RPC is still unacked at the end of its budget; true when it
  // was acked or the link died (the peer is then already marked down).
  bool AwaitOverdueAcks(Peer* peer);
  // The local mirror's state digest, cached until the next replicated op.
  uint64_t MirrorDigest(Peer* peer);
  static int64_t NowMicros();

  SupervisorOptions options_;
  bool authority_ = false;
  net::BackplaneFaultPlan fault_;
  uint64_t seed_ = 1;
  ShardRouter* router_ = nullptr;
  net::Backplane backplane_;
  std::vector<std::unique_ptr<Peer>> peers_;
  // Accepted links that have not said hello yet.
  std::vector<std::unique_ptr<net::PeerLink>> pending_links_;
  Rng rng_;
  Rng chaos_rng_{1};  // reseeded from the fault plan in the constructor
  int64_t step_ = 0;
  std::string socket_dir_;  // private temp dir to remove at shutdown
  SupervisorStats stats_;
  obs::LifecycleTracker* lifecycle_ = nullptr;
  bool started_ = false;
  // Set inside Quiesce: chaos injection pauses and recovery switches to
  // wall-clock pacing (virtual steps no longer advance there).
  bool quiescing_ = false;
};

}  // namespace mobieyes::core

#endif  // MOBIEYES_CORE_SHARD_SUPERVISOR_H_
