#include "mobieyes/core/shard_supervisor.h"

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <thread>
#include <utility>

#include "mobieyes/net/codec.h"
#include "mobieyes/obs/lifecycle.h"

namespace mobieyes::core {

namespace {

constexpr uint64_t kRpcTypeBatch = 0;
constexpr uint64_t kRpcTypeHeartbeat = 1;
constexpr uint64_t kRpcTypeSync = 2;
constexpr uint64_t kRpcTypeScan = 3;

// Backplane tuning (DESIGN.md §13).
// Steps between liveness probes on an otherwise idle link.
constexpr int kHeartbeatStride = 4;
// Virtual-step RPC deadline: a frame unacked this many steps after it was
// sent marks the daemon dead (killed and rescheduled) once it is also past
// the wall budget kAuthorityTimeoutMicros, so a live daemon that was
// descheduled is not taken for dead.
constexpr int kTimeoutSteps = 4;
// Respawn backoff for a dead daemon, in steps: base doubles per
// consecutive failure up to max, plus seeded jitter in [0, base).
constexpr int kRespawnBaseSteps = 1;
constexpr int kRespawnMaxSteps = 16;
// Bounded per-peer send queue; a frame that would exceed this is dropped
// and the peer declared dead (it is not consuming).
constexpr size_t kMaxQueueBytes = 4u << 20;
// Step-batch frames buffered per peer for rejoin replay; past this the log
// is discarded and a rejoin takes a fresh full sync instead.
constexpr size_t kMaxReplayFrames = 256;
// Wall-clock budget for Start()'s initial spawn-and-handshake.
constexpr int kStartTimeoutMs = 15000;
// Wall-clock deadline for one blocking authority scan, and the wall budget
// of any unacked RPC: past it the daemon is declared dead (a scan then
// fails over to the local mirror within the same step).
constexpr int64_t kAuthorityTimeoutMicros = 250'000;

bool Executable(const std::string& path) {
  return !path.empty() && access(path.c_str(), X_OK) == 0;
}

std::string SelfDir() {
  char buf[4096];
  ssize_t n = readlink("/proc/self/exe", buf, sizeof(buf) - 1);
  if (n <= 0) return "";
  buf[n] = '\0';
  std::string path(buf);
  size_t slash = path.rfind('/');
  return slash == std::string::npos ? "" : path.substr(0, slash);
}

}  // namespace

std::string ShardSupervisor::FindShardd(const std::string& override_path) {
  if (Executable(override_path)) return override_path;
  if (!override_path.empty()) return "";
  const char* env = getenv("MOBIEYES_SHARDD");
  if (env != nullptr && Executable(env)) return env;
  std::string dir = SelfDir();
  if (dir.empty()) return "";
  for (const char* rel : {"/mobieyes_shardd", "/../tools/mobieyes_shardd",
                          "/tools/mobieyes_shardd"}) {
    std::string candidate = dir + rel;
    if (Executable(candidate)) return candidate;
  }
  return "";
}

int64_t ShardSupervisor::NowMicros() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

ShardSupervisor::ShardSupervisor(const SupervisorOptions& options,
                                 bool authority,
                                 const net::BackplaneFaultPlan& fault,
                                 uint64_t seed)
    : options_(options),
      authority_(authority),
      fault_(fault),
      seed_(seed),
      rng_(seed * 7919 + 17),
      chaos_rng_(fault.seed * 6364136223846793005ull +
                 1442695040888963407ull) {}

ShardSupervisor::~ShardSupervisor() { Shutdown(); }

void ShardSupervisor::AttachRouter(ShardRouter* router) {
  router_ = router;
  router_->set_transport(this);
  for (auto& peer : peers_) peer->mirror_digest_valid = false;
}

uint64_t ShardSupervisor::RpcKey(const Peer& peer,
                                 const PendingRpc& rpc) const {
  uint64_t type = rpc.is_sync        ? kRpcTypeSync
                  : rpc.is_heartbeat ? kRpcTypeHeartbeat
                  : rpc.is_scan      ? kRpcTypeScan
                                     : kRpcTypeBatch;
  return (static_cast<uint64_t>(rpc.step) << 10) |
         (static_cast<uint64_t>(peer.shard) << 2) | type;
}

Status ShardSupervisor::SpawnDaemon(Peer* peer) {
  std::string binary = FindShardd(options_.shardd_path);
  if (binary.empty()) {
    return Status::NotFound(
        "supervisor: mobieyes_shardd not found (set --shardd or "
        "$MOBIEYES_SHARDD)");
  }
  char shard_arg[32], seed_arg[48], timeout_arg[48];
  std::snprintf(shard_arg, sizeof(shard_arg), "--shard=%d", peer->shard);
  std::snprintf(seed_arg, sizeof(seed_arg), "--seed=%llu",
                static_cast<unsigned long long>(seed_));
  std::snprintf(timeout_arg, sizeof(timeout_arg),
                "--connect-timeout-ms=%d", kStartTimeoutMs);
  std::string address_arg = "--address=" + backplane_.bound_address();

  pid_t pid = fork();
  if (pid < 0) return Status::Internal("supervisor: fork failed");
  if (pid == 0) {
    const char* argv[] = {binary.c_str(), address_arg.c_str(), shard_arg,
                          seed_arg,       timeout_arg,         nullptr};
    execv(binary.c_str(), const_cast<char* const*>(argv));
    _exit(127);
  }
  peer->pid = pid;
  if (started_) ++stats_.restarts;
  return Status::OK();
}

Status ShardSupervisor::Start() {
  if (router_ == nullptr) {
    return Status::Internal("supervisor: AttachRouter before Start");
  }
  std::string address = options_.address;
  if (address.empty()) {
    char tmpl[] = "/tmp/mobieyes-bp.XXXXXX";
    char* dir = mkdtemp(tmpl);
    if (dir == nullptr) {
      return Status::Internal("supervisor: mkdtemp failed");
    }
    socket_dir_ = dir;
    address = "uds:" + socket_dir_ + "/bp.sock";
  }
  Status st = backplane_.Listen(address);
  if (!st.ok()) return st;

  peers_.clear();
  for (int s = 0; s < router_->num_shards(); ++s) {
    auto peer = std::make_unique<Peer>();
    peer->shard = s;
    peers_.push_back(std::move(peer));
  }
  for (auto& peer : peers_) {
    st = SpawnDaemon(peer.get());
    if (!st.ok()) {
      Shutdown();
      return st;
    }
  }
  int64_t deadline = NowMicros() + int64_t{1000} * kStartTimeoutMs;
  while (!AllAvailable()) {
    AcceptNewConnections();
    ReceiveAll();
    if (AllAvailable()) break;
    if (NowMicros() > deadline) {
      Shutdown();
      return Status::Internal(
          "supervisor: shard daemons failed to join within the start "
          "timeout");
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  started_ = true;
  return Status::OK();
}

bool ShardSupervisor::AllAvailable() const {
  for (const auto& peer : peers_) {
    if (!peer->up) return false;
  }
  return !peers_.empty();
}

int64_t ShardSupervisor::down_shards() const {
  int64_t down = 0;
  for (const auto& peer : peers_) {
    if (!peer->up) ++down;
  }
  return down;
}

size_t ShardSupervisor::queue_bytes(int shard) const {
  if (shard < 0 || shard >= static_cast<int>(peers_.size())) return 0;
  const Peer& peer = *peers_[shard];
  return peer.link != nullptr ? peer.link->queued_bytes() : 0;
}

void ShardSupervisor::OnRqiOp(bool add, int shard, QueryId qid,
                              const geo::CellRange& mon_region) {
  if (shard < 0 || shard >= static_cast<int>(peers_.size())) return;
  peers_[shard]->pending.RqiOp(add, qid, mon_region);
  peers_[shard]->mirror_digest_valid = false;
}

void ShardSupervisor::OnHandoff(int from_shard, int to_shard, ObjectId oid,
                                const net::Message& message) {
  if (from_shard >= 0 && from_shard < static_cast<int>(peers_.size())) {
    peers_[from_shard]->pending.Extract(oid);
    peers_[from_shard]->mirror_digest_valid = false;
  }
  if (to_shard >= 0 && to_shard < static_cast<int>(peers_.size())) {
    peers_[to_shard]->pending.Adopt(message);
    peers_[to_shard]->mirror_digest_valid = false;
  }
}

uint64_t ShardSupervisor::MirrorDigest(Peer* peer) {
  if (!peer->mirror_digest_valid) {
    peer->mirror_digest = router_->shard(peer->shard).StateDigest();
    peer->mirror_digest_valid = true;
  }
  return peer->mirror_digest;
}

void ShardSupervisor::CaptureSync(Peer* peer) {
  peer->sync_image.clear();
  const ServerShard& shard = router_->shard(peer->shard);
  shard.EncodeStateSync(&peer->sync_image);
  peer->sync_digest = MirrorDigest(peer);
  peer->frame_log.clear();
  peer->log_overflow = false;
}

void ShardSupervisor::CaptureSyncAll() {
  for (auto& peer : peers_) CaptureSync(peer.get());
}

void ShardSupervisor::OnServerRestored() {
  for (auto& peer : peers_) {
    // Discard ops built against the pre-restore state; the fresh sync
    // image below supersedes them.
    peer->pending.Finish();
    peer->need_sync = true;
    peer->mirror_digest_valid = false;
    // Scans must come from the restored state; authority returns after
    // the resync, at the next step boundary.
    RevokeAuthority(peer.get());
  }
  CaptureSyncAll();
}

int64_t ShardSupervisor::RespawnBackoffSteps(int attempts, int base_steps,
                                             int max_steps, Rng* rng) {
  int64_t base = std::max<int64_t>(1, base_steps);
  int64_t cap = std::max<int64_t>(base, max_steps);
  int64_t backoff = base << std::min(std::max(attempts, 1) - 1, 10);
  // Seeded jitter keeps a herd of dead shards from respawning in lockstep.
  backoff += static_cast<int64_t>(
      rng->NextUint64(static_cast<uint64_t>(base) + 1));
  return std::clamp(backoff, base, cap);
}

void ShardSupervisor::RevokeAuthority(Peer* peer) {
  if (peer->authoritative) {
    peer->authoritative = false;
    ++stats_.failovers;
  }
}

void ShardSupervisor::GrantAuthority() {
  if (!authority_) return;
  for (auto& peer : peers_) {
    if (peer->authoritative || !peer->up || peer->need_sync ||
        !peer->rpcs.empty()) {
      continue;
    }
    peer->authoritative = true;
    ++stats_.cutovers;
  }
}

void ShardSupervisor::MarkDown(Peer* peer) {
  RevokeAuthority(peer);
  peer->up = false;
  peer->link.reset();
  peer->held.clear();
  for (const PendingRpc& rpc : peer->rpcs) {
    if (lifecycle_ != nullptr) {
      lifecycle_->Drop(obs::LifecycleTracker::kBackplaneRpc,
                       RpcKey(*peer, rpc));
    }
  }
  peer->rpcs.clear();
  if (peer->pid > 0) {
    // The process may still be alive (deadline miss, stalled socket):
    // finish the job so the respawn starts from a clean slate.
    kill(peer->pid, SIGKILL);
    waitpid(peer->pid, nullptr, 0);
    peer->pid = -1;
  }
  ++peer->respawn_attempts;
  peer->next_respawn_step =
      step_ + RespawnBackoffSteps(peer->respawn_attempts, kRespawnBaseSteps,
                                  kRespawnMaxSteps, &rng_);
}

void ShardSupervisor::KillShard(int shard) {
  if (shard < 0 || shard >= static_cast<int>(peers_.size())) return;
  Peer* peer = peers_[shard].get();
  // Already dead and awaiting respawn: don't double the backoff penalty.
  if (peer->pid <= 0 && peer->link == nullptr && !peer->up) return;
  if (peer->pid > 0) {
    kill(peer->pid, SIGKILL);
    waitpid(peer->pid, nullptr, 0);
    peer->pid = -1;
  }
  MarkDown(peer);
}

void ShardSupervisor::AcceptNewConnections() {
  for (;;) {
    int fd = backplane_.Accept();
    if (fd < 0) break;
    auto link = std::make_unique<net::PeerLink>();
    link->Adopt(fd);
    pending_links_.push_back(std::move(link));
  }
}

void ShardSupervisor::LogFrame(Peer* peer, const net::Frame& frame) {
  if (peer->log_overflow) return;
  if (peer->frame_log.size() >= kMaxReplayFrames) {
    // Past the replay budget a rejoin takes a fresh full sync instead.
    peer->frame_log.clear();
    peer->log_overflow = true;
    return;
  }
  LoggedFrame logged;
  logged.frame = frame;
  logged.digest = MirrorDigest(peer);
  peer->frame_log.push_back(std::move(logged));
}

bool ShardSupervisor::SendFrame(Peer* peer, const net::Frame& frame) {
  if (peer->link == nullptr || !peer->link->connected()) return false;
  // Chaos only bites after the initial handshake (so a faulty plan cannot
  // starve Start() itself) and pauses during Quiesce (the settle phase has
  // no step clock to notice losses).
  if (!started_ || quiescing_ || !fault_.active()) {
    return peer->link->Send(frame, kMaxQueueBytes);
  }
  const net::BackplaneFaultPlan& plan = fault_;
  if (chaos_rng_.NextDouble() < plan.drop_rate) {
    // Silently vanished: the RPC deadline is what notices, exactly like a
    // frame lost inside a real flaky transport.
    ++stats_.chaos_frames;
    return true;
  }
  std::vector<uint8_t> wire;
  net::EncodeFrame(frame, &wire);
  int64_t release_step = -1;
  if (chaos_rng_.NextDouble() < plan.delay_rate) {
    release_step = step_ + 1 +
                   static_cast<int64_t>(chaos_rng_.NextUint64(
                       static_cast<uint64_t>(plan.max_delay_steps)));
    ++stats_.chaos_frames;
  }
  if (chaos_rng_.NextDouble() < plan.truncate_rate && wire.size() > 1) {
    wire.resize(1 + chaos_rng_.NextUint64(wire.size() - 1));
    ++stats_.chaos_frames;
  }
  if (chaos_rng_.NextDouble() < plan.flip_rate && !wire.empty()) {
    size_t idx = static_cast<size_t>(chaos_rng_.NextUint64(wire.size()));
    wire[idx] ^= static_cast<uint8_t>(1u << chaos_rng_.NextUint64(8));
    ++stats_.chaos_frames;
  }
  if (release_step >= 0 || !peer->held.empty()) {
    // Held frames keep FIFO order: anything sent behind a delayed frame is
    // delayed at least as long.
    HeldFrame held;
    held.wire = std::move(wire);
    held.release_step =
        release_step >= 0 ? release_step : peer->held.back().release_step;
    if (!peer->held.empty()) {
      held.release_step =
          std::max(held.release_step, peer->held.back().release_step);
    }
    peer->held.push_back(std::move(held));
    return true;
  }
  return peer->link->SendBytes(wire.data(), wire.size(),
                               kMaxQueueBytes);
}

void ShardSupervisor::ReleaseDelayed(Peer* peer, bool force) {
  while (!peer->held.empty() &&
         (force || peer->held.front().release_step <= step_)) {
    if (peer->link == nullptr || !peer->link->connected()) {
      peer->held.clear();
      return;
    }
    const HeldFrame& held = peer->held.front();
    peer->link->SendBytes(held.wire.data(), held.wire.size(),
                          kMaxQueueBytes);
    peer->held.pop_front();
  }
}

void ShardSupervisor::SendSync(Peer* peer) {
  if (peer->link == nullptr || !peer->link->connected()) return;
  if (peer->sync_image.empty() || peer->log_overflow || peer->need_sync) {
    CaptureSync(peer);
    // Any coalesced-but-unsent ops are baked into the fresh image.
    peer->pending.Finish();
  }

  net::Frame config;
  config.kind = net::FrameKind::kConfig;
  config.shard = static_cast<uint8_t>(peer->shard);
  config.step = step_;
  ShardConfig shard_config;
  shard_config.universe = router_->grid().universe();
  shard_config.alpha = router_->grid().alpha();
  shard_config.sharding.num_shards = router_->shard_map().num_shards();
  EncodeShardConfig(shard_config, &config.payload);

  net::Frame sync;
  sync.kind = net::FrameKind::kStateSync;
  sync.shard = static_cast<uint8_t>(peer->shard);
  sync.step = step_;
  sync.payload = peer->sync_image;

  if (!SendFrame(peer, config) || !SendFrame(peer, sync)) {
    ++stats_.send_drops;
    MarkDown(peer);
    return;
  }
  stats_.frames_sent += 2;
  stats_.bytes_sent += 2 * net::kFrameHeaderBytes + config.payload.size() +
                       sync.payload.size();
  ++stats_.syncs_sent;
  PendingRpc rpc;
  rpc.step = step_;
  rpc.expected_digest = peer->sync_digest;
  rpc.is_sync = true;
  rpc.sent_micros = NowMicros();
  if (lifecycle_ != nullptr) {
    lifecycle_->Stamp(obs::LifecycleTracker::kBackplaneRpc,
                      RpcKey(*peer, rpc));
  }
  peer->rpcs.push_back(rpc);

  // Replay the buffered batches sent (or logged while down) since the
  // stored image was captured.
  for (const LoggedFrame& logged : peer->frame_log) {
    if (!SendFrame(peer, logged.frame)) {
      ++stats_.send_drops;
      MarkDown(peer);
      return;
    }
    ++stats_.frames_sent;
    stats_.bytes_sent +=
        net::kFrameHeaderBytes + logged.frame.payload.size();
    ++stats_.replayed_frames;
    PendingRpc replay_rpc;
    replay_rpc.step = step_;
    replay_rpc.expected_digest = logged.digest;
    replay_rpc.sent_micros = NowMicros();
    peer->rpcs.push_back(replay_rpc);
  }
  peer->need_sync = false;
  peer->last_activity_step = step_;
}

bool ShardSupervisor::FlushPendingBatch(Peer* peer) {
  net::Frame frame;
  frame.kind = net::FrameKind::kStepBatch;
  frame.shard = static_cast<uint8_t>(peer->shard);
  frame.step = step_;
  frame.payload = peer->pending.Finish();
  // The authoritative shard already applied these ops, so its digest is
  // exactly where the replica must land after this frame.
  LogFrame(peer, frame);
  if (peer->link == nullptr || !peer->link->connected()) {
    return false;  // buffered for rejoin replay
  }
  PendingRpc rpc;
  rpc.step = step_;
  rpc.expected_digest = MirrorDigest(peer);
  rpc.sent_micros = NowMicros();
  if (!SendFrame(peer, frame)) {
    ++stats_.send_drops;
    MarkDown(peer);
    return false;
  }
  stats_.frames_sent += 1;
  stats_.bytes_sent += net::kFrameHeaderBytes + frame.payload.size();
  ++stats_.batches_sent;
  if (lifecycle_ != nullptr) {
    lifecycle_->Stamp(obs::LifecycleTracker::kBackplaneRpc,
                      RpcKey(*peer, rpc));
  }
  peer->rpcs.push_back(rpc);
  peer->last_activity_step = step_;
  return true;
}

void ShardSupervisor::SendBatchOrHeartbeat(Peer* peer) {
  bool connected = peer->link != nullptr && peer->link->connected();
  if (connected && peer->need_sync) {
    SendSync(peer);
    return;
  }
  if (!peer->pending.empty()) {
    FlushPendingBatch(peer);
    return;
  }
  if (connected && peer->up &&
      step_ - peer->last_activity_step >= kHeartbeatStride) {
    net::Frame frame;
    frame.kind = net::FrameKind::kHeartbeat;
    frame.shard = static_cast<uint8_t>(peer->shard);
    frame.step = step_;
    PendingRpc rpc;
    rpc.step = step_;
    rpc.is_heartbeat = true;
    rpc.sent_micros = NowMicros();
    if (!SendFrame(peer, frame)) {
      ++stats_.send_drops;
      MarkDown(peer);
      return;
    }
    stats_.frames_sent += 1;
    stats_.bytes_sent += net::kFrameHeaderBytes;
    ++stats_.heartbeats_sent;
    if (lifecycle_ != nullptr) {
      lifecycle_->Stamp(obs::LifecycleTracker::kBackplaneRpc,
                        RpcKey(*peer, rpc));
    }
    peer->rpcs.push_back(rpc);
    peer->last_activity_step = step_;
  }
}

void ShardSupervisor::HandlePeerFrame(Peer* peer, const net::Frame& frame) {
  ++stats_.frames_received;
  stats_.bytes_received += net::kFrameHeaderBytes + frame.payload.size();
  bool is_ack = frame.kind == net::FrameKind::kStateSyncAck ||
                frame.kind == net::FrameKind::kStepAck ||
                frame.kind == net::FrameKind::kHeartbeatAck;
  if (!is_ack) return;
  if (peer->rpcs.empty()) return;  // stale ack from a replaced connection

  PendingRpc rpc = peer->rpcs.front();
  peer->rpcs.pop_front();
  ++stats_.acks_received;
  int64_t rtt = NowMicros() - rpc.sent_micros;
  if (rtt > 0) {
    stats_.rtt_micros_total += static_cast<uint64_t>(rtt);
    ++stats_.rtt_samples;
  }
  if (lifecycle_ != nullptr) {
    lifecycle_->ResolveIfPending(obs::LifecycleTracker::kBackplaneRpc,
                                 RpcKey(*peer, rpc));
  }
  if (frame.kind == net::FrameKind::kHeartbeatAck) return;

  net::ByteReader r(frame.payload.data(), frame.payload.size());
  uint64_t digest = r.U64();
  if (frame.kind == net::FrameKind::kStepAck) r.U32();  // ops applied
  uint8_t ok = r.U8();
  if (!r.ok() || r.remaining() != 0 || ok == 0 ||
      digest != rpc.expected_digest) {
    ++stats_.digest_mismatches;
    peer->need_sync = true;
    // A diverged replica must not keep answering scans.
    RevokeAuthority(peer);
    return;
  }
  if (rpc.is_sync || (!peer->up && peer->rpcs.empty())) {
    // Handshake complete: the replica proved it holds the authoritative
    // state (sync digest matched), so the shard is up again.
    peer->up = true;
    peer->respawn_attempts = 0;
  }
}

bool ShardSupervisor::AuthorityScan(int shard, const geo::CellCoord& cell,
                                    std::vector<QueryId>* out) {
  if (!authority_ || !started_) return false;
  if (shard < 0 || shard >= static_cast<int>(peers_.size())) return false;
  Peer* peer = peers_[shard].get();
  if (!peer->authoritative || !peer->up || peer->need_sync ||
      peer->link == nullptr || !peer->link->connected()) {
    ++stats_.scans_local;
    return false;
  }

  // Ship the shard's coalesced ops first: the daemon must observe every
  // mutation this dispatch already applied to the mirror before it answers
  // the row read (RQI rows mutate mid-step, and later uplinks read them).
  if (!peer->pending.empty() && !FlushPendingBatch(peer)) {
    ++stats_.scans_local;
    return false;
  }

  net::Frame req;
  req.kind = net::FrameKind::kScanRequest;
  req.shard = static_cast<uint8_t>(peer->shard);
  req.step = step_;
  net::ByteWriter w(&req.payload);
  w.I32(cell.i);
  w.I32(cell.j);
  PendingRpc scan_rpc;
  scan_rpc.step = step_;
  scan_rpc.is_scan = true;
  scan_rpc.sent_micros = NowMicros();
  if (!SendFrame(peer, req)) {
    ++stats_.send_drops;
    MarkDown(peer);
    ++stats_.scans_local;
    return false;
  }
  stats_.frames_sent += 1;
  stats_.bytes_sent += net::kFrameHeaderBytes + req.payload.size();
  peer->rpcs.push_back(scan_rpc);
  peer->last_activity_step = step_;

  // Blocking wait, wall-bounded. The socket is FIFO and the daemon answers
  // in arrival order, so acks of everything sent before the scan drain
  // first; a SIGKILLed daemon surfaces as a fast EOF, and the deadline
  // only pays for a genuinely wedged one. Either way the scan fails over
  // to the local mirror before this step's dispatch continues.
  const int64_t deadline = scan_rpc.sent_micros + kAuthorityTimeoutMicros;
  const uint64_t expected_digest = MirrorDigest(peer);
  bool got = false;
  bool ok = false;
  std::vector<net::Frame> frames;
  for (;;) {
    peer->link->Flush();
    frames.clear();
    bool alive = peer->link->Receive(&frames);
    for (const net::Frame& frame : frames) {
      if (frame.kind != net::FrameKind::kScanResult) {
        HandlePeerFrame(peer, frame);
        continue;
      }
      ++stats_.frames_received;
      stats_.bytes_received += net::kFrameHeaderBytes + frame.payload.size();
      // Unwind the RPC queue through the scan. Skipped entries mean the
      // daemon never saw those frames (chaos ate them) — the digest check
      // below decides whether its state is still trustworthy.
      while (!peer->rpcs.empty()) {
        PendingRpc rpc = peer->rpcs.front();
        peer->rpcs.pop_front();
        if (lifecycle_ != nullptr) {
          lifecycle_->Drop(obs::LifecycleTracker::kBackplaneRpc,
                           RpcKey(*peer, rpc));
        }
        if (rpc.is_scan) {
          int64_t rtt = NowMicros() - rpc.sent_micros;
          if (rtt > 0) {
            stats_.scan_rtt_micros_total += static_cast<uint64_t>(rtt);
            ++stats_.scan_rtt_samples;
          }
          break;
        }
      }
      net::ByteReader r(frame.payload.data(), frame.payload.size());
      uint8_t status = r.U8();
      uint64_t digest = r.U64();
      uint32_t count = r.U32();
      out->clear();
      for (uint32_t k = 0; r.ok() && k < count; ++k) {
        out->push_back(r.I64());
      }
      // The result is merged only when the daemon proves it answered from
      // the authoritative state: its digest must match the local mirror's.
      // This is what keeps authority runs byte-identical even when chaos
      // swallowed an earlier batch.
      ok = r.ok() && r.remaining() == 0 && status == 1 &&
           out->size() == count && digest == expected_digest;
      got = true;
    }
    if (got) break;
    if (!alive) {
      MarkDown(peer);
      ++stats_.scans_local;
      return false;
    }
    if (NowMicros() > deadline) {
      ++stats_.rpc_timeouts;
      MarkDown(peer);
      ++stats_.scans_local;
      return false;
    }
    std::vector<int> ready;
    net::PollReadable({peer->link->fd()}, /*timeout_ms=*/1, &ready);
  }
  if (!ok) {
    ++stats_.digest_mismatches;
    peer->need_sync = true;
    RevokeAuthority(peer);
    ++stats_.scans_local;
    return false;
  }
  ++stats_.scans_remote;
  return true;
}

void ShardSupervisor::ReceiveAll() {
  // Pending connections: waiting for a kHello that names the shard.
  for (size_t k = 0; k < pending_links_.size();) {
    std::vector<net::Frame> frames;
    bool alive = pending_links_[k]->Receive(&frames);
    int hello_shard = -1;
    for (const net::Frame& frame : frames) {
      ++stats_.frames_received;
      stats_.bytes_received +=
          net::kFrameHeaderBytes + frame.payload.size();
      if (frame.kind == net::FrameKind::kHello) {
        hello_shard = frame.shard;
      }
    }
    if (hello_shard >= 0 && hello_shard < static_cast<int>(peers_.size()) &&
        alive) {
      Peer* peer = peers_[hello_shard].get();
      peer->link = std::move(pending_links_[k]);
      pending_links_.erase(pending_links_.begin() +
                           static_cast<ptrdiff_t>(k));
      // (Re)join handshake: config, stored sync image, buffered frames.
      SendSync(peer);
      continue;
    }
    // A hello from a socket that already hit EOF (the daemon died right
    // after introducing itself) must NOT be adopted: a dead link attached
    // to the peer has no further EOF to observe, so nothing would ever
    // mark the peer down again and RespawnDue would skip it forever.
    if (!alive) {
      pending_links_.erase(pending_links_.begin() +
                           static_cast<ptrdiff_t>(k));
      continue;
    }
    ++k;
  }

  for (auto& peer : peers_) {
    if (peer->link == nullptr) continue;
    if (!peer->link->connected()) {
      // A link can die outside Receive (failed send, adopted-then-closed
      // socket): reap it here or the peer wedges — ReceiveAll would skip
      // it and RespawnDue treats any attached link as a live daemon.
      MarkDown(peer.get());
      continue;
    }
    peer->link->Flush();
    std::vector<net::Frame> frames;
    bool alive = peer->link->Receive(&frames);
    for (const net::Frame& frame : frames) {
      HandlePeerFrame(peer.get(), frame);
    }
    if (!alive) MarkDown(peer.get());
  }
}

void ShardSupervisor::RespawnDue() {
  for (auto& peer : peers_) {
    if (peer->pid > 0 || peer->link != nullptr) continue;
    // Quiesce freezes the step clock, so backoff expressed in steps would
    // never elapse there — respawn immediately instead.
    if (!quiescing_ && step_ < peer->next_respawn_step) continue;
    // A failed spawn leaves the peer without a pid; the next pass retries.
    SpawnDaemon(peer.get());
  }
}

bool ShardSupervisor::AwaitOverdueAcks(Peer* peer) {
  std::vector<net::Frame> frames;
  std::vector<int> ready;
  while (!peer->rpcs.empty() &&
         step_ - peer->rpcs.front().step >= kTimeoutSteps) {
    const int64_t left =
        peer->rpcs.front().sent_micros + kAuthorityTimeoutMicros - NowMicros();
    if (left <= 0 || peer->link == nullptr || !peer->link->connected()) {
      return false;
    }
    peer->link->Flush();
    net::PollReadable({peer->link->fd()},
                      static_cast<int>((left + 999) / 1000), &ready);
    frames.clear();
    bool alive = peer->link->Receive(&frames);
    for (const net::Frame& frame : frames) HandlePeerFrame(peer, frame);
    if (!alive) {
      MarkDown(peer);
      return true;
    }
  }
  return true;
}

void ShardSupervisor::PumpStep(int64_t step) {
  step_ = step;
  // Scheduled chaos SIGKILLs fire at the step boundary.
  for (const auto& [kill_step, kill_shard] : fault_.kills) {
    if (kill_step == step) {
      ++stats_.chaos_kills;
      KillShard(kill_shard);
    }
  }
  AcceptNewConnections();
  ReceiveAll();
  // Clean cutover: a peer that drained last step's RPCs (and any resync)
  // takes scan authority from here on — never mid-step, so a rejoining
  // daemon cannot serve a partially-shipped step.
  GrantAuthority();

  for (auto& peer : peers_) {
    ReleaseDelayed(peer.get(), /*force=*/false);
    SendBatchOrHeartbeat(peer.get());
  }

  // Acks over a loopback socket normally land within the same pump; poll
  // briefly so the common case resolves without adding a step of lag.
  std::vector<int> fds;
  for (auto& peer : peers_) {
    fds.push_back(peer->link != nullptr ? peer->link->fd() : -1);
  }
  std::vector<int> ready;
  net::PollReadable(fds, /*timeout_ms=*/1, &ready);
  ReceiveAll();
  GrantAuthority();

  // Deadline enforcement: an unacked frame older than the timeout means
  // the daemon is dead or wedged — same remedy either way. A step can be
  // far shorter than a scheduler time slice, so the frame must also have
  // outlived its wall budget: a busy host may leave a live daemon
  // unscheduled for several steps.
  for (auto& peer : peers_) {
    if (peer->rpcs.empty() ||
        step_ - peer->rpcs.front().step < kTimeoutSteps) {
      continue;
    }
    if (!AwaitOverdueAcks(peer.get())) {
      ++stats_.rpc_timeouts;
      MarkDown(peer.get());
    }
  }

  RespawnDue();
}

Status ShardSupervisor::Quiesce(int timeout_ms) {
  int64_t deadline = NowMicros() + int64_t{1000} * timeout_ms;
  quiescing_ = true;
  for (;;) {
    AcceptNewConnections();
    ReceiveAll();
    // The step clock is frozen here, so the virtual-step RPC deadline can
    // never fire — enforce it in wall time instead: a frame a chaos fault
    // swallowed right before the run ended must still get its peer marked
    // down, respawned and resynced.
    for (auto& peer : peers_) {
      if (peer->rpcs.empty()) continue;
      if (NowMicros() - peer->rpcs.front().sent_micros >
          kAuthorityTimeoutMicros) {
        ++stats_.rpc_timeouts;
        MarkDown(peer.get());
      }
    }
    RespawnDue();
    // Quiesce no longer advances steps, so chaos-held frames would never
    // release on their own — flush them. Likewise nothing else drives
    // outbound traffic here: a rejoined peer still owing a resync or
    // holding coalesced ops needs SendBatchOrHeartbeat called for it, or
    // the settle condition below could never be met.
    for (auto& peer : peers_) {
      ReleaseDelayed(peer.get(), /*force=*/true);
      SendBatchOrHeartbeat(peer.get());
    }
    bool settled = true;
    for (auto& peer : peers_) {
      bool queued = peer->link != nullptr && peer->link->queued_bytes() > 0;
      if (!peer->up || !peer->rpcs.empty() || queued ||
          !peer->pending.empty() || peer->need_sync) {
        settled = false;
        break;
      }
    }
    if (settled) {
      quiescing_ = false;
      return Status::OK();
    }
    if (NowMicros() > deadline) {
      quiescing_ = false;
      return Status::Internal("supervisor: quiesce timed out");
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
}

void ShardSupervisor::Shutdown() {
  for (auto& peer : peers_) {
    if (peer->link != nullptr && peer->link->connected()) {
      net::Frame bye;
      bye.kind = net::FrameKind::kShutdown;
      bye.shard = static_cast<uint8_t>(peer->shard);
      bye.step = step_;
      peer->link->Send(bye, kMaxQueueBytes);
      peer->link->Flush();
    }
  }
  // Give daemons a moment to exit on the shutdown frame, then force it.
  for (auto& peer : peers_) {
    if (peer->pid <= 0) continue;
    bool reaped = false;
    for (int attempt = 0; attempt < 100; ++attempt) {
      if (waitpid(peer->pid, nullptr, WNOHANG) == peer->pid) {
        reaped = true;
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    if (!reaped) {
      kill(peer->pid, SIGKILL);
      waitpid(peer->pid, nullptr, 0);
    }
    peer->pid = -1;
  }
  for (auto& peer : peers_) {
    peer->link.reset();
    peer->up = false;
  }
  pending_links_.clear();
  backplane_.Close();
  if (!socket_dir_.empty()) {
    rmdir(socket_dir_.c_str());
    socket_dir_.clear();
  }
}

}  // namespace mobieyes::core
