#ifndef MOBIEYES_NET_BACKPLANE_H_
#define MOBIEYES_NET_BACKPLANE_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "mobieyes/common/status.h"
#include "mobieyes/net/framing.h"

namespace mobieyes::net {

// Real inter-process transport for the shard backplane (DESIGN.md §13):
// a listener plus per-peer framed links over Unix-domain sockets.
// Addresses are "uds:/path/to.sock"; any other scheme is rejected.
//
// The supervisor side is fully non-blocking: sends queue into a bounded
// per-peer buffer flushed opportunistically, reads drain whatever the
// kernel has. Blocking behavior (the daemon side) is a connect option.

// Listening endpoint. Owns the fd and, for UDS, unlinks the socket file on
// close.
class Backplane {
 public:
  Backplane() = default;
  ~Backplane();
  Backplane(const Backplane&) = delete;
  Backplane& operator=(const Backplane&) = delete;

  Status Listen(const std::string& address);
  // Address a peer can connect to.
  const std::string& bound_address() const { return bound_address_; }
  int fd() const { return fd_; }
  // Accepts one pending connection without blocking; -1 when none.
  int Accept();
  void Close();

 private:
  int fd_ = -1;
  std::string bound_address_;
  std::string uds_path_;  // non-empty: unlink on Close
};

// Connects to `address`. Blocking variant waits up to `timeout_ms` for the
// listener to exist (connection refused retries inside, with the caller's
// sleep policy applied between attempts via retry_sleep_ms). Returns the
// connected fd through *fd_out.
Status BackplaneConnect(const std::string& address, int timeout_ms,
                        int retry_sleep_ms, int* fd_out);

// One connected peer: framed, non-blocking, with a bounded send queue.
class PeerLink {
 public:
  struct Stats {
    uint64_t frames_sent = 0;
    uint64_t frames_received = 0;
    uint64_t bytes_sent = 0;
    uint64_t bytes_received = 0;
    // Frames refused because the bounded send queue was full — the peer is
    // stalled or dead; the caller decides whether that is fatal.
    uint64_t send_drops = 0;
  };

  PeerLink() = default;
  ~PeerLink();
  PeerLink(const PeerLink&) = delete;
  PeerLink& operator=(const PeerLink&) = delete;

  // Takes ownership of a connected fd and switches it to non-blocking.
  void Adopt(int fd);
  bool connected() const { return fd_ >= 0; }
  int fd() const { return fd_; }
  void Close();

  // Queues one frame (encoded into the send buffer) and attempts a flush.
  // Returns false — dropping the frame — when the queue already holds
  // `max_queue_bytes` unsent bytes.
  bool Send(const Frame& frame, size_t max_queue_bytes);
  // Queues pre-encoded wire bytes verbatim — the chaos layer's injection
  // point, where a frame's encoding may have been flipped or truncated.
  // Same queue bound and flush behavior as Send(); counts one frame sent.
  bool SendBytes(const uint8_t* data, size_t size, size_t max_queue_bytes);
  // Writes as much queued output as the socket accepts. Returns false on a
  // fatal socket error (the link is closed).
  bool Flush();
  size_t queued_bytes() const { return send_buf_.size() - send_pos_; }

  // Drains readable bytes into the frame decoder, appending complete
  // frames to *out. Returns false on EOF or a fatal error (link closed).
  bool Receive(std::vector<Frame>* out);

  const Stats& stats() const { return stats_; }
  const FrameDecoder& decoder() const { return decoder_; }

 private:
  int fd_ = -1;
  std::vector<uint8_t> send_buf_;
  size_t send_pos_ = 0;
  FrameDecoder decoder_;
  Stats stats_;
};

// poll(2) wrapper: waits up to timeout_ms for readability on any of `fds`
// (entries < 0 are skipped). Returns the indexes of readable/hung-up fds.
void PollReadable(const std::vector<int>& fds, int timeout_ms,
                  std::vector<int>* ready);

// --- Backplane chaos plan (DESIGN.md §14) -----------------------------------
//
// Seeded fault injection between the router and its shard daemons. The
// supervisor applies the plan to every outbound frame (after the initial
// start handshake) and fires the scheduled SIGKILLs at step boundaries, so
// a chaos run is reproducible from the plan alone.

struct BackplaneFaultPlan {
  double drop_rate = 0.0;      // frame silently discarded
  double delay_rate = 0.0;     // frame held for 1..max_delay_steps steps
  int max_delay_steps = 2;
  double truncate_rate = 0.0;  // frame's wire bytes cut short
  double flip_rate = 0.0;      // one random bit flipped in the wire bytes
  // Scheduled daemon SIGKILLs: (virtual step, shard index).
  std::vector<std::pair<int64_t, int>> kills;
  uint64_t seed = 1;

  bool active() const {
    return drop_rate > 0.0 || delay_rate > 0.0 || truncate_rate > 0.0 ||
           flip_rate > 0.0 || !kills.empty();
  }

  bool operator==(const BackplaneFaultPlan&) const = default;
};

// Parses a chaos spec of comma-separated fields into *plan:
//   drop=F | delay=F[:STEPS] | trunc=F | flip=F | kill=STEP:SHARD | seed=N
// e.g. "drop=0.02,flip=0.01,kill=12:1,kill=20:0,seed=7". kill= repeats.
Status ParseBackplaneFaultSpec(const std::string& spec,
                               BackplaneFaultPlan* plan);

}  // namespace mobieyes::net

#endif  // MOBIEYES_NET_BACKPLANE_H_
