#ifndef MOBIEYES_NET_FRAMING_H_
#define MOBIEYES_NET_FRAMING_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "mobieyes/common/status.h"

namespace mobieyes::net {

// Length-prefixed framing for the shard backplane (DESIGN.md §13-14). A
// frame carries one batch of backplane work between the router process and a
// shard daemon; its payload is opaque bytes encoded with ByteWriter (state
// syncs, per-step op batches, scan results).
//
// Wire layout, little-endian, 24-byte header (version 2):
//
//   magic u32 ("MoBF") | version u8 | kind u8 | shard u8 | flags u8 |
//   step i64 | payload_len u32 | payload_crc u32 | payload bytes
//
// payload_crc is FNV-1a-32 over the payload bytes, so chaos-injected
// corruption (bit flips, truncation splices) is rejected at decode instead
// of reaching ApplyStepBatch. Version 1 frames (no version byte, u16 flags,
// no checksum) are rejected as bad_version garbage.
//
// The decoder below is incremental and hostile-input safe: partial frames
// buffer across reads, an impossible header (bad magic, wrong version,
// unknown kind, oversized length) never allocates the claimed length, and
// the stream resynchronizes by scanning forward for the next magic.

enum class FrameKind : uint8_t {
  kHello = 0,         // daemon -> supervisor, after connect
  kConfig = 1,        // supervisor -> daemon: grid + shard map parameters
  kStateSync = 2,     // supervisor -> daemon: full shard state image
  kStateSyncAck = 3,  // daemon -> supervisor: state digest after load
  kStepBatch = 4,     // supervisor -> daemon: coalesced per-step ops
  kStepAck = 5,       // daemon -> supervisor: state digest after apply
  kHeartbeat = 6,     // supervisor -> daemon: liveness probe
  kHeartbeatAck = 7,  // daemon -> supervisor
  kShutdown = 8,      // supervisor -> daemon: clean exit request
  kScanRequest = 9,   // supervisor -> daemon: RQI row read for one cell
  kScanResult = 10,   // daemon -> supervisor: qids monitoring that cell
  kNumFrameKinds = 11,
};

const char* FrameKindName(FrameKind kind);

struct Frame {
  FrameKind kind = FrameKind::kHeartbeat;
  uint8_t shard = 0;
  uint8_t flags = 0;
  int64_t step = 0;
  std::vector<uint8_t> payload;
};

inline constexpr uint32_t kFrameMagic = 0x4d6f4246;  // "MoBF"
inline constexpr uint8_t kFrameVersion = 2;
inline constexpr size_t kFrameHeaderBytes = 24;
// A state sync of a large shard is a few MiB; anything past this cap is a
// corrupt or hostile length prefix, not a real frame.
inline constexpr uint32_t kMaxFramePayload = 64u << 20;

// FNV-1a-32 over the payload, the frame checksum. Cheap, portable, and
// strong enough to catch single-bit flips and truncation splices.
uint32_t FramePayloadChecksum(const uint8_t* data, size_t size);

// Appends the encoded frame to *out (existing contents kept, so a batch of
// frames can share one send buffer).
void EncodeFrame(const Frame& frame, std::vector<uint8_t>* out);

// Incremental frame decoder over a byte stream. Feed() consumes every input
// byte: complete frames land in *out, a trailing partial frame is buffered
// for the next call, and malformed headers are skipped byte-by-byte until
// the next magic (counted, never fatal — a TCP stream must survive a
// desynchronized peer).
class FrameDecoder {
 public:
  struct Stats {
    uint64_t frames = 0;        // complete frames decoded
    uint64_t bytes = 0;         // payload + header bytes of those frames
    uint64_t resync_bytes = 0;  // garbage skipped hunting for magic
    uint64_t oversized = 0;     // headers rejected for impossible length
    uint64_t bad_kind = 0;      // headers rejected for unknown kind
    uint64_t bad_version = 0;   // headers rejected for wrong frame version
    uint64_t checksum_mismatch = 0;  // full frames rejected for bad crc
  };

  void Feed(const uint8_t* data, size_t size, std::vector<Frame>* out);

  // Bytes buffered waiting for the rest of a frame (or more garbage).
  size_t pending_bytes() const { return buffer_.size() - consumed_; }
  const Stats& stats() const { return stats_; }

 private:
  // Drops `n` consumed bytes from the front (lazily compacted).
  void Consume(size_t n);

  std::vector<uint8_t> buffer_;
  size_t consumed_ = 0;
  Stats stats_;
};

}  // namespace mobieyes::net

#endif  // MOBIEYES_NET_FRAMING_H_
