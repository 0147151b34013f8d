#include "mobieyes/core/shard_daemon.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>

#include "mobieyes/net/codec.h"

namespace mobieyes::core {

namespace {

constexpr uint8_t kOpRqiAdd = 0;
constexpr uint8_t kOpRqiRemove = 1;

constexpr size_t kAckQueueBytes = 1u << 20;

}  // namespace

void StepBatchBuilder::RqiOp(bool add, QueryId qid,
                             const geo::CellRange& mon_region) {
  net::ByteWriter w(&ops_);
  w.U8(add ? kOpRqiAdd : kOpRqiRemove);
  w.I64(qid);
  w.Range(mon_region);
  ++count_;
}

std::vector<uint8_t> StepBatchBuilder::Finish() {
  std::vector<uint8_t> payload;
  net::ByteWriter w(&payload);
  w.U32(count_);
  payload.insert(payload.end(), ops_.begin(), ops_.end());
  count_ = 0;
  ops_.clear();
  return payload;
}

Status ApplyStepBatch(const uint8_t* data, size_t size, ServerShard* shard,
                      uint32_t* ops_applied) {
  net::ByteReader r(data, size);
  uint32_t count = r.U32();
  uint32_t applied = 0;
  for (uint32_t k = 0; r.ok() && k < count; ++k) {
    uint8_t op = r.U8();
    switch (op) {
      case kOpRqiAdd:
      case kOpRqiRemove: {
        QueryId qid = r.I64();
        geo::CellRange region = r.Range();
        if (!r.ok()) break;
        if (op == kOpRqiAdd) {
          shard->RqiAdd(qid, region);
        } else {
          shard->RqiRemove(qid, region);
        }
        ++applied;
        break;
      }
      default:
        r.Fail();
        break;
    }
  }
  if (ops_applied != nullptr) *ops_applied = applied;
  if (!r.ok() || r.remaining() != 0) {
    return Status::InvalidArgument("step batch: malformed op stream");
  }
  return Status::OK();
}

void EncodeShardConfig(const ShardConfig& config, std::vector<uint8_t>* out) {
  net::ByteWriter w(out);
  w.F64(config.universe.lx);
  w.F64(config.universe.ly);
  w.F64(config.universe.w);
  w.F64(config.universe.h);
  w.F64(config.alpha);
  w.U32(static_cast<uint32_t>(config.sharding.num_shards));
}

Status DecodeShardConfig(const uint8_t* data, size_t size,
                         ShardConfig* config) {
  net::ByteReader r(data, size);
  config->universe.lx = r.F64();
  config->universe.ly = r.F64();
  config->universe.w = r.F64();
  config->universe.h = r.F64();
  config->alpha = r.F64();
  config->sharding.num_shards = static_cast<int>(r.U32());
  if (!r.ok() || r.remaining() != 0) {
    return Status::InvalidArgument("shard config: malformed payload");
  }
  return Status::OK();
}

void EncodeHello(std::vector<uint8_t>* out) {
  net::ByteWriter w(out);
  w.U32(kHelloVersion);
}

Status CheckHello(const uint8_t* data, size_t size) {
  net::ByteReader r(data, size);
  uint32_t version = r.U32();
  if (!r.ok() || r.remaining() != 0) {
    return Status::InvalidArgument("malformed hello payload of " +
                                   std::to_string(size) + " bytes");
  }
  if (version != kHelloVersion) {
    return Status::InvalidArgument(
        "daemon speaks backplane version " + std::to_string(version) +
        ", this build speaks version " + std::to_string(kHelloVersion));
  }
  return Status::OK();
}

ShardDaemon::ShardDaemon(const ShardDaemonOptions& options)
    : options_(options),
      rng_(options.seed * 2654435761u + static_cast<uint64_t>(
                                            options.shard_id + 1)) {}

bool ShardDaemon::HandleFrame(const net::Frame& frame, net::PeerLink* link) {
  switch (frame.kind) {
    case net::FrameKind::kConfig: {
      ShardConfig config;
      Status st = DecodeShardConfig(frame.payload.data(),
                                    frame.payload.size(), &config);
      if (!st.ok()) {
        if (options_.verbose) {
          std::fprintf(stderr, "mobieyes_shardd[%d]: %s\n",
                       options_.shard_id, st.ToString().c_str());
        }
        return true;
      }
      Result<geo::Grid> grid = geo::Grid::Make(config.universe, config.alpha);
      if (!grid.ok()) return true;
      grid_ = std::make_unique<geo::Grid>(*grid);
      map_ = std::make_unique<ShardMap>(*grid_, config.sharding);
      shard_ = std::make_unique<ServerShard>(options_.shard_id, *grid_,
                                             *map_);
      return true;
    }
    case net::FrameKind::kStateSync: {
      net::Frame ack;
      ack.kind = net::FrameKind::kStateSyncAck;
      ack.shard = static_cast<uint8_t>(options_.shard_id);
      ack.step = frame.step;
      uint64_t digest = 0;
      uint8_t ok = 0;
      if (shard_ != nullptr) {
        Status st = shard_->LoadStateSync(frame.payload.data(),
                                          frame.payload.size());
        ok = st.ok() ? 1 : 0;
        digest = shard_->StateDigest();
      }
      net::ByteWriter w(&ack.payload);
      w.U64(digest);
      w.U8(ok);
      link->Send(ack, kAckQueueBytes);
      return true;
    }
    case net::FrameKind::kStepBatch: {
      net::Frame ack;
      ack.kind = net::FrameKind::kStepAck;
      ack.shard = static_cast<uint8_t>(options_.shard_id);
      ack.step = frame.step;
      uint64_t digest = 0;
      uint32_t applied = 0;
      uint8_t ok = 0;
      if (shard_ != nullptr) {
        Status st = ApplyStepBatch(frame.payload.data(),
                                   frame.payload.size(), shard_.get(),
                                   &applied);
        ok = st.ok() ? 1 : 0;
        digest = shard_->StateDigest();
      }
      net::ByteWriter w(&ack.payload);
      w.U64(digest);
      w.U32(applied);
      w.U8(ok);
      link->Send(ack, kAckQueueBytes);
      return true;
    }
    case net::FrameKind::kHeartbeat: {
      net::Frame ack;
      ack.kind = net::FrameKind::kHeartbeatAck;
      ack.shard = static_cast<uint8_t>(options_.shard_id);
      ack.step = frame.step;
      link->Send(ack, kAckQueueBytes);
      return true;
    }
    case net::FrameKind::kScanRequest: {
      // Authority-mode RQI row read (DESIGN.md §14): the router asks for the
      // queries monitoring one grid cell. The reply must be byte-for-byte
      // what the router's warm mirror would produce — rows are built from
      // the identical op sequence, so vector order matches by construction
      // and the state digest protocol catches any divergence.
      net::Frame res;
      res.kind = net::FrameKind::kScanResult;
      res.shard = static_cast<uint8_t>(options_.shard_id);
      res.step = frame.step;
      net::ByteReader r(frame.payload.data(), frame.payload.size());
      geo::CellCoord cell;
      cell.i = r.I32();
      cell.j = r.I32();
      // A request for a cell this shard does not own (or for no cell at
      // all) is refused rather than answered from an empty row; the
      // supervisor falls back to its warm mirror and resyncs.
      net::ByteWriter w(&res.payload);
      if (shard_ == nullptr || !r.ok() || r.remaining() != 0 ||
          !grid_->IsValid(cell) || map_->ShardOf(cell) != options_.shard_id) {
        w.U8(0);
        w.U64(0);
        w.U32(0);
      } else {
        const std::vector<QueryId>& row = shard_->QueriesForCell(cell);
        w.U8(1);
        // The digest proves the row came from the authoritative state: the
        // supervisor merges the result only when it matches its mirror's.
        w.U64(shard_->StateDigest());
        w.U32(static_cast<uint32_t>(row.size()));
        for (QueryId qid : row) w.I64(qid);
      }
      link->Send(res, kAckQueueBytes);
      return true;
    }
    case net::FrameKind::kShutdown:
      return false;
    default:
      return true;  // supervisor-bound kinds: ignore
  }
}

bool ShardDaemon::ServeConnection(int fd) {
  net::PeerLink link;
  link.Adopt(fd);

  net::Frame hello;
  hello.kind = net::FrameKind::kHello;
  hello.shard = static_cast<uint8_t>(options_.shard_id);
  EncodeHello(&hello.payload);
  link.Send(hello, kAckQueueBytes);

  std::vector<net::Frame> frames;
  std::vector<int> ready;
  while (link.connected()) {
    link.Flush();
    net::PollReadable({link.fd()}, /*timeout_ms=*/1000, &ready);
    if (ready.empty()) continue;
    frames.clear();
    bool alive = link.Receive(&frames);
    for (const net::Frame& frame : frames) {
      if (!HandleFrame(frame, &link)) {
        link.Flush();
        return false;  // clean shutdown
      }
    }
    if (!alive) break;  // EOF after draining: reconnect
  }
  return true;
}

int ShardDaemon::Run() {
  int backoff_ms = 10;
  int waited_ms = 0;
  for (;;) {
    int fd = -1;
    Status st = net::BackplaneConnect(options_.address, /*timeout_ms=*/0,
                                      /*retry_sleep_ms=*/0, &fd);
    if (st.ok()) {
      if (options_.verbose) {
        std::fprintf(stderr, "mobieyes_shardd[%d]: connected to %s\n",
                     options_.shard_id, options_.address.c_str());
      }
      backoff_ms = 10;
      waited_ms = 0;
      if (!ServeConnection(fd)) return 0;
      continue;  // lost the supervisor: reconnect with backoff
    }
    if (waited_ms >= options_.connect_timeout_ms) {
      std::fprintf(stderr, "mobieyes_shardd[%d]: giving up on %s: %s\n",
                   options_.shard_id, options_.address.c_str(),
                   st.ToString().c_str());
      return 1;
    }
    // Seeded-jitter exponential backoff: deterministic per (seed, shard),
    // desynchronized across shards so a restart herd does not reconnect in
    // lockstep.
    int sleep_ms =
        backoff_ms + static_cast<int>(rng_.NextUint64(
                         static_cast<uint64_t>(backoff_ms) + 1));
    std::this_thread::sleep_for(std::chrono::milliseconds(sleep_ms));
    waited_ms += sleep_ms;
    backoff_ms = std::min(backoff_ms * 2, 500);
  }
}

}  // namespace mobieyes::core
