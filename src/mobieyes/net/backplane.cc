#include "mobieyes/net/backplane.h"

#include <errno.h>
#include <fcntl.h>
#include <poll.h>
#include <string.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <chrono>
#include <cstddef>
#include <cstdio>
#include <cstdlib>
#include <thread>

namespace mobieyes::net {

namespace {

bool SetNonBlocking(int fd) {
  int flags = fcntl(fd, F_GETFL, 0);
  return flags >= 0 && fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

// Backplane fds must not leak into spawned shard daemons.
void SetCloExec(int fd) { fcntl(fd, F_SETFD, FD_CLOEXEC); }

// Resolves "uds:/path" into a Unix-domain socket address. The scheme is the
// only one the backplane speaks; anything else is rejected.
Status UdsSockaddr(const std::string& address, sockaddr_un* sun,
                   socklen_t* len) {
  if (address.rfind("uds:", 0) != 0) {
    return Status::InvalidArgument("backplane: unknown address scheme: " +
                                   address);
  }
  const std::string path = address.substr(4);
  if (path.size() + 1 > sizeof(sun->sun_path)) {
    return Status::InvalidArgument("backplane: UDS path too long: " + path);
  }
  memset(sun, 0, sizeof(*sun));
  sun->sun_family = AF_UNIX;
  memcpy(sun->sun_path, path.c_str(), path.size() + 1);
  *len = static_cast<socklen_t>(offsetof(sockaddr_un, sun_path) +
                                path.size() + 1);
  return Status::OK();
}

}  // namespace

Backplane::~Backplane() { Close(); }

void Backplane::Close() {
  if (fd_ >= 0) {
    close(fd_);
    fd_ = -1;
  }
  if (!uds_path_.empty()) {
    unlink(uds_path_.c_str());
    uds_path_.clear();
  }
}

Status Backplane::Listen(const std::string& address) {
  Close();
  sockaddr_un sun;
  socklen_t len = 0;
  Status st = UdsSockaddr(address, &sun, &len);
  if (!st.ok()) return st;

  unlink(sun.sun_path);  // stale socket from a dead run
  int fd = socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return Status::Internal("backplane: socket() failed");
  if (bind(fd, reinterpret_cast<sockaddr*>(&sun), len) != 0) {
    close(fd);
    return Status::Internal("backplane: bind(" + address +
                            ") failed: " + strerror(errno));
  }
  if (listen(fd, 16) != 0) {
    close(fd);
    return Status::Internal("backplane: listen failed");
  }
  if (!SetNonBlocking(fd)) {
    close(fd);
    return Status::Internal("backplane: fcntl failed");
  }
  SetCloExec(fd);
  fd_ = fd;
  uds_path_ = sun.sun_path;
  bound_address_ = address;
  return Status::OK();
}

int Backplane::Accept() {
  if (fd_ < 0) return -1;
  int peer = accept(fd_, nullptr, nullptr);
  if (peer >= 0) SetCloExec(peer);
  return peer;
}

Status BackplaneConnect(const std::string& address, int timeout_ms,
                        int retry_sleep_ms, int* fd_out) {
  sockaddr_un sun;
  socklen_t len = 0;
  Status st = UdsSockaddr(address, &sun, &len);
  if (!st.ok()) return st;

  int waited = 0;
  for (;;) {
    int fd = socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) return Status::Internal("backplane: socket() failed");
    if (connect(fd, reinterpret_cast<sockaddr*>(&sun), len) == 0) {
      SetCloExec(fd);
      *fd_out = fd;
      return Status::OK();
    }
    close(fd);
    if (waited >= timeout_ms) {
      return Status::Internal("backplane: connect(" + address +
                              ") timed out: " + strerror(errno));
    }
    int sleep_ms = retry_sleep_ms > 0 ? retry_sleep_ms : 10;
    std::this_thread::sleep_for(std::chrono::milliseconds(sleep_ms));
    waited += sleep_ms;
  }
}

PeerLink::~PeerLink() { Close(); }

void PeerLink::Adopt(int fd) {
  Close();
  SetNonBlocking(fd);
  fd_ = fd;
  send_buf_.clear();
  send_pos_ = 0;
}

void PeerLink::Close() {
  if (fd_ >= 0) {
    close(fd_);
    fd_ = -1;
  }
}

bool PeerLink::Send(const Frame& frame, size_t max_queue_bytes) {
  if (fd_ < 0) {
    ++stats_.send_drops;
    return false;
  }
  if (queued_bytes() > max_queue_bytes) {
    Flush();
    if (queued_bytes() > max_queue_bytes) {
      ++stats_.send_drops;
      return false;
    }
  }
  EncodeFrame(frame, &send_buf_);
  ++stats_.frames_sent;
  return Flush();
}

bool PeerLink::SendBytes(const uint8_t* data, size_t size,
                         size_t max_queue_bytes) {
  if (fd_ < 0) {
    ++stats_.send_drops;
    return false;
  }
  if (queued_bytes() > max_queue_bytes) {
    Flush();
    if (queued_bytes() > max_queue_bytes) {
      ++stats_.send_drops;
      return false;
    }
  }
  send_buf_.insert(send_buf_.end(), data, data + size);
  ++stats_.frames_sent;
  return Flush();
}

bool PeerLink::Flush() {
  if (fd_ < 0) return false;
  while (send_pos_ < send_buf_.size()) {
    // MSG_NOSIGNAL: a peer killed mid-write must surface as EPIPE, not
    // SIGPIPE the whole router process.
    ssize_t n = send(fd_, send_buf_.data() + send_pos_,
                     send_buf_.size() - send_pos_, MSG_NOSIGNAL);
    if (n > 0) {
      send_pos_ += static_cast<size_t>(n);
      stats_.bytes_sent += static_cast<uint64_t>(n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return true;
    if (n < 0 && errno == EINTR) continue;
    Close();
    return false;
  }
  if (send_pos_ == send_buf_.size() && !send_buf_.empty()) {
    send_buf_.clear();
    send_pos_ = 0;
  }
  return true;
}

bool PeerLink::Receive(std::vector<Frame>* out) {
  if (fd_ < 0) return false;
  size_t before = out->size();
  uint8_t buf[16384];
  for (;;) {
    ssize_t n = read(fd_, buf, sizeof(buf));
    if (n > 0) {
      stats_.bytes_received += static_cast<uint64_t>(n);
      decoder_.Feed(buf, static_cast<size_t>(n), out);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    if (n < 0 && errno == EINTR) continue;
    // n == 0: EOF — the peer process is gone.
    Close();
    stats_.frames_received += out->size() - before;
    return false;
  }
  stats_.frames_received += out->size() - before;
  return true;
}

namespace {

// Parses "key=value" with a double value; rejects rates outside [0, 1].
Status ParseRate(const std::string& field, const std::string& value,
                 double* out) {
  char* end = nullptr;
  double v = strtod(value.c_str(), &end);
  if (end == value.c_str() || (end != nullptr && *end != '\0') || v < 0.0 ||
      v > 1.0) {
    return Status::InvalidArgument("backplane fault: bad rate in " + field);
  }
  *out = v;
  return Status::OK();
}

}  // namespace

Status ParseBackplaneFaultSpec(const std::string& spec,
                               BackplaneFaultPlan* plan) {
  *plan = BackplaneFaultPlan{};
  size_t pos = 0;
  while (pos < spec.size()) {
    size_t comma = spec.find(',', pos);
    if (comma == std::string::npos) comma = spec.size();
    std::string field = spec.substr(pos, comma - pos);
    pos = comma + 1;
    if (field.empty()) continue;
    size_t eq = field.find('=');
    if (eq == std::string::npos) {
      return Status::InvalidArgument("backplane fault: expected key=value: " +
                                     field);
    }
    std::string key = field.substr(0, eq);
    std::string value = field.substr(eq + 1);
    Status st = Status::OK();
    if (key == "drop") {
      st = ParseRate(field, value, &plan->drop_rate);
    } else if (key == "trunc") {
      st = ParseRate(field, value, &plan->truncate_rate);
    } else if (key == "flip") {
      st = ParseRate(field, value, &plan->flip_rate);
    } else if (key == "delay") {
      // delay=RATE or delay=RATE:MAX_STEPS
      size_t colon = value.find(':');
      st = ParseRate(field, value.substr(0, colon), &plan->delay_rate);
      if (st.ok() && colon != std::string::npos) {
        int steps = atoi(value.c_str() + colon + 1);
        if (steps < 1) {
          return Status::InvalidArgument(
              "backplane fault: delay steps must be >= 1: " + field);
        }
        plan->max_delay_steps = steps;
      }
    } else if (key == "kill") {
      size_t colon = value.find(':');
      if (colon == std::string::npos) {
        return Status::InvalidArgument(
            "backplane fault: kill needs STEP:SHARD: " + field);
      }
      int64_t step = atoll(value.c_str());
      int shard = atoi(value.c_str() + colon + 1);
      if (step < 0 || shard < 0) {
        return Status::InvalidArgument("backplane fault: bad kill in " +
                                       field);
      }
      plan->kills.emplace_back(step, shard);
    } else if (key == "seed") {
      plan->seed = static_cast<uint64_t>(atoll(value.c_str()));
    } else {
      return Status::InvalidArgument("backplane fault: unknown key: " + key);
    }
    if (!st.ok()) return st;
  }
  return Status::OK();
}

void PollReadable(const std::vector<int>& fds, int timeout_ms,
                  std::vector<int>* ready) {
  ready->clear();
  std::vector<pollfd> pfds;
  std::vector<int> index;
  pfds.reserve(fds.size());
  for (size_t k = 0; k < fds.size(); ++k) {
    if (fds[k] < 0) continue;
    pfds.push_back(pollfd{fds[k], POLLIN, 0});
    index.push_back(static_cast<int>(k));
  }
  if (pfds.empty()) return;
  int n = poll(pfds.data(), static_cast<nfds_t>(pfds.size()), timeout_ms);
  if (n <= 0) return;
  for (size_t k = 0; k < pfds.size(); ++k) {
    if (pfds[k].revents & (POLLIN | POLLHUP | POLLERR)) {
      ready->push_back(index[k]);
    }
  }
}

}  // namespace mobieyes::net
