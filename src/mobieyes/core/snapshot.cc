#include "mobieyes/core/snapshot.h"

#include <utility>

namespace mobieyes::core {

void Snapshot::Append(ObjectId from, const net::Message& message) {
  if (wal.size() >= wal_limit) {
    ++wal_dropped;
    return;
  }
  wal.push_back(WalRecord{from, message});
}

void Snapshot::Install(std::vector<uint8_t> image) {
  checkpoint = std::move(image);
  wal.clear();
  wal_dropped = 0;
}

}  // namespace mobieyes::core
