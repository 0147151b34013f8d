#include "mobieyes/obs/heatmap.h"

#include <algorithm>
#include <cstdio>

namespace mobieyes::obs {

namespace {

void AppendDouble(std::string* out, double value) {
  char buffer[32];
  if (value == static_cast<double>(static_cast<int64_t>(value)) &&
      value >= -9.0e15 && value <= 9.0e15) {
    std::snprintf(buffer, sizeof(buffer), "%lld",
                  static_cast<long long>(value));
  } else {
    std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  }
  *out += buffer;
}

}  // namespace

const char* HeatMap::ChannelName(Channel channel) {
  switch (channel) {
    case kUplinks:
      return "uplinks";
    case kRqiScan:
      return "rqi_scan";
    case kInstalls:
      return "installs";
    case kResidency:
      return "residency";
    default:
      return "unknown";
  }
}

HeatMap::HeatMap(int32_t rows, int32_t cols) : rows_(rows), cols_(cols) {
  const auto cells = static_cast<size_t>(cell_count());
  for (int c = 0; c < kNumChannels; ++c) {
    window_[c].assign(cells, 0);
    total_[c].assign(cells, 0);
    decayed_[c].assign(cells, 0.0);
  }
}

void HeatMap::RollWindow(double decay) {
  const size_t cells = window_[0].size();
  for (int c = 0; c < kNumChannels; ++c) {
    uint64_t* window = window_[c].data();
    uint64_t* total = total_[c].data();
    double* decayed = decayed_[c].data();
    for (size_t k = 0; k < cells; ++k) {
      decayed[k] = decayed[k] * decay + static_cast<double>(window[k]);
      total[k] += window[k];
      window[k] = 0;
    }
  }
  ++rolls_;
}

void HeatMap::Reset() {
  for (int c = 0; c < kNumChannels; ++c) {
    std::fill(window_[c].begin(), window_[c].end(), 0);
    std::fill(total_[c].begin(), total_[c].end(), 0);
    std::fill(decayed_[c].begin(), decayed_[c].end(), 0.0);
  }
  rolls_ = 0;
}

uint64_t HeatMap::ChannelSum(Channel channel) const {
  uint64_t sum = 0;
  const size_t cells = window_[channel].size();
  for (size_t k = 0; k < cells; ++k) {
    sum += total_[channel][k] + window_[channel][k];
  }
  return sum;
}

std::string HeatMap::ToJson() const {
  std::string json = "{\"rows\": " + std::to_string(rows_) +
                     ", \"cols\": " + std::to_string(cols_) +
                     ", \"rolls\": " + std::to_string(rolls_) +
                     ", \"channels\": {";
  for (int c = 0; c < kNumChannels; ++c) {
    if (c > 0) json += ", ";
    json += '"';
    json += ChannelName(static_cast<Channel>(c));
    json += "\": {\"total\": [";
    const size_t cells = total_[c].size();
    for (size_t k = 0; k < cells; ++k) {
      if (k > 0) json += ", ";
      json += std::to_string(total_[c][k]);
    }
    json += "], \"decayed\": [";
    for (size_t k = 0; k < cells; ++k) {
      if (k > 0) json += ", ";
      AppendDouble(&json, decayed_[c][k]);
    }
    json += "], \"window\": [";
    for (size_t k = 0; k < cells; ++k) {
      if (k > 0) json += ", ";
      json += std::to_string(window_[c][k]);
    }
    json += "]}";
  }
  json += "}}";
  return json;
}

std::string HeatMap::ToCsv() const {
  std::string csv = "channel,i,j,total,window,decayed\n";
  for (int c = 0; c < kNumChannels; ++c) {
    const auto channel = static_cast<Channel>(c);
    for (int32_t j = 0; j < rows_; ++j) {
      for (int32_t i = 0; i < cols_; ++i) {
        const size_t flat = Flat(i, j);
        if (total_[c][flat] == 0 && window_[c][flat] == 0 &&
            decayed_[c][flat] == 0.0) {
          continue;
        }
        csv += ChannelName(channel);
        csv += ',' + std::to_string(i) + ',' + std::to_string(j) + ',' +
               std::to_string(total_[c][flat]) + ',' +
               std::to_string(window_[c][flat]) + ',';
        AppendDouble(&csv, decayed_[c][flat]);
        csv += '\n';
      }
    }
  }
  return csv;
}

std::string HeatMap::ToAscii(Channel channel) const {
  uint64_t max = 0;
  const size_t cells = total_[channel].size();
  for (size_t k = 0; k < cells; ++k) {
    max = std::max(max, total_[channel][k] + window_[channel][k]);
  }
  std::string out;
  out.reserve(static_cast<size_t>(rows_) * (cols_ + 1));
  // Render with j increasing downward (row 0 on top) to match ToCsv order.
  for (int32_t j = 0; j < rows_; ++j) {
    for (int32_t i = 0; i < cols_; ++i) {
      const size_t flat = Flat(i, j);
      const uint64_t value = total_[channel][flat] + window_[channel][flat];
      if (value == 0) {
        out += '.';
      } else {
        // Scale 1..max onto digits 1..9; max itself always prints '9'.
        out += static_cast<char>('1' + (value * 8) / max);
      }
    }
    out += '\n';
  }
  return out;
}

}  // namespace mobieyes::obs
