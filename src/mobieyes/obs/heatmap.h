#ifndef MOBIEYES_OBS_HEATMAP_H_
#define MOBIEYES_OBS_HEATMAP_H_

#include <cstdint>
#include <string>
#include <vector>

namespace mobieyes::obs {

// Dense per-grid-cell 2D accumulators for the spatial load channels: where
// uplinks land, where RQI scans burn rows, where queries install, and where
// objects live.
//
// Determinism contract: the sharded server must export byte-identical heat
// maps for any shard or thread count. Every charge is an integer added to
// the open window at the cell it names — never at the shard that did the
// work — so the window is a function of the charges alone. RollWindow
// folds the window into all-time totals and an exponentially decayed view
// (`decayed = decayed * decay + window`) at simulation-chosen window
// boundaries; identical integer windows give an identical double sequence.
class HeatMap {
 public:
  enum Channel {
    kUplinks = 0,    // uplink messages charged to the sender's cell
    kRqiScan,        // RQI rows visited by cell-change / reconcile scans
    kInstalls,       // query installs at the focal object's cell
    kResidency,      // object population snapshots per cell
    kNumChannels,
  };

  static const char* ChannelName(Channel channel);

  // A rows x cols map; cell (i, j) follows geo::Grid conventions (i = column
  // in x, j = row in y, flat index j * cols + i).
  HeatMap(int32_t rows, int32_t cols);

  int32_t rows() const { return rows_; }
  int32_t cols() const { return cols_; }
  int64_t cell_count() const {
    return static_cast<int64_t>(rows_) * cols_;
  }
  uint64_t rolls() const { return rolls_; }

  void Add(Channel channel, int32_t i, int32_t j, uint64_t n = 1) {
    AddFlat(channel, static_cast<int64_t>(j) * cols_ + i, n);
  }
  void AddFlat(Channel channel, int64_t flat, uint64_t n = 1) {
    window_[channel][static_cast<size_t>(flat)] += n;
  }

  // Closes the current window: folds it into the exponentially decayed
  // view and the all-time totals, then clears it.
  void RollWindow(double decay);

  // Zeroes every counter and the decayed view (measurement restart).
  void Reset();

  uint64_t window(Channel channel, int32_t i, int32_t j) const {
    return window_[channel][Flat(i, j)];
  }
  uint64_t total(Channel channel, int32_t i, int32_t j) const {
    return total_[channel][Flat(i, j)];
  }
  double decayed(Channel channel, int32_t i, int32_t j) const {
    return decayed_[channel][Flat(i, j)];
  }
  // Sum of the all-time totals plus the still-open window for one channel.
  uint64_t ChannelSum(Channel channel) const;

  // {"rows": R, "cols": C, "rolls": K, "channels": {name: {"total": [...],
  //  "decayed": [...], "window": [...]}}} — arrays are flat row-major.
  std::string ToJson() const;

  // One line per non-empty (channel, cell): channel,i,j,total,window,decayed.
  std::string ToCsv() const;

  // A rows x cols character grid for one channel, brightest cell = '9',
  // empty = '.'; all-time totals plus the open window. For terminal output.
  std::string ToAscii(Channel channel) const;

 private:
  size_t Flat(int32_t i, int32_t j) const {
    return static_cast<size_t>(static_cast<int64_t>(j) * cols_ + i);
  }

  int32_t rows_;
  int32_t cols_;
  uint64_t rolls_ = 0;
  // Indexed [channel][flat cell]; decayed_/total_ are populated by
  // RollWindow.
  std::vector<uint64_t> window_[kNumChannels];
  std::vector<uint64_t> total_[kNumChannels];
  std::vector<double> decayed_[kNumChannels];
};

}  // namespace mobieyes::obs

#endif  // MOBIEYES_OBS_HEATMAP_H_
