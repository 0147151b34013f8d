#ifndef MOBIEYES_OBS_HEATMAP_H_
#define MOBIEYES_OBS_HEATMAP_H_

#include <cstdint>
#include <string>
#include <vector>

namespace mobieyes::obs {

// Dense per-grid-cell 2D accumulators for the spatial load channels: where
// uplinks land, where RQI scans burn rows, where queries install, where
// handoffs fire, and where objects live.
//
// Determinism contract (the reason this class looks the way it does): the
// sharded server must export byte-identical heat maps for any shard or
// thread count. Floating-point decay is not associative across groupings,
// so per-shard maps accumulate *pure integer window counters* only —
// integer addition commutes, so merging the per-shard windows in fixed
// shard order 0..N-1 yields the same merged window for any partition. The
// decayed view lives exclusively on the single merged (global) map, where
// RollWindow applies `decayed = decayed * decay + window` at simulation-
// chosen window boundaries; since the merged integer windows are identical
// across layouts, the double sequence is too.
//
// The handoffs channel only exists when shards > 1 and its placement
// depends on the partition, so it is flagged layout-dependent and omitted
// from deterministic exports — the same convention MetricsRegistry uses
// for timing-flagged instruments.
class HeatMap {
 public:
  enum Channel {
    kUplinks = 0,    // uplink messages charged to the sender's cell
    kRqiScan,        // RQI rows visited by cell-change / reconcile scans
    kInstalls,       // query installs at the focal object's cell
    kHandoffs,       // cross-shard focal migrations (layout-dependent)
    kResidency,      // object population snapshots per cell
    kNumChannels,
  };

  static const char* ChannelName(Channel channel);
  // True for channels whose values depend on the shard partition and are
  // therefore excluded from deterministic exports.
  static bool ChannelLayoutDependent(Channel channel);

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

  // Adds `shard`'s current window into ours and zeroes it. Call once per
  // shard in fixed shard order each step; integer addition makes the merged
  // result independent of how the charges were partitioned.
  void MergeWindowFrom(HeatMap& shard);

  // Closes the current window on a merged map: folds the window into the
  // exponentially decayed view and the all-time totals, then clears it.
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
  // With include_layout_dependent=false, layout-dependent channels are
  // omitted so the output is byte-identical across shard/thread counts.
  std::string ToJson(bool include_layout_dependent = true) const;

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
  // Indexed [channel][flat cell]. window_ is the only state a per-shard map
  // uses; decayed_/total_ are populated by RollWindow on the merged map.
  std::vector<uint64_t> window_[kNumChannels];
  std::vector<uint64_t> total_[kNumChannels];
  std::vector<double> decayed_[kNumChannels];
};

}  // namespace mobieyes::obs

#endif  // MOBIEYES_OBS_HEATMAP_H_
