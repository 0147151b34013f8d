#ifndef MOBIEYES_CORE_RQI_H_
#define MOBIEYES_CORE_RQI_H_

#include <vector>

#include "mobieyes/common/ids.h"
#include "mobieyes/geo/grid.h"

namespace mobieyes::core {

// Reverse Query Index (paper §3.2): an M x N matrix whose cell (i, j) holds
// the identifiers of the queries whose monitoring region intersects grid
// cell A_{i,j}. RQI(cell) equals nearby_queries(o) for every object o whose
// current grid cell is that cell.
class ReverseQueryIndex {
 public:
  explicit ReverseQueryIndex(const geo::Grid& grid)
      : grid_(&grid), cells_(grid.CellCount()) {}

  // Registers qid over every cell of its monitoring region.
  void Add(QueryId qid, const geo::CellRange& mon_region);

  // Unregisters qid from every cell of `mon_region` (must be the same range
  // that was passed to Add).
  void Remove(QueryId qid, const geo::CellRange& mon_region);

  // Single-cell registration, for sharded RQI slices that index only the
  // cells their shard owns. Appending per cell keeps each row's order
  // identical to what full-range Add calls would produce.
  void AddCell(QueryId qid, const geo::CellCoord& c) {
    cells_[grid_->FlatIndex(c)].push_back(qid);
  }
  void RemoveCell(QueryId qid, const geo::CellCoord& c);

  // Queries whose monitoring region covers cell c (unordered).
  const std::vector<QueryId>& QueriesForCell(const geo::CellCoord& c) const {
    return cells_[grid_->FlatIndex(c)];
  }

  // Queries covering `new_cell` but not `prev_cell`: what an object needs
  // to newly install after a cell crossing (§3.5).
  std::vector<QueryId> NewQueriesForMove(const geo::CellCoord& prev_cell,
                                         const geo::CellCoord& new_cell) const;

  // Batched row difference: appends to *out the ids of `new_row` absent
  // from `prev_row`, preserving new_row's order (the order RQI rows and
  // their derived broadcasts are built in). *scratch receives a sorted copy
  // of prev_row so each membership test is a binary search instead of the
  // linear scan of the per-id diff; both out-params are caller-owned
  // scratch, reusable across calls.
  static void RowDifferenceInto(const std::vector<QueryId>& new_row,
                                const std::vector<QueryId>& prev_row,
                                std::vector<QueryId>* scratch,
                                std::vector<QueryId>* out);

 private:
  const geo::Grid* grid_;
  std::vector<std::vector<QueryId>> cells_;
};

}  // namespace mobieyes::core

#endif  // MOBIEYES_CORE_RQI_H_
