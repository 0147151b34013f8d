#ifndef MOBIEYES_MOBILITY_WORLD_H_
#define MOBIEYES_MOBILITY_WORLD_H_

#include <cstdint>
#include <vector>

#include "mobieyes/common/random.h"
#include "mobieyes/common/status.h"
#include "mobieyes/common/units.h"
#include "mobieyes/geo/circle.h"
#include "mobieyes/geo/grid.h"
#include "mobieyes/mobility/object_state.h"

namespace mobieyes::mobility {

// Ground truth of the simulation: owns every object's true state, advances
// it by the §5.1 motion model, and maintains a grid-cell spatial index used
// both for broadcast delivery (which objects are under a base station) and
// for the exact-result oracle.
//
// Object state is stored as structure-of-arrays (x/y/vx/vy/max_speed/attr
// as separate dense arrays indexed by oid) so the per-step advance loop and
// the containment kernels stream contiguous doubles instead of striding
// through ObjectState structs. `ObjectState` remains the protocol layer's
// view: object() materializes one on demand.
//
// The spatial index is CSR-style: one flat `cell_items_` array of object
// ids partitioned into contiguous per-cell spans by `cell_start_` offsets
// (row-major by flat cell index). Because FlatIndex is row-major, the cells
// of one grid row inside any CellRange occupy one contiguous slice of
// cell_items_, so range scans touch one span per row instead of one list
// per cell. The index is rebuilt with a counting scatter (prefix sum over
// incrementally maintained per-cell counts, then one sequential scatter
// pass) only on steps where at least one object changed cells. Spans are
// always in canonical (cell, then
// ascending oid) order — a history-free ordering that makes the index
// state a pure function of current positions.
//
// The visitor methods take the callable as a template parameter so the
// per-object dispatch inlines; they sit on every mode's per-step hot path
// (broadcast delivery, oracle evaluation) where a std::function per object
// is measurable.
//
// ObjectIds are dense: objects are created with oid == index.
class World {
 public:
  // Takes ownership of initial object states. Objects must have dense ids
  // 0..n-1 and positions inside the grid universe.
  static Result<World> Make(const geo::Grid& grid,
                            std::vector<ObjectState> objects);

  const geo::Grid& grid() const { return *grid_; }
  size_t object_count() const { return x_.size(); }

  // Materializes the protocol-layer view of one object from the SoA state.
  // Returns by value; callers binding `const ObjectState&` get the usual
  // temporary lifetime extension.
  ObjectState object(ObjectId oid) const {
    const auto k = static_cast<size_t>(oid);
    ObjectState object;
    object.oid = oid;
    object.pos = geo::Point{x_[k], y_[k]};
    object.vel = geo::Vec2{vx_[k], vy_[k]};
    object.max_speed = max_speed_[k];
    object.attr = attr_[k];
    object.cell = cell(oid);
    return object;
  }

  // Field accessors for callers that need one component (cheaper than
  // materializing a full ObjectState).
  geo::Point position(ObjectId oid) const {
    const auto k = static_cast<size_t>(oid);
    return geo::Point{x_[k], y_[k]};
  }
  geo::Vec2 velocity(ObjectId oid) const {
    const auto k = static_cast<size_t>(oid);
    return geo::Vec2{vx_[k], vy_[k]};
  }
  double max_speed(ObjectId oid) const {
    return max_speed_[static_cast<size_t>(oid)];
  }
  double attr(ObjectId oid) const { return attr_[static_cast<size_t>(oid)]; }
  geo::CellCoord cell(ObjectId oid) const {
    const auto k = static_cast<size_t>(oid);
    return geo::CellCoord{cell_i_[k], cell_j_[k]};
  }

  // Raw SoA arrays, indexed by oid. The batched containment kernels
  // (geo/batch_kernels.h) gather through these.
  const double* xs() const { return x_.data(); }
  const double* ys() const { return y_.data(); }
  const double* attrs() const { return attr_.data(); }
  // Each object's current cell, column and row (the client fleet's
  // broadcast relevance check reads these).
  const int32_t* cell_is() const { return cell_i_.data(); }
  const int32_t* cell_js() const { return cell_j_.data(); }

  // Span-index internals, exposed for the kernels and the span-invariant
  // tests: cell_span_items() is the oid array, cell_span_offsets()[f] ..
  // cell_span_offsets()[f + 1] the slice holding flat cell f's objects.
  const std::vector<uint32_t>& cell_span_offsets() const {
    return cell_start_;
  }
  const std::vector<uint32_t>& cell_span_items() const { return cell_items_; }

  Seconds now() const { return now_; }
  StepCount step_count() const { return step_count_; }

  // Advances the simulation by dt: re-draws the velocity of
  // `velocity_changes` distinct random objects (the Table 1 `nmo`
  // parameter), then moves every object and refreshes the cell index.
  void Step(Seconds dt, int velocity_changes, Rng& rng);

  // Invokes fn for every object whose true position lies inside the circle.
  template <typename Visitor>
  void ForEachObjectInCircle(const geo::Circle& circle,
                             const Visitor& fn) const {
    const geo::CellRange cells =
        grid_->CellsIntersecting(circle.BoundingRect());
    const int64_t columns = grid_->columns();
    for (int32_t j = cells.j_lo; j <= cells.j_hi; ++j) {
      const int64_t row = static_cast<int64_t>(j) * columns;
      const uint32_t begin = cell_start_[row + cells.i_lo];
      const uint32_t end = cell_start_[row + cells.i_hi + 1];
      for (uint32_t k = begin; k < end; ++k) {
        const auto oid = static_cast<size_t>(cell_items_[k]);
        if (circle.Contains(geo::Point{x_[oid], y_[oid]})) {
          fn(static_cast<ObjectId>(oid));
        }
      }
    }
  }

  // Invokes fn for every object whose *current grid cell* intersects the
  // circle — a cell-granular alternative to ForEachObjectInCircle that
  // over-approximates a coverage area at grid resolution. Broadcast
  // delivery uses the exact point-in-circle rule; this variant exists for
  // cell-level analyses and tests. Empty cells skip the circle-rectangle
  // test: two adjacent span offsets decide emptiness, which is what keeps
  // sparse small worlds at parity with a brute scan.
  template <typename Visitor>
  void ForEachObjectUnderCoverage(const geo::Circle& circle,
                                  const Visitor& fn) const {
    const geo::CellRange cells =
        grid_->CellsIntersecting(circle.BoundingRect());
    const int64_t columns = grid_->columns();
    for (int32_t j = cells.j_lo; j <= cells.j_hi; ++j) {
      const int64_t row = static_cast<int64_t>(j) * columns;
      for (int32_t i = cells.i_lo; i <= cells.i_hi; ++i) {
        const uint32_t begin = cell_start_[row + i];
        const uint32_t end = cell_start_[row + i + 1];
        if (begin == end) continue;
        if (!circle.Intersects(grid_->CellRect(geo::CellCoord{i, j}))) {
          continue;
        }
        for (uint32_t k = begin; k < end; ++k) {
          fn(static_cast<ObjectId>(cell_items_[k]));
        }
      }
    }
  }

  // Invokes fn for every object currently in grid cell c.
  template <typename Visitor>
  void ForEachObjectInCell(const geo::CellCoord& c, const Visitor& fn) const {
    if (!grid_->IsValid(c)) return;
    const int64_t flat = grid_->FlatIndex(c);
    const uint32_t begin = cell_start_[flat];
    const uint32_t end = cell_start_[flat + 1];
    for (uint32_t k = begin; k < end; ++k) {
      fn(static_cast<ObjectId>(cell_items_[k]));
    }
  }

  // Invokes fn(ids, count) once per grid row of `cells` with the contiguous
  // slice of the span index covering that row — the batched-kernel entry
  // point. Row-major flat indexing makes adjacent cells of one row a single
  // contiguous range of cell_span_items().
  template <typename Visitor>
  void ForEachRowSpan(const geo::CellRange& cells, const Visitor& fn) const {
    const int64_t columns = grid_->columns();
    for (int32_t j = cells.j_lo; j <= cells.j_hi; ++j) {
      const int64_t row = static_cast<int64_t>(j) * columns;
      const uint32_t begin = cell_start_[row + cells.i_lo];
      const uint32_t end = cell_start_[row + cells.i_hi + 1];
      if (begin != end) {
        fn(&cell_items_[begin], static_cast<size_t>(end - begin));
      }
    }
  }

  // Test/setup hook: overwrite an object's kinematics and reindex it.
  void SetObjectState(ObjectId oid, const geo::Point& pos,
                      const geo::Vec2& vel);

 private:
  World(const geo::Grid& grid, const std::vector<ObjectState>& objects);

  // Rebuilds cell_start_/cell_items_ from the maintained cell_count_ with
  // a prefix sum plus one oid-order scatter pass, which yields the
  // canonical (cell, ascending oid) span order.
  void RebuildSpans();

  const geo::Grid* grid_;
  // Object state, structure-of-arrays, indexed by oid.
  std::vector<double> x_;
  std::vector<double> y_;
  std::vector<double> vx_;
  std::vector<double> vy_;
  std::vector<double> max_speed_;
  std::vector<double> attr_;
  // Each object's current cell, split by axis (fed to the boundary check
  // below without the modulo/divide a flat index would need).
  std::vector<int32_t> cell_i_;
  std::vector<int32_t> cell_j_;
  // Exact cell boundaries per column/row, with ±inf sentinels at the grid
  // edges: col_bound_[i] is the smallest double x with
  // (x - universe.lx) / alpha >= i, so "x in [col_bound_[i],
  // col_bound_[i+1])" is bit-equivalent to Grid::CellOf returning column i
  // (division by a positive constant is monotone in IEEE arithmetic, and
  // the sentinels reproduce CellOf's edge clamp). Step's hot loop tests
  // these four bounds instead of paying CellOf's two divisions per object.
  std::vector<double> col_bound_;
  std::vector<double> row_bound_;
  // CSR spatial index: cell_items_ holds all oids grouped by cell;
  // cell_start_ (size CellCount() + 1) delimits each cell's span.
  std::vector<uint32_t> cell_start_;
  std::vector<uint32_t> cell_items_;
  // Per-cell populations, maintained incrementally by the ctor, Step and
  // SetObjectState so RebuildSpans can prefix-sum without a counting pass;
  // scatter_cursor_ is RebuildSpans' write-cursor scratch (persistent to
  // avoid per-step allocation).
  std::vector<uint32_t> cell_count_;
  std::vector<uint32_t> scatter_cursor_;
  // Persistent identity permutation buffer for Step's partial Fisher-Yates
  // draw of velocity-changing objects (no per-step allocation, and distinct
  // picks cost O(velocity_changes) even when it approaches object_count).
  std::vector<ObjectId> velocity_pick_buffer_;
  Seconds now_ = 0.0;
  StepCount step_count_ = 0;
};

}  // namespace mobieyes::mobility

#endif  // MOBIEYES_MOBILITY_WORLD_H_
