#ifndef MOBIEYES_SIM_WORKLOAD_H_
#define MOBIEYES_SIM_WORKLOAD_H_

#include <cstdint>
#include <vector>

#include "mobieyes/common/ids.h"
#include "mobieyes/common/random.h"
#include "mobieyes/common/status.h"
#include "mobieyes/common/units.h"
#include "mobieyes/geo/query_region.h"
#include "mobieyes/geo/rect.h"
#include "mobieyes/mobility/object_state.h"

namespace mobieyes::sim {

// Spatial distribution of the initial object positions. The paper uses a
// uniform population; the hotspot variant concentrates objects around a few
// gaussian city-like centers to study skew.
enum class ObjectDistribution {
  kUniform,
  kHotspot,
};

// Simulation parameters, defaults per Table 1 of the paper.
struct SimulationParams {
  Seconds time_step = 30.0;                // ts
  Miles alpha = 5.0;                       // grid cell side length
  int num_objects = 10000;                 // no
  int num_queries = 1000;                  // nmq
  int velocity_changes_per_step = 1000;    // nmo
  double area_square_miles = 100000.0;     // area of consideration
  Miles base_station_side = 10.0;          // alen
  double query_selectivity = 0.75;         // qselect
  // Query radius means in miles, most common first; radii are drawn as
  // Normal(mean, mean/5) with the mean picked zipf(zipf_theta) from this
  // list, then scaled by radius_factor (the Fig. 12 sweep knob).
  std::vector<Miles> query_radius_means = {3.0, 2.0, 1.0, 4.0, 5.0};
  double radius_factor = 1.0;
  // Object maximum speeds in miles/hour, most common first, zipf-assigned.
  std::vector<double> max_speeds_mph = {100.0, 50.0, 150.0, 200.0, 250.0};
  double zipf_theta = 0.8;
  // Dead-reckoning threshold Δ in miles (not specified in the paper; see
  // DESIGN.md).
  Miles dead_reckoning_threshold = 0.2;
  // Fraction of queries generated with rectangular regions instead of the
  // paper's circles (extension; a rectangle with the same area as the drawn
  // circle, with aspect ratio uniform in [0.5, 2]). Centralized baseline
  // modes only support circles, so keep this 0 when comparing against them.
  double rect_query_fraction = 0.0;
  // Spatial skew (extension; the paper's experiments are uniform).
  ObjectDistribution object_distribution = ObjectDistribution::kUniform;
  int num_hotspots = 5;
  // Hotspot standard deviation as a fraction of the universe side, and the
  // fraction of the population placed in hotspots (the rest is uniform).
  double hotspot_sigma_fraction = 0.05;
  double hotspot_weight = 0.8;
  uint64_t seed = 42;

  // Square universe of discourse implied by `area_square_miles`.
  Miles side() const;
  geo::Rect universe() const;

  // Sanity checks; returns InvalidArgument describing the first problem.
  Status Validate() const;

  bool operator==(const SimulationParams&) const = default;
};

// A moving query to be installed: the paper's (oid, region, filter) triple.
struct QuerySpec {
  ObjectId focal_oid = kInvalidObjectId;
  geo::QueryRegion region;
  double filter_threshold = 1.0;
};

// A generated scenario: initial object states plus the queries to install.
struct Workload {
  std::vector<mobility::ObjectState> objects;
  std::vector<QuerySpec> queries;
};

// Draws a workload per §5.1: uniform initial positions, zipf(0.8) maximum
// speeds from the Table 1 list, uniform filter attributes, uniform focal
// objects, zipf(0.8) radius means with Normal(mean, mean/5) radii.
Workload GenerateWorkload(const SimulationParams& params, Rng& rng);

}  // namespace mobieyes::sim

#endif  // MOBIEYES_SIM_WORKLOAD_H_
