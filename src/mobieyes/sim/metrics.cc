#include "mobieyes/sim/metrics.h"

namespace mobieyes::sim {

double RunMetrics::AveragePowerMilliwatts(
    const net::RadioEnergyModel& radio) const {
  if (objects <= 0 || simulated_seconds <= 0.0) return 0.0;
  // Total radio energy across the fleet over the measured window; note that
  // broadcast receptions charge every covered object (folded into
  // reception_bytes by the network).
  double joules = radio.EnergyJoules(network.uplink_bytes,
                                     network.reception_bytes);
  return joules / simulated_seconds / static_cast<double>(objects) * 1000.0;
}

}  // namespace mobieyes::sim
