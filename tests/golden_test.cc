// The behaviour contract, checked in: six small in-process, single-shard
// simulations whose per-step message counts by type, LQT size sums and
// per-query result-set digests, plus each run's heat-map JSON, must match
// the files under tests/golden/ byte for byte. Everything recorded is an
// integer or a hash of integers, so the files do not depend on how a
// platform prints doubles (the heat map's decayed values are dyadic
// fractions, which every libc prints exactly).
//
// A change that moves behaviour on purpose regenerates the files and lets
// the diff show which numbers moved:
//
//   MOBIEYES_GOLDEN_REGENERATE=1 ./build/tests/golden_test
//
// (run from the repository root after building; the test writes into the
// source tree's tests/golden/ directory).

#include <gtest/gtest.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "mobieyes/core/options.h"
#include "mobieyes/net/message.h"
#include "mobieyes/sim/simulation.h"

#ifndef MOBIEYES_GOLDEN_DIR
#error "MOBIEYES_GOLDEN_DIR must name the tests/golden source directory"
#endif

namespace mobieyes::sim {
namespace {

constexpr int kSteps = 12;

// Shared base: 800 objects on a 100 x 100 mile universe (alpha 5, so a
// 20 x 20 grid), 60 queries, 80 velocity changes per step.
SimulationConfig BaseConfig(SimMode mode, uint64_t seed) {
  SimulationConfig config;
  config.mode = mode;
  config.params.num_objects = 800;
  config.params.num_queries = 60;
  config.params.velocity_changes_per_step = 80;
  config.params.area_square_miles = 10000.0;
  config.params.seed = seed;
  config.warmup_steps = 2;
  config.obs.enable_heatmap = true;
  config.obs.heatmap_window = 4;
  return config;
}

// Short leases (expiry after 8 steps, reconciliation every 2) so a
// 14-step run exercises both repair paths.
core::MobiEyesOptions Hardened(const SimulationConfig& config) {
  return core::HardenedOptions(config.mobieyes, config.params.time_step,
                               /*lease_ticks=*/4);
}

struct GoldenCase {
  const char* name;
  SimulationConfig config;
};

// Test names and failure messages show the case name, not the config bytes.
void PrintTo(const GoldenCase& golden, std::ostream* os) { *os << golden.name; }

std::vector<GoldenCase> Cases() {
  std::vector<GoldenCase> cases;

  cases.push_back({"eqp", BaseConfig(SimMode::kMobiEyesEager, 101)});

  SimulationConfig lqp = BaseConfig(SimMode::kMobiEyesLazy, 102);
  lqp.mobieyes.enable_safe_period = true;
  lqp.mobieyes.enable_query_grouping = false;
  cases.push_back({"lqp_safe_period_no_grouping", lqp});

  SimulationConfig lossy = BaseConfig(SimMode::kMobiEyesLazy, 103);
  lossy.mobieyes = Hardened(lossy);
  lossy.mobieyes.enable_safe_period = true;
  lossy.faults.uplink_drop_rate = 0.05;
  lossy.faults.downlink_drop_rate = 0.05;
  lossy.faults.delay_rate = 0.1;
  lossy.faults.max_delay_steps = 2;
  lossy.faults.duplicate_rate = 0.05;
  lossy.faults.disconnect_rate = 0.05;
  lossy.faults.disconnect_period_steps = 4;
  lossy.faults.disconnect_duration_steps = 2;
  cases.push_back({"hardened_lqp_faults", lossy});

  // The same protocol with no fault draws: its result sets and LQTs pin
  // what hardening repairs without a fault stream to re-roll.
  SimulationConfig hardened = BaseConfig(SimMode::kMobiEyesLazy, 106);
  hardened.mobieyes = Hardened(hardened);
  hardened.mobieyes.enable_safe_period = true;
  cases.push_back({"hardened_lqp", hardened});

  SimulationConfig crash = BaseConfig(SimMode::kMobiEyesEager, 104);
  crash.mobieyes = Hardened(crash);
  crash.checkpoint_stride = 3;
  crash.faults.server_crash_step = 7;
  crash.faults.server_recovery_steps = 1;
  crash.faults.client_restart_rate = 0.01;
  cases.push_back({"crash_restore", crash});

  SimulationConfig rect = BaseConfig(SimMode::kMobiEyesEager, 105);
  rect.params.rect_query_fraction = 0.5;
  rect.mobieyes.enable_safe_period = true;
  cases.push_back({"rect_queries", rect});

  return cases;
}

// FNV-1a over the little-endian bytes of each sorted oid.
uint64_t ResultDigest(std::vector<ObjectId> oids) {
  std::sort(oids.begin(), oids.end());
  uint64_t hash = 0xcbf29ce484222325ULL;
  for (ObjectId oid : oids) {
    auto bits = static_cast<uint64_t>(oid);
    for (int byte = 0; byte < 8; ++byte) {
      hash ^= (bits >> (8 * byte)) & 0xff;
      hash *= 0x100000001b3ULL;
    }
  }
  return hash;
}

// Runs one case step by step and renders the record; `heatmap` receives the
// run's heat-map JSON.
std::string Record(const SimulationConfig& config, std::string* heatmap) {
  auto made = Simulation::Make(config);
  EXPECT_TRUE(made.ok()) << made.status().ToString();
  if (!made.ok()) return {};
  Simulation& sim = **made;
  std::ostringstream out;
  auto by_type = sim.network().stats().messages_by_type;
  uint64_t lqt_counted = sim.metrics().lqt_size_sum;
  for (int step = 0; step < kSteps; ++step) {
    sim.Run(1);
    uint64_t lqt_sum = 0;
    for (ObjectId oid = 0; oid < config.params.num_objects; ++oid) {
      lqt_sum += sim.fleet()->lqt_size(oid);
    }
    // The run's own LQT accounting must agree with the clients'.
    const uint64_t counted = sim.metrics().lqt_size_sum;
    EXPECT_EQ(counted - lqt_counted, lqt_sum) << "step " << step;
    lqt_counted = counted;
    out << "step " << step << " lqt " << lqt_sum << '\n';

    const auto& now = sim.network().stats().messages_by_type;
    for (size_t type = 0; type < now.size(); ++type) {
      if (now[type] == by_type[type]) continue;
      out << "msg " << net::MessageTypeName(static_cast<net::MessageType>(type))
          << ' ' << now[type] - by_type[type] << '\n';
    }
    by_type = now;

    if (sim.server() == nullptr) {  // crashed, not yet restored
      out << "server down\n";
      continue;
    }
    for (QueryId qid : sim.installed_queries()) {
      auto result = sim.server()->QueryResult(qid);
      out << "result " << qid << ' ';
      if (!result.ok()) {
        out << "-\n";
        continue;
      }
      char hex[17];
      std::snprintf(hex, sizeof(hex), "%016" PRIx64,
                    ResultDigest({result->begin(), result->end()}));
      out << hex << ' ' << result->size() << '\n';
    }
  }
  sim.FlushHeatmap();
  *heatmap = sim.heatmap()->ToJson() + "\n";
  return out.str();
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream content;
  content << in.rdbuf();
  return content.str();
}

void WriteFile(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << content;
  ASSERT_TRUE(out.good()) << "cannot write " << path;
}

// Names the first differing line so a failure says what moved.
void ExpectSameLines(const std::string& path, const std::string& expected,
                     const std::string& actual) {
  if (expected == actual) return;
  std::istringstream want(expected);
  std::istringstream got(actual);
  std::string want_line;
  std::string got_line;
  for (int line = 1;; ++line) {
    const bool more_want = static_cast<bool>(std::getline(want, want_line));
    const bool more_got = static_cast<bool>(std::getline(got, got_line));
    if (!more_want && !more_got) break;
    if (more_want != more_got || want_line != got_line) {
      ADD_FAILURE() << path << ":" << line << " differs\n  golden: "
                    << (more_want ? want_line.substr(0, 200) : "<end>")
                    << "\n  actual: "
                    << (more_got ? got_line.substr(0, 200) : "<end>");
      return;
    }
  }
  ADD_FAILURE() << path << " differs";
}

class GoldenTest : public ::testing::TestWithParam<GoldenCase> {};

TEST_P(GoldenTest, MatchesCheckedInRecord) {
  const GoldenCase& golden = GetParam();
  std::string heatmap;
  const std::string record = Record(golden.config, &heatmap);
  ASSERT_FALSE(record.empty());
  const std::string base = std::string(MOBIEYES_GOLDEN_DIR) + "/" + golden.name;
  const char* regenerate = std::getenv("MOBIEYES_GOLDEN_REGENERATE");
  if (regenerate != nullptr && std::string(regenerate) == "1") {
    WriteFile(base + ".txt", record);
    WriteFile(base + ".heatmap.json", heatmap);
    return;
  }
  ExpectSameLines(base + ".txt", ReadFile(base + ".txt"), record);
  ExpectSameLines(base + ".heatmap.json", ReadFile(base + ".heatmap.json"),
                  heatmap);
}

INSTANTIATE_TEST_SUITE_P(
    Canonical, GoldenTest, ::testing::ValuesIn(Cases()),
    [](const ::testing::TestParamInfo<GoldenCase>& info) {
      return std::string(info.param.name);
    });

}  // namespace
}  // namespace mobieyes::sim
