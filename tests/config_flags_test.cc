// The config flag table (src/mobieyes/sim/config_flags.cc) is the one path
// from a command line to a SimulationConfig, for mobieyes_sim and for every
// bench. These tests pin it flag by flag: a valid spelling makes exactly the
// edit it names, and a malformed value is refused instead of being read as
// something else.

#include "mobieyes/sim/config_flags.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <set>
#include <string>
#include <string_view>
#include <vector>

namespace mobieyes::sim {
namespace {

using Config = SimulationConfig;

// mobieyes_sim's starting point: error measurement on, so the flag that
// turns it off has something to change.
Config Base() {
  Config config;
  config.measure_error = true;
  return config;
}

struct FlagCase {
  std::string arg;
  std::function<void(Config*)> edit;  // the same change, made by hand
};

// At least one valid spelling per flag, beside the edit it must amount to.
std::vector<FlagCase> ValidCases() {
  return {
      {"--mode=lqp", [](Config* c) { c->mode = SimMode::kMobiEyesLazy; }},
      {"--mode=central-optimal",
       [](Config* c) { c->mode = SimMode::kCentralOptimal; }},
      {"--objects=300", [](Config* c) { c->params.num_objects = 300; }},
      {"--queries=0", [](Config* c) { c->params.num_queries = 0; }},
      {"--nmo=25",
       [](Config* c) { c->params.velocity_changes_per_step = 25; }},
      {"--alpha=2.5", [](Config* c) { c->params.alpha = 2.5; }},
      {"--area=400", [](Config* c) { c->params.area_square_miles = 400.0; }},
      {"--alen=7.5", [](Config* c) { c->params.base_station_side = 7.5; }},
      {"--warmup=0", [](Config* c) { c->warmup_steps = 0; }},
      {"--seed=18446744073709551615",
       [](Config* c) { c->params.seed = UINT64_MAX; }},
      {"--delta=0.5",
       [](Config* c) { c->params.dead_reckoning_threshold = 0.5; }},
      {"--radius-factor=1.5", [](Config* c) { c->params.radius_factor = 1.5; }},
      {"--selectivity=0.25",
       [](Config* c) { c->params.query_selectivity = 0.25; }},
      {"--hotspots",
       [](Config* c) {
         c->params.object_distribution = ObjectDistribution::kHotspot;
       }},
      {"--safe-period",
       [](Config* c) { c->mobieyes.enable_safe_period = true; }},
      {"--no-grouping",
       [](Config* c) { c->mobieyes.enable_query_grouping = false; }},
      {"--no-error", [](Config* c) { c->measure_error = false; }},
      {"--drop-rate=0.1",
       [](Config* c) {
         c->faults.uplink_drop_rate = 0.1;
         c->faults.downlink_drop_rate = 0.1;
       }},
      {"--delay-steps=3",
       [](Config* c) {
         c->faults.max_delay_steps = 3;
         c->faults.delay_rate = 0.2;  // implied by a bare --delay-steps
       }},
      {"--delay-rate=0.3", [](Config* c) { c->faults.delay_rate = 0.3; }},
      {"--dup-rate=0.05", [](Config* c) { c->faults.duplicate_rate = 0.05; }},
      {"--outage=8:2",
       [](Config* c) {
         c->faults.outage_period_steps = 8;
         c->faults.outage_duration_steps = 2;
       }},
      {"--disconnect=0.1:10:2",
       [](Config* c) {
         c->faults.disconnect_rate = 0.1;
         c->faults.disconnect_period_steps = 10;
         c->faults.disconnect_duration_steps = 2;
       }},
      {"--fault-seed=7", [](Config* c) { c->faults.seed = 7; }},
      {"--harden",
       [](Config* c) {
         c->mobieyes =
             core::HardenedOptions(c->mobieyes, c->params.time_step);
       }},
      {"--server-crash=6:0",
       [](Config* c) {
         c->faults.server_crash_step = 6;
         c->faults.server_recovery_steps = 0;
       }},
      {"--client-restart-rate=0.01",
       [](Config* c) { c->faults.client_restart_rate = 0.01; }},
      {"--checkpoint-stride=2", [](Config* c) { c->checkpoint_stride = 2; }},
      {"--shards=4", [](Config* c) { c->mobieyes.sharding.num_shards = 4; }},
      {"--shard-transport=process",
       [](Config* c) {
         c->shard_transport = Config::ShardTransport::kProcess;
       }},
      {"--shardd=bin/mobieyes_shardd",
       [](Config* c) { c->supervisor.shardd_path = "bin/mobieyes_shardd"; }},
      {"--shard-kill=10:1",
       [](Config* c) {
         c->shard_kill_step = 10;
         c->shard_kill_index = 1;
       }},
      {"--shard-authority", [](Config* c) { c->shard_authority = true; }},
      {"--backplane-fault=drop=0.05,kill=12:1,seed=7",
       [](Config* c) {
         c->backplane_fault.drop_rate = 0.05;
         c->backplane_fault.kills = {{12, 1}};
         c->backplane_fault.seed = 7;
       }},
  };
}

TEST(ConfigFlagsTest, EveryFlagMakesTheSameEditAsByHand) {
  std::set<std::string> covered;
  for (const FlagCase& c : ValidCases()) {
    SCOPED_TRACE(c.arg);
    Config parsed = Base();
    Status st = ApplyConfigFlags({c.arg}, &parsed);
    ASSERT_TRUE(st.ok()) << st.ToString();
    Config expected = Base();
    c.edit(&expected);
    EXPECT_FALSE(expected == Base()) << "the case edits nothing";
    EXPECT_TRUE(parsed == expected);
    covered.insert(FindConfigFlag(c.arg)->name);
  }
  for (const ConfigFlag& flag : ConfigFlags()) {
    EXPECT_EQ(covered.count(flag.name), 1u) << "--" << flag.name;
  }
}

TEST(ConfigFlagsTest, RejectsMalformedValues) {
  for (const char* arg :
       {"--objects=300abc", "--objects=0", "--objects= 300", "--objects=",
        "--objects", "--queries=-1", "--alpha=0", "--alpha=nan", "--seed=-1",
        "--selectivity=1.5", "--mode=fast", "--drop-rate=1.1",
        "--delay-steps=2.5", "--outage=x", "--outage=8", "--outage=8:2:1",
        "--disconnect=0.1:10", "--disconnect=2:10:2", "--fault-seed=7x",
        "--harden=1", "--server-crash=-1:2", "--server-crash=6",
        "--checkpoint-stride=-1", "--shards=0", "--shards=four",
        "--shard-transport=tcp", "--shardd=", "--shard-kill=3",
        "--shard-kill=3:-1", "--shard-authority=yes",
        "--backplane-fault=drop=2", "--backplane-fault=bogus=1",
        "--backplane-fault=kill=3", "--no-such-flag", "objects=300"}) {
    Config config = Base();
    EXPECT_FALSE(ApplyConfigFlags({arg}, &config).ok()) << arg;
  }
}

TEST(ConfigFlagsTest, BareDelayStepsDelaysWithRateTwoTenths) {
  Config bare = Base();
  ASSERT_TRUE(ApplyConfigFlags({"--delay-steps=2"}, &bare).ok());
  EXPECT_EQ(bare.faults.max_delay_steps, 2);
  EXPECT_EQ(bare.faults.delay_rate, 0.2);
  // An explicit rate wins, before or after the steps.
  for (const std::vector<std::string>& args :
       {std::vector<std::string>{"--delay-rate=0.5", "--delay-steps=2"},
        std::vector<std::string>{"--delay-steps=2", "--delay-rate=0.5"}}) {
    Config config = Base();
    ASSERT_TRUE(ApplyConfigFlags(args, &config).ok());
    EXPECT_EQ(config.faults.delay_rate, 0.5) << args[0];
  }
  // Zero steps delays nothing, so it implies no rate.
  Config zero = Base();
  ASSERT_TRUE(ApplyConfigFlags({"--delay-steps=0"}, &zero).ok());
  EXPECT_EQ(zero.faults.delay_rate, 0.0);
}

TEST(ConfigFlagsTest, ReplayKeepsEveryKnobTheFlagsLeaveUnset) {
  // The bench harness replays its flags onto each cell's own config.
  Config cell = Base();
  cell.params.num_objects = 2000;
  cell.faults.duplicate_rate = 0.05;
  cell.mobieyes.sharding.num_shards = 4;
  Config replayed = cell;
  ASSERT_TRUE(
      ApplyConfigFlags({"--drop-rate=0.1", "--objects=500"}, &replayed).ok());
  Config expected = cell;
  expected.params.num_objects = 500;
  expected.faults.uplink_drop_rate = 0.1;
  expected.faults.downlink_drop_rate = 0.1;
  EXPECT_TRUE(replayed == expected);
}

// The flag names a usage text lists, one per line that starts with "  --".
std::set<std::string> UsageNames(const std::string& usage) {
  std::set<std::string> names;
  const std::string text = "\n" + usage;
  for (size_t pos = text.find("\n  --"); pos != std::string::npos;
       pos = text.find("\n  --", pos)) {
    pos += 5;
    names.insert(text.substr(pos, text.find_first_of("= \n", pos) - pos));
  }
  return names;
}

TEST(ConfigFlagsTest, BenchesTakeOnlyTheSweepFlags) {
  // The workload seed is mobieyes_sim's; a bench's --fault-seed seeds the
  // fault plan.
  EXPECT_FALSE(FindConfigFlag("--seed=3")->sweep);
  EXPECT_TRUE(FindConfigFlag("--fault-seed=3")->sweep);
  EXPECT_EQ(FindConfigFlag("--seeds=3"), nullptr);
  EXPECT_EQ(FindConfigFlag("seed=3"), nullptr);
  const std::set<std::string> all = UsageNames(ConfigFlagUsage(false));
  const std::set<std::string> sweep = UsageNames(ConfigFlagUsage(true));
  EXPECT_EQ(all.size(), ConfigFlags().size());
  for (const ConfigFlag& flag : ConfigFlags()) {
    EXPECT_EQ(all.count(flag.name), 1u) << flag.name;
    EXPECT_EQ(sweep.count(flag.name), flag.sweep ? 1u : 0u) << flag.name;
  }
}

TEST(ConfigFlagsTest, OwnFlagHelpersParseStrictly) {
  std::string_view path;
  EXPECT_TRUE(FlagValue("--json=out.json", "--json=", &path));
  EXPECT_EQ(path, "out.json");
  EXPECT_FALSE(FlagValue("--jsonx=out.json", "--json=", &path));
  int value = 7;
  EXPECT_TRUE(ParseIntFlag("12", 1, &value));
  EXPECT_EQ(value, 12);
  for (const char* bad : {"", "0", "12x", " 12", "1.5", "-3"}) {
    EXPECT_FALSE(ParseIntFlag(bad, 1, &value)) << bad;
  }
  EXPECT_EQ(value, 12);
}

}  // namespace
}  // namespace mobieyes::sim
