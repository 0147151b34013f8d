#include "mobieyes/sim/config_flags.h"

#include <charconv>
#include <cmath>
#include <cstdint>
#include <type_traits>

#include "mobieyes/core/options.h"
#include "mobieyes/net/backplane.h"

namespace mobieyes::sim {

namespace {

// Parses all of `text` as one number: no blanks, no trailing characters,
// no sign on unsigned types; reals must be finite.
template <typename T>
bool Number(std::string_view text, T* out) {
  T value{};
  const char* end = text.data() + text.size();
  auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc() || ptr != end) return false;
  if constexpr (std::is_floating_point_v<T>) {
    if (!std::isfinite(value)) return false;
  }
  *out = value;
  return true;
}

template <typename T>
bool Int(std::string_view text, std::type_identity_t<T> min, T* out) {
  T value = 0;
  if (!Number(text, &value) || value < min) return false;
  *out = value;
  return true;
}

// A probability in [0, 1].
bool Rate(std::string_view text, double* out) {
  double value = 0.0;
  if (!Number(text, &value) || value < 0.0 || value > 1.0) return false;
  *out = value;
  return true;
}

bool Positive(std::string_view text, double* out) {
  double value = 0.0;
  if (!Number(text, &value) || value <= 0.0) return false;
  *out = value;
  return true;
}

// Stores a switch's or a free-form flag's value; always valid.
template <typename T, typename V>
bool Set(T* field, V value) {
  *field = value;
  return true;
}

// "A:B:C" -> {"A", "B", "C"}.
std::vector<std::string_view> Fields(std::string_view text) {
  std::vector<std::string_view> fields;
  for (size_t colon = text.find(':'); colon != std::string_view::npos;
       colon = text.find(':')) {
    fields.push_back(text.substr(0, colon));
    text.remove_prefix(colon + 1);
  }
  fields.push_back(text);
  return fields;
}

struct ModeName {
  std::string_view name;
  SimMode mode;
};

constexpr ModeName kModes[] = {
    {"eqp", SimMode::kMobiEyesEager},
    {"lqp", SimMode::kMobiEyesLazy},
    {"object-index", SimMode::kObjectIndex},
    {"query-index", SimMode::kQueryIndex},
    {"naive", SimMode::kNaive},
    {"central-optimal", SimMode::kCentralOptimal},
};

using Config = SimulationConfig;
using Value = std::string_view;

constexpr ConfigFlag kFlags[] = {
    // Workload, mode and protocol toggles (Table 1 defaults).
    {"mode", "eqp|lqp|object-index|query-index|naive|central-optimal",
     "query processing scheme (default eqp)", false,
     [](Value v, Config* c) {
       for (const ModeName& mode : kModes) {
         if (v == mode.name) return Set(&c->mode, mode.mode);
       }
       return false;
     }},
    {"objects", "N", "moving objects (N >= 1)", true,
     [](Value v, Config* c) { return Int(v, 1, &c->params.num_objects); }},
    {"queries", "N", "moving queries", false,
     [](Value v, Config* c) { return Int(v, 0, &c->params.num_queries); }},
    {"nmo", "N", "objects changing velocity per step", false,
     [](Value v, Config* c) {
       return Int(v, 0, &c->params.velocity_changes_per_step);
     }},
    {"alpha", "F", "grid cell side (miles)", false,
     [](Value v, Config* c) { return Positive(v, &c->params.alpha); }},
    {"area", "F", "area of the universe (square miles)", false,
     [](Value v, Config* c) {
       return Positive(v, &c->params.area_square_miles);
     }},
    {"alen", "F", "base station cell side (miles)", false,
     [](Value v, Config* c) {
       return Positive(v, &c->params.base_station_side);
     }},
    {"warmup", "N", "unmeasured steps before the run", false,
     [](Value v, Config* c) { return Int(v, 0, &c->warmup_steps); }},
    {"seed", "N", "workload seed", false,
     [](Value v, Config* c) { return Number(v, &c->params.seed); }},
    {"delta", "F", "dead-reckoning threshold (miles)", false,
     [](Value v, Config* c) {
       return Positive(v, &c->params.dead_reckoning_threshold);
     }},
    {"radius-factor", "F", "scale on every query radius", false,
     [](Value v, Config* c) { return Positive(v, &c->params.radius_factor); }},
    {"selectivity", "F", "query filter selectivity in [0, 1]", false,
     [](Value v, Config* c) { return Rate(v, &c->params.query_selectivity); }},
    {"hotspots", nullptr, "skewed initial object positions", false,
     [](Value, Config* c) {
       return Set(&c->params.object_distribution, ObjectDistribution::kHotspot);
     }},
    {"safe-period", nullptr, "safe periods (paper §4.2)", false,
     [](Value, Config* c) {
       return Set(&c->mobieyes.enable_safe_period, true);
     }},
    {"no-grouping", nullptr, "no query grouping (paper §4.1)", false,
     [](Value, Config* c) {
       return Set(&c->mobieyes.enable_query_grouping, false);
     }},
    {"no-error", nullptr, "skip the per-step oracle comparison", false,
     [](Value, Config* c) { return Set(&c->measure_error, false); }},
    {"no-bytes", nullptr, "skip the per-object byte counters", false,
     [](Value, Config* c) { return Set(&c->track_per_object_bytes, false); }},

    // Fault injection and the hardened protocol (DESIGN.md §8).
    {"drop-rate", "F", "drop probability, both directions", true,
     [](Value v, Config* c) {
       return Rate(v, &c->faults.uplink_drop_rate) &&
              Rate(v, &c->faults.downlink_drop_rate);
     }},
    {"delay-steps", "N",
     "longest delivery delay (rate 0.2 unless --delay-rate)", true,
     [](Value v, Config* c) { return Int(v, 0, &c->faults.max_delay_steps); }},
    {"delay-rate", "F", "probability a message is delayed", true,
     [](Value v, Config* c) { return Rate(v, &c->faults.delay_rate); }},
    {"dup-rate", "F", "probability a message is duplicated", true,
     [](Value v, Config* c) { return Rate(v, &c->faults.duplicate_rate); }},
    {"outage", "P:D", "stations dark D of every P steps, staggered", true,
     [](Value v, Config* c) {
       std::vector<Value> f = Fields(v);
       return f.size() == 2 && Int(f[0], 0, &c->faults.outage_period_steps) &&
              Int(f[1], 0, &c->faults.outage_duration_steps);
     }},
    {"disconnect", "R:P:D", "objects offline D of every P steps w.p. R", true,
     [](Value v, Config* c) {
       std::vector<Value> f = Fields(v);
       return f.size() == 3 && Rate(f[0], &c->faults.disconnect_rate) &&
              Int(f[1], 0, &c->faults.disconnect_period_steps) &&
              Int(f[2], 0, &c->faults.disconnect_duration_steps);
     }},
    {"fault-seed", "N", "fault plan seed", true,
     [](Value v, Config* c) { return Number(v, &c->faults.seed); }},
    {"harden", nullptr, "acks, leases and reconciliation", true,
     [](Value, Config* c) {
       c->mobieyes = core::HardenedOptions(c->mobieyes, c->params.time_step);
       return true;
     }},

    // Crash recovery (DESIGN.md §9).
    {"server-crash", "S:R", "kill the server at step S, restore R later", true,
     [](Value v, Config* c) {
       std::vector<Value> f = Fields(v);
       return f.size() == 2 && Int(f[0], 0, &c->faults.server_crash_step) &&
              Int(f[1], 0, &c->faults.server_recovery_steps);
     }},
    {"client-restart-rate", "F",
     "per-object per-step restart probability", true,
     [](Value v, Config* c) {
       return Rate(v, &c->faults.client_restart_rate);
     }},
    {"checkpoint-stride", "N", "checkpoint every N steps (0: none)", true,
     [](Value v, Config* c) { return Int(v, 0, &c->checkpoint_stride); }},

    // Server shards and the process transport (DESIGN.md §10, §13, §14).
    {"shards", "N", "shards over bands of grid rows (1: monolith)", true,
     [](Value v, Config* c) {
       return Int(v, 1, &c->mobieyes.sharding.num_shards);
     }},
    {"shard-transport", "inproc|process",
     "shards in-process or as daemons", true,
     [](Value v, Config* c) {
       using Kind = Config::ShardTransport;
       if (v == "inproc") return Set(&c->shard_transport, Kind::kInProcess);
       if (v == "process") return Set(&c->shard_transport, Kind::kProcess);
       return false;
     }},
    {"shardd", "PATH", "shard daemon binary", true,
     [](Value v, Config* c) { return Set(&c->supervisor.shardd_path, v); }},
    {"shard-kill", "S:K", "SIGKILL shard K's daemon at step S", true,
     [](Value v, Config* c) {
       std::vector<Value> f = Fields(v);
       return f.size() == 2 && Int(f[0], 0, &c->shard_kill_step) &&
              Int(f[1], 0, &c->shard_kill_index);
     }},
    {"shard-authority", nullptr, "daemons answer the RQI scans", true,
     [](Value, Config* c) { return Set(&c->shard_authority, true); }},
    {"backplane-fault", "SPEC",
     "drop=F,delay=F:N,trunc=F,flip=F,kill=S:K,seed=N", true,
     [](Value v, Config* c) {
       const std::string spec(v);
       return net::ParseBackplaneFaultSpec(spec, &c->backplane_fault).ok();
     }},
};

// Help text starts in this column.
constexpr size_t kHelpColumn = 30;

}  // namespace

std::span<const ConfigFlag> ConfigFlags() { return kFlags; }

const ConfigFlag* FindConfigFlag(std::string_view arg) {
  if (!arg.starts_with("--")) return nullptr;
  const std::string_view name = arg.substr(2, arg.find('=') - 2);
  for (const ConfigFlag& flag : kFlags) {
    if (name == flag.name) return &flag;
  }
  return nullptr;
}

Status ApplyConfigFlags(const std::vector<std::string>& args,
                        SimulationConfig* config) {
  bool delay_steps = false;
  bool delay_rate = false;
  for (const std::string& arg : args) {
    const ConfigFlag* flag = FindConfigFlag(arg);
    if (flag == nullptr) return Status::InvalidArgument("unknown flag " + arg);
    const size_t eq = arg.find('=');
    const std::string_view value =
        eq == std::string::npos ? "" : std::string_view(arg).substr(eq + 1);
    // A switch takes no value; every other flag needs one.
    const bool misshapen =
        flag->value == nullptr ? eq != std::string::npos : value.empty();
    if (misshapen || !flag->apply(value, config)) {
      return Status::InvalidArgument(
          "bad flag " + arg + " (want --" + flag->name +
          (flag->value == nullptr ? "" : std::string("=") + flag->value) +
          ": " + flag->help + ")");
    }
    delay_steps |= flag->name == std::string_view("delay-steps");
    delay_rate |= flag->name == std::string_view("delay-rate");
  }
  // A bare --delay-steps should delay something.
  if (delay_steps && !delay_rate && config->faults.max_delay_steps > 0) {
    config->faults.delay_rate = 0.2;
  }
  return Status::OK();
}

std::string ConfigFlagUsage(bool sweep_only) {
  std::string usage;
  for (const ConfigFlag& flag : kFlags) {
    if (sweep_only && !flag.sweep) continue;
    std::string line = std::string("  --") + flag.name;
    if (flag.value != nullptr) line += std::string("=") + flag.value;
    line += line.size() < kHelpColumn
                ? std::string(kHelpColumn - line.size(), ' ')
                : "\n" + std::string(kHelpColumn, ' ');
    usage += line + flag.help + "\n";
  }
  return usage;
}

bool FlagValue(std::string_view arg, std::string_view prefix,
               std::string_view* value) {
  if (!arg.starts_with(prefix)) return false;
  *value = arg.substr(prefix.size());
  return true;
}

bool ParseIntFlag(std::string_view text, int min, int* out) {
  return Int(text, min, out);
}

}  // namespace mobieyes::sim
