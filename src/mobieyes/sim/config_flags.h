#ifndef MOBIEYES_SIM_CONFIG_FLAGS_H_
#define MOBIEYES_SIM_CONFIG_FLAGS_H_

// The command-line flags that edit a SimulationConfig, in one table shared
// by tools/mobieyes_sim and the bench harness (bench/bench_common.h). Each
// entry names a flag, validates its value strictly and applies it as an
// edit of the config, so both CLIs spell a knob the same way and reject the
// same malformed values. Flags that only steer a CLI's own output (--steps,
// --json, --trace, ...) stay with that CLI.

#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "mobieyes/common/status.h"
#include "mobieyes/sim/simulation.h"

namespace mobieyes::sim {

struct ConfigFlag {
  const char* name;   // spelled "--name" or "--name=VALUE"
  const char* value;  // VALUE placeholder; null for a switch
  const char* help;
  // Benches take the flag too and replay it onto every sweep cell; the
  // others (workload shape, mode, protocol toggles) are mobieyes_sim's,
  // since a bench sweeps those itself.
  bool sweep;
  // Edits `config`; false when `value` is malformed (the config may then be
  // partly edited).
  bool (*apply)(std::string_view value, SimulationConfig* config);
};

// Every config flag, in usage order.
std::span<const ConfigFlag> ConfigFlags();

// The table entry `arg` ("--name" or "--name=value") names, or null.
const ConfigFlag* FindConfigFlag(std::string_view arg);

// Applies `args` to *config in order, then the one rule that spans flags:
// --delay-steps without --delay-rate delays with probability 0.2. Returns
// InvalidArgument naming the first unknown flag or malformed value.
Status ApplyConfigFlags(const std::vector<std::string>& args,
                        SimulationConfig* config);

// One "  --name=VALUE  help" line per flag, in table order; only the sweep
// flags when `sweep_only`.
std::string ConfigFlagUsage(bool sweep_only);

// For a CLI's own flags: true when `arg` is `prefix` ("--name=") followed
// by a value, which lands in *value.
bool FlagValue(std::string_view arg, std::string_view prefix,
               std::string_view* value);

// Strict parse for a CLI's own integer flags: all of `text` must be an
// integer >= min.
bool ParseIntFlag(std::string_view text, int min, int* out);

}  // namespace mobieyes::sim

#endif  // MOBIEYES_SIM_CONFIG_FLAGS_H_
