// craft_bench: the measuring half of craft-bench. Each invocation runs one
// configuration in a fresh process and prints one JSON line; run.py builds
// this binary, composes invocations into a workload run, and reports.
//
//   craft_bench soc --workload soc_fast --seed 3 --seconds 10 [--traced]
//   craft_bench setup --workload soc_fast --seed 3
//   craft_bench layers --seed 3
#include <string>
#include <vector>

#include "layers.hpp"
#include "soc_run.hpp"
#include "support/cli.hpp"

namespace {

constexpr const char* kUsage =
    "usage: craft_bench soc --workload soc_fast|soc_rtl|soc_verify --seed N\n"
    "                       [--seconds S] [--traced] [--parallelism N] [--fast]\n"
    "                       [--rounds N] [--wrong-golden KERNEL] [--spans FILE]\n"
    "       craft_bench setup --workload soc_fast|soc_rtl|soc_verify --seed N\n"
    "       craft_bench layers --seed N\n";

}  // namespace

int main(int argc, char** argv) {
  namespace cli = craft::cli;
  craftbench::SocRunOptions opt;
  std::vector<std::string> command;
  unsigned parallelism = 0;
  bool parallelism_seen = false;
  cli::Parser p("craft_bench", kUsage);
  p.Positionals(&command);
  p.Choice("--workload", &opt.workload, {"soc_fast", "soc_rtl", "soc_verify"});
  p.U64("--seed", &opt.seed);
  p.F64("--seconds", &opt.seconds);
  p.Flag("--traced", &opt.traced);
  p.U32("--parallelism", &parallelism, &parallelism_seen);
  p.Flag("--fast", &opt.fast_mode);
  p.U32("--rounds", &opt.max_rounds);
  p.Str("--wrong-golden", &opt.wrong_golden);
  p.Str("--spans", &opt.spans_out);
  if (auto s = p.Parse(argc, argv); s != cli::Status::kContinue) return cli::ExitCode(s);
  if (parallelism_seen) opt.parallelism = static_cast<int>(parallelism);

  if (command.size() == 1 && (command[0] == "soc" || command[0] == "setup")) {
    if (opt.workload.empty()) return cli::ExitCode(p.UsageError("needs --workload"));
    return command[0] == "soc" ? craftbench::RunSoc(opt) : craftbench::RunSetup(opt);
  }
  if (command.size() == 1 && command[0] == "layers") return craftbench::RunLayers(opt.seed);
  return cli::ExitCode(p.UsageError("expected the command soc, setup or layers"));
}
