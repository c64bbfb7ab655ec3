// One SoC run of craft-bench: elaborate a soc::SocTop for one of the three
// workloads, warm it up, time a seed-ordered sequence of kernel launches
// through soc::RunWorkload and fingerprint the simulated outcome; or, for
// set-up time, elaborate once in a fresh process. Everything is observed
// from outside the simulator through its public API.
#pragma once

#include <cstdint>
#include <string>

namespace craftbench {

struct SocRunOptions {
  std::string workload;       ///< soc_fast | soc_rtl | soc_verify
  std::uint64_t seed = 1;
  double seconds = 10.0;      ///< sizes the number of timed rounds
  bool traced = false;        ///< stats accounting + spans + attribution
  int parallelism = -1;       ///< engine override; -1 keeps the workload's
  bool fast_mode = false;     ///< force rtl_cosim off (Fig. 6 fast side)
  unsigned max_rounds = 0;    ///< replay only the first N timed rounds
  std::string wrong_golden;   ///< kernel whose golden compare is made to fail
  std::string spans_out;      ///< traced: file the span log is written to
};

/// Runs the configuration and prints one craft-bench-run-v1 JSON line to
/// stdout. Returns 0 when every launch passed, 1 when any failed, 2 on a
/// usage error.
int RunSoc(const SocRunOptions& opt);

/// Elaborates the workload's SoC once, in this fresh process, and prints its
/// set-up times as one craft-bench-setup-v1 JSON line.
int RunSetup(const SocRunOptions& opt);

}  // namespace craftbench
