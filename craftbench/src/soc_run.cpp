#include "soc_run.hpp"

#include <cmath>
#include <fstream>
#include <map>
#include <memory>
#include <stdexcept>
#include <vector>

#include "chaos/campaign.hpp"
#include "common.hpp"
#include "connections/channel_control.hpp"
#include "lint/ref_designs.hpp"
#include "soc/workloads.hpp"

namespace craftbench {
namespace {

using namespace craft;
using namespace craft::literals;

/// Simulated-time budget of one launch. The longest launch (conv2d on the
/// 3x3 mesh under latency faults) needs about 60 us, so a launch that misses
/// this deadline is hung, not slow.
constexpr Time kLaunchDeadline = 250_us;

/// Kernels launched once, in this fixed order, before timing starts.
const std::vector<std::string> kWarmup = {"reduce", "dma_copy"};

struct WorkloadSpec {
  std::string name;
  /// Host seconds one round (every kernel once) takes on the reference host
  /// (4 cores, Release build); the timed section runs
  /// round(seconds / nominal_round_s) rounds, at least kMinRounds. A fixed
  /// count, not a timer, so the launch multiset and every simulated
  /// statistic are the same on any host.
  double nominal_round_s;
};

/// run.py reports the median over rounds, so there are always a few.
constexpr unsigned kMinRounds = 2;

const std::vector<WorkloadSpec>& Specs() {
  static const std::vector<WorkloadSpec> specs = {
      {"soc_fast", 1.0}, {"soc_rtl", 10.0}, {"soc_verify", 12.0}};
  return specs;
}

soc::SocConfig ConfigFor(const SocRunOptions& opt) {
  soc::SocConfig cfg;
  if (opt.workload == "soc_verify") {
    for (const lint::RefDesign& d : lint::ReferenceDesigns()) {
      if (d.name == "soc_gals_3x3") cfg = *d.soc_cfg;
    }
  } else if (opt.workload == "soc_rtl") {
    cfg.rtl_cosim = true;
    cfg.parallelism = 4;
  }
  if (opt.fast_mode) cfg.rtl_cosim = false;
  if (opt.parallelism >= 0) cfg.parallelism = static_cast<unsigned>(opt.parallelism);
  return cfg;
}

// ---------------- spans ----------------

struct Span {
  std::string name;
  int parent;  ///< index into the log, -1 for a root
  double t0, t1;
};

/// Spans kept in memory and written out once, at exit.
class SpanLog {
 public:
  explicit SpanLog(bool on) : on_(on), origin_(WallClock::now()) {}
  bool on() const { return on_; }
  double Now() const { return SecondsSince(origin_); }
  int Add(std::string name, int parent, double t0, double t1) {
    if (!on_) return -1;
    spans_.push_back(Span{std::move(name), parent, t0, t1});
    return static_cast<int>(spans_.size()) - 1;
  }
  void Close(int id, double t1) {
    if (id >= 0) spans_[static_cast<std::size_t>(id)].t1 = t1;
  }
  /// Chrome trace-event JSON (complete events, microseconds).
  bool Write(const std::string& path) const {
    std::ofstream f(path);
    if (!f) return false;
    craft::json::Writer w;
    w.Raw("{\"traceEvents\": [");
    bool first = true;
    char buf[96];
    for (const Span& s : spans_) {
      w.Sep(&first, "\n", ",\n").Raw("{").Key("name").String(s.name);
      std::snprintf(buf, sizeof(buf),
                    ", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": %.3f, \"dur\": %.3f",
                    s.t0 * 1e6, (s.t1 - s.t0) * 1e6);
      w.Raw(buf).Raw(", ").Key("args").Raw("{").Key("parent").String(
          s.parent < 0 ? "" : spans_[static_cast<std::size_t>(s.parent)].name);
      w.Raw("}}");
    }
    w.Raw("\n]}\n");
    f << w.str();
    return static_cast<bool>(f);
  }

 private:
  bool on_;
  WallClock::time_point origin_;
  std::vector<Span> spans_;
};

// ---------------- elaboration ----------------

struct Elaborated {
  std::unique_ptr<Simulator> sim;
  std::unique_ptr<soc::SocTop> soc;  // destroyed before sim
  double elaborate_s = 0.0;
  double initial_eval_s = 0.0;
};

/// From an empty Simulator to a SoC ready for its first command.
Elaborated Elaborate(const SocRunOptions& opt, const soc::SocConfig& cfg) {
  Elaborated e;
  const auto t0 = WallClock::now();
  e.sim = std::make_unique<Simulator>();
  Simulator& sim = *e.sim;
  if (cfg.parallelism == 0) sim.SetParallelism(0);  // ignore CRAFT_PARALLELISM
  if (opt.traced) sim.stats().Enable();
  if (opt.workload == "soc_verify") {
    sim.stats().Enable();
    sim.cover().Enable();
    sim.chaos().Enable(chaos::SocLatencyPlan(opt.seed));
  }
  e.soc = std::make_unique<soc::SocTop>(sim, cfg);
  const auto t1 = WallClock::now();
  sim.Run(0);  // initial evaluation (and engine start-up when parallel)
  e.elaborate_s = std::chrono::duration<double>(t1 - t0).count();
  e.initial_eval_s = SecondsSince(t1);
  return e;
}

// ---------------- counters ----------------

const char* Category(const std::string& n) {
  if (n.find(".cdc.") != std::string::npos) return "gals";
  if (n.rfind("soc.noc.r", 0) == 0) return "router";
  if (n.find(".ni.") != std::string::npos) return "ni";
  if (n.rfind("soc.ctrl.", 0) == 0) return "ctrl";
  if (n.rfind("soc.gm.", 0) == 0) return "gm";
  if (n.rfind("soc.pe", 0) == 0) return "pe";
  if (n.rfind("soc.rtl_load", 0) == 0) return "rtl_load";
  return "other";
}

/// Cumulative counts, and process wall seconds by category ("wall.*").
using Counters = std::map<std::string, double>;

Counters Snapshot(Elaborated& e) {
  Simulator& sim = *e.sim;
  Counters u;
  u["dispatches"] = static_cast<double>(sim.dispatch_count());
  u["deltas"] = static_cast<double>(sim.delta_count());
  u["timed_fired"] = static_cast<double>(sim.timed_fired());
  for (const char* k : {"thread_dispatches", "method_dispatches", "wall.thread", "wall.method",
                        "wall.gals", "wall.router", "wall.ni", "wall.ctrl", "wall.gm", "wall.pe",
                        "wall.rtl_load", "wall.other", "channel_transfers", "stall_cycles",
                        "crossing_transfers", "rtl_signal_writes"}) {
    u[k] = 0.0;
  }
  for (const auto& p : sim.processes()) {
    const bool thread = dynamic_cast<const ThreadProcess*>(p.get()) != nullptr;
    const double wall_s = static_cast<double>(p->stat_wall_ns) * 1e-9;
    u[thread ? "thread_dispatches" : "method_dispatches"] +=
        static_cast<double>(p->stat_dispatches);
    u[thread ? "wall.thread" : "wall.method"] += wall_s;
    u[std::string("wall.") + Category(p->name())] += wall_s;
    // Each RTL-emulator toggle dispatch writes every signal of its node.
    if (p->name().rfind("soc.rtl_load", 0) == 0 && p->name().ends_with(".toggle")) {
      u["rtl_signal_writes"] += static_cast<double>(p->stat_dispatches) *
                                e.soc->config().rtl_signals_per_node;
    }
  }
  u["instret"] = static_cast<double>(e.soc->controller().cpu().instret());
  u["noc_flits"] = static_cast<double>(e.soc->noc().total_flits_forwarded());
  u["channel_transfers"] = static_cast<double>(connections::ChannelControl::TotalTransfers());
  for (const auto& [name, ch] : sim.stats().channels()) {
    u["stall_cycles"] += static_cast<double>(ch.full_stall_cycles + ch.empty_stall_cycles);
  }
  for (const auto& [name, x] : sim.stats().crossings()) {
    u["crossing_transfers"] += static_cast<double>(x.transfers);
  }
  const ChaosEngine::LatencyTotals lt = sim.chaos().latency_totals();
  u["chaos_injections"] = static_cast<double>(lt.channel_stall_cycles + lt.crossing_holds +
                                              lt.retimer_delays + lt.wakeup_deferrals);
  return u;
}

std::string CountersJson(const Counters& before, const Counters& after) {
  JsonLine j;
  for (const auto& [k, v] : after) {
    const auto it = before.find(k);
    j.Num(k, v - (it == before.end() ? 0.0 : it->second));
  }
  return j.Take();
}

std::uint64_t GmDigest(soc::SocTop& soc) {
  std::uint64_t h = 1469598103934665603ull;  // FNV-1a over every GM word
  for (std::uint64_t w : soc.gm().mem().raw()) {
    for (int b = 0; b < 8; ++b) {
      h ^= (w >> (8 * b)) & 0xFF;
      h *= 1099511628211ull;
    }
  }
  return h;
}

// ---------------- launches ----------------

struct Launch {
  std::string name;
  std::uint64_t cycles = 0;
  double wall_s = 0.0;
  bool ok = false;
  bool aborted = false;  ///< SimError: the simulator state is no longer usable
  std::string error;
};

std::string LaunchesJson(const std::vector<Launch>& ls) {
  std::string s = "[";
  for (std::size_t i = 0; i < ls.size(); ++i) {
    JsonLine j;
    j.Str("name", ls[i].name).U64("cycles", ls[i].cycles).Num("wall_s", ls[i].wall_s)
        .Bool("ok", ls[i].ok);
    if (!ls[i].ok) j.Str("error", ls[i].error);
    s += (i == 0 ? "" : ", ") + j.Take();
  }
  return s + "]";
}

/// Seed-shuffled rounds; each round launches every kernel exactly once.
std::vector<std::size_t> LaunchOrder(std::uint64_t seed, unsigned rounds, std::size_t kernels) {
  Rng rng(seed * 0x9E3779B97F4A7C15ull + 0x632BE59BD9B4E019ull);
  std::vector<std::size_t> order;
  for (unsigned r = 0; r < rounds; ++r) {
    std::vector<std::size_t> round(kernels);
    for (std::size_t k = 0; k < kernels; ++k) round[k] = k;
    for (std::size_t k = kernels - 1; k > 0; --k) {
      std::swap(round[k], round[rng.NextBelow(k + 1)]);
    }
    order.insert(order.end(), round.begin(), round.end());
  }
  return order;
}

class Runner {
 public:
  Runner(const SocRunOptions& opt, SpanLog& spans) : opt_(opt), spans_(spans) {}

  Launch Run(soc::SocTop& soc, const soc::Workload& base, int parent) {
    soc::Workload w = base;
    if (base.name == opt_.wrong_golden) {
      // Compare against a perturbed golden value: the (correct) output can
      // no longer match it, so the launch must be counted as failed.
      w.check = [check = base.check](soc::SocTop& s, std::string* err) {
        check(s, err);
        *err = "output differs from the perturbed golden value";
        return false;
      };
    }
    Launch l;
    l.name = base.name;
    const double t0 = spans_.Now();
    const int id = spans_.Add("launch:" + base.name, parent, t0, t0);
    if (spans_.on()) Instrument(w, id);
    const auto start = WallClock::now();
    try {
      const soc::WorkloadRun r = soc::RunWorkload(soc, w, kLaunchDeadline);
      l.cycles = r.cycles;
      l.ok = r.ok;
      l.error = r.error;
    } catch (const SimError& e) {
      l.aborted = true;
      l.error = e.what();
    }
    l.wall_s = SecondsSince(start);
    spans_.Close(id, spans_.Now());
    return l;
  }

  /// Host seconds spent simulating (between command generation and the
  /// golden check) in traced launches.
  double run_wall_s() const { return run_wall_s_; }

 private:
  void Instrument(soc::Workload& w, int parent) {
    auto cmd_end = std::make_shared<double>(0.0);
    w.setup = [this, parent, f = w.setup](soc::SocTop& s) {
      const double t0 = spans_.Now();
      f(s);
      spans_.Add("setup", parent, t0, spans_.Now());
    };
    w.commands = [this, parent, cmd_end, f = w.commands](soc::SocTop& s) {
      const double t0 = spans_.Now();
      auto cmds = f(s);
      *cmd_end = spans_.Now();
      spans_.Add("commands", parent, t0, *cmd_end);
      return cmds;
    };
    w.check = [this, parent, cmd_end, f = w.check](soc::SocTop& s, std::string* err) {
      const double t0 = spans_.Now();
      spans_.Add("run", parent, *cmd_end, t0);
      run_wall_s_ += t0 - *cmd_end;
      const bool ok = f(s, err);
      spans_.Add("check", parent, t0, spans_.Now());
      return ok;
    };
  }

  const SocRunOptions& opt_;
  SpanLog& spans_;
  double run_wall_s_ = 0.0;
};

const WorkloadSpec* FindSpec(const std::string& workload) {
  for (const WorkloadSpec& s : Specs()) {
    if (s.name == workload) return &s;
  }
  std::fprintf(stderr, "craft_bench: unknown workload '%s'\n", workload.c_str());
  return nullptr;
}

}  // namespace

int RunSetup(const SocRunOptions& opt) {
  if (FindSpec(opt.workload) == nullptr) return 2;
  const Elaborated e = Elaborate(opt, ConfigFor(opt));
  JsonLine doc;
  doc.Str("schema", "craft-bench-setup-v1")
      .Raw("build", BuildStamp())
      .Num("setup_s", e.elaborate_s + e.initial_eval_s)
      .Num("setup_elaborate_s", e.elaborate_s)
      .Num("setup_initial_eval_s", e.initial_eval_s);
  std::printf("%s\n", doc.Take().c_str());
  return 0;
}

int RunSoc(const SocRunOptions& opt) {
  const WorkloadSpec* spec = FindSpec(opt.workload);
  if (spec == nullptr) return 2;
  const soc::SocConfig cfg = ConfigFor(opt);
  const std::vector<soc::Workload> kernels = soc::AllWorkloads();
  auto find = [&](const std::string& name) -> const soc::Workload& {
    for (const soc::Workload& w : kernels) {
      if (w.name == name) return w;
    }
    throw std::invalid_argument("no kernel " + name);
  };
  unsigned rounds = std::max(
      kMinRounds, static_cast<unsigned>(std::round(opt.seconds / spec->nominal_round_s)));
  if (opt.max_rounds > 0) rounds = std::min(rounds, opt.max_rounds);
  const std::vector<std::size_t> order = LaunchOrder(opt.seed, rounds, kernels.size());

  SpanLog spans(opt.traced);
  Runner runner(opt, spans);
  double elaborate_s = 0.0, initial_eval_s = 0.0;
  std::vector<Launch> warmup, timed;
  Counters before, after;
  double timed_wall_s = 0.0, cpu_s = 0.0;
  std::string fingerprint;
  bool aborted = false;
  std::size_t processes = 0;
  {
    const double t0 = spans.Now();
    Elaborated e = Elaborate(opt, cfg);
    spans.Add("elaborate", -1, t0, t0 + e.elaborate_s);
    spans.Add("initial_eval", -1, t0 + e.elaborate_s, spans.Now());
    elaborate_s = e.elaborate_s;
    initial_eval_s = e.initial_eval_s;
    processes = e.sim->processes().size();

    const int warm_span = spans.Add("warmup", -1, spans.Now(), 0.0);
    for (const std::string& name : kWarmup) {
      warmup.push_back(runner.Run(*e.soc, find(name), warm_span));
      if ((aborted = warmup.back().aborted)) break;
    }
    spans.Close(warm_span, spans.Now());

    before = Snapshot(e);
    const double wall_before_run = runner.run_wall_s();
    const int timed_span = spans.Add("timed", -1, spans.Now(), 0.0);
    const double cpu0 = ProcessCpuSeconds();
    const auto start = WallClock::now();
    for (std::size_t i = 0; i < order.size() && !aborted; ++i) {
      timed.push_back(runner.Run(*e.soc, kernels[order[i]], timed_span));
      aborted = timed.back().aborted;
    }
    timed_wall_s = SecondsSince(start);
    cpu_s = ProcessCpuSeconds() - cpu0;
    spans.Close(timed_span, spans.Now());
    after = Snapshot(e);
    after["run_wall_s"] = runner.run_wall_s() - wall_before_run;

    JsonLine fp;
    std::vector<double> cycles;
    for (const Launch& l : timed) cycles.push_back(static_cast<double>(l.cycles));
    char digest[24];
    std::snprintf(digest, sizeof(digest), "%016llx",
                  static_cast<unsigned long long>(GmDigest(*e.soc)));
    fp.Raw("cycles", NumArray(cycles)).Str("gm_digest", digest)
        .U64("instret", e.soc->controller().cpu().instret())
        .U64("noc_flits", e.soc->noc().total_flits_forwarded())
        .U64("channel_transfers", connections::ChannelControl::TotalTransfers());
    if (e.sim->stats().enabled()) {
      fp.U64("crossing_transfers", static_cast<std::uint64_t>(after["crossing_transfers"]));
    } else {
      fp.Raw("crossing_transfers", "null");  // counted only with stats enabled
    }
    fingerprint = fp.Take();
  }

  std::uint64_t attempted = 0, failed = 0, timed_cycles = 0;
  for (const auto* ls : {&warmup, &timed}) {
    for (const Launch& l : *ls) {
      ++attempted;
      failed += l.ok ? 0 : 1;
    }
  }
  for (const Launch& l : timed) timed_cycles += l.cycles;

  JsonLine config;
  config.Str("workload", opt.workload).U64("seed", opt.seed)
      .U64("mesh_width", cfg.mesh_width).U64("mesh_height", cfg.mesh_height)
      .Bool("rtl_cosim", cfg.rtl_cosim).U64("parallelism", cfg.parallelism)
      .Bool("traced", opt.traced).U64("rounds", rounds).U64("processes", processes);
  JsonLine doc;
  doc.Str("schema", "craft-bench-run-v1")
      .Raw("build", BuildStamp())
      .Raw("config", config.Take())
      .U64("attempted", attempted)
      .U64("failed", failed)
      .Raw("warmup", LaunchesJson(warmup))
      .Raw("launches", LaunchesJson(timed))
      .U64("timed_cycles", timed_cycles)
      .Num("timed_wall_s", timed_wall_s)
      .Num("cpu_s", cpu_s)
      .Num("setup_s", elaborate_s + initial_eval_s)
      .Num("setup_elaborate_s", elaborate_s)
      .Num("setup_initial_eval_s", initial_eval_s)
      .Num("peak_rss_mb", PeakRssMiB())
      .Raw("counters", CountersJson(before, after))
      .Raw("fingerprint", fingerprint);
  if (!opt.spans_out.empty() && !spans.Write(opt.spans_out)) {
    std::fprintf(stderr, "craft_bench: cannot write %s\n", opt.spans_out.c_str());
    return 2;
  }
  std::printf("%s\n", doc.Take().c_str());
  return failed == 0 ? 0 : 1;
}

}  // namespace craftbench
