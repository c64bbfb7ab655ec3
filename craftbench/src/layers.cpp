#include "layers.hpp"

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common.hpp"
#include "connections/connections.hpp"
#include "gals/clock_gen.hpp"
#include "gals/pausible_fifo.hpp"
#include "kernel/kernel.hpp"
#include "matchlib/float.hpp"
#include "matchlib/routers.hpp"
#include "riscv/assembler.hpp"
#include "riscv/cpu.hpp"

namespace craftbench {
namespace {

using namespace craft;
using namespace craft::literals;

/// Keeps a computed value observable so the measured loop is not removed.
template <typename T>
void Keep(const T& v) {
  asm volatile("" : : "g"(&v) : "memory");
}

/// One repetition of a microkernel: host nanoseconds per operation.
using Kernel = std::function<double()>;

double NsPer(WallClock::time_point t0, double ops) { return SecondsSince(t0) * 1e9 / ops; }

// ---- kernel ----

double FiberRoundtrip() {
  constexpr int kN = 50000;
  Fiber f([] {
    for (;;) Fiber::Suspend();
  });
  f.resume();
  const auto t0 = WallClock::now();
  for (int i = 0; i < kN; ++i) f.resume();
  return NsPer(t0, kN);
}

/// Schedules and fires one timed event per step, each scheduling the next.
double TimedEvent() {
  constexpr std::uint64_t kN = 1000000;
  Simulator sim;
  struct Tick {
    Simulator* sim;
    std::uint64_t* left;
    void operator()() const {
      if (--*left > 0) sim->ScheduleAt(sim->now() + 1, *this);
    }
  };
  std::uint64_t left = kN;
  sim.ScheduleAt(1, Tick{&sim, &left});
  const auto t0 = WallClock::now();
  sim.Run(kN + 1);
  return NsPer(t0, kN);
}

double ClockEdge() {
  constexpr std::uint64_t kEdges = 1000000;
  Simulator sim;
  Clock clk(sim, "clk", 1_ns);
  sim.Run(0);
  const auto t0 = WallClock::now();
  sim.Run(kEdges * 1_ns);
  return NsPer(t0, static_cast<double>(clk.cycle()));
}

/// One signal write, its update-phase commit and, when `watched`, the wake
/// and dispatch of the one method sensitive to it; a clocked method writes
/// every signal.
double SignalUpdate(bool watched) {
  constexpr unsigned kSignals = 256;
  constexpr std::uint64_t kCycles = 8000;
  Simulator sim;
  Clock clk(sim, "clk", 1_ns);
  struct Fanout : Module {
    Fanout(Simulator& s, Clock& clk, bool watched) : Module(s, "fanout") {
      for (unsigned i = 0; i < kSignals; ++i) {
        sigs.push_back(std::make_unique<Signal<std::uint32_t>>(
            s, full_name() + ".s" + std::to_string(i), 0));
        if (!watched) continue;
        Signal<std::uint32_t>* sig = sigs.back().get();
        MethodProcess& m = Method("watch" + std::to_string(i), [this, sig] {
          sum += sig->read();
        });
        m.SetAffinity(clk);
        sig->AddSensitive(m);
      }
      Method("toggle", [this] {
        ++cycle;
        for (auto& s : sigs) s->write(cycle);
      }).SensitiveTo(clk);
    }
    std::vector<std::unique_ptr<Signal<std::uint32_t>>> sigs;
    std::uint32_t cycle = 0;
    std::uint64_t sum = 0;
  } top(sim, clk, watched);
  sim.Run(0);
  const auto t0 = WallClock::now();
  sim.Run(kCycles * 1_ns);
  Keep(top.sum);
  return NsPer(t0, static_cast<double>(clk.cycle() * kSignals));
}

// ---- connections ----

/// Blocking Push/Pop through one sim-accurate Buffer, producer and consumer
/// threads on one clock; `probed` enables the stats and cover registries.
double Transfer(bool probed) {
  constexpr int kN = 20000;
  Simulator sim;
  if (probed) {
    sim.stats().Enable();
    sim.cover().Enable();
  }
  Clock clk(sim, "clk", 1_ns);
  Module top(sim, "top");
  connections::Buffer<int> ch(top, "ch", clk, 4);
  struct Tb : Module {
    Tb(Module& p, Clock& clk, connections::Buffer<int>& ch) : Module(p, "tb") {
      Thread("prod", clk, [&ch] {
        for (int i = 0; i < kN; ++i) ch.Push(i);
      });
      Thread("cons", clk, [this, &ch] {
        for (int i = 0; i < kN; ++i) sum += ch.Pop();
        done = true;
        Simulator::Current().Stop();
      });
    }
    std::int64_t sum = 0;
    bool done = false;
  } tb(top, clk, ch);
  const auto t0 = WallClock::now();
  sim.Run(1_ms);
  CRAFT_ASSERT(tb.done, "microkernel did not finish its transfers");
  Keep(tb.sum);
  return NsPer(t0, kN);
}

// ---- gals ----

/// Push/Pop across a PausibleBisyncFifo between two local clock generators.
double CrossingTransfer() {
  constexpr int kN = 10000;
  Simulator sim;
  gals::ClockGenConfig pc, cc;
  pc.seed = 1;
  cc.static_offset = 0.03;
  cc.noise_amplitude = 0.04;
  cc.seed = 2;
  gals::LocalClockGenerator pclk(sim, "pclk", pc), cclk(sim, "cclk", cc);
  Module top(sim, "top");
  connections::Buffer<int> ingress(top, "ingress", pclk, 2), egress(top, "egress", cclk, 2);
  gals::PausibleBisyncFifo<int> fifo(top, "cdc", pclk, cclk);
  fifo.in(ingress);
  fifo.out(egress);
  struct Tb : Module {
    Tb(Module& p, Clock& pclk, Clock& cclk, connections::Buffer<int>& in,
       connections::Buffer<int>& out)
        : Module(p, "tb") {
      Thread("prod", pclk, [&in] {
        for (int i = 0; i < kN; ++i) in.Push(i);
      });
      Thread("cons", cclk, [this, &out] {
        for (int i = 0; i < kN; ++i) sum += out.Pop();
        done = true;
        Simulator::Current().Stop();
      });
    }
    std::int64_t sum = 0;
    bool done = false;
  } tb(top, pclk, cclk, ingress, egress);
  const auto t0 = WallClock::now();
  sim.Run(1_ms);
  CRAFT_ASSERT(tb.done, "microkernel did not finish its transfers");
  Keep(tb.sum);
  return NsPer(t0, kN);
}

// ---- matchlib ----

/// Four-flit packets through a chain of WHVC routers; cost per flit-hop.
double WhvcHop() {
  constexpr unsigned kHops = 4, kLen = 4;
  constexpr int kPackets = 1500;
  using Router = matchlib::WHVCRouter<2, 1>;
  using connections::Flit;
  Simulator sim;
  Clock clk(sim, "clk", 1_ns);
  Module top(sim, "top");
  connections::Buffer<Flit> inj(top, "inj", clk, 4), ej(top, "ej", clk, 4);
  std::vector<std::unique_ptr<Router>> routers;
  std::vector<std::unique_ptr<connections::Buffer<Flit>>> links;
  for (unsigned h = 0; h < kHops; ++h) {
    const bool last = h + 1 == kHops;
    const std::string name(1, static_cast<char>('0' + h));
    routers.push_back(std::make_unique<Router>(
        top, "r" + name, clk, [last](std::uint8_t) { return last ? 0u : 1u; }));
  }
  routers[0]->in[0][0](inj);
  for (unsigned h = 0; h + 1 < kHops; ++h) {
    const std::string name(1, static_cast<char>('0' + h));
    links.push_back(std::make_unique<connections::Buffer<Flit>>(top, "l" + name, clk, 2));
    routers[h]->out[1][0](*links.back());
    routers[h + 1]->in[1][0](*links.back());
  }
  routers[kHops - 1]->out[0][0](ej);
  struct Tb : Module {
    Tb(Module& p, Clock& clk, connections::Buffer<Flit>& inj, connections::Buffer<Flit>& ej)
        : Module(p, "tb") {
      Thread("src", clk, [&inj] {
        for (int pkt = 0; pkt < kPackets; ++pkt) {
          for (unsigned i = 0; i < kLen; ++i) {
            Flit f;
            f.payload = (static_cast<std::uint64_t>(pkt) << 16) | i;
            f.first = i == 0;
            f.last = i + 1 == kLen;
            f.dest = 0;
            inj.Push(f);
          }
        }
      });
      Thread("dst", clk, [this, &ej] {
        for (unsigned i = 0; i < kPackets * kLen; ++i) sum += ej.Pop().payload;
        done = true;
        Simulator::Current().Stop();
      });
    }
    std::uint64_t sum = 0;
    bool done = false;
  } tb(top, clk, inj, ej);
  const auto t0 = WallClock::now();
  sim.Run(1_ms);
  CRAFT_ASSERT(tb.done, "microkernel did not finish its transfers");
  Keep(tb.sum);
  return NsPer(t0, static_cast<double>(kPackets) * kLen * kHops);
}

double FpMulAddKernel() {
  using matchlib::Float32;
  constexpr std::size_t kN = 1500000;
  std::vector<Float32> xs;
  for (int i = 0; i < 64; ++i) {
    xs.push_back(Float32::FromFloat(0.25f * static_cast<float>(i - 31)));
  }
  Float32 acc = Float32::Zero();
  const auto t0 = WallClock::now();
  for (std::size_t i = 0; i < kN; ++i) acc = FpMulAdd(xs[i & 63], xs[(i * 7) & 63], acc);
  Keep(acc);
  return NsPer(t0, kN);
}

// ---- riscv ----

/// An ALU/branch loop on the ISS over a flat memory bus.
double IssInstr() {
  constexpr std::int32_t kIters = 800000;
  using namespace craft::riscv;
  const std::vector<std::uint32_t> prog = Assembler()
                                              .Li(t0, kIters)
                                              .Label("loop")
                                              .Addi(t1, t1, 3)
                                              .Xor(t2, t2, t1)
                                              .Addi(t0, t0, -1)
                                              .Bne(t0, zero, "loop")
                                              .Ebreak()
                                              .Assemble();
  FlatMemoryBus bus(64 * 1024);
  for (std::size_t i = 0; i < prog.size(); ++i) bus.words()[i] = prog[i];
  Cpu cpu;
  const auto t0 = WallClock::now();
  while (!cpu.halted()) cpu.Step(bus);
  const double ns = NsPer(t0, static_cast<double>(cpu.instret()));
  Keep(cpu.reg(t2));
  return ns;
}

}  // namespace

int RunLayers(std::uint64_t seed) {
  constexpr unsigned kReps = 7;
  const std::vector<std::pair<std::string, Kernel>> kernels = {
      {"kernel.fiber_roundtrip_ns", FiberRoundtrip},
      {"kernel.timed_event_ns", TimedEvent},
      {"kernel.clock_edge_ns", ClockEdge},
      {"kernel.signal_update_ns", [] { return SignalUpdate(true); }},
      {"kernel.signal_write_ns", [] { return SignalUpdate(false); }},
      {"connections.transfer_ns", [] { return Transfer(false); }},
      {"connections.transfer_probed_ns", [] { return Transfer(true); }},
      {"gals.crossing_transfer_ns", CrossingTransfer},
      {"matchlib.whvc_hop_ns", WhvcHop},
      {"matchlib.fp_muladd_ns", FpMulAddKernel},
      {"riscv.instr_ns", IssInstr},
  };
  // Every (kernel, repetition) pair once, in a seed-shuffled order, so slow
  // drift of the host spreads over all kernels instead of biasing one.
  std::vector<std::size_t> order;
  for (unsigned r = 0; r < kReps; ++r) {
    for (std::size_t k = 0; k < kernels.size(); ++k) order.push_back(k);
  }
  craft::Rng rng(seed * 0x9E3779B97F4A7C15ull + 0x2545F4914F6CDD1Dull);
  for (std::size_t i = order.size() - 1; i > 0; --i) {
    std::swap(order[i], order[rng.NextBelow(i + 1)]);
  }
  std::vector<std::vector<double>> samples(kernels.size());
  for (std::size_t k : order) samples[k].push_back(kernels[k].second());

  JsonLine unit, noise;
  for (std::size_t k = 0; k < kernels.size(); ++k) {
    const double lo = *std::min_element(samples[k].begin(), samples[k].end());
    unit.Num(kernels[k].first, lo);
    noise.Num(kernels[k].first, 100.0 * (Median(samples[k]) - lo) / lo);
  }
  JsonLine doc;
  doc.Str("schema", "craft-bench-layers-v1")
      .Raw("build", BuildStamp())
      .U64("seed", seed)
      .U64("reps", kReps)
      .Raw("min", unit.Take())
      .Raw("noise_pct", noise.Take());
  std::printf("%s\n", doc.Take().c_str());
  return 0;
}

}  // namespace craftbench
