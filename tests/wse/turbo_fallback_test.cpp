// Turbo backend behaviour around observers, contention and selection
// (docs/BACKENDS.md). Both backends run the same phase bodies with the same
// observer and fault hooks, so nothing ever sends a turbo fabric back to
// reference stepping: the ride-along matrix attaches each observer (and an
// empty and a non-empty fault plan) mid-run, at 1/2/8 threads, and demands
// that turbo kept every cycle, never rebuilt its mirror, and left exactly
// the record a reference twin leaves. Contention runs natively on the fast
// path and is only counted. Backend selection via WSS_SIM_BACKEND /
// SimParams::backend / set_backend is covered here too.

#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "support/env_guard.hpp"
#include "support/fabric_compare.hpp"
#include "support/proptest.hpp"
#include "telemetry/flightrec.hpp"
#include "telemetry/netmon.hpp"
#include "telemetry/profiler.hpp"
#include "telemetry/timeseries.hpp"
#include "wse/fabric.hpp"
#include "wse/trace.hpp"

namespace wss::wse {
namespace {

namespace fabricgen = proptest::fabricgen;
using testsupport::expect_fabric_state_identical;
using testsupport::expect_faults_identical;
using testsupport::expect_profiles_identical;
using testsupport::expect_stop_identical;

std::vector<fp16_t> make_payload(int len, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<fp16_t> payload(static_cast<std::size_t>(len));
  for (auto& v : payload) v = fp16_t(rng.uniform(-4.0, 4.0));
  return payload;
}

/// 2x1 fabric, one east stream on color 0: sender (0,0) -> receiver (1,0).
Fabric make_stream_fabric(const std::vector<fp16_t>& payload, Backend backend,
                          int threads = 1) {
  static const CS1Params arch;
  SimParams sim;
  sim.sim_threads = threads;
  sim.backend = backend;
  const int len = static_cast<int>(payload.size());
  std::vector<std::vector<RoutingTable>> tables(2,
                                                std::vector<RoutingTable>(1));
  fabricgen::add_xy_route(tables, 0, 0, 1, 0, 0);
  Fabric f(2, 1, arch, sim);
  f.set_watchdog(0);
  f.configure_tile(0, 0, fabricgen::sender(0, len), tables[0][0]);
  f.configure_tile(1, 0, fabricgen::receiver(0, len), tables[1][0]);
  for (int i = 0; i < len; ++i) {
    f.core(0, 0).host_write_f16(i, payload[static_cast<std::size_t>(i)]);
  }
  return f;
}

void expect_payload_delivered(const Fabric& f,
                              const std::vector<fp16_t>& payload,
                              const std::string& label) {
  for (std::size_t i = 0; i < payload.size(); ++i) {
    EXPECT_EQ(f.core(1, 0).host_read_f16(static_cast<int>(i)).bits(),
              payload[i].bits())
        << label << " word " << i;
  }
}

void expect_traces_identical(const Tracer& want, const Tracer& got,
                             const std::string& label) {
  EXPECT_EQ(want.dropped(), got.dropped()) << label;
  ASSERT_EQ(want.events().size(), got.events().size()) << label;
  for (std::size_t i = 0; i < want.events().size(); ++i) {
    const TraceEvent& a = want.events()[i];
    const TraceEvent& b = got.events()[i];
    EXPECT_EQ(a.cycle, b.cycle) << label << " event " << i;
    EXPECT_EQ(a.tile_x, b.tile_x) << label << " event " << i;
    EXPECT_EQ(a.tile_y, b.tile_y) << label << " event " << i;
    EXPECT_EQ(static_cast<int>(a.kind), static_cast<int>(b.kind))
        << label << " event " << i;
    EXPECT_EQ(a.label, b.label) << label << " event " << i;
  }
}

// --- the ride-along matrix -----------------------------------------------

/// 6x6, streams on distinct colors crossing every row band, so at 8
/// threads each of the six bands carries traffic, and the idle tiles spend
/// most of the run parked. The one-hop stream delivers inside the attach
/// window, so the delivery hooks fire there too.
fabricgen::Scenario ride_scenario() {
  fabricgen::Scenario sc;
  sc.width = 6;
  sc.height = 6;
  sc.configured.assign(36, 1);
  // The dropped words wedge a receiver: keep its MaxCycles stop cheap.
  sc.budget = 2000;
  const auto stream = [&](int sx, int sy, int dx, int dy, Color color) {
    fabricgen::Stream st;
    st.sx = sx;
    st.sy = sy;
    st.dx = dx;
    st.dy = dy;
    st.color = color;
    st.payload = make_payload(8, 40 + color);
    sc.streams.push_back(st);
  };
  stream(0, 0, 5, 5, 0);
  stream(5, 1, 0, 4, 1);
  stream(0, 3, 5, 3, 2);
  stream(2, 2, 3, 2, 3);
  return sc;
}

/// Fires inside the attach window (cycles 3 and 4): a certain drop on the
/// first link of stream 0, a router stall on stream 1's path and one on a
/// quiet tile (which turbo must visit anyway), and two dead tiles — a
/// sender and a parked idle tile (whose parked step must not run).
FaultPlan ride_fault_plan() {
  FaultPlan plan;
  plan.seed = 5;
  LinkFault drop;
  drop.x = 0;
  drop.y = 0;
  drop.dir = Dir::East;
  drop.kind = FaultKind::DropWavelet;
  drop.probability = 1.0;
  drop.from_cycle = 3;
  drop.until_cycle = 5;
  plan.link_faults.push_back(drop);
  plan.router_stalls.push_back(RouterStallFault{4, 1, 3, 5});
  plan.router_stalls.push_back(RouterStallFault{3, 5, 3, 5});
  plan.dead_tiles.push_back(DeadTileFault{0, 3, 3});
  plan.dead_tiles.push_back(DeadTileFault{2, 5, 3});
  return plan;
}

enum class Rider {
  Tracer,
  Profiler,
  FlightRecorder,
  Sampler,
  NetMonitor,
  Watchdog,
  EmptyFaultPlan,
  FaultPlan,
};

const char* rider_name(Rider r) {
  switch (r) {
    case Rider::Tracer: return "tracer";
    case Rider::Profiler: return "profiler";
    case Rider::FlightRecorder: return "flightrec";
    case Rider::Sampler: return "sampler";
    case Rider::NetMonitor: return "netmon";
    case Rider::Watchdog: return "watchdog";
    case Rider::EmptyFaultPlan: return "empty_fault_plan";
    case Rider::FaultPlan: return "fault_plan";
  }
  return "?";
}

/// One fabric plus every recorder a rider can fill.
struct RideRun {
  RideRun(const fabricgen::Scenario& sc, Backend backend, int threads)
      : fabric(sc.instantiate(arch(), params(backend, threads))),
        profiler(sc.width, sc.height),
        flightrec(sc.width, sc.height, 64) {
    fabric.set_watchdog(0);
  }
  static const CS1Params& arch() {
    static const CS1Params a;
    return a;
  }
  static SimParams params(Backend backend, int threads) {
    SimParams sim;
    sim.backend = backend;
    sim.sim_threads = threads;
    return sim;
  }

  /// 3 cycles bare, attach, a 2-cycle run() window (so the watchdog is
  /// live too), detach, run to the end.
  void ride(Rider rider, const FaultPlan& plan, std::uint64_t budget) {
    fault_plan = plan;
    for (int i = 0; i < 3; ++i) fabric.step();
    toggle(rider, true);
    window = fabric.run(2);
    fabric.sample_now();
    toggle(rider, false);
    stop = fabric.run(budget);
  }

  void toggle(Rider rider, bool on) {
    switch (rider) {
      case Rider::Tracer:
        fabric.set_tracer(on ? &tracer : nullptr);
        break;
      case Rider::Profiler:
        fabric.set_profiler(on ? &profiler : nullptr);
        break;
      case Rider::FlightRecorder:
        fabric.set_flight_recorder(on ? &flightrec : nullptr);
        break;
      case Rider::Sampler:
        fabric.set_sampler(on ? &sampler : nullptr);
        break;
      case Rider::NetMonitor:
        fabric.set_net_monitor(on ? &netmon : nullptr);
        break;
      case Rider::Watchdog:
        fabric.set_watchdog(on ? 1 : 0);
        break;
      case Rider::EmptyFaultPlan:
      case Rider::FaultPlan:
        fabric.set_fault_plan(on ? &fault_plan : nullptr);
        break;
    }
  }

  Fabric fabric;
  Tracer tracer{1 << 14};
  telemetry::Profiler profiler;
  telemetry::FlightRecorder flightrec;
  telemetry::TimeSeriesSampler sampler{1};
  telemetry::NetMonitor netmon;
  FaultPlan fault_plan;
  StopInfo window;
  StopInfo stop;
};

void expect_records_identical(const RideRun& want, const RideRun& got,
                              const std::string& label) {
  expect_stop_identical(want.window, got.window, label + " window");
  expect_stop_identical(want.stop, got.stop, label);
  expect_fabric_state_identical(want.fabric, got.fabric, label);
  expect_faults_identical(want.fabric, got.fabric, label);

  expect_traces_identical(want.tracer, got.tracer, label);
  expect_profiles_identical(want.profiler, got.profiler, label);
  EXPECT_EQ(want.sampler.frames(), got.sampler.frames()) << label;
  for (int y = 0; y < want.fabric.height(); ++y) {
    for (int x = 0; x < want.fabric.width(); ++x) {
      const std::string at = label + " tile (" + std::to_string(x) + "," +
                             std::to_string(y) + ")";
      EXPECT_EQ(want.flightrec.total_events(x, y),
                got.flightrec.total_events(x, y))
          << at;
      EXPECT_EQ(want.flightrec.events(x, y), got.flightrec.events(x, y))
          << at;

      if (!want.netmon.attached_once()) continue;
      for (int d = 0; d < 4; ++d) {
        const Dir dir = static_cast<Dir>(d);
        EXPECT_EQ(want.netmon.link_stall_cycles(x, y, dir),
                  got.netmon.link_stall_cycles(x, y, dir))
            << at << " dir " << d;
        EXPECT_EQ(want.netmon.link_peak_queue(x, y, dir),
                  got.netmon.link_peak_queue(x, y, dir))
            << at << " dir " << d;
        for (int c = 0; c < kNumColors; ++c) {
          EXPECT_EQ(want.netmon.words_at(x, y, dir, c),
                    got.netmon.words_at(x, y, dir, c))
              << at << " dir " << d << " color " << c;
          EXPECT_EQ(want.netmon.blocked_at(x, y, dir, c),
                    got.netmon.blocked_at(x, y, dir, c))
              << at << " dir " << d << " color " << c;
          EXPECT_EQ(want.netmon.peak_queue_at(x, y, dir, c),
                    got.netmon.peak_queue_at(x, y, dir, c))
              << at << " dir " << d << " color " << c;
        }
      }
    }
  }
}

/// One row of the matrix: a reference run, then turbo at 1/2/8 threads on
/// the identical attach schedule.
void check_ride_along(Rider rider) {
  testsupport::CleanSimEnv env;
  const fabricgen::Scenario sc = ride_scenario();
  const FaultPlan plan =
      rider == Rider::FaultPlan ? ride_fault_plan() : FaultPlan{};
  RideRun ref(sc, Backend::Reference, 1);
  ref.ride(rider, plan, sc.budget);
  if (rider == Rider::FaultPlan) {
    // The plan must have fired in all three ways, or the faulted row
    // compares nothing.
    ASSERT_GT(ref.fabric.fault_stats().wavelets_dropped, 0u);
    ASSERT_GT(ref.fabric.fault_stats().router_stall_cycles, 0u);
    ASSERT_GT(ref.fabric.fault_stats().dead_tile_cycles, 0u);
  }

  for (const int threads : {1, 2, 8}) {
    const std::string label = std::string(rider_name(rider)) +
                              " threads=" + std::to_string(threads);
    RideRun tur(sc, Backend::Turbo, threads);
    tur.ride(rider, plan, sc.budget);
    // Turbo stepped every cycle, attached or not, and attaching rebuilt
    // nothing: the one promotion is the first step's.
    EXPECT_EQ(tur.fabric.turbo_stats().turbo_cycles,
              tur.fabric.stats().cycles)
        << label;
    EXPECT_EQ(tur.fabric.turbo_stats().promotions, 1u) << label;
    expect_records_identical(ref, tur, label);
  }
}

// The first six rows keep the names they had when attaching demoted turbo
// to reference stepping; each now checks that it no longer does.

TEST(TurboFallback, TracerAttachDemotesAndRepromotes) {
  check_ride_along(Rider::Tracer);
}

TEST(TurboFallback, ProfilerAttachDemotesAndRepromotes) {
  check_ride_along(Rider::Profiler);
}

TEST(TurboFallback, FlightRecorderAttachDemotesAndRepromotes) {
  check_ride_along(Rider::FlightRecorder);
}

TEST(TurboFallback, SamplerAttachDemotesAndRepromotes) {
  check_ride_along(Rider::Sampler);
}

TEST(TurboFallback, WatchdogDemotesAndClearingRepromotes) {
  check_ride_along(Rider::Watchdog);
}

TEST(TurboFallback, FaultPlanAttachDemotesEvenWhenEmpty) {
  // An attached empty plan changes nothing about simulated behaviour
  // (docs/ROBUSTNESS.md), and its live hooks now run on the fast path.
  check_ride_along(Rider::EmptyFaultPlan);
}

TEST(TurboFallback, NetMonitorAttachRidesTheFastPath) {
  check_ride_along(Rider::NetMonitor);
}

TEST(TurboFallback, FaultedPlanAttachRidesTheFastPath) {
  check_ride_along(Rider::FaultPlan);
}

TEST(TurboFallback, TracerStreamMatchesReferenceAroundDemotion) {
  // Turbo does not demote (the test keeps its established name): a
  // tracer attached to a turbo fabric for two cycles records on the fast
  // path, and a reference fabric with the identical attach schedule must
  // record the identical stream.
  testsupport::CleanSimEnv env;
  const std::vector<fp16_t> payload = make_payload(8, 7);

  Tracer t_turbo(1 << 14);
  Fabric turbo = make_stream_fabric(payload, Backend::Turbo);
  for (int i = 0; i < 3; ++i) turbo.step();
  turbo.set_tracer(&t_turbo);
  turbo.step();
  turbo.step();
  turbo.set_tracer(nullptr);
  (void)turbo.run(1000);
  EXPECT_EQ(turbo.turbo_stats().turbo_cycles, turbo.stats().cycles);

  Tracer t_ref(1 << 14);
  Fabric ref = make_stream_fabric(payload, Backend::Reference);
  for (int i = 0; i < 3; ++i) ref.step();
  ref.set_tracer(&t_ref);
  ref.step();
  ref.step();
  ref.set_tracer(nullptr);
  (void)ref.run(1000);

  expect_traces_identical(t_ref, t_turbo, "tracer stream");
  expect_fabric_state_identical(ref, turbo, "tracer stream");
}

// --- contention: a native fast-path event -------------------------------

/// Receiver that copies a scratch vector first (a deliberate delay), so
/// the sender's stream backs up through ramp, input latch, and output
/// queue while the receiver is busy — guaranteed route-phase backpressure.
TileProgram delayed_receiver(int channel, int len, int delay_elems) {
  TileProgram prog;
  MemAllocator mem(48 * 1024);
  // Receive buffer first: the payload checks read from halfword offset 0.
  const int buf = mem.allocate(len, DType::F16);
  const int scratch_a = mem.allocate(delay_elems, DType::F16);
  const int scratch_b = mem.allocate(delay_elems, DType::F16);
  const int t_sa = prog.add_tensor({scratch_a, delay_elems, 1, DType::F16, 0});
  const int t_sb = prog.add_tensor({scratch_b, delay_elems, 1, DType::F16, 0});
  const int t_dst = prog.add_tensor({buf, len, 1, DType::F16, 0});
  const int f_rx = prog.add_fabric(
      {channel, len, DType::F16, 0, kNoTask, TrigAction::None});
  Task t{"delayed_recv", false, false, false, {}};
  Instr cp{};
  cp.op = OpKind::CopyV;
  cp.dst = t_sb;
  cp.src1 = t_sa;
  t.steps.push_back({TaskStep::Kind::Sync, -1, cp, kNoTask});
  Instr r{};
  r.op = OpKind::RecvToMem;
  r.dst = t_dst;
  r.fabric = f_rx;
  t.steps.push_back({TaskStep::Kind::Sync, -1, r, kNoTask});
  t.steps.push_back({TaskStep::Kind::SetDone, -1, {}, kNoTask});
  prog.add_task(std::move(t));
  prog.initial_task = 0;
  prog.memory_halfwords = mem.used_halfwords();
  return prog;
}

TEST(TurboFallback, ContentionStaysOnTheFastPath) {
  testsupport::CleanSimEnv env;
  static const CS1Params arch;
  const std::vector<fp16_t> payload = make_payload(31, 13);
  const int len = static_cast<int>(payload.size());

  const auto build = [&](Backend backend) {
    SimParams sim;
    sim.sim_threads = 1;
    sim.backend = backend;
    std::vector<std::vector<RoutingTable>> tables(
        2, std::vector<RoutingTable>(1));
    fabricgen::add_xy_route(tables, 0, 0, 1, 0, 0);
    Fabric f(2, 1, arch, sim);
    f.set_watchdog(0);
    f.configure_tile(0, 0, fabricgen::sender(0, len), tables[0][0]);
    f.configure_tile(1, 0, delayed_receiver(0, len, /*delay_elems=*/256),
                     tables[1][0]);
    for (int i = 0; i < len; ++i) {
      f.core(0, 0).host_write_f16(i, payload[static_cast<std::size_t>(i)]);
    }
    return f;
  };

  Fabric turbo = build(Backend::Turbo);
  (void)turbo.run(5000);
  ASSERT_TRUE(turbo.all_done());
  // Backpressure happened, was counted — and never left the fast path.
  EXPECT_GT(turbo.turbo_stats().contended_tile_cycles, 0u);
  EXPECT_EQ(turbo.turbo_stats().turbo_cycles, turbo.stats().cycles);

  Fabric ref = build(Backend::Reference);
  (void)ref.run(5000);
  ASSERT_TRUE(ref.all_done());
  expect_fabric_state_identical(ref, turbo, "contention");
  expect_payload_delivered(turbo, payload, "contention");
}

TEST(TurboFallback, ParkedOceanIsCountedAndBitExact) {
  // One corner-to-corner stream on a 6x6 fabric: the other 34 tiles raise
  // done immediately and must spend the rest of the run parked.
  testsupport::CleanSimEnv env;
  fabricgen::Scenario sc;
  sc.width = 6;
  sc.height = 6;
  sc.configured.assign(36, 1);
  fabricgen::Stream st;
  st.sx = 0;
  st.sy = 0;
  st.dx = 5;
  st.dy = 5;
  st.color = 0;
  st.payload = make_payload(8, 17);
  sc.streams.push_back(st);

  static const CS1Params arch;
  SimParams tur_sim;
  tur_sim.sim_threads = 1;
  tur_sim.backend = Backend::Turbo;
  Fabric turbo = sc.instantiate(arch, tur_sim);
  turbo.set_watchdog(0);
  (void)turbo.run(5000);
  ASSERT_TRUE(turbo.all_done());
  EXPECT_GT(turbo.turbo_stats().parked_tile_cycles, 0u);
  EXPECT_EQ(turbo.turbo_stats().turbo_cycles, turbo.stats().cycles);

  SimParams ref_sim;
  ref_sim.sim_threads = 1;
  ref_sim.backend = Backend::Reference;
  Fabric ref = sc.instantiate(arch, ref_sim);
  ref.set_watchdog(0);
  (void)ref.run(5000);
  expect_fabric_state_identical(ref, turbo, "parked ocean");
}

// --- backend selection --------------------------------------------------

TEST(TurboFallback, BackendResolvesFromParamsAndEnv) {
  testsupport::CleanSimEnv env;
  static const CS1Params arch;
  SimParams sim; // backend = Auto

  {
    Fabric f(2, 1, arch, sim);
    EXPECT_EQ(f.backend(), Backend::Reference); // Auto, env unset
  }
  env.backend.set("turbo");
  {
    Fabric f(2, 1, arch, sim);
    EXPECT_EQ(f.backend(), Backend::Turbo);
  }
  env.backend.set("reference");
  {
    Fabric f(2, 1, arch, sim);
    EXPECT_EQ(f.backend(), Backend::Reference);
  }
  // Empty and unknown values are hard configuration errors, not silent
  // fallbacks to the reference backend. Empty-but-set is rejected by the
  // strict env parser, unknown names by the backend resolver.
  env.backend.set("");
  EXPECT_THROW(Fabric(2, 1, arch, sim), std::runtime_error);
  env.backend.set("warp");
  EXPECT_THROW(Fabric(2, 1, arch, sim), std::invalid_argument);

  // An explicit SimParams::backend beats the environment.
  env.backend.set("reference");
  SimParams pinned = sim;
  pinned.backend = Backend::Turbo;
  {
    Fabric f(2, 1, arch, pinned);
    EXPECT_EQ(f.backend(), Backend::Turbo);
  }

  // set_backend(Auto) re-resolves against the env at call time.
  env.backend.set("turbo");
  {
    SimParams ref_params = sim;
    ref_params.backend = Backend::Reference;
    Fabric f(2, 1, arch, ref_params);
    EXPECT_EQ(f.backend(), Backend::Reference);
    f.set_backend(Backend::Auto);
    EXPECT_EQ(f.backend(), Backend::Turbo);
  }
}

TEST(TurboFallback, SetBackendMidRunIsSilentAndBitExact) {
  // A backend switch drops the mirror; switching back rebuilds it.
  testsupport::CleanSimEnv env;
  const std::vector<fp16_t> payload = make_payload(8, 23);

  Fabric f = make_stream_fabric(payload, Backend::Turbo);
  f.step();
  f.step();
  f.set_backend(Backend::Reference);
  f.step();
  f.step();
  f.set_backend(Backend::Turbo);
  (void)f.run(1000);
  ASSERT_TRUE(f.all_done());
  EXPECT_EQ(f.turbo_stats().promotions, 2u);
  EXPECT_EQ(f.turbo_stats().turbo_cycles, f.stats().cycles - 2);

  Fabric ref = make_stream_fabric(payload, Backend::Reference);
  for (int i = 0; i < 4; ++i) ref.step();
  (void)ref.run(1000);
  expect_fabric_state_identical(ref, f, "mid-run switch");
  expect_payload_delivered(f, payload, "mid-run switch");
}

TEST(TurboFallback, ResetControlRebuildsTheMirror) {
  testsupport::CleanSimEnv env;
  const std::vector<fp16_t> payload = make_payload(8, 29);

  Fabric turbo = make_stream_fabric(payload, Backend::Turbo);
  (void)turbo.run(1000);
  ASSERT_TRUE(turbo.all_done());
  EXPECT_EQ(turbo.turbo_stats().promotions, 1u);

  // Second run over the same loaded data: reset_control drops the mirror
  // (structural mutation), the next step re-promotes.
  turbo.reset_control();
  for (std::size_t i = 0; i < payload.size(); ++i) {
    turbo.core(0, 0).host_write_f16(static_cast<int>(i), payload[i]);
  }
  (void)turbo.run(1000);
  ASSERT_TRUE(turbo.all_done());
  EXPECT_EQ(turbo.turbo_stats().promotions, 2u);
  EXPECT_EQ(turbo.turbo_stats().turbo_cycles, turbo.stats().cycles);

  Fabric ref = make_stream_fabric(payload, Backend::Reference);
  (void)ref.run(1000);
  ref.reset_control();
  for (std::size_t i = 0; i < payload.size(); ++i) {
    ref.core(0, 0).host_write_f16(static_cast<int>(i), payload[i]);
  }
  (void)ref.run(1000);
  expect_fabric_state_identical(ref, turbo, "reset_control rerun");
  expect_payload_delivered(turbo, payload, "reset_control rerun");
}

} // namespace
} // namespace wss::wse
