// Flight-recorder unit + conformance tests (telemetry/flightrec.hpp):
// ring-buffer semantics, event formatting, the recording taps on a live
// fabric, and the two contracts the post-mortem layer depends on —
//  * non-perturbation: attaching a recorder changes no simulated bit
//    (result payloads, cycle counts, heatmap counters all identical),
//  * determinism: the recorded rings are bit-identical at any
//    WSS_SIM_THREADS (1 / 2 / 8) and on the turbo backend, like every
//    other telemetry surface.

#include <gtest/gtest.h>

#include <cstdint>
#include <iterator>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "stencil/generators.hpp"
#include "telemetry/flightrec.hpp"
#include "telemetry/heatmap.hpp"
#include "wse/fabric.hpp"
#include "wsekernels/spmv3d_program.hpp"

namespace wss::wse {
namespace {

using telemetry::FlightEvent;
using telemetry::FlightEventKind;
using telemetry::FlightRecorder;

// --- ring-buffer semantics ----------------------------------------------

TEST(FlightRecorder, RingWrapsKeepingNewestEvents) {
  FlightRecorder rec(2, 2, /*depth=*/4);
  for (std::uint64_t c = 0; c < 6; ++c) {
    rec.record(1, 1, c, FlightEventKind::TaskStart,
               static_cast<std::int32_t>(c));
  }
  EXPECT_EQ(rec.total_events(1, 1), 6u);
  EXPECT_EQ(rec.dropped_events(1, 1), 2u);
  const std::vector<FlightEvent> ev = rec.events(1, 1);
  ASSERT_EQ(ev.size(), 4u);
  // Oldest two (cycles 0, 1) fell off the back; the rest are in order.
  for (std::size_t i = 0; i < ev.size(); ++i) {
    EXPECT_EQ(ev[i].cycle, i + 2);
    EXPECT_EQ(ev[i].a, static_cast<std::int32_t>(i + 2));
  }
  // Untouched tiles stay empty.
  EXPECT_EQ(rec.total_events(0, 0), 0u);
  EXPECT_TRUE(rec.events(0, 0).empty());
}

TEST(FlightRecorder, DepthIsClampedToValidRange) {
  FlightRecorder tiny(1, 1, 0);
  EXPECT_EQ(tiny.depth(), 1u);
  FlightRecorder huge(1, 1, FlightRecorder::kMaxDepth * 4);
  EXPECT_EQ(huge.depth(), FlightRecorder::kMaxDepth);
}

TEST(FlightRecorder, ClearResetsRingsButKeepsConfiguration) {
  FlightRecorder rec(2, 1, 8);
  rec.mark_configured(0, 0);
  rec.record(0, 0, 7, FlightEventKind::PhaseMark, 1);
  EXPECT_EQ(rec.total_events(), 1u);
  rec.clear();
  EXPECT_EQ(rec.total_events(), 0u);
  EXPECT_TRUE(rec.events(0, 0).empty());
  EXPECT_EQ(rec.configured_tiles(), 1);
}

TEST(FlightRecorder, PackedTileFieldRoundTrips) {
  using telemetry::pack_tile;
  using telemetry::packed_tile_x;
  using telemetry::packed_tile_y;
  for (const auto& [x, y] :
       std::vector<std::pair<int, int>>{{0, 0}, {1, 0}, {0, 1}, {300, 200},
                                        {757, 996}}) {
    const std::int32_t p = pack_tile(x, y);
    EXPECT_EQ(packed_tile_x(p), x);
    EXPECT_EQ(packed_tile_y(p), y);
  }
}

TEST(FlightRecorder, EventKindNamesRoundTrip) {
  for (int k = 0; k < telemetry::kNumFlightEventKinds; ++k) {
    const auto kind = static_cast<FlightEventKind>(k);
    FlightEventKind parsed{};
    ASSERT_TRUE(telemetry::flight_event_kind_from_string(
        telemetry::to_string(kind), &parsed))
        << telemetry::to_string(kind);
    EXPECT_EQ(parsed, kind);
  }
  FlightEventKind parsed{};
  EXPECT_FALSE(telemetry::flight_event_kind_from_string("warp_core", &parsed));
}

TEST(FlightRecorder, FormatsEventsForHumans) {
  FlightEvent wavelet{/*cycle=*/123, FlightEventKind::WaveletDelivered,
                      /*a=*/2, /*b=*/0x1234, telemetry::pack_tile(0, 1),
                      /*d=*/98};
  const std::string w = telemetry::format_flight_event(wavelet);
  EXPECT_NE(w.find("c123"), std::string::npos) << w;
  EXPECT_NE(w.find("wavelet"), std::string::npos) << w;
  EXPECT_NE(w.find("(0,1)"), std::string::npos) << w;

  FlightEvent start{/*cycle=*/5, FlightEventKind::TaskStart, /*a=*/3, 0, 0, 0};
  const std::string s = telemetry::format_flight_event(start);
  EXPECT_NE(s.find("task_start"), std::string::npos) << s;
}

// --- recording taps on a live fabric ------------------------------------

TileProgram sender_program(Color color, int len) {
  TileProgram prog;
  MemAllocator mem(48 * 1024);
  const int buf = mem.allocate(len, DType::F16);
  const int t_src = prog.add_tensor({buf, len, 1, DType::F16, 0});
  const int f_tx = prog.add_fabric({color, len, DType::F16, 0, kNoTask,
                                    TrigAction::None});
  Task t{"send", false, false, false, {}};
  Instr s{};
  s.op = OpKind::Send;
  s.src1 = t_src;
  s.fabric = f_tx;
  t.steps.push_back({TaskStep::Kind::Sync, -1, s, kNoTask});
  t.steps.push_back({TaskStep::Kind::SetDone, -1, {}, kNoTask});
  prog.add_task(std::move(t));
  prog.initial_task = 0;
  prog.memory_halfwords = mem.used_halfwords();
  return prog;
}

TileProgram receiver_program(int channel, int len, int* buf_out) {
  TileProgram prog;
  MemAllocator mem(48 * 1024);
  const int buf = mem.allocate(len, DType::F16);
  *buf_out = buf;
  const int t_dst = prog.add_tensor({buf, len, 1, DType::F16, 0});
  const int f_rx = prog.add_fabric({channel, len, DType::F16, 0, kNoTask,
                                    TrigAction::None});
  Task t{"recv", false, false, false, {}};
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

TEST(FlightRecorderTaps, CapturesDeliveriesAndTaskLifecycle) {
  const CS1Params arch;
  const SimParams sim;
  Fabric fabric(2, 1, arch, sim);
  FlightRecorder rec(2, 1, 64);
  fabric.set_flight_recorder(&rec);

  const Color color = 3;
  const int len = 10;
  RoutingTable send_routes;
  send_routes.rule(color).add_forward(Dir::East);
  fabric.configure_tile(0, 0, sender_program(color, len), send_routes);
  RoutingTable recv_routes;
  recv_routes.rule(color).deliver_channels.push_back(color);
  int buf = 0;
  fabric.configure_tile(1, 0, receiver_program(color, len, &buf), recv_routes);
  for (int i = 0; i < len; ++i) {
    fabric.core(0, 0).host_write_f16(i, fp16_t(static_cast<double>(i)));
  }
  fabric.run(1000);
  ASSERT_TRUE(fabric.all_done());

  EXPECT_EQ(rec.configured_tiles(), 2);
  // The receiver saw exactly `len` wavelet deliveries on `color`.
  int deliveries = 0;
  for (const FlightEvent& ev : rec.events(1, 0)) {
    if (ev.kind == FlightEventKind::WaveletDelivered) {
      ++deliveries;
      EXPECT_EQ(ev.a, static_cast<std::int32_t>(color));
    }
  }
  EXPECT_EQ(deliveries, len);
  // Both tiles ran their single task start-to-end.
  for (const auto& [x, y] : std::vector<std::pair<int, int>>{{0, 0}, {1, 0}}) {
    bool started = false;
    bool ended = false;
    for (const FlightEvent& ev : rec.events(x, y)) {
      started |= ev.kind == FlightEventKind::TaskStart;
      ended |= ev.kind == FlightEventKind::TaskEnd;
    }
    EXPECT_TRUE(started) << "(" << x << "," << y << ")";
    EXPECT_TRUE(ended) << "(" << x << "," << y << ")";
  }
  // Rings are chronological.
  std::uint64_t last = 0;
  for (const FlightEvent& ev : rec.events(1, 0)) {
    EXPECT_GE(ev.cycle, last);
    last = ev.cycle;
  }
}

TEST(FlightRecorderTaps, DimensionMismatchIsRejected) {
  const CS1Params arch;
  Fabric fabric(2, 2, arch, SimParams{});
  FlightRecorder wrong(3, 2, 16);
  EXPECT_THROW(fabric.set_flight_recorder(&wrong), std::invalid_argument);
}

// --- non-perturbation + thread-count determinism ------------------------

struct SpmvCase {
  Stencil7<fp16_t> a;
  Field3<fp16_t> v;
};

SpmvCase make_spmv_case(const Grid3& g, std::uint64_t seed) {
  auto ad = make_random_dominant7(g, 0.5, seed);
  Field3<double> b(g, 1.0);
  (void)precondition_jacobi(ad, b);
  SpmvCase c{convert_stencil<fp16_t>(ad), Field3<fp16_t>(g)};
  Rng rng(seed + 1);
  for (std::size_t i = 0; i < c.v.size(); ++i) {
    c.v[i] = fp16_t(rng.uniform(-1.0, 1.0));
  }
  return c;
}

wsekernels::SpMV3DSimulation make_sim(const SpmvCase& c, int threads,
                                      Backend backend = Backend::Auto) {
  static const CS1Params arch;
  SimParams sim;
  sim.sim_threads = threads;
  sim.backend = backend;
  return wsekernels::SpMV3DSimulation(c.a, arch, sim);
}

std::vector<std::vector<double>> heatmap_cells(const Fabric& fabric) {
  std::vector<std::vector<double>> out;
  const telemetry::FabricHeatmaps maps = telemetry::collect_heatmaps(fabric);
  for (const telemetry::Heatmap* m : maps.all()) out.push_back(m->cells);
  return out;
}

TEST(FlightRecorderConformance, RecorderIsNonPerturbingAndThreadIdentical) {
  const Grid3 g(4, 3, 6);
  const SpmvCase c = make_spmv_case(g, 2026);

  // Baseline: serial reference, no recorder.
  auto ref = make_sim(c, 1, Backend::Reference);
  const Field3<fp16_t> u_ref = ref.run(c.v);
  const std::uint64_t cycles_ref = ref.last_run_cycles();
  const auto heat_ref = heatmap_cells(ref.fabric());

  // Serial reference, thread counts on the env-selected backend, then
  // turbo legs: the recorder's taps ride turbo's fast path every cycle.
  struct Leg {
    int threads;
    Backend backend;
  };
  const Leg legs[] = {{1, Backend::Reference},
                      {2, Backend::Auto},
                      {8, Backend::Auto},
                      {1, Backend::Turbo},
                      {8, Backend::Turbo}};
  std::vector<FlightRecorder> recorders;
  recorders.reserve(std::size(legs));
  for (const Leg leg : legs) {
    const std::string name =
        std::string(leg.backend == Backend::Turbo ? "turbo " : "") +
        "threads=" + std::to_string(leg.threads);
    auto sim = make_sim(c, leg.threads, leg.backend);
    FlightRecorder& rec =
        recorders.emplace_back(g.nx, g.ny, FlightRecorder::kDefaultDepth);
    sim.fabric().set_flight_recorder(&rec);
    const Field3<fp16_t> u = sim.run(c.v);
    if (leg.backend == Backend::Turbo) {
      EXPECT_EQ(sim.fabric().turbo_stats().turbo_cycles,
                sim.fabric().stats().cycles)
          << name;
    }

    // Non-perturbation: result bits, cycle count, heatmap counters all
    // identical to the recorder-free serial baseline.
    ASSERT_EQ(u.size(), u_ref.size());
    for (std::size_t i = 0; i < u.size(); ++i) {
      EXPECT_EQ(u[i].bits(), u_ref[i].bits()) << name;
    }
    EXPECT_EQ(sim.last_run_cycles(), cycles_ref) << name;
    EXPECT_EQ(heatmap_cells(sim.fabric()), heat_ref) << name;
    EXPECT_GT(rec.total_events(), 0u);
  }

  // Determinism: the rings themselves are bit-identical across thread
  // counts and backends — every tile, every retained event, every
  // payload field.
  for (std::size_t r = 1; r < recorders.size(); ++r) {
    for (int y = 0; y < g.ny; ++y) {
      for (int x = 0; x < g.nx; ++x) {
        EXPECT_EQ(recorders[r].total_events(x, y),
                  recorders[0].total_events(x, y))
            << "recorder " << r << " tile (" << x << "," << y << ")";
        EXPECT_EQ(recorders[r].events(x, y), recorders[0].events(x, y))
            << "recorder " << r << " tile (" << x << "," << y << ")";
      }
    }
  }
}

} // namespace
} // namespace wss::wse
