// Backend-differential conformance suite (docs/BACKENDS.md): the turbo
// execution backend is a host-side fast path only — for any program, any
// fabric shape, any thread count, and any fault plan, a turbo run must be
// bit-identical to the reference interpreter in every observable: result
// memory, cycle counts, StopInfo, per-tile core/router counters, telemetry
// heatmaps, and the fault-injection record. This suite generates seeded
// random fabrics/programs/fault plans (support/proptest.hpp, fabricgen)
// and runs the real kernel programs — SpMV, AllReduce, BiCGStab, and a
// hand-built 9-point stencil halo exchange — on both backends at 1, 2, and
// 8 threads, with and without fault plans, asserting exact equality. Each
// differential also asserts the fast path actually stepped every cycle,
// fault plan or not: without that, a turbo run that quietly stepped the
// reference phases would make every comparison vacuously green.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "stencil/generators.hpp"
#include "support/env_guard.hpp"
#include "support/fabric_compare.hpp"
#include "support/proptest.hpp"
#include "wse/fabric.hpp"
#include "wsekernels/allreduce_program.hpp"
#include "wsekernels/bicgstab_program.hpp"
#include "wsekernels/spmv3d_program.hpp"

namespace wss::wse {
namespace {

namespace fabricgen = proptest::fabricgen;
using testsupport::expect_fabric_state_identical;
using testsupport::expect_faults_identical;
using testsupport::expect_stop_identical;

constexpr int kThreadCounts[] = {1, 2, 8};

bool same_bits(float a, float b) {
  std::uint32_t ab = 0;
  std::uint32_t bb = 0;
  static_assert(sizeof ab == sizeof a);
  std::memcpy(&ab, &a, sizeof ab);
  std::memcpy(&bb, &b, sizeof bb);
  return ab == bb;
}

/// Assert the run really used the turbo fast path for every cycle.
void expect_turbo_engaged(const Fabric& f, const std::string& label) {
  EXPECT_EQ(f.turbo_stats().turbo_cycles, f.stats().cycles) << label;
  EXPECT_GE(f.turbo_stats().promotions, 1u) << label;
}

// --- random generated scenarios -----------------------------------------

struct ScenarioRun {
  Fabric fabric;
  StopInfo stop;
};

ScenarioRun run_scenario(const fabricgen::Scenario& sc, Backend backend,
                         int threads) {
  // Static: the fabric keeps a pointer to the arch params beyond return.
  static const CS1Params arch;
  SimParams sim;
  sim.sim_threads = threads;
  sim.backend = backend;
  Fabric f = sc.instantiate(arch, sim);
  f.set_watchdog(0);
  if (sc.has_faults) f.set_fault_plan(&sc.faults);
  StopInfo stop = f.run(sc.budget);
  return ScenarioRun{std::move(f), std::move(stop)};
}

/// Receiver memory (offset 0, payload length) must match bit for bit.
void expect_streams_identical(const fabricgen::Scenario& sc,
                              const Fabric& want, const Fabric& got,
                              const std::string& label) {
  for (std::size_t s = 0; s < sc.streams.size(); ++s) {
    const auto& st = sc.streams[s];
    for (std::size_t i = 0; i < st.payload.size(); ++i) {
      EXPECT_EQ(want.core(st.dx, st.dy).host_read_f16(static_cast<int>(i)).bits(),
                got.core(st.dx, st.dy).host_read_f16(static_cast<int>(i)).bits())
          << label << " stream " << s << " word " << i;
    }
  }
}

TEST(BackendConformance, RandomScenariosBitExact) {
  testsupport::CleanSimEnv env;
  proptest::check(
      "turbo == reference on random fabrics/programs",
      [](proptest::Case& pc) {
        const fabricgen::Scenario sc = fabricgen::make_scenario(pc, false);
        const ScenarioRun ref = run_scenario(sc, Backend::Reference, 1);
        // Clean scenarios always finish: holes never block a route and
        // colors are disjoint. A holed fabric can't raise all_done (holes
        // have no core), so it settles Quiescent instead.
        const StopInfo::Reason want_reason = sc.has_holes()
                                                 ? StopInfo::Reason::Quiescent
                                                 : StopInfo::Reason::AllDone;
        ASSERT_EQ(ref.stop.reason, want_reason)
            << StopInfo::to_string(ref.stop.reason);
        // Both backends must also agree with the generated ground truth.
        for (std::size_t s = 0; s < sc.streams.size(); ++s) {
          const auto& st = sc.streams[s];
          for (std::size_t i = 0; i < st.payload.size(); ++i) {
            ASSERT_EQ(
                ref.fabric.core(st.dx, st.dy)
                    .host_read_f16(static_cast<int>(i))
                    .bits(),
                st.payload[i].bits())
                << "stream " << s << " word " << i;
          }
        }
        for (const int threads : kThreadCounts) {
          const ScenarioRun tur = run_scenario(sc, Backend::Turbo, threads);
          const std::string label =
              "turbo threads=" + std::to_string(threads) + " fabric " +
              std::to_string(sc.width) + "x" + std::to_string(sc.height);
          expect_stop_identical(ref.stop, tur.stop, label);
          expect_fabric_state_identical(ref.fabric, tur.fabric, label);
          expect_streams_identical(sc, ref.fabric, tur.fabric, label);
          expect_turbo_engaged(tur.fabric, label);
        }
      },
      {.cases = 5, .seed = 20260807});
}

TEST(BackendConformance, RandomFaultPlansBitExact) {
  testsupport::CleanSimEnv env;
  proptest::check(
      "turbo == reference under random fault plans",
      [](proptest::Case& pc) {
        const fabricgen::Scenario sc = fabricgen::make_scenario(pc, true);
        const ScenarioRun ref = run_scenario(sc, Backend::Reference, 1);
        for (const int threads : {1, 8}) {
          const ScenarioRun tur = run_scenario(sc, Backend::Turbo, threads);
          const std::string label =
              "turbo+faults threads=" + std::to_string(threads) + " fabric " +
              std::to_string(sc.width) + "x" + std::to_string(sc.height);
          expect_stop_identical(ref.stop, tur.stop, label);
          expect_fabric_state_identical(ref.fabric, tur.fabric, label);
          expect_streams_identical(sc, ref.fabric, tur.fabric, label);
          expect_faults_identical(ref.fabric, tur.fabric, label);
          expect_turbo_engaged(tur.fabric, label);
        }
      },
      {.cases = 5, .seed = 977});
}

// --- kernel programs: SpMV ----------------------------------------------

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

/// Deterministic corrupt-only plan: every wavelet crossing the marked
/// links gets a mantissa bit flipped. Corruption preserves delivery, so
/// kernel programs still finish — with wrong values that must be wrong
/// IDENTICALLY on both backends.
FaultPlan corrupt_everything_plan(int w, int h) {
  FaultPlan plan;
  plan.seed = 99;
  LinkFault east;
  east.x = w / 2;
  east.y = h / 2;
  east.dir = Dir::East;
  east.kind = FaultKind::CorruptWavelet;
  east.probability = 1.0;
  plan.link_faults.push_back(east);
  LinkFault south = east;
  south.dir = Dir::South;
  plan.link_faults.push_back(south);
  return plan;
}

TEST(BackendConformance, SpmvBitExactAcrossBackends) {
  testsupport::CleanSimEnv env;
  const CS1Params arch;
  proptest::check(
      "SpMV turbo == reference",
      [&](proptest::Case& pc) {
        const int w = pc.size(2, 7);
        const int h = pc.size(2, 7);
        const int z = pc.size(4, 20);
        const SpmvCase c = make_spmv_case(Grid3(w, h, z), pc.seed());

        SimParams ref_sim;
        ref_sim.sim_threads = 1;
        ref_sim.backend = Backend::Reference;
        wsekernels::SpMV3DSimulation ref(c.a, arch, ref_sim);
        ref.fabric().set_watchdog(0);
        const auto u_ref = ref.run(c.v);

        for (const int threads : kThreadCounts) {
          SimParams sim;
          sim.sim_threads = threads;
          sim.backend = Backend::Turbo;
          wsekernels::SpMV3DSimulation s(c.a, arch, sim);
          s.fabric().set_watchdog(0);
          const auto u = s.run(c.v);
          const std::string label = "spmv turbo threads=" +
                                    std::to_string(threads) + " fabric " +
                                    std::to_string(w) + "x" +
                                    std::to_string(h) + " z=" +
                                    std::to_string(z);
          ASSERT_EQ(u.size(), u_ref.size());
          for (std::size_t i = 0; i < u.size(); ++i) {
            ASSERT_EQ(u[i].bits(), u_ref[i].bits()) << label << " element "
                                                    << i;
          }
          EXPECT_EQ(s.last_run_cycles(), ref.last_run_cycles()) << label;
          expect_fabric_state_identical(ref.fabric(), s.fabric(), label);
          expect_turbo_engaged(s.fabric(), label);
        }
      },
      {.cases = 3, .seed = 0xC0FFEE});
}

TEST(BackendConformance, SpmvWithFaultPlanBitExactAcrossBackends) {
  testsupport::CleanSimEnv env;
  const CS1Params arch;
  const int w = 4, h = 4, z = 12;
  const SpmvCase c = make_spmv_case(Grid3(w, h, z), 5);
  const FaultPlan plan = corrupt_everything_plan(w, h);

  SimParams ref_sim;
  ref_sim.sim_threads = 1;
  ref_sim.backend = Backend::Reference;
  wsekernels::SpMV3DSimulation ref(c.a, arch, ref_sim);
  ref.fabric().set_watchdog(0);
  ref.fabric().set_fault_plan(&plan);
  const auto u_ref = ref.run(c.v);
  // The plan must have actually fired, or this test compares nothing.
  ASSERT_GT(ref.fabric().fault_stats().wavelets_corrupted, 0u);

  for (const int threads : {1, 8}) {
    SimParams sim;
    sim.sim_threads = threads;
    sim.backend = Backend::Turbo;
    wsekernels::SpMV3DSimulation s(c.a, arch, sim);
    s.fabric().set_watchdog(0);
    s.fabric().set_fault_plan(&plan);
    const auto u = s.run(c.v);
    const std::string label =
        "spmv turbo+corrupt threads=" + std::to_string(threads);
    ASSERT_EQ(u.size(), u_ref.size());
    for (std::size_t i = 0; i < u.size(); ++i) {
      ASSERT_EQ(u[i].bits(), u_ref[i].bits()) << label << " element " << i;
    }
    expect_fabric_state_identical(ref.fabric(), s.fabric(), label);
    expect_faults_identical(ref.fabric(), s.fabric(), label);
    expect_turbo_engaged(s.fabric(), label);
  }
}

// --- kernel programs: AllReduce -----------------------------------------

TEST(BackendConformance, AllReduceBitExactAcrossBackends) {
  testsupport::CleanSimEnv env;
  const CS1Params arch;
  proptest::check(
      "AllReduce turbo == reference",
      [&](proptest::Case& pc) {
        const int w = pc.size(2, 11);
        const int h = pc.size(2, 11);
        std::vector<float> contrib(static_cast<std::size_t>(w) *
                                   static_cast<std::size_t>(h));
        for (auto& v : contrib) {
          v = static_cast<float>(pc.uniform(-4.0, 4.0));
        }

        SimParams ref_sim;
        ref_sim.sim_threads = 1;
        ref_sim.backend = Backend::Reference;
        wsekernels::AllReduceSimulation ref(w, h, arch, ref_sim);
        ref.fabric().set_watchdog(0);
        const auto r_ref = ref.run(contrib);

        for (const int threads : kThreadCounts) {
          SimParams sim;
          sim.sim_threads = threads;
          sim.backend = Backend::Turbo;
          wsekernels::AllReduceSimulation s(w, h, arch, sim);
          s.fabric().set_watchdog(0);
          const auto r = s.run(contrib);
          const std::string label = "allreduce turbo threads=" +
                                    std::to_string(threads) + " fabric " +
                                    std::to_string(w) + "x" +
                                    std::to_string(h);
          EXPECT_EQ(r.cycles, r_ref.cycles) << label;
          ASSERT_EQ(r.values.size(), r_ref.values.size());
          for (std::size_t i = 0; i < r.values.size(); ++i) {
            ASSERT_TRUE(same_bits(r.values[i], r_ref.values[i]))
                << label << " value " << i;
          }
          expect_fabric_state_identical(ref.fabric(), s.fabric(), label);
          expect_turbo_engaged(s.fabric(), label);
        }
      },
      {.cases = 3, .seed = 4242});
}

TEST(BackendConformance, AllReduceWithFaultPlanBitExactAcrossBackends) {
  testsupport::CleanSimEnv env;
  const CS1Params arch;
  const int w = 6, h = 5;
  const FaultPlan plan = corrupt_everything_plan(w, h);
  std::vector<float> contrib(static_cast<std::size_t>(w) *
                             static_cast<std::size_t>(h));
  Rng rng(11);
  for (auto& v : contrib) v = static_cast<float>(rng.uniform(-2.0, 2.0));

  SimParams ref_sim;
  ref_sim.sim_threads = 1;
  ref_sim.backend = Backend::Reference;
  wsekernels::AllReduceSimulation ref(w, h, arch, ref_sim);
  ref.fabric().set_watchdog(0);
  ref.fabric().set_fault_plan(&plan);
  const auto r_ref = ref.run(contrib);
  ASSERT_GT(ref.fabric().fault_stats().wavelets_corrupted, 0u);

  for (const int threads : {1, 8}) {
    SimParams sim;
    sim.sim_threads = threads;
    sim.backend = Backend::Turbo;
    wsekernels::AllReduceSimulation s(w, h, arch, sim);
    s.fabric().set_watchdog(0);
    s.fabric().set_fault_plan(&plan);
    const auto r = s.run(contrib);
    const std::string label =
        "allreduce turbo+corrupt threads=" + std::to_string(threads);
    EXPECT_EQ(r.cycles, r_ref.cycles) << label;
    ASSERT_EQ(r.values.size(), r_ref.values.size());
    for (std::size_t i = 0; i < r.values.size(); ++i) {
      ASSERT_TRUE(same_bits(r.values[i], r_ref.values[i]))
          << label << " value " << i;
    }
    expect_fabric_state_identical(ref.fabric(), s.fabric(), label);
    expect_faults_identical(ref.fabric(), s.fabric(), label);
    expect_turbo_engaged(s.fabric(), label);
  }
}

// --- kernel programs: BiCGStab ------------------------------------------

struct BicgstabCase {
  Stencil7<fp16_t> a;
  Field3<fp16_t> b;
};

BicgstabCase make_bicgstab_case() {
  const Grid3 g(4, 3, 8);
  auto ad = make_random_dominant7(g, 0.5, 31);
  Field3<double> bd(g, 1.0);
  (void)precondition_jacobi(ad, bd);
  BicgstabCase c{convert_stencil<fp16_t>(ad), Field3<fp16_t>(g)};
  Rng rng(32);
  for (std::size_t i = 0; i < c.b.size(); ++i) {
    c.b[i] = fp16_t(rng.uniform(-1.0, 1.0));
  }
  return c;
}

void expect_bicgstab_results_identical(
    const wsekernels::BicgstabSimResult& want,
    const wsekernels::BicgstabSimResult& got, const std::string& label) {
  EXPECT_EQ(got.cycles, want.cycles) << label;
  EXPECT_EQ(got.iterations, want.iterations) << label;
  ASSERT_EQ(got.x.size(), want.x.size());
  for (std::size_t i = 0; i < got.x.size(); ++i) {
    ASSERT_EQ(got.x[i].bits(), want.x[i].bits()) << label << " x " << i;
    ASSERT_EQ(got.r[i].bits(), want.r[i].bits()) << label << " r " << i;
  }
  ASSERT_EQ(got.rho_history.size(), want.rho_history.size());
  for (std::size_t i = 0; i < got.rho_history.size(); ++i) {
    ASSERT_TRUE(same_bits(got.rho_history[i], want.rho_history[i]))
        << label << " rho " << i;
  }
}

TEST(BackendConformance, BicgstabBitExactAcrossBackends) {
  testsupport::CleanSimEnv env;
  const CS1Params arch;
  const BicgstabCase c = make_bicgstab_case();

  SimParams ref_sim;
  ref_sim.sim_threads = 1;
  ref_sim.backend = Backend::Reference;
  wsekernels::BicgstabSimulation ref(c.a, /*iterations=*/2, arch, ref_sim);
  ref.fabric().set_watchdog(0);
  const auto r_ref = ref.run(c.b);

  for (const int threads : kThreadCounts) {
    SimParams sim;
    sim.sim_threads = threads;
    sim.backend = Backend::Turbo;
    wsekernels::BicgstabSimulation s(c.a, /*iterations=*/2, arch, sim);
    s.fabric().set_watchdog(0);
    const auto r = s.run(c.b);
    const std::string label =
        "bicgstab turbo threads=" + std::to_string(threads);
    expect_bicgstab_results_identical(r_ref, r, label);
    expect_fabric_state_identical(ref.fabric(), s.fabric(), label);
    expect_turbo_engaged(s.fabric(), label);
  }
}

// --- queues deeper and links wider than the defaults ----------------------
//
// Every ring is sized from SimParams, and every other case here runs the
// default geometry (router queues 4, ramps 8, 2-halfword links). A
// capacity hard-coded to those defaults would pass them all; this case
// runs both backends on 16-flit router queues, 32-word ramps and
// 4-halfword links.

SimParams deep_sim(Backend backend, int threads) {
  SimParams sim;
  sim.router_queue_depth = 16;
  sim.ramp_queue_depth = 32;
  sim.link_halfwords_per_cycle = 4;
  sim.sim_threads = threads;
  sim.backend = backend;
  return sim;
}

/// Deepest ramp queue any tile of `f` reached.
std::uint64_t max_ramp_highwater(const Fabric& f) {
  std::uint64_t ramp = 0;
  for (int y = 0; y < f.height(); ++y) {
    for (int x = 0; x < f.width(); ++x) {
      ramp = std::max(ramp, f.core(x, y).stats().ramp_highwater);
    }
  }
  return ramp;
}

TEST(BackendConformance, DeepQueuesAndWideLinksBitExactAcrossBackends) {
  testsupport::CleanSimEnv env;
  const CS1Params arch;
  const SpmvCase sc = make_spmv_case(Grid3(5, 4, 16), 17);
  const BicgstabCase bc = make_bicgstab_case();

  wsekernels::SpMV3DSimulation spmv_ref(sc.a, arch,
                                        deep_sim(Backend::Reference, 1));
  spmv_ref.fabric().set_watchdog(0);
  const auto u_ref = spmv_ref.run(sc.v);
  wsekernels::BicgstabSimulation bicg_ref(bc.a, /*iterations=*/2, arch,
                                          deep_sim(Backend::Reference, 1));
  bicg_ref.fabric().set_watchdog(0);
  const auto r_ref = bicg_ref.run(bc.b);
  // The ramps must really use the extra depth, or the runs only repeat
  // the default-geometry cases. (These kernels never queue more than a
  // couple of flits per router queue; Fabric.DeepQueuesFillBehind-
  // StalledReceiver fills a depth-16 one.)
  EXPECT_GT(std::max(max_ramp_highwater(spmv_ref.fabric()),
                     max_ramp_highwater(bicg_ref.fabric())),
            8u);

  for (const Backend backend : {Backend::Reference, Backend::Turbo}) {
    for (const int threads : kThreadCounts) {
      const std::string label =
          std::string(backend == Backend::Turbo ? "turbo" : "reference") +
          " deep threads=" + std::to_string(threads);

      wsekernels::SpMV3DSimulation spmv(sc.a, arch, deep_sim(backend, threads));
      spmv.fabric().set_watchdog(0);
      const auto u = spmv.run(sc.v);
      ASSERT_EQ(u.size(), u_ref.size());
      for (std::size_t i = 0; i < u.size(); ++i) {
        ASSERT_EQ(u[i].bits(), u_ref[i].bits()) << label << " spmv " << i;
      }
      EXPECT_EQ(spmv.last_run_cycles(), spmv_ref.last_run_cycles()) << label;
      expect_fabric_state_identical(spmv_ref.fabric(), spmv.fabric(),
                                    label + " spmv");

      wsekernels::BicgstabSimulation bicg(bc.a, /*iterations=*/2, arch,
                                          deep_sim(backend, threads));
      bicg.fabric().set_watchdog(0);
      const auto r = bicg.run(bc.b);
      expect_bicgstab_results_identical(r_ref, r, label + " bicgstab");
      expect_fabric_state_identical(bicg_ref.fabric(), bicg.fabric(),
                                    label + " bicgstab");
      if (backend == Backend::Turbo) {
        expect_turbo_engaged(spmv.fabric(), label + " spmv");
        expect_turbo_engaged(bicg.fabric(), label + " bicgstab");
      }
    }
  }
}

// --- kernel programs: 9-point stencil halo exchange ---------------------
//
// The paper's spmv2d works a 2D domain with a separable halo exchange:
// corner neighbors travel two one-hop legs (east/west first, then the
// row-summed values north/south). This program reproduces that shape as a
// pure fabric workload: each tile holds L fp16 values, exchanges with its
// row neighbors, accumulates a row sum, exchanges that with its column
// neighbors, and finishes with the full 9-point neighborhood sum. Colors
// are parity-split per direction so a forwarding rule and a delivery rule
// for the same color never land on one tile:
//   east sends:  color x%2       west sends:  color 2 + x%2
//   south sends: color 4 + y%2   north sends: color 6 + y%2
// Delivery channel == color. L <= 4 keeps every Send within the output
// queue depth, so sends complete without the receiver draining (no
// send-chain deadlock by construction).

TileProgram stencil9_program(int x, int y, int w, int h, int len) {
  TileProgram prog;
  MemAllocator mem(48 * 1024);
  const int own = mem.allocate(len, DType::F16);
  const int acc = mem.allocate(len, DType::F16);
  const int res = mem.allocate(len, DType::F16);

  // Every instruction gets its own tensor descriptor: descriptors are
  // stateful (pos advances as elements stream), so reuse would leave a
  // later instruction with an exhausted view.
  const auto tensor = [&](int base) {
    return prog.add_tensor({base, len, 1, DType::F16, 0});
  };
  Task t{"stencil9", false, false, false, {}};
  const auto sync = [&](Instr in) {
    t.steps.push_back({TaskStep::Kind::Sync, -1, in, kNoTask});
  };
  const auto copy = [&](int dst_base, int src_base) {
    Instr cp{};
    cp.op = OpKind::CopyV;
    cp.dst = tensor(dst_base);
    cp.src1 = tensor(src_base);
    sync(cp);
  };
  const auto send = [&](int src_base, int color) {
    Instr s{};
    s.op = OpKind::Send;
    s.src1 = tensor(src_base);
    s.fabric = prog.add_fabric({static_cast<Color>(color), len, DType::F16, 0,
                                kNoTask, TrigAction::None});
    sync(s);
  };
  const auto recv_add = [&](int dst_base, int channel) {
    Instr r{};
    r.op = OpKind::RecvAddTo;
    r.dst = tensor(dst_base);
    r.fabric = prog.add_fabric(
        {channel, len, DType::F16, 0, kNoTask, TrigAction::None});
    sync(r);
  };

  copy(acc, own);                               // acc = own
  if (x + 1 < w) send(own, x % 2);              // own -> east neighbor
  if (x > 0) send(own, 2 + x % 2);              // own -> west neighbor
  if (x > 0) recv_add(acc, (x - 1) % 2);        // acc += west own
  if (x + 1 < w) recv_add(acc, 2 + (x + 1) % 2);  // acc += east own
  copy(res, acc);                               // res = row sum
  if (y + 1 < h) send(acc, 4 + y % 2);          // row sum -> south
  if (y > 0) send(acc, 6 + y % 2);              // row sum -> north
  if (y > 0) recv_add(res, 4 + (y - 1) % 2);    // res += north row sum
  if (y + 1 < h) recv_add(res, 6 + (y + 1) % 2);  // res += south row sum
  t.steps.push_back({TaskStep::Kind::SetDone, -1, {}, kNoTask});
  prog.add_task(std::move(t));
  prog.initial_task = 0;
  prog.memory_halfwords = mem.used_halfwords();
  return prog;
}

RoutingTable stencil9_routes(int x, int y, int w, int h) {
  RoutingTable rt;
  if (x + 1 < w) rt.rule(static_cast<Color>(x % 2)).add_forward(Dir::East);
  if (x > 0) {
    rt.rule(static_cast<Color>(2 + x % 2)).add_forward(Dir::West);
    rt.rule(static_cast<Color>((x - 1) % 2))
        .deliver_channels.push_back((x - 1) % 2);
  }
  if (x + 1 < w) {
    rt.rule(static_cast<Color>(2 + (x + 1) % 2))
        .deliver_channels.push_back(2 + (x + 1) % 2);
  }
  if (y + 1 < h) rt.rule(static_cast<Color>(4 + y % 2)).add_forward(Dir::South);
  if (y > 0) {
    rt.rule(static_cast<Color>(6 + y % 2)).add_forward(Dir::North);
    rt.rule(static_cast<Color>(4 + (y - 1) % 2))
        .deliver_channels.push_back(4 + (y - 1) % 2);
  }
  if (y + 1 < h) {
    rt.rule(static_cast<Color>(6 + (y + 1) % 2))
        .deliver_channels.push_back(6 + (y + 1) % 2);
  }
  return rt;
}

Fabric stencil9_fabric(int w, int h, int len,
                       const std::vector<fp16_t>& values, Backend backend,
                       int threads, const CS1Params& arch) {
  SimParams sim;
  sim.sim_threads = threads;
  sim.backend = backend;
  Fabric f(w, h, arch, sim);
  f.set_watchdog(0);
  for (int y = 0; y < h; ++y) {
    for (int x = 0; x < w; ++x) {
      f.configure_tile(x, y, stencil9_program(x, y, w, h, len),
                       stencil9_routes(x, y, w, h));
      for (int i = 0; i < len; ++i) {
        f.core(x, y).host_write_f16(
            i, values[static_cast<std::size_t>((y * w + x) * len + i)]);
      }
    }
  }
  return f;
}

/// Host mirror of the program's exact fp16 accumulation order:
/// rowsum = (own + west) + east; result = (rowsum + north) + south.
std::vector<fp16_t> stencil9_expected(int w, int h, int len,
                                      const std::vector<fp16_t>& values) {
  const auto at = [&](int x, int y, int i) {
    return values[static_cast<std::size_t>((y * w + x) * len + i)];
  };
  std::vector<fp16_t> rowsum(values.size());
  for (int y = 0; y < h; ++y) {
    for (int x = 0; x < w; ++x) {
      for (int i = 0; i < len; ++i) {
        fp16_t s = at(x, y, i);
        if (x > 0) s = s + at(x - 1, y, i);
        if (x + 1 < w) s = s + at(x + 1, y, i);
        rowsum[static_cast<std::size_t>((y * w + x) * len + i)] = s;
      }
    }
  }
  std::vector<fp16_t> result(values.size());
  const auto rs = [&](int x, int y, int i) {
    return rowsum[static_cast<std::size_t>((y * w + x) * len + i)];
  };
  for (int y = 0; y < h; ++y) {
    for (int x = 0; x < w; ++x) {
      for (int i = 0; i < len; ++i) {
        fp16_t s = rs(x, y, i);
        if (y > 0) s = s + rs(x, y - 1, i);
        if (y + 1 < h) s = s + rs(x, y + 1, i);
        result[static_cast<std::size_t>((y * w + x) * len + i)] = s;
      }
    }
  }
  return result;
}

TEST(BackendConformance, Stencil9ExchangeBitExactAcrossBackends) {
  testsupport::CleanSimEnv env;
  const CS1Params arch;
  proptest::check(
      "9-point stencil exchange turbo == reference",
      [&](proptest::Case& pc) {
        const int w = pc.size(2, 6);
        const int h = pc.size(2, 6);
        const int len = pc.size(1, 4);
        std::vector<fp16_t> values(
            static_cast<std::size_t>(w * h * len));
        for (auto& v : values) v = fp16_t(pc.uniform(-1.0, 1.0));
        const std::vector<fp16_t> expected =
            stencil9_expected(w, h, len, values);
        // res sits after own and acc in tile memory.
        const int res_base = 2 * len;

        Fabric ref =
            stencil9_fabric(w, h, len, values, Backend::Reference, 1, arch);
        const StopInfo ref_stop = ref.run(20000);
        ASSERT_EQ(ref_stop.reason, StopInfo::Reason::AllDone)
            << StopInfo::to_string(ref_stop.reason);
        // The program itself must compute the 9-point neighborhood sum in
        // the documented fp16 order — anchors the differential to ground
        // truth, not just to itself.
        for (int y = 0; y < h; ++y) {
          for (int x = 0; x < w; ++x) {
            for (int i = 0; i < len; ++i) {
              ASSERT_EQ(
                  ref.core(x, y).host_read_f16(res_base + i).bits(),
                  expected[static_cast<std::size_t>((y * w + x) * len + i)]
                      .bits())
                  << "tile (" << x << "," << y << ") elem " << i;
            }
          }
        }

        for (const int threads : kThreadCounts) {
          Fabric tur =
              stencil9_fabric(w, h, len, values, Backend::Turbo, threads, arch);
          const StopInfo tur_stop = tur.run(20000);
          const std::string label = "stencil9 turbo threads=" +
                                    std::to_string(threads) + " fabric " +
                                    std::to_string(w) + "x" +
                                    std::to_string(h);
          expect_stop_identical(ref_stop, tur_stop, label);
          expect_fabric_state_identical(ref, tur, label);
          for (int y = 0; y < h; ++y) {
            for (int x = 0; x < w; ++x) {
              for (int i = 0; i < len; ++i) {
                ASSERT_EQ(tur.core(x, y).host_read_f16(res_base + i).bits(),
                          ref.core(x, y).host_read_f16(res_base + i).bits())
                    << label << " tile (" << x << "," << y << ") elem " << i;
              }
            }
          }
          expect_turbo_engaged(tur, label);
        }
      },
      {.cases = 4, .seed = 1859});
}

TEST(BackendConformance, Stencil9WithFaultPlanBitExactAcrossBackends) {
  testsupport::CleanSimEnv env;
  const CS1Params arch;
  const int w = 5, h = 4, len = 3;
  const FaultPlan plan = corrupt_everything_plan(w, h);
  std::vector<fp16_t> values(static_cast<std::size_t>(w * h * len));
  Rng rng(21);
  for (auto& v : values) v = fp16_t(rng.uniform(-1.0, 1.0));
  const int res_base = 2 * len;

  Fabric ref = stencil9_fabric(w, h, len, values, Backend::Reference, 1, arch);
  ref.set_fault_plan(&plan);
  const StopInfo ref_stop = ref.run(20000);
  ASSERT_EQ(ref_stop.reason, StopInfo::Reason::AllDone)
      << StopInfo::to_string(ref_stop.reason);
  ASSERT_GT(ref.fault_stats().wavelets_corrupted, 0u);

  for (const int threads : {1, 8}) {
    Fabric tur = stencil9_fabric(w, h, len, values, Backend::Turbo, threads,
                                 arch);
    tur.set_fault_plan(&plan);
    const StopInfo tur_stop = tur.run(20000);
    const std::string label =
        "stencil9 turbo+corrupt threads=" + std::to_string(threads);
    expect_stop_identical(ref_stop, tur_stop, label);
    expect_fabric_state_identical(ref, tur, label);
    expect_faults_identical(ref, tur, label);
    expect_turbo_engaged(tur, label);
    for (int y = 0; y < h; ++y) {
      for (int x = 0; x < w; ++x) {
        for (int i = 0; i < len; ++i) {
          ASSERT_EQ(tur.core(x, y).host_read_f16(res_base + i).bits(),
                    ref.core(x, y).host_read_f16(res_base + i).bits())
              << label << " tile (" << x << "," << y << ") elem " << i;
        }
      }
    }
  }
}

} // namespace
} // namespace wss::wse
