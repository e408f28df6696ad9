// Cross-backend state-leak isolation: two fabrics on different execution
// backends in one process must not contaminate each other — not in
// per-tile counters or heatmaps (the turbo SoA mirror is per-fabric, not
// global), and not in telemetry outputs (ledger entries and time-series
// artifacts stay distinct via the claim_output_stem pattern even when a
// turbo run and a reference run finish back to back, with every
// env-attached observer riding the turbo run).

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "stencil/generators.hpp"
#include "support/env_guard.hpp"
#include "support/fabric_compare.hpp"
#include "support/proptest.hpp"
#include "telemetry/io.hpp"
#include "telemetry/ledger.hpp"
#include "telemetry/timeseries.hpp"
#include "wse/fabric.hpp"
#include "wsekernels/spmv3d_program.hpp"

namespace wss::wse {
namespace {

namespace fabricgen = proptest::fabricgen;
using testsupport::expect_fabric_state_identical;

std::string temp_dir(const std::string& leaf) {
  std::string dir = ::testing::TempDir() + "wss_backend_iso_" + leaf;
  std::filesystem::remove_all(dir);
  return dir;
}

SimParams params_for(Backend backend) {
  SimParams sim;
  sim.sim_threads = 1;
  sim.backend = backend;
  return sim;
}

TEST(BackendIsolation, InterleavedFabricsMatchTheirSoloGoldens) {
  testsupport::CleanSimEnv env;
  static const CS1Params arch;

  // Two distinct random workloads, one per backend. Holes are filled in
  // (idle tiles) so the runs end AllDone — hole semantics get their own
  // coverage in the conformance suite.
  proptest::Case case_a(1111, 100);
  proptest::Case case_b(2222, 100);
  fabricgen::Scenario sc_a =
      fabricgen::make_scenario(case_a, /*with_faults=*/false);
  fabricgen::Scenario sc_b =
      fabricgen::make_scenario(case_b, /*with_faults=*/false);
  sc_a.configured.assign(sc_a.configured.size(), 1);
  sc_b.configured.assign(sc_b.configured.size(), 1);

  // Solo goldens: each scenario run alone on its own backend.
  Fabric gold_a = sc_a.instantiate(arch, params_for(Backend::Turbo));
  gold_a.set_watchdog(0);
  (void)gold_a.run(sc_a.budget);
  ASSERT_TRUE(gold_a.all_done());
  Fabric gold_b = sc_b.instantiate(arch, params_for(Backend::Reference));
  gold_b.set_watchdog(0);
  (void)gold_b.run(sc_b.budget);
  ASSERT_TRUE(gold_b.all_done());

  // Interleaved: one cycle of A (turbo), one cycle of B (reference),
  // repeat. Any shared mutable state between the two execution backends
  // would show up as a divergence from the solo goldens.
  Fabric a = sc_a.instantiate(arch, params_for(Backend::Turbo));
  a.set_watchdog(0);
  Fabric b = sc_b.instantiate(arch, params_for(Backend::Reference));
  b.set_watchdog(0);
  for (std::uint64_t i = 0; i < sc_a.budget + sc_b.budget; ++i) {
    if (!a.all_done()) a.step();
    if (!b.all_done()) b.step();
    if (a.all_done() && b.all_done()) break;
  }
  ASSERT_TRUE(a.all_done());
  ASSERT_TRUE(b.all_done());

  expect_fabric_state_identical(gold_a, a, "interleaved turbo fabric");
  expect_fabric_state_identical(gold_b, b, "interleaved reference fabric");

  // A ran on the fast path the whole way; B never touched it.
  EXPECT_GE(a.turbo_stats().promotions, 1u);
  EXPECT_EQ(a.turbo_stats().turbo_cycles, a.stats().cycles);
  EXPECT_EQ(b.turbo_stats().promotions, 0u);
  EXPECT_EQ(b.turbo_stats().turbo_cycles, 0u);
  EXPECT_EQ(b.turbo_stats().parked_tile_cycles, 0u);
}

TEST(BackendIsolation, LedgerAndTimeseriesStayDistinctAcrossBackends) {
  // Two kernel runs in one process, one per backend, with run forensics
  // live under CI's observer env (sampler, net monitor, watchdog,
  // post-mortem dir): two ledger entries, two distinct time-series
  // artifacts, and — because the backends are conformant and observers
  // ride turbo's fast path — identical cycle counts and frames.
  testsupport::CleanSimEnv env;
  const std::string dir = temp_dir("ledger");
  env.sample.set("64");
  env.ledger.set(dir.c_str());
  env.netflows.set("1");
  env.watchdog.set("200000");
  env.postmortem.set(dir.c_str());
  telemetry::reset_output_stem_claims();

  // SpMV declares its flows, so WSS_NETFLOWS really attaches a monitor.
  static const CS1Params arch;
  const Grid3 g(3, 3, 4);
  auto ad = make_random_dominant7(g, 0.5, 3);
  Field3<double> b(g, 1.0);
  (void)precondition_jacobi(ad, b);
  const auto a = convert_stencil<fp16_t>(ad);
  const Field3<fp16_t> v(g, fp16_t(0.5));
  wsekernels::SpMV3DSimulation turbo_sim(a, arch, params_for(Backend::Turbo));
  const auto turbo_u = turbo_sim.run(v);
  EXPECT_EQ(turbo_sim.fabric().turbo_stats().turbo_cycles,
            turbo_sim.fabric().stats().cycles);
  wsekernels::SpMV3DSimulation ref_sim(a, arch, params_for(Backend::Reference));
  const auto ref_u = ref_sim.run(v);
  EXPECT_EQ(turbo_sim.last_run_cycles(), ref_sim.last_run_cycles());
  for (std::size_t i = 0; i < ref_u.size(); ++i) {
    EXPECT_EQ(turbo_u[i].bits(), ref_u[i].bits()) << i;
  }

  telemetry::Ledger ledger;
  std::string error;
  ASSERT_TRUE(telemetry::load_ledger(dir, &ledger, &error)) << error;
  EXPECT_EQ(ledger.skipped_lines, 0u);
  ASSERT_EQ(ledger.runs.size(), 2u);
  EXPECT_NE(ledger.runs[0].run_id, ledger.runs[1].run_id);
  EXPECT_EQ(ledger.runs[0].cycles, ledger.runs[1].cycles);

  std::vector<std::string> series_paths;
  for (const telemetry::RunManifest& run : ledger.runs) {
    EXPECT_EQ(run.outcome, "all_done");
    EXPECT_EQ(run.width, 3);
    EXPECT_EQ(run.height, 3);
    for (const telemetry::RunArtifact& artifact : run.artifacts) {
      if (artifact.kind == "timeseries") series_paths.push_back(artifact.path);
    }
  }
  ASSERT_EQ(series_paths.size(), 2u);
  EXPECT_NE(series_paths[0], series_paths[1]);
  std::vector<telemetry::TimeSeries> series(2);
  for (std::size_t i = 0; i < 2; ++i) {
    ASSERT_TRUE(telemetry::load_timeseries(series_paths[i], &series[i], &error))
        << error;
    EXPECT_TRUE(telemetry::self_check_timeseries(series[i], &error)) << error;
    EXPECT_GT(series[i].frames.size(), 0u);
    EXPECT_TRUE(series[i].frames.front().has_net) << series_paths[i];
  }
  const telemetry::FrameDivergence d =
      telemetry::first_frame_divergence(series[0], series[1]);
  EXPECT_FALSE(d.found) << telemetry::pretty_frame_divergence(d);
}

} // namespace
} // namespace wss::wse
