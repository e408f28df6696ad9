#pragma once

// Shared differential assertions over two fabrics that are claimed to be
// observably identical — the common currency of the parallel-conformance
// suite (serial vs banded-parallel stepping) and the backend-conformance
// suite (reference vs turbo execution backend). "Identical" is strict:
// fabric stats, per-tile core counters, per-tile router counters, done
// flags, the telemetry heatmap grids harvested from them, and (for runs)
// the StopInfo, the fault-injection record and the cycle-attribution
// profile.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "telemetry/heatmap.hpp"
#include "telemetry/profiler.hpp"
#include "wse/fabric.hpp"

namespace wss::testsupport {

/// Assert every observable counter of `got` matches `want`: fabric stats,
/// per-tile core stats, per-tile router stats, and the telemetry heatmaps
/// harvested from them. `label` names the differential configuration.
inline void expect_fabric_state_identical(const wse::Fabric& want,
                                          const wse::Fabric& got,
                                          const std::string& label) {
  ASSERT_EQ(want.width(), got.width());
  ASSERT_EQ(want.height(), got.height());
  EXPECT_EQ(want.stats().cycles, got.stats().cycles) << label;
  EXPECT_EQ(want.stats().link_transfers, got.stats().link_transfers) << label;

  for (int y = 0; y < want.height(); ++y) {
    for (int x = 0; x < want.width(); ++x) {
      ASSERT_EQ(want.has_core(x, y), got.has_core(x, y)) << label;
      if (!want.has_core(x, y)) continue;
      const std::string at =
          label + " tile (" + std::to_string(x) + "," + std::to_string(y) + ")";
      const wse::CoreStats& a = want.core(x, y).stats();
      const wse::CoreStats& b = got.core(x, y).stats();
      EXPECT_EQ(a.instr_cycles, b.instr_cycles) << at;
      EXPECT_EQ(a.stall_cycles, b.stall_cycles) << at;
      EXPECT_EQ(a.idle_cycles, b.idle_cycles) << at;
      EXPECT_EQ(a.elements_processed, b.elements_processed) << at;
      EXPECT_EQ(a.words_sent, b.words_sent) << at;
      EXPECT_EQ(a.words_received, b.words_received) << at;
      EXPECT_EQ(a.task_invocations, b.task_invocations) << at;
      EXPECT_EQ(a.fifo_highwater, b.fifo_highwater) << at;
      EXPECT_EQ(a.ramp_highwater, b.ramp_highwater) << at;
      const wse::RouterStats& ra = want.router_stats(x, y);
      const wse::RouterStats& rb = got.router_stats(x, y);
      EXPECT_EQ(ra.flits_forwarded, rb.flits_forwarded) << at;
      EXPECT_EQ(ra.queue_highwater, rb.queue_highwater) << at;
      EXPECT_EQ(want.core(x, y).done(), got.core(x, y).done()) << at;
    }
  }

  // The telemetry layer must see the same world: heatmap grids are the
  // collection path every downstream consumer (CSV export, postmortem
  // diffing) reads.
  const auto maps_want = telemetry::collect_heatmaps(want);
  const auto maps_got = telemetry::collect_heatmaps(got);
  const auto all_want = maps_want.all();
  const auto all_got = maps_got.all();
  ASSERT_EQ(all_want.size(), all_got.size());
  for (std::size_t m = 0; m < all_want.size(); ++m) {
    EXPECT_EQ(all_want[m]->cells, all_got[m]->cells)
        << label << " heatmap " << all_want[m]->name;
  }
}

/// Assert two Fabric::run() outcomes match field for field, deadlock
/// forensics included.
inline void expect_stop_identical(const wse::StopInfo& want,
                                  const wse::StopInfo& got,
                                  const std::string& label) {
  EXPECT_EQ(static_cast<int>(want.reason), static_cast<int>(got.reason))
      << label << " (want " << wse::StopInfo::to_string(want.reason)
      << ", got " << wse::StopInfo::to_string(got.reason) << ")";
  EXPECT_EQ(want.cycles, got.cycles) << label;
  EXPECT_EQ(want.deadlock, got.deadlock) << label;
  EXPECT_EQ(want.stalled_cycles, got.stalled_cycles) << label;
  EXPECT_EQ(want.blocked_tiles, got.blocked_tiles) << label;
  EXPECT_EQ(want.report, got.report) << label;
}

/// Assert the fault-injection record of two runs matches: aggregate stats,
/// the bounded event log, its overflow count, and the per-tile injection
/// heatmap source.
inline void expect_faults_identical(const wse::Fabric& want,
                                    const wse::Fabric& got,
                                    const std::string& label) {
  EXPECT_EQ(want.fault_stats(), got.fault_stats()) << label;
  EXPECT_EQ(want.fault_log_dropped(), got.fault_log_dropped()) << label;
  const auto& lw = want.fault_log();
  const auto& lg = got.fault_log();
  ASSERT_EQ(lw.size(), lg.size()) << label;
  for (std::size_t i = 0; i < lw.size(); ++i) {
    EXPECT_EQ(lw[i], lg[i]) << label << " fault event " << i;
  }
  for (int y = 0; y < want.height(); ++y) {
    for (int x = 0; x < want.width(); ++x) {
      EXPECT_EQ(want.fault_injections(x, y), got.fault_injections(x, y))
          << label << " tile (" << x << "," << y << ")";
    }
  }
}

/// Assert two cycle-attribution profiles match: per-tile bins, compute
/// intervals, wavelet edges and iteration marks, plus the JSON report and
/// the derived iteration windows and critical paths.
inline void expect_profiles_identical(const telemetry::Profiler& want,
                                      const telemetry::Profiler& got,
                                      const std::string& label) {
  ASSERT_EQ(want.width(), got.width()) << label;
  ASSERT_EQ(want.height(), got.height()) << label;
  EXPECT_EQ(want.observed_cycles(), got.observed_cycles()) << label;
  for (int y = 0; y < want.height(); ++y) {
    for (int x = 0; x < want.width(); ++x) {
      const telemetry::TileProfile& a = want.tile(x, y);
      const telemetry::TileProfile& b = got.tile(x, y);
      const std::string at =
          label + " tile (" + std::to_string(x) + "," + std::to_string(y) +
          ")";
      ASSERT_EQ(a.configured, b.configured) << at;
      EXPECT_EQ(a.cycles, b.cycles) << at;
      EXPECT_EQ(a.compute_intervals, b.compute_intervals) << at;
      ASSERT_EQ(a.recvs.size(), b.recvs.size()) << at;
      for (std::size_t i = 0; i < a.recvs.size(); ++i) {
        EXPECT_EQ(a.recvs[i].recv_cycle, b.recvs[i].recv_cycle) << at;
        EXPECT_EQ(a.recvs[i].send_cycle, b.recvs[i].send_cycle) << at;
        EXPECT_EQ(a.recvs[i].src_x, b.recvs[i].src_x) << at;
        EXPECT_EQ(a.recvs[i].src_y, b.recvs[i].src_y) << at;
      }
      ASSERT_EQ(a.iter_marks.size(), b.iter_marks.size()) << at;
      for (std::size_t i = 0; i < a.iter_marks.size(); ++i) {
        EXPECT_EQ(a.iter_marks[i].iteration, b.iter_marks[i].iteration) << at;
        EXPECT_EQ(a.iter_marks[i].cycle, b.iter_marks[i].cycle) << at;
      }
      EXPECT_EQ(a.recvs_dropped, b.recvs_dropped) << at;
    }
  }
  // Byte-identical reports and identical derived analyses.
  EXPECT_EQ(want.to_json(), got.to_json()) << label;
  EXPECT_EQ(want.iteration_windows(), got.iteration_windows()) << label;
  const auto pa = telemetry::per_iteration_critical_paths(want);
  const auto pb = telemetry::per_iteration_critical_paths(got);
  ASSERT_EQ(pa.size(), pb.size()) << label;
  for (std::size_t i = 0; i < pa.size(); ++i) {
    EXPECT_EQ(pa[i].pretty(), pb[i].pretty()) << label;
  }
}

} // namespace wss::testsupport
