#pragma once

// Turbo execution backend: SoA occupancy/parking state (docs/BACKENDS.md).
//
// The reference interpreter walks every tile's full object graph every
// cycle — 4 directions x 24 colors of (mostly empty) virtual-channel
// queues per router phase plus a scheduler pass per core — which makes the
// simulator memory-bound on queue metadata long before any real work
// happens. The queues are fixed-capacity rings (wse/fifo_ring.hpp) sized
// once from SimParams, one allocation per router and per core, so no
// flit push allocates on either backend. After the route compiler runs the fabric's steady state is
// static: almost every queue is empty and almost every core is either
// computing or provably idle. The turbo backend exploits exactly that and
// nothing else:
//
//   * RouterState keeps per-direction occupancy bitmasks (one bit per
//     color, maintained unconditionally by both backends), so the turbo
//     route/link phases visit only queues that hold flits;
//   * this TurboState mirrors the per-tile facts the phases need for their
//     skip tests into dense byte arrays — the Tile array itself has a
//     multi-KB stride, so per-tile loads through it are cache misses;
//   * cores in the absorbing idle state (no occupied slot, no runnable
//     task, empty ramp queues — deliveries never activate tasks, so such a
//     core cannot wake itself) are parked: their step is exactly
//     TileCore::step_parked(), one idle-cycle increment.
//
// None of this changes semantics: both backends run the same phase bodies
// in fabric.cpp, observer and fault hooks included, and differ only in
// what they visit. Bit-identity against the reference backend — result
// bits, cycle counts, heatmaps, every counter and observer record, at any
// thread count, with or without a fault plan — is enforced by
// tests/wse/backend_conformance_test.cpp and turbo_fallback_test.cpp.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

namespace wss::wse {

/// Host-side bookkeeping counters of the turbo backend itself (how it ran,
/// never what it simulated — simulated results are backend-invariant).
struct TurboStats {
  /// Times the SoA mirror was (re)built from fabric state: the first turbo
  /// step, and the first turbo step after reset_control, configure_tile or
  /// set_backend. Attaching an observer or a fault plan rebuilds nothing.
  std::uint64_t promotions = 0;
  /// Cycles stepped by the turbo fast path.
  std::uint64_t turbo_cycles = 0;
  /// Core steps satisfied by parking (one per parked tile per turbo cycle).
  std::uint64_t parked_tile_cycles = 0;
  /// Backpressure events in the turbo route phase (a flit held in its
  /// virtual channel because a forward queue or ramp was full) — the
  /// "contention slow path" taken per tile, with reference semantics.
  std::uint64_t contended_tile_cycles = 0;
};

/// Dense SoA mirror of the per-tile facts the turbo phases test before
/// touching a tile. Allocated on first promotion, rebuilt (cheaply, from
/// the always-exact occupancy masks) whenever `live` was dropped.
struct TurboState {
  explicit TurboState(std::size_t tiles)
      : configured(tiles, 0), parked(tiles, 0), done(tiles, 0),
        link_pending(tiles, 0),
        route_pending(new std::atomic<std::uint8_t>[tiles]) {
    for (std::size_t i = 0; i < tiles; ++i) {
      route_pending[i].store(0, std::memory_order_relaxed);
    }
  }

  /// True while the mirror matches fabric state; dropped by any structural
  /// mutation, re-established by the next promotion.
  bool live = false;
  TurboStats stats;

  std::vector<std::uint8_t> configured; ///< tile has a core
  std::vector<std::uint8_t> parked;     ///< core is in the absorbing idle state
  std::vector<std::uint8_t> done;       ///< core's done flag (frozen while parked)
  std::vector<std::uint8_t> link_pending; ///< any out_queue holds a flit
  /// Any in_queue holds a flit. Atomic (relaxed) because during the link
  /// phase several source tiles — possibly in different row bands — mark
  /// the same destination tile; all writers store 1, so ordering is
  /// irrelevant, but the bytes must not race.
  std::unique_ptr<std::atomic<std::uint8_t>[]> route_pending;

  /// Per-band counter staging, reduced in band order after each step so
  /// TurboStats is bit-identical at any thread count.
  struct BandCounters {
    std::uint64_t parked = 0;
    std::uint64_t contended = 0;
  };
  std::vector<BandCounters> band;
};

} // namespace wss::wse
