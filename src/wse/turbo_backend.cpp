// Turbo backend mirror upkeep (docs/BACKENDS.md; state in
// turbo_backend.hpp). The phases themselves live in fabric.cpp, built once
// per backend; this file builds the SoA mirror and answers the run loop's
// all-done and quiescence questions from it.

#include "wse/fabric.hpp"

namespace wss::wse {

void Fabric::turbo_promote() {
  if (turbo_ == nullptr) {
    turbo_ = std::make_unique<TurboState>(tiles_.size());
  }
  TurboState& ts = *turbo_;
  for (std::size_t i = 0; i < tiles_.size(); ++i) {
    const Tile& t = tiles_[i];
    ts.configured[i] = t.core != nullptr ? 1 : 0;
    // TileCore::quiescent() is exactly the absorbing parked predicate: no
    // occupied slot, no runnable task, empty ramp queues.
    ts.parked[i] = (t.core != nullptr && t.core->quiescent()) ? 1 : 0;
    ts.done[i] = (t.core != nullptr && t.core->done()) ? 1 : 0;
    ts.route_pending[i].store(t.router.in_any() ? 1 : 0,
                              std::memory_order_relaxed);
    ts.link_pending[i] = t.router.out_any() ? 1 : 0;
  }
  ts.live = true;
  ++ts.stats.promotions;
}

bool Fabric::turbo_quiescent() const {
  // Mirror of the reference scan over the dense arrays. Reference parity
  // notes: unconfigured tiles are skipped entirely (the reference loop
  // `continue`s past them, queues and all), and parked implies core
  // quiescence by construction (parking requires it; deliveries unpark).
  const TurboState& ts = *turbo_;
  for (std::size_t i = 0; i < tiles_.size(); ++i) {
    if (ts.configured[i] == 0) continue;
    if (ts.route_pending[i].load(std::memory_order_relaxed) != 0) {
      return false;
    }
    if (ts.link_pending[i] != 0) return false;
    if (ts.parked[i] == 0 && !tiles_[i].core->quiescent()) return false;
  }
  return true;
}

bool Fabric::turbo_all_done() const {
  const TurboState& ts = *turbo_;
  for (std::size_t i = 0; i < tiles_.size(); ++i) {
    // Reference parity: an unconfigured tile makes all_done false.
    if (ts.configured[i] == 0 || ts.done[i] == 0) return false;
  }
  return true;
}

} // namespace wss::wse
