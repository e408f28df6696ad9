#include "wse/fabric.hpp"

#include <algorithm>
#include <bit>
#include <limits>
#include <stdexcept>
#include <string>

// Header-only recording surfaces; create no link dependency on
// wss_telemetry (analysis lives there, the fabric only records).
#include "common/env.hpp"
#include "telemetry/flightrec.hpp"
#include "telemetry/netmon.hpp"
#include "telemetry/profiler.hpp"
#include "telemetry/timeseries.hpp"

namespace wss::wse {

namespace {

/// Map a core step outcome (plus fault context) to a profiler category.
telemetry::CycleCat categorize(StepOutcome outcome, bool router_faulted) {
  switch (outcome) {
    case StepOutcome::Compute:
      return telemetry::CycleCat::Compute;
    case StepOutcome::Idle:
      return telemetry::CycleCat::Idle;
    case StepOutcome::StallSend:
    case StepOutcome::StallRecv:
    case StepOutcome::StallOther:
      // A stalled core under an injected router-stall window is the
      // fault's doing, whatever port the core blames.
      if (router_faulted) return telemetry::CycleCat::RouterStall;
      if (outcome == StepOutcome::StallSend) {
        return telemetry::CycleCat::SendBlocked;
      }
      // StallOther (e.g. the only busy slot retired with zero work while
      // waiting for upstream data) counts as recv-starved: the tile had
      // work it could not feed.
      return telemetry::CycleCat::RecvStarved;
  }
  return telemetry::CycleCat::Idle;
}

/// SimParams::watchdog_cycles, or WSS_WATCHDOG_CYCLES when 0 (strict
/// parse), or 0 = disabled — mirroring resolve_sim_threads.
std::uint64_t resolve_watchdog_cycles(std::uint64_t requested) {
  if (requested != 0) return requested;
  return env::parse_u64("WSS_WATCHDOG_CYCLES", 0);
}

/// SimParams::backend, with Auto resolved against WSS_SIM_BACKEND —
/// mirroring resolve_sim_threads / resolve_watchdog_cycles. Strict: an
/// unknown value is a configuration error, not a silent reference run.
Backend resolve_backend(Backend requested) {
  if (requested != Backend::Auto) return requested;
  const std::string v = env::parse_string("WSS_SIM_BACKEND");
  if (v.empty() || v == "reference") return Backend::Reference;
  if (v == "turbo") return Backend::Turbo;
  throw std::invalid_argument(
      "WSS_SIM_BACKEND must be 'reference' or 'turbo', got '" + v + "'");
}

/// Queue depths size the rings once, so they must fit them: a depth of 0
/// would wedge every fabric into a stop that names no cause, and a value
/// past the ring counters would overflow them.
void check_queue_geometry(const SimParams& sim) {
  const auto check = [](int value, int max, const char* field) {
    if (value < 1 || value > max) {
      throw std::invalid_argument(std::string("SimParams::") + field +
                                  " must be in [1, " + std::to_string(max) +
                                  "], got " + std::to_string(value));
    }
  };
  check(sim.router_queue_depth, FifoRing<Flit>::kMaxCapacity,
        "router_queue_depth");
  check(sim.ramp_queue_depth, FifoRing<std::uint32_t>::kMaxCapacity,
        "ramp_queue_depth");
  // An in-queue holds two link-cycles of halfwords.
  check(sim.link_halfwords_per_cycle, FifoRing<Flit>::kMaxCapacity / 2,
        "link_halfwords_per_cycle");
}

} // namespace

Fabric::Fabric(int width, int height, const CS1Params& arch,
               const SimParams& sim)
    : width_(width), height_(height), arch_(&arch), sim_(sim),
      threads_(resolve_sim_threads(sim.sim_threads)),
      watchdog_cycles_(resolve_watchdog_cycles(sim.watchdog_cycles)),
      backend_(resolve_backend(sim.backend)) {
  check_queue_geometry(sim_);
  const std::size_t n =
      static_cast<std::size_t>(width) * static_cast<std::size_t>(height);
  tiles_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    tiles_.push_back(Tile{nullptr, RouterState(sim_)});
  }
}

Fabric::~Fabric() = default;

void Fabric::configure_tile(int x, int y, TileProgram program,
                            RoutingTable routes) {
  // A delivery checks every listed channel for space, then pushes one
  // word per entry: each channel must exist and appear once per color.
  for (int c = 0; c < kNumColors; ++c) {
    std::uint32_t seen = 0;
    for (const int ch : routes.rule(static_cast<Color>(c)).deliver_channels) {
      const bool in_range = ch >= 0 && ch < kNumLocalChannels;
      if (!in_range || (seen >> ch & 1u) != 0) {
        throw std::invalid_argument(
            "configure_tile(" + std::to_string(x) + "," + std::to_string(y) +
            "): color " + std::to_string(c) + " deliver channel " +
            std::to_string(ch) +
            (in_range ? " is listed twice"
                      : " is outside [0, " +
                            std::to_string(kNumLocalChannels) + ")"));
      }
      seen |= 1u << ch;
    }
  }
  Tile& t = tiles_[tile_index(x, y)];
  t.core = std::make_unique<TileCore>(std::move(program), *arch_, sim_);
  t.core->set_position(x, y); // flit provenance for the critical path
  t.router.table = std::move(routes);
  if (user_tracer_ != nullptr) t.core->set_tracer(user_tracer_, x, y);
  if (profiler_ != nullptr) profiler_->mark_configured(x, y);
  if (flightrec_ != nullptr) {
    t.core->set_flight_recorder(flightrec_);
    flightrec_->mark_configured(x, y);
  }
  turbo_invalidate();
}

void Fabric::set_backend(Backend backend) {
  backend_ = resolve_backend(backend);
  // The reference phases do not maintain the mirror; the next turbo step
  // rebuilds it.
  turbo_invalidate();
}

void Fabric::set_flight_recorder(telemetry::FlightRecorder* rec) {
  if (rec != nullptr &&
      (rec->width() != width_ || rec->height() != height_)) {
    throw std::invalid_argument(
        "flight recorder dimensions must match the fabric");
  }
  flightrec_ = rec;
  for (int y = 0; y < height_; ++y) {
    for (int x = 0; x < width_; ++x) {
      Tile& t = tiles_[tile_index(x, y)];
      if (t.core == nullptr) continue;
      t.core->set_flight_recorder(rec);
      if (rec != nullptr) rec->mark_configured(x, y);
    }
  }
}

void Fabric::set_profiler(telemetry::Profiler* profiler) {
  if (profiler != nullptr &&
      (profiler->width() != width_ || profiler->height() != height_)) {
    throw std::invalid_argument("profiler dimensions must match the fabric");
  }
  profiler_ = profiler;
  if (profiler_ == nullptr) return;
  for (int y = 0; y < height_; ++y) {
    for (int x = 0; x < width_; ++x) {
      if (tiles_[tile_index(x, y)].core != nullptr) {
        profiler_->mark_configured(x, y);
      }
    }
  }
}

void Fabric::set_sampler(telemetry::TimeSeriesSampler* sampler) {
  sampler_ = sampler;
  if (sampler_ == nullptr) return;
  // Baseline at the current cycle: frames record activity since this
  // attachment, so a profiler attached alongside sums exactly (the frame
  // deltas add up to its end-of-run totals).
  telemetry::TimeSeriesSample baseline;
  collect_sample(&baseline);
  sampler_->on_attach(width_, height_, baseline);
  if (netmon_ != nullptr) {
    sampler_->set_net_flows(netmon_->flow_table().flows());
  }
}

void Fabric::set_net_monitor(telemetry::NetMonitor* monitor) {
  netmon_ = monitor;
  if (netmon_ == nullptr) return;
  netmon_->on_attach(width_, height_, stats_.cycles, stats_.link_transfers);
  // Either attach order leaves the sampler knowing the flow names the
  // frames' net vectors are aligned with.
  if (sampler_ != nullptr) {
    sampler_->set_net_flows(netmon_->flow_table().flows());
  }
}

void Fabric::sample_now() {
  if (sampler_ == nullptr) return;
  if (stats_.cycles == sampler_->last_cycle()) return; // nothing new
  telemetry::TimeSeriesSample s;
  collect_sample(&s);
  sampler_->record(s);
}

void Fabric::collect_sample(telemetry::TimeSeriesSample* out) const {
  telemetry::TimeSeriesSample s;
  s.cycle = stats_.cycles;
  s.threads = threads_;
  s.link_transfers = stats_.link_transfers;
  s.fault_total = fault_stats_.total();
  for (int y = 0; y < height_; ++y) {
    for (int x = 0; x < width_; ++x) {
      const Tile& t = tiles_[tile_index(x, y)];
      s.flits_forwarded += t.router.stats.flits_forwarded;
      std::uint64_t queued = 0;
      for (int d = 0; d < 4; ++d) {
        for (const auto& q :
             t.router.in_queues[static_cast<std::size_t>(d)]) {
          queued += q.size();
        }
        for (const auto& q :
             t.router.out_queues[static_cast<std::size_t>(d)]) {
          queued += q.size();
        }
      }
      s.router_queued_flits += queued;
      s.router_queue_peak = std::max(s.router_queue_peak, queued);
      if (t.core == nullptr) continue;
      const CoreStats& cs = t.core->stats();
      s.words_sent += cs.words_sent;
      s.words_received += cs.words_received;
      s.instr_cycles += cs.instr_cycles;
      s.stall_cycles += cs.stall_cycles;
      s.idle_cycles += cs.idle_cycles;
      s.task_invocations += cs.task_invocations;
      s.fifo_highwater = std::max(s.fifo_highwater, cs.fifo_highwater);
      s.ramp_highwater = std::max(s.ramp_highwater, cs.ramp_highwater);
      s.max_iteration =
          std::max(s.max_iteration,
                   static_cast<std::uint64_t>(t.core->iteration()));
      if (t.core->done()) ++s.done_tiles;
      const auto phase = static_cast<std::size_t>(t.core->phase());
      if (phase < s.phase_tiles.size()) ++s.phase_tiles[phase];
    }
  }
  if (profiler_ != nullptr) {
    s.has_profiler = true;
    const telemetry::PhaseCatMatrix totals = profiler_->totals();
    for (std::size_t p = 0; p < totals.size(); ++p) {
      for (std::size_t c = 0; c < totals[p].size(); ++c) {
        s.prof_phase[p] += totals[p][c];
        s.prof_cat[c] += totals[p][c];
      }
    }
  }
  if (netmon_ != nullptr) netmon_->collect(&s);
  *out = s;
}

void Fabric::set_threads(int threads) {
  threads_ = std::clamp(threads, 1, 256);
}

int Fabric::band_count() const {
  return std::max(1, std::min(threads_, height_));
}

std::pair<int, int> Fabric::band_rows(int band, int bands) const {
  // Contiguous bands, balanced to within one row. Using the same formula
  // for every thread count keeps the tile->band mapping deterministic.
  const int first = band * height_ / bands;
  const int last = (band + 1) * height_ / bands;
  return {first, last};
}

void Fabric::ensure_pool(int bands) {
  if (!pool_ || pool_->threads() != bands) {
    pool_ = std::make_unique<SimThreadPool>(bands);
  }
}

// --- fault injection ----------------------------------------------------

void Fabric::set_fault_plan(const FaultPlan* plan) {
  if (plan == nullptr) {
    faults_.reset();  // stats, log and per-tile injections survive
    return;
  }
  auto check = [&](int x, int y, const char* what) {
    if (!in_bounds(x, y)) {
      throw std::invalid_argument(std::string("FaultPlan: ") + what +
                                  " out of bounds");
    }
  };
  for (const LinkFault& f : plan->link_faults) {
    check(f.x, f.y, "link fault");
    if (f.dir == Dir::Ramp) {
      throw std::invalid_argument(
          "FaultPlan: link fault dir must be a mesh direction");
    }
    if (f.kind != FaultKind::DropWavelet &&
        f.kind != FaultKind::CorruptWavelet) {
      throw std::invalid_argument(
          "FaultPlan: link fault kind must be drop or corrupt");
    }
  }
  for (const RouterStallFault& f : plan->router_stalls) {
    check(f.x, f.y, "router stall");
  }
  for (const DeadTileFault& f : plan->dead_tiles) check(f.x, f.y, "dead tile");

  auto st = std::make_unique<FaultState>();
  st->plan = plan;
  st->tiles.resize(tiles_.size());
  for (const LinkFault& f : plan->link_faults) {
    st->tiles[tile_index(f.x, f.y)]
        .links[static_cast<std::size_t>(f.dir) % 4]
        .push_back(f);
  }
  for (const RouterStallFault& f : plan->router_stalls) {
    st->tiles[tile_index(f.x, f.y)].stall_windows.emplace_back(f.from_cycle,
                                                               f.until_cycle);
  }
  for (const DeadTileFault& f : plan->dead_tiles) {
    auto& dead = st->tiles[tile_index(f.x, f.y)].dead_from;
    dead = std::min(dead, f.from_cycle);
  }
  if (fault_injections_.size() != tiles_.size()) {
    fault_injections_.assign(tiles_.size(), 0);
  }
  faults_ = std::move(st);
}

std::uint64_t Fabric::fault_injections(int x, int y) const {
  if (!in_bounds(x, y)) throw std::invalid_argument("tile out of bounds");
  if (fault_injections_.empty()) return 0;
  return fault_injections_[tile_index(x, y)];
}

bool Fabric::router_stalled(const TileFaults& tf, std::uint64_t cycle) const {
  for (const auto& [from, until] : tf.stall_windows) {
    if (cycle >= from && cycle < until) return true;
  }
  return false;
}

void Fabric::stage_fault_event(int band, const FaultEvent& ev) {
  faults_->band_events[static_cast<std::size_t>(band)].push_back(ev);
  ++fault_injections_[tile_index(ev.x, ev.y)];
}

void Fabric::merge_fault_bands(int bands) {
  // Band-order reduction, mirroring the trace-event merge: the global
  // stats, the bounded log (including which events hit the capacity
  // drop) and any emitted tracer events come out identical to a serial
  // run for every thread count.
  for (int b = 0; b < bands; ++b) {
    auto& bs = faults_->band_stats[static_cast<std::size_t>(b)];
    fault_stats_ += bs;
    bs = FaultStats{};
    auto& evs = faults_->band_events[static_cast<std::size_t>(b)];
    for (const FaultEvent& ev : evs) {
      if (fault_log_.size() < kFaultLogCapacity) {
        fault_log_.push_back(ev);
      } else {
        ++fault_log_dropped_;
      }
      if (user_tracer_ != nullptr && user_tracer_->wants(ev.x, ev.y)) {
        user_tracer_->record(ev.cycle, ev.x, ev.y, TraceEventKind::Fault,
                             to_string(ev.kind));
      }
    }
    evs.clear();
  }
}

// ------------------------------------------------------------------------
//
// The per-tile phase code, built once per backend (docs/BACKENDS.md). Both
// instances run the same bodies with the same observer and fault hooks;
// they differ only in what they visit. The reference instance (kTurbo =
// false) visits every configured tile and scans all 24 colors, so it never
// consults the occupancy masks. The turbo instance tests the dense
// TurboState mirror before touching a Tile, walks only the set bits of
// in_occ/out_occ, and runs a parked core as step_parked(). Everything it
// skips is provably a no-op for the simulation and for every hook: a
// parked core's step records nothing for the tracer or the flight
// recorder and is one Idle cycle for the profiler, an empty link's
// net-monitor audit changes no counter, and link faults fire only when a
// flit crosses the link.

template <bool kTurbo>
void Fabric::route_phase(int y0, int y1, int band) {
  constexpr std::uint32_t kAllColors = (1u << kNumColors) - 1;
  // Hoisted so the unobserved turbo loop carries no per-tile member loads.
  telemetry::Profiler* const prof = profiler_;
  telemetry::FlightRecorder* const rec = flightrec_;
  FaultState* const fs = faults_.get();
  TurboState* const ts = turbo_.get();
  const std::uint64_t cycle = stats_.cycles;
  std::size_t i = tile_index(0, y0);
  for (int y = y0; y < y1; ++y) {
    for (int x = 0; x < width_; ++x, ++i) {
      if constexpr (kTurbo) {
        // Unconfigured tiles never forward, so a hole tile's pending flag
        // just stays set. A router-stall window must be visited even with
        // empty queues: the stall is counted and logged every cycle.
        if (ts->configured[i] == 0) continue;
        if (ts->route_pending[i].load(std::memory_order_relaxed) == 0 &&
            (fs == nullptr || fs->tiles[i].stall_windows.empty())) {
          continue;
        }
      }
      Tile& t = tiles_[i];
      if (!kTurbo && t.core == nullptr) continue;
      if (fs != nullptr) {
        const TileFaults& tf = fs->tiles[i];
        if (!tf.stall_windows.empty() && router_stalled(tf, cycle)) {
          // Forward nothing this cycle; arriving wavelets stay queued
          // (backpressure), nothing is lost.
          ++fs->band_stats[static_cast<std::size_t>(band)].router_stall_cycles;
          for (const auto& [from, until] : tf.stall_windows) {
            if (cycle == from) {
              stage_fault_event(band, FaultEvent{cycle, x, y, Dir::Ramp,
                                                 FaultKind::StallRouter, 0,
                                                 0});
            }
          }
          continue;
        }
      }
      bool delivered = false;
      for (int d = 0; d < 4; ++d) {
        // Ascending color order either way: all 24 colors on reference,
        // the occupied ones on turbo.
        std::uint32_t colors =
            kTurbo ? t.router.in_occ[static_cast<std::size_t>(d)] : kAllColors;
        while (colors != 0) {
          const int c = std::countr_zero(colors);
          colors &= colors - 1;
          auto& q = t.router.in_queues[static_cast<std::size_t>(d)]
                                      [static_cast<std::size_t>(c)];
          while (!q.empty()) {
            const Flit flit = q.front();
            const RouteRule& rule = t.router.table.rule(flit.color);

            // All-targets-or-nothing fanout with backpressure: the flit
            // stays in its virtual-channel queue (blocking only its own
            // color) until every forward queue and every local channel
            // can accept a copy.
            bool space = true;
            for (int od = 0; od < 4 && space; ++od) {
              if (rule.forwards_to(static_cast<Dir>(od)) &&
                  t.router.out_queues[static_cast<std::size_t>(od)][flit.color]
                      .full()) {
                space = false;
              }
            }
            for (std::size_t ci = 0;
                 space && ci < rule.deliver_channels.size(); ++ci) {
              if (!t.core->can_deliver(rule.deliver_channels[ci])) {
                space = false;
              }
            }
            if (!space) {
              if constexpr (kTurbo) {
                ++ts->band[static_cast<std::size_t>(band)].contended;
              }
              break;
            }

            if (!rule.deliver_channels.empty()) {
              delivered = true;
              // Wavelet dependency edge for the critical-path analyzer:
              // one edge per delivered flit (multicast to several local
              // channels is still one arrival).
              if (prof != nullptr) prof->record_recv(x, y, cycle, flit);
              // Flight-recorder tap: the same band owns the tile, so the
              // ring is bit-identical at any thread count.
              if (rec != nullptr) rec->record_wavelet(x, y, cycle, flit);
            }
            for (int ch : rule.deliver_channels) {
              t.core->try_deliver(ch, flit.payload);
            }
            for (int od = 0; od < 4; ++od) {
              if (rule.forwards_to(static_cast<Dir>(od))) {
                auto& oq =
                    t.router.out_queues[static_cast<std::size_t>(od)]
                                       [flit.color];
                oq.push_back(flit);
                occ_set(t.router.out_occ[static_cast<std::size_t>(od)],
                        flit.color);
                ++t.router.stats.flits_forwarded;
                t.router.stats.queue_highwater =
                    std::max(t.router.stats.queue_highwater,
                             static_cast<std::uint64_t>(oq.size()));
              }
            }
            q.pop_front();
          }
          if (q.empty()) {
            occ_clear(t.router.in_occ[static_cast<std::size_t>(d)], c);
          }
        }
      }
      if constexpr (kTurbo) {
        // A delivery fills a ramp queue, so the core is no longer in the
        // absorbing idle state: it must really step this very cycle.
        if (delivered) ts->parked[i] = 0;
        if (t.router.out_any()) ts->link_pending[i] = 1;
        ts->route_pending[i].store(t.router.in_any() ? 1 : 0,
                                   std::memory_order_relaxed);
      }
    }
  }
}

template <bool kTurbo>
void Fabric::core_phase(int y0, int y1, Tracer* tracer, int band) {
  telemetry::Profiler* const prof = profiler_;
  FaultState* const fs = faults_.get();
  TurboState* const ts = turbo_.get();
  const std::uint64_t cycle = stats_.cycles;
  const std::size_t end = tile_index(0, y1);
  std::uint64_t parked = 0;
  std::size_t i = tile_index(0, y0);
  for (int y = y0; y < y1; ++y) {
    for (int x = 0; x < width_; ++x, ++i) {
      if constexpr (kTurbo) {
        if (ts->configured[i] == 0) continue;
        // The Tile array stride is multiple KB and each core is its own
        // heap allocation, so a parked ocean pays ~2 cache misses per tile
        // here (the phase's dominant cost). Overlap them a few tiles ahead.
        if (i + 4 < end) __builtin_prefetch(&tiles_[i + 4]);
        if (i + 1 < end && ts->configured[i + 1] != 0) {
          __builtin_prefetch(tiles_[i + 1].core.get());
        }
      }
      Tile& t = tiles_[i];
      if (!kTurbo && t.core == nullptr) continue;
      // Rebind to this band's staging tracer: a step after set_threads
      // never leaves a core pointing at another band's buffer.
      if (tracer != nullptr) t.core->set_tracer(tracer, x, y);
      bool router_faulted = false;
      if (fs != nullptr) {
        const TileFaults& tf = fs->tiles[i];
        if (cycle >= tf.dead_from) {
          // Datapath death: the core stops executing, parked or not, but
          // its router keeps forwarding (route/link phases as usual).
          ++fs->band_stats[static_cast<std::size_t>(band)].dead_tile_cycles;
          if (cycle == tf.dead_from) {
            stage_fault_event(band, FaultEvent{cycle, x, y, Dir::Ramp,
                                               FaultKind::DeadTile, 0, 0});
          }
          if (prof != nullptr) {
            // The cycle belongs to the fault, not the program: the core
            // never stepped, so the attribution happens here.
            prof->record_cycle(x, y, t.core->phase(),
                               telemetry::CycleCat::FaultStall, cycle);
          }
          continue;
        }
        router_faulted =
            !tf.stall_windows.empty() && router_stalled(tf, cycle);
      }
      StepOutcome outcome = StepOutcome::Idle;
      if (kTurbo && ts->parked[i] != 0) {
        // Provably the whole effect of a reference step on this core.
        t.core->step_parked();
        ++parked;
      } else {
        outcome = t.core->step(t.router, cycle);
        if constexpr (kTurbo) {
          if (t.router.out_any()) ts->link_pending[i] = 1;
          ts->done[i] = t.core->done() ? 1 : 0;
          // Park on the cheap signal (an Idle outcome), confirmed by the
          // full predicate; once parked the core stays parked until a
          // delivery or a control reset — deliveries never activate
          // tasks, so it cannot wake itself.
          if (outcome == StepOutcome::Idle && t.core->quiescent()) {
            ts->parked[i] = 1;
          }
        }
      }
      if (prof != nullptr) {
        prof->record_cycle(x, y, t.core->phase(),
                           categorize(outcome, router_faulted), cycle);
        prof->record_iteration(x, y, t.core->iteration(), cycle);
      }
    }
  }
  if constexpr (kTurbo) {
    ts->band[static_cast<std::size_t>(band)].parked = parked;
  }
}

template <bool kTurbo>
std::uint64_t Fabric::link_phase(int y0, int y1, int band) {
  // Cross-tile mutation lives here and only here: tile (x, y) moves flits
  // from its own out_queues[d] into neighbor (x+dx, y+dy)'s
  // in_queues[opposite(d)]. That queue has exactly one writer (this tile)
  // and no reader during the link phase, so bands — which shard over the
  // *source* tile — never race, including across band boundaries.
  telemetry::NetMonitor* const mon = netmon_;
  FaultState* const fs = faults_.get();
  TurboState* const ts = turbo_.get();
  const std::uint64_t cycle = stats_.cycles;
  std::uint64_t transfers = 0;
  for (int y = y0; y < y1; ++y) {
    for (int x = 0; x < width_; ++x) {
      const std::size_t i = tile_index(x, y);
      if (kTurbo && ts->link_pending[i] == 0) continue;
      Tile& t = tiles_[i];
      for (int d = 0; d < 4; ++d) {
        if (kTurbo && t.router.out_occ[static_cast<std::size_t>(d)] == 0) {
          continue;
        }
        const Dir dir = static_cast<Dir>(d);
        const auto [dx, dy] = wse::step(dir);
        const int nx = x + dx;
        const int ny = y + dy;
        if (!in_bounds(nx, ny)) continue;
        const std::size_t ni = tile_index(nx, ny);
        Tile& nb = tiles_[ni];
        auto& in_queues =
            nb.router.in_queues[static_cast<std::size_t>(opposite(dir))];
        // 32-bit link: move up to one link-cycle of halfwords, choosing
        // colors round-robin; each color lands in its own virtual-channel
        // input queue at the neighbor.
        int budget = sim_.link_halfwords_per_cycle;
        auto& queues = t.router.out_queues[static_cast<std::size_t>(d)];
        int& rr = t.router.rr[static_cast<std::size_t>(d)];
        while (budget > 0) {
          const std::uint32_t occ =
              t.router.out_occ[static_cast<std::size_t>(d)];
          if (kTurbo && occ == 0) break;
          bool moved = false;
          for (int k = 0; k < kNumColors; ++k) {
            const int c = (rr + k) % kNumColors;
            auto& q = queues[static_cast<std::size_t>(c)];
            if (kTurbo ? (occ >> static_cast<unsigned>(c) & 1u) == 0
                       : q.empty()) {
              continue;
            }
            const int cost = q.front().wide ? 2 : 1;
            if (cost > budget) continue;
            auto& inq = in_queues[static_cast<std::size_t>(c)];
            if (inq.halfwords() + cost > 2 * sim_.link_halfwords_per_cycle) {
              continue;
            }
            Flit flit = q.front();
            q.pop_front();
            if (q.empty()) {
              occ_clear(t.router.out_occ[static_cast<std::size_t>(d)], c);
            }
            budget -= cost;
            rr = (c + 1) % kNumColors;
            moved = true;
            // Link faults fire at the instant the wavelet traverses the
            // link. The decision is a pure hash of (plan seed, source
            // tile, dir, per-link ordinal) — all owned by the source
            // tile's band — so it is thread-count independent. A drop
            // still consumes link budget (the word was transmitted, then
            // lost) but is not counted as a transfer; corruption XORs the
            // payload in flight and delivers it.
            bool dropped = false;
            if (fs != nullptr) {
              TileFaults& tf = fs->tiles[i];
              auto& lf = tf.links[static_cast<std::size_t>(d)];
              if (!lf.empty()) {
                const std::uint64_t ordinal =
                    tf.link_ordinal[static_cast<std::size_t>(d)]++;
                auto& bs = fs->band_stats[static_cast<std::size_t>(band)];
                for (std::size_t fi = 0; fi < lf.size(); ++fi) {
                  const LinkFault& f = lf[fi];
                  if (cycle < f.from_cycle || cycle >= f.until_cycle) {
                    continue;
                  }
                  if (fault_roll(fs->plan->seed + fi, x, y, dir, ordinal) >=
                      f.probability) {
                    continue;
                  }
                  if (f.kind == FaultKind::DropWavelet) {
                    ++bs.wavelets_dropped;
                    stage_fault_event(
                        band, FaultEvent{cycle, x, y, dir,
                                         FaultKind::DropWavelet,
                                         flit.payload, 0});
                    dropped = true;
                    break;
                  }
                  if (f.kind == FaultKind::CorruptWavelet) {
                    const std::uint32_t before = flit.payload;
                    flit.payload ^= f.corrupt_mask;
                    ++bs.wavelets_corrupted;
                    stage_fault_event(
                        band, FaultEvent{cycle, x, y, dir,
                                         FaultKind::CorruptWavelet, before,
                                         flit.payload});
                  }
                }
              }
            }
            if (!dropped) {
              inq.push_back(flit);
              occ_set(nb.router.in_occ[static_cast<std::size_t>(opposite(dir))],
                      c);
              if constexpr (kTurbo) {
                // The destination may belong to another band, hence the
                // relaxed atomic (every writer stores 1).
                ts->route_pending[ni].store(1, std::memory_order_relaxed);
              }
              ++t.router.stats.link_words[static_cast<std::size_t>(d)];
              ++transfers;
              if (mon != nullptr) mon->record_move(i, d, c);
            }
            break;
          }
          if (!moved) break;
        }
        if (mon != nullptr) {
          // End-of-phase audit of this link: a color still holding flits
          // either lost the budget race to its siblings (normal
          // multiplexing) or sits blocked behind a full destination
          // virtual-channel queue — only the latter is congestion. All
          // counters are owned by the source tile's band.
          const std::uint32_t occ =
              t.router.out_occ[static_cast<std::size_t>(d)];
          std::uint64_t backlog = 0;
          bool any_blocked = false;
          for (int c = 0; occ != 0 && c < kNumColors; ++c) {
            if ((occ & (1u << static_cast<unsigned>(c))) == 0) continue;
            auto& q = queues[static_cast<std::size_t>(c)];
            const auto hw = static_cast<std::uint64_t>(q.halfwords());
            backlog += hw;
            mon->record_backlog(i, d, c, hw);
            const int cost = q.front().wide ? 2 : 1;
            if (in_queues[static_cast<std::size_t>(c)].halfwords() + cost >
                2 * sim_.link_halfwords_per_cycle) {
              mon->record_blocked(i, d, c);
              any_blocked = true;
            }
          }
          mon->record_link_cycle(i, d, backlog, any_blocked);
        }
      }
      if (kTurbo && !t.router.out_any()) ts->link_pending[i] = 0;
    }
  }
  return transfers;
}

void Fabric::merge_staged_trace_events() {
  // Band-order merge reproduces the serial (row-major) event order; the
  // user tracer's own capacity accounting then drops exactly the same
  // events a serial run would drop. Focus filtering happens here because
  // the staging tracers record unconditionally.
  for (auto& staged : trace_staging_) {
    if (!staged) continue;
    for (const TraceEvent& ev : staged->events()) {
      if (user_tracer_->wants(ev.tile_x, ev.tile_y)) {
        user_tracer_->record(ev.cycle, ev.tile_x, ev.tile_y, ev.kind,
                             ev.label);
      }
    }
    staged->clear();
  }
}

void Fabric::step() {
  // One driver for both backends and every thread count: a one-band pool
  // runs its job inline on the caller.
  const int bands = band_count();
  const bool turbo = backend_ == Backend::Turbo;
  if (turbo) {
    if (turbo_ == nullptr || !turbo_->live) turbo_promote();
    turbo_->band.assign(static_cast<std::size_t>(bands),
                        TurboState::BandCounters{});
  }
  if (faults_ != nullptr) {
    // (Re)size the per-band fault staging. Merging happens after *each*
    // phase so the global event order is phase-major then row-major —
    // exactly the serial order — at any thread count.
    faults_->band_stats.assign(static_cast<std::size_t>(bands),
                               FaultStats{});
    faults_->band_events.resize(static_cast<std::size_t>(bands));
  }
  ensure_pool(bands);
  if (user_tracer_ != nullptr) {
    trace_staging_.resize(static_cast<std::size_t>(bands));
    for (auto& staged : trace_staging_) {
      if (!staged) {
        staged = std::make_unique<Tracer>(
            std::numeric_limits<std::size_t>::max());
      }
    }
  }
  const auto route = turbo ? &Fabric::route_phase<true>
                           : &Fabric::route_phase<false>;
  const auto core = turbo ? &Fabric::core_phase<true>
                          : &Fabric::core_phase<false>;
  const auto link = turbo ? &Fabric::link_phase<true>
                          : &Fabric::link_phase<false>;

  pool_->run([&](int band) {
    const auto [y0, y1] = band_rows(band, bands);
    (this->*route)(y0, y1, band);
  });
  if (faults_ != nullptr) merge_fault_bands(bands);
  pool_->run([&](int band) {
    const auto [y0, y1] = band_rows(band, bands);
    Tracer* staged = user_tracer_ != nullptr
                         ? trace_staging_[static_cast<std::size_t>(band)].get()
                         : nullptr;
    (this->*core)(y0, y1, staged, band);
  });
  if (user_tracer_ != nullptr) merge_staged_trace_events();
  if (faults_ != nullptr) merge_fault_bands(bands);
  band_link_transfers_.assign(static_cast<std::size_t>(bands), 0);
  pool_->run([&](int band) {
    const auto [y0, y1] = band_rows(band, bands);
    band_link_transfers_[static_cast<std::size_t>(band)] =
        (this->*link)(y0, y1, band);
  });
  for (const std::uint64_t n : band_link_transfers_) {
    stats_.link_transfers += n;
  }
  if (faults_ != nullptr) merge_fault_bands(bands);
  if (turbo) {
    // Band-order reduction keeps TurboStats identical at any thread count.
    TurboState& ts = *turbo_;
    for (const auto& bc : ts.band) {
      ts.stats.parked_tile_cycles += bc.parked;
      ts.stats.contended_tile_cycles += bc.contended;
    }
    ++ts.stats.turbo_cycles;
  }
  if (profiler_ != nullptr) profiler_->add_observed_cycle();
  ++stats_.cycles;
  // Sampling happens in this serial tail: every band has merged, the
  // fabric is quiescent, so a frame reads the same state a serial run
  // would see — bit-identical at any thread count.
  if (sampler_ != nullptr && sampler_->due(stats_.cycles)) {
    telemetry::TimeSeriesSample s;
    collect_sample(&s);
    sampler_->record(s);
  }
}

void Fabric::set_tracer(Tracer* tracer) {
  user_tracer_ = tracer;
  for (int y = 0; y < height_; ++y) {
    for (int x = 0; x < width_; ++x) {
      Tile& t = tiles_[tile_index(x, y)];
      if (t.core) t.core->set_tracer(tracer, x, y);
    }
  }
  if (tracer == nullptr) trace_staging_.clear();
}

std::uint64_t Fabric::progress_signature() const {
  // Any forward progress moves at least one of these monotone counters:
  // a computing core bumps instr_cycles, a moving wavelet bumps
  // link_transfers or flits_forwarded or words_received, a waking task
  // bumps task_invocations. Stall/idle counters are deliberately absent —
  // they advance on a wedged fabric too.
  std::uint64_t sig = stats_.link_transfers;
  for (const auto& t : tiles_) {
    sig += t.router.stats.flits_forwarded;
    if (t.core == nullptr) continue;
    const CoreStats& cs = t.core->stats();
    sig += cs.instr_cycles + cs.words_received + cs.task_invocations +
           cs.elements_processed;
  }
  return sig;
}

std::vector<std::pair<int, int>> Fabric::blocked_tiles(
    std::size_t cap) const {
  std::vector<std::pair<int, int>> out;
  // First pass: tiles with in-flight work that cannot move (the usual
  // deadlock participants).
  for (int y = 0; y < height_ && out.size() < cap; ++y) {
    for (int x = 0; x < width_ && out.size() < cap; ++x) {
      const auto& t = tiles_[tile_index(x, y)];
      if (t.core == nullptr || t.core->done()) continue;
      if (!t.core->quiescent()) out.emplace_back(x, y);
    }
  }
  if (!out.empty()) return out;
  // Fallback: everything went quiescent with unfinished work — tiles
  // waiting on an activation that will never come.
  for (int y = 0; y < height_ && out.size() < cap; ++y) {
    for (int x = 0; x < width_ && out.size() < cap; ++x) {
      const auto& t = tiles_[tile_index(x, y)];
      if (t.core != nullptr && !t.core->done()) out.emplace_back(x, y);
    }
  }
  return out;
}

StopInfo Fabric::run(std::uint64_t max_cycles) {
  StopInfo info;
  const std::uint64_t start = stats_.cycles;
  const std::uint64_t wd = watchdog_cycles_;
  // Watchdog bookkeeping is read-only (counter snapshots), so enabling it
  // cannot perturb the simulation — it only decides when run() returns.
  std::uint64_t last_sig = wd != 0 ? progress_signature() : 0;
  std::uint64_t last_progress_cycle = stats_.cycles;
  bool all_done_stop = false;
  bool quiescent_stop = false;
  bool watchdog_stop = false;
  while (stats_.cycles - start < max_cycles) {
    step();
    if (all_done()) {
      all_done_stop = true;
      break;
    }
    if (quiescent()) {
      quiescent_stop = true;
      break;
    }
    if (wd != 0 && (stats_.cycles - start) % wd == 0) {
      const std::uint64_t sig = progress_signature();
      if (sig != last_sig) {
        last_sig = sig;
        last_progress_cycle = stats_.cycles;
      } else if (stats_.cycles - last_progress_cycle >= wd) {
        watchdog_stop = true;
        break;
      }
    }
  }
  info.cycles = stats_.cycles - start;
  if (all_done_stop || all_done()) {
    info.reason = StopInfo::Reason::AllDone;
    return info;
  }
  if (watchdog_stop) {
    info.reason = StopInfo::Reason::Watchdog;
    info.deadlock = true;
    info.stalled_cycles = stats_.cycles - last_progress_cycle;
  } else if (quiescent_stop) {
    // Totally silent with unfinished work: nothing can ever wake it.
    info.reason = StopInfo::Reason::Quiescent;
    info.deadlock = true;
  } else {
    info.reason = StopInfo::Reason::MaxCycles;
    return info; // budget ran out mid-flight; no verdict, no forensics
  }
  info.blocked_tiles = blocked_tiles();
  std::string report = "stopped at cycle " + std::to_string(stats_.cycles) +
                       " (" + StopInfo::to_string(info.reason) + ", " +
                       std::to_string(info.blocked_tiles.size()) +
                       " blocked tiles";
  if (info.stalled_cycles > 0) {
    report += ", no progress for " + std::to_string(info.stalled_cycles) +
              " cycles";
  }
  report += ")\n";
  constexpr std::size_t kReportTiles = 8;
  for (std::size_t i = 0;
       i < info.blocked_tiles.size() && i < kReportTiles; ++i) {
    const auto [x, y] = info.blocked_tiles[i];
    report += "  (" + std::to_string(x) + "," + std::to_string(y) + ") " +
              tiles_[tile_index(x, y)].core->debug_state() + "\n";
  }
  if (info.blocked_tiles.size() > kReportTiles) {
    report += "  ... " +
              std::to_string(info.blocked_tiles.size() - kReportTiles) +
              " more\n";
  }
  info.report = std::move(report);
  return info;
}

bool Fabric::all_done() const {
  // Both predicates run once per cycle inside run(); while the turbo
  // mirror is live they read its dense byte arrays instead of striding
  // through every multi-KB Tile — same answers, none of the cache misses.
  if (turbo_ != nullptr && turbo_->live) return turbo_all_done();
  for (const auto& t : tiles_) {
    if (!t.core || !t.core->done()) return false;
  }
  return true;
}

bool Fabric::quiescent() const {
  if (turbo_ != nullptr && turbo_->live) return turbo_quiescent();
  for (const auto& t : tiles_) {
    if (!t.core) continue;
    if (!t.core->quiescent()) return false;
    for (int d = 0; d < 4; ++d) {
      for (const auto& q : t.router.in_queues[static_cast<std::size_t>(d)]) {
        if (!q.empty()) return false;
      }
      for (const auto& q :
           t.router.out_queues[static_cast<std::size_t>(d)]) {
        if (!q.empty()) return false;
      }
    }
  }
  return true;
}

void Fabric::reset_control() {
  for (auto& t : tiles_) {
    if (t.core) t.core->reset_control();
    for (int d = 0; d < 4; ++d) {
      for (auto& q : t.router.in_queues[static_cast<std::size_t>(d)]) {
        q.clear();
      }
      for (auto& q : t.router.out_queues[static_cast<std::size_t>(d)]) {
        q.clear();
      }
    }
    t.router.in_occ = {0, 0, 0, 0};
    t.router.out_occ = {0, 0, 0, 0};
  }
  turbo_invalidate();
}

} // namespace wss::wse
