// simbench: host-throughput benchmark of the wafer-scale simulator on two
// fixed workloads. perfbench/README.md gives every metric with its unit,
// its direction and whether it is host time or simulated time.
//
//   simbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//            --tmp <dir>
//
// A run makes its inputs from --seed, sets the workload up kSetupReps times
// (the median is setup_s), then calls the layer under test -- one "op" --
// until --seconds of host time have passed. Every op's output is checked
// outside the timed region. With --trace 1 the benchmark's own code records
// telemetry::SpanTracer spans around each layer call and reports per-layer
// metrics; end-to-end metrics come from --trace 0 runs. The traced run also
// steps a second instance of the workload with the counter observers
// switched on, for the telemetry.* metrics. The last stdout line is the
// result JSON.
//
// The simulator is driven through public calls only, on the turbo backend
// at kSimThreads threads. Ambient WSS_* variables would silently change
// what runs (RunForensics reads them inside run() and demotes turbo), so
// the benchmark refuses to start when any is set and sets the observer
// variables itself, around the observed instance only.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "perfmodel/cs1_model.hpp"
#include "perfmodel/stencilfe_model.hpp"
#include "solver/bicgstab.hpp"
#include "stencil/generators.hpp"
#include "stencilfe/executor.hpp"
#include "stencilfe/golden.hpp"
#include "stencilfe/workloads.hpp"
#include "telemetry/span_tracer.hpp"
#include "telemetry/timeseries.hpp"
#include "wsekernels/bicgstab_program.hpp"
#include "wsekernels/wse_bicgstab.hpp"

extern char** environ;

namespace {

using namespace wss;
using Clock = std::chrono::steady_clock;
using telemetry::SpanTracer;

constexpr int kSimThreads = 2;
constexpr int kSetupReps = 7;
constexpr int kMinOps = 3;

// bicgstab-busy: 32x32 fabric, Z = 64, 3 fixed iterations per run() op.
constexpr int kBicgstabXY = 32;
constexpr int kBicgstabZ = 64;
constexpr int kBicgstabIters = 3;
// heat-torus: 64x64 cells, one generation per step(1) op.
constexpr int kHeatN = 64;

// The counter observers (time series, network monitor, watchdog), switched
// on as a user would. Artifacts go to the benchmark's temp dir.
constexpr const char* kSampleCycles = "256";
constexpr const char* kWatchdogCycles = "200000";

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

bool same_bits(const std::vector<fp16_t>& a, const std::vector<fp16_t>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].bits() != b[i].bits()) return false;
  }
  return true;
}

bool same_bits(const Field3<fp16_t>& a, const Field3<fp16_t>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].bits() != b[i].bits()) return false;
  }
  return true;
}

// ---- fabric counters --------------------------------------------------

/// Fabric-wide counters summed over tiles. Cycle and core counts are
/// simulated; an op's counts are the difference of two snapshots.
struct Counters {
  std::uint64_t cycles = 0;
  std::uint64_t link_transfers = 0;
  std::uint64_t flits_forwarded = 0;
  std::uint64_t turbo_cycles = 0;
  std::uint64_t parked = 0;
  std::uint64_t contended = 0;
  std::uint64_t promotions = 0;
  std::uint64_t compute = 0;
  std::uint64_t stall = 0;
  std::uint64_t idle = 0;
};

Counters snapshot(const wse::Fabric& f) {
  Counters c;
  c.cycles = f.stats().cycles;
  c.link_transfers = f.stats().link_transfers;
  const wse::TurboStats t = f.turbo_stats();
  c.turbo_cycles = t.turbo_cycles;
  c.parked = t.parked_tile_cycles;
  c.contended = t.contended_tile_cycles;
  c.promotions = t.promotions;
  for (int y = 0; y < f.height(); ++y) {
    for (int x = 0; x < f.width(); ++x) {
      c.flits_forwarded += f.router_stats(x, y).flits_forwarded;
      if (!f.has_core(x, y)) continue;
      const wse::CoreStats& s = f.core(x, y).stats();
      c.compute += s.instr_cycles;
      c.stall += s.stall_cycles;
      c.idle += s.idle_cycles;
    }
  }
  return c;
}

Counters operator-(const Counters& a, const Counters& b) {
  return {a.cycles - b.cycles,
          a.link_transfers - b.link_transfers,
          a.flits_forwarded - b.flits_forwarded,
          a.turbo_cycles - b.turbo_cycles,
          a.parked - b.parked,
          a.contended - b.contended,
          a.promotions - b.promotions,
          a.compute - b.compute,
          a.stall - b.stall,
          a.idle - b.idle};
}

// ---- environment --------------------------------------------------------

/// Names of every WSS_* variable in the environment.
std::vector<std::string> ambient_wss_vars() {
  std::vector<std::string> names;
  for (char** e = environ; *e != nullptr; ++e) {
    if (std::strncmp(*e, "WSS_", 4) != 0) continue;
    const char* eq = std::strchr(*e, '=');
    names.emplace_back(*e, eq != nullptr ? static_cast<std::size_t>(eq - *e)
                                         : std::strlen(*e));
  }
  return names;
}

/// Switch the counter observers on or off through their user-facing env
/// vars, not set_* calls, so a redesign of the hooks needs no change here. WSS_WATCHDOG_CYCLES is read when a fabric is
/// constructed, the rest inside every run().
void set_observer_env(bool on, const std::string& tmp) {
  if (on) {
    ::setenv("WSS_SAMPLE_CYCLES", kSampleCycles, 1);
    ::setenv("WSS_NETFLOWS", "1", 1);
    ::setenv("WSS_WATCHDOG_CYCLES", kWatchdogCycles, 1);
    ::setenv("WSS_TIMESERIES_OUT", (tmp + "/series.json").c_str(), 1);
    ::setenv("WSS_NETFLOWS_OUT", (tmp + "/netflows.json").c_str(), 1);
  } else {
    for (const char* v : {"WSS_SAMPLE_CYCLES", "WSS_NETFLOWS",
                          "WSS_WATCHDOG_CYCLES", "WSS_TIMESERIES_OUT",
                          "WSS_NETFLOWS_OUT"}) {
      ::unsetenv(v);
    }
  }
}

wse::SimParams sim_params() {
  wse::SimParams sim;
  sim.sim_threads = kSimThreads;
  sim.backend = wse::Backend::Turbo;
  return sim;
}

// ---- workloads ----------------------------------------------------------

/// One workload: set-up from a seed, the timed op, and its output check.
/// Spans go to `tr` when it is non-null.
class Workload {
public:
  virtual ~Workload() = default;
  /// Make the seeded inputs, then build and load the kernel. Replaces any
  /// earlier instance.
  virtual void setup(std::uint64_t seed, SpanTracer* tr) = 0;
  /// The timed call into the layer under test.
  virtual void op() = 0;
  /// Check the last op's output (untimed). False marks the op failed.
  virtual bool check(SpanTracer* tr) = 0;
  [[nodiscard]] virtual wse::Fabric& fabric() = 0;
  /// The perfmodel's cycle projection for one op.
  [[nodiscard]] virtual double model_cycles_per_op() const = 0;
};

class BicgstabWorkload final : public Workload {
public:
  void setup(std::uint64_t seed, SpanTracer* tr) override {
    sim_.reset();
    first_.reset();
    const Grid3 g(kBicgstabXY, kBicgstabXY, kBicgstabZ);
    Stencil7<double> ad;
    Field3<double> bp;
    {
      SpanTracer::Scoped s(tr, "setup.input");
      ad = make_momentum_like7(g, 0.5, seed);
      const Field3<double> bd = make_rhs(ad, make_smooth_solution(g));
      bp = precondition_jacobi(ad, bd);
    }
    {
      SpanTracer::Scoped s(tr, "setup.load");
      a_ = convert_stencil<fp16_t>(ad);
      b_ = convert_field<fp16_t>(bp);
    }
    {
      SpanTracer::Scoped s(tr, "setup.build");
      sim_ = std::make_unique<wsekernels::BicgstabSimulation>(
          a_, kBicgstabIters, arch_, sim_params());
    }
  }

  void op() override { last_ = sim_->run(b_); }

  bool check(SpanTracer* tr) override {
    if (!first_) {
      first_ = last_;
      SpanTracer::Scoped s(tr, "check.golden");
      return agrees_with_tier2();
    }
    SpanTracer::Scoped s(tr, "check.read");
    return last_.cycles == first_->cycles && same_bits(last_.x, first_->x) &&
           same_bits(last_.r, first_->r);
  }

  wse::Fabric& fabric() override { return sim_->fabric(); }

  double model_cycles_per_op() const override {
    return perfmodel::CS1Model().iteration_cycles(
               Grid3(kBicgstabXY, kBicgstabXY, kBicgstabZ)) *
           kBicgstabIters;
  }

private:
  /// The first op against the numerics-faithful tier-2 solver, with the
  /// tolerances of tests/wsekernels/bicgstab_program_test.cpp.
  bool agrees_with_tier2() const {
    wsekernels::WseBicgstabSolver tier2(a_);
    Field3<fp16_t> x2(b_.grid(), fp16_t(0.0));
    SolveControls c;
    c.max_iterations = kBicgstabIters;
    c.tolerance = 0.0;
    const SolveResult t2 = tier2.solve(b_, x2, c);
    if (t2.iterations != kBicgstabIters || t2.relative_residuals.empty()) {
      return false;
    }
    double dx = 0.0, rr = 0.0, bb = 0.0;
    for (std::size_t i = 0; i < b_.size(); ++i) {
      const double d = last_.x[i].to_double() - x2[i].to_double();
      dx += d * d;
      rr += last_.r[i].to_double() * last_.r[i].to_double();
      bb += b_[i].to_double() * b_[i].to_double();
    }
    const double rms = std::sqrt(dx / static_cast<double>(b_.size()));
    const double sim_rel = std::sqrt(rr) / std::sqrt(bb);
    const double t2_rel = t2.relative_residuals.back();
    return rms < 2e-2 &&
           std::abs(std::log10(sim_rel + 1e-12) - std::log10(t2_rel + 1e-12)) <
               0.4;
  }

  wse::CS1Params arch_;
  Stencil7<fp16_t> a_;
  Field3<fp16_t> b_;
  std::unique_ptr<wsekernels::BicgstabSimulation> sim_;
  wsekernels::BicgstabSimResult last_;
  std::optional<wsekernels::BicgstabSimResult> first_;
};

class HeatTorusWorkload final : public Workload {
public:
  void setup(std::uint64_t seed, SpanTracer* tr) override {
    ex_.reset();
    first_cycles_ = 0;
    {
      SpanTracer::Scoped s(tr, "setup.input");
      state_ = stencilfe::random_state(fn_, kHeatN, kHeatN, seed);
    }
    {
      SpanTracer::Scoped s(tr, "setup.build");
      ex_ = std::make_unique<stencilfe::StencilExecutor>(fn_, kHeatN, kHeatN,
                                                         arch_, sim_params());
    }
    {
      SpanTracer::Scoped s(tr, "setup.load");
      ex_->load(state_);
    }
  }

  void op() override { ex_->step(1); }

  /// The generation against golden_step of the previous state, bit for
  /// bit, and the same cycle count as the first generation.
  bool check(SpanTracer* tr) override {
    std::vector<fp16_t> got;
    {
      SpanTracer::Scoped s(tr, "check.read");
      got = ex_->read_state();
    }
    std::vector<fp16_t> want;
    {
      SpanTracer::Scoped s(tr, "check.golden");
      want = stencilfe::golden_step(fn_, kHeatN, kHeatN, state_);
    }
    if (first_cycles_ == 0) first_cycles_ = ex_->last_generation_cycles();
    const bool ok = same_bits(got, want) &&
                    ex_->last_generation_cycles() == first_cycles_;
    state_ = std::move(got);
    return ok;
  }

  wse::Fabric& fabric() override { return ex_->fabric(); }

  double model_cycles_per_op() const override {
    return perfmodel::project_stencilfe_generation(fn_, kHeatN, kHeatN).total();
  }

private:
  wse::CS1Params arch_;
  stencilfe::TransitionFn fn_ =
      stencilfe::heat_fn(0.125, stencilfe::BoundaryPolicy::Periodic);
  std::vector<fp16_t> state_;
  std::unique_ptr<stencilfe::StencilExecutor> ex_;
  std::uint64_t first_cycles_ = 0;
};

// ---- one run --------------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string tmp;
};

struct OpRecord {
  double seconds = 0.0;
  Counters delta;
  bool ok = false;
  bool spans = false; ///< recorded with the span tracer attached
  std::uint64_t artifact_bytes = 0;
  std::uint64_t frames = 0;
};

/// Sum and delete the series and netflows files the observers wrote into
/// `dir` during one op, and count the time-series frames.
void collect_artifacts(const std::string& dir, OpRecord* rec) {
  namespace fs = std::filesystem;
  std::vector<fs::path> written;
  for (const fs::directory_entry& e : fs::directory_iterator(dir)) {
    const std::string name = e.path().filename().string();
    const bool series = name.rfind("series", 0) == 0;
    if (!e.is_regular_file() || (!series && name.rfind("netflows", 0) != 0)) {
      continue;
    }
    written.push_back(e.path());
    rec->artifact_bytes += e.file_size();
    if (series) {
      telemetry::TimeSeries ts;
      std::string error;
      if (telemetry::load_timeseries(e.path().string(), &ts, &error)) {
        rec->frames += ts.frames.size();
      } else {
        rec->ok = false;
        std::fprintf(stderr, "simbench: %s\n", error.c_str());
      }
    }
  }
  for (const fs::path& p : written) fs::remove(p);
}

/// Median span duration in seconds per span name.
std::map<std::string, double> span_medians(const SpanTracer& tr) {
  std::map<std::string, std::vector<double>> by_name;
  for (const SpanTracer::Span& s : tr.spans()) {
    by_name[s.name].push_back(s.dur_us * 1e-6);
  }
  std::map<std::string, double> out;
  for (auto& [name, v] : by_name) out[name] = median(std::move(v));
  return out;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

void print_result(bool correct, std::size_t attempted, std::size_t failed,
                  const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(),
                metrics[i].value, metrics[i].unit);
  }
  std::printf("}}\n");
}

/// Simulated counts that every op of one workload must repeat exactly.
bool same_simulation(const Counters& a, const Counters& b) {
  return a.cycles == b.cycles && a.link_transfers == b.link_transfers &&
         a.flits_forwarded == b.flits_forwarded;
}

/// Time one op, with a "kernel.op" span when `tr` is set, then check it.
/// False when the op threw, which leaves the fabric unusable.
bool run_op(Workload& w, SpanTracer* tr, OpRecord* rec) {
  const Counters before = snapshot(w.fabric());
  try {
    const auto t0 = Clock::now();
    {
      SpanTracer::Scoped s(tr, "kernel.op");
      w.op();
    }
    rec->seconds = seconds_since(t0);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "simbench: op failed: %s\n", e.what());
    rec->ok = false;
    return false;
  }
  rec->delta = snapshot(w.fabric()) - before;
  rec->ok = w.check(tr);
  return true;
}

int run(const Args& args) {
  SpanTracer tracer;
  SpanTracer* tr = args.trace ? &tracer : nullptr;
  const auto make_workload = [&]() -> std::unique_ptr<Workload> {
    if (args.workload == "heat-torus") {
      return std::make_unique<HeatTorusWorkload>();
    }
    return std::make_unique<BicgstabWorkload>();
  };
  std::unique_ptr<Workload> w = make_workload();

  std::vector<double> setup_s;
  for (int i = 0; i < kSetupReps; ++i) {
    const auto t0 = Clock::now();
    w->setup(args.seed, tr);
    setup_s.push_back(seconds_since(t0));
  }
  const double tiles =
      static_cast<double>(w->fabric().width()) * w->fabric().height();

  // The traced run interleaves ops of a second instance that is built and
  // run with the observers on (the watchdog is read at construction).
  std::unique_ptr<Workload> observed;
  if (args.trace) {
    set_observer_env(true, args.tmp);
    observed = make_workload();
    observed->setup(args.seed, nullptr);
    set_observer_env(false, args.tmp);
  }

  std::vector<OpRecord> ops;
  std::vector<OpRecord> observed_ops;
  const auto start = Clock::now();
  for (int i = 0;
       static_cast<int>(ops.size()) < kMinOps || seconds_since(start) <
                                                     args.seconds;
       ++i) {
    OpRecord rec;
    // A traced run alternates ops with and without spans, so tracing
    // overhead is traced minus untraced op time from one process.
    rec.spans = tr != nullptr && i % 2 == 0;
    const bool ran = run_op(*w, rec.spans ? tr : nullptr, &rec);
    // Turbo must carry every cycle: a demoted op measures another program.
    if (rec.delta.turbo_cycles != rec.delta.cycles ||
        (!ops.empty() && !same_simulation(rec.delta, ops.front().delta))) {
      rec.ok = false;
    }
    ops.push_back(rec);
    if (!ran) break;

    if (observed && i % 2 == 1) {
      OpRecord obs;
      set_observer_env(true, args.tmp);
      const bool obs_ran = run_op(*observed, nullptr, &obs);
      set_observer_env(false, args.tmp);
      collect_artifacts(args.tmp, &obs);
      // Observation must not change what is simulated.
      if (!obs.ok || !same_simulation(obs.delta, ops.front().delta)) {
        ops.back().ok = false;
      }
      observed_ops.push_back(obs);
      if (!obs_ran) break;
    }
  }

  std::size_t failed = 0;
  std::vector<double> traced_s, untraced_s;
  for (const OpRecord& r : ops) {
    if (!r.ok) ++failed;
    (r.spans ? traced_s : untraced_s).push_back(r.seconds);
  }
  std::vector<double> observed_s, frames, bytes;
  for (const OpRecord& r : observed_ops) {
    observed_s.push_back(r.seconds);
    frames.push_back(static_cast<double>(r.frames));
    bytes.push_back(static_cast<double>(r.artifact_bytes));
  }
  const Counters& d = ops.front().delta;
  const double cycles = static_cast<double>(d.cycles);
  const double tile_cycles = cycles * tiles;
  // End-to-end op time comes from ops without spans.
  const double op_p50 = median(untraced_s);
  const double model = w->model_cycles_per_op();

  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  const double peak_rss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;

  std::printf("simbench %s: seed %llu, %zu ops (%zu failed) in %.1f s, "
              "turbo backend, %d sim threads, %d set-ups\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), ops.size(), failed,
              seconds_since(start), kSimThreads, kSetupReps);

  std::vector<Metric> m;
  if (!args.trace) {
    m = {
        {"setup_s", median(setup_s), "s"},
        {"tile_cycles_per_s", ratio(tile_cycles, op_p50), "tile-cycles/s"},
        {"op_ms_p50", op_p50 * 1e3, "ms"},
        {"peak_rss_mb", peak_rss_mb, "MB"},
        {"sim_cycles_per_op", cycles, "cycles"},
    };
  } else {
    const std::map<std::string, double> span = span_medians(tracer);
    const auto span_s = [&](const char* name) {
      const auto it = span.find(name);
      return it != span.end() ? it->second : 0.0;
    };
    const double core_total =
        static_cast<double>(d.compute + d.stall + d.idle);
    const Counters obs =
        observed_ops.empty() ? Counters{} : observed_ops.front().delta;
    m = {
        {"setup.input_s", span_s("setup.input"), "s"},
        {"setup.load_s", span_s("setup.load"), "s"},
        {"setup.build_s", span_s("setup.build"), "s"},
        {"kernel.op_s", span_s("kernel.op"), "s"},
        {"check.read_s", span_s("check.read"), "s"},
        {"check.golden_s", span_s("check.golden"), "s"},
        {"check.fail_fraction",
         static_cast<double>(failed) / static_cast<double>(ops.size()), "ratio"},
        {"trace.overhead_ms", (median(traced_s) - op_p50) * 1e3, "ms"},
        {"wse.tile_cycles", tile_cycles, "count"},
        {"wse.link_transfers", static_cast<double>(d.link_transfers), "count"},
        {"wse.flits_forwarded", static_cast<double>(d.flits_forwarded),
         "count"},
        {"wse.parked_fraction", ratio(static_cast<double>(d.parked),
                                      tile_cycles), "ratio"},
        {"wse.contended_fraction", ratio(static_cast<double>(d.contended),
                                         tile_cycles), "ratio"},
        {"wse.promotions_per_op", static_cast<double>(d.promotions), "count"},
        {"wse.compute_fraction", ratio(static_cast<double>(d.compute),
                                       core_total), "ratio"},
        {"wse.stall_fraction", ratio(static_cast<double>(d.stall), core_total),
         "ratio"},
        {"wse.idle_fraction", ratio(static_cast<double>(d.idle), core_total),
         "ratio"},
        {"wse.ns_per_active_tile_cycle",
         ratio(op_p50 * 1e9, tile_cycles - static_cast<double>(d.parked)),
         "ns"},
        {"wse.turbo_cycle_fraction", ratio(static_cast<double>(d.turbo_cycles),
                                           cycles), "ratio"},
        {"telemetry.observer_cost", ratio(median(observed_s), op_p50), "x"},
        {"telemetry.turbo_cycle_fraction",
         ratio(static_cast<double>(obs.turbo_cycles),
               static_cast<double>(obs.cycles)), "ratio"},
        {"telemetry.frames", median(frames), "count"},
        {"telemetry.artifact_bytes", median(bytes), "bytes"},
        {"perfmodel.model_cycles_per_op", model, "cycles"},
        {"perfmodel.model_rel_err", std::abs(cycles - model) / model, "ratio"},
    };
  }
  print_result(failed == 0, ops.size(), failed, m);
  return 0;
}

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "simbench: %s\nusage: simbench --workload "
               "<bicgstab-busy|heat-torus> --seed <n> "
               "--seconds <s> --trace <0|1> --tmp <dir>\n",
               why);
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + key).c_str());
    const std::string val = argv[++i];
    char* end = nullptr;
    if (key == "--workload") {
      a.workload = val;
    } else if (key == "--seed") {
      have_seed = !val.empty() &&
                  val.find_first_not_of("0123456789") == std::string::npos;
      a.seed = std::strtoull(val.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      a.seconds = std::strtod(val.c_str(), &end);
      if (val.empty() || *end != '\0' || !(a.seconds > 0.0)) {
        usage("--seconds must be a positive number");
      }
    } else if (key == "--trace") {
      if (val != "0" && val != "1") usage("--trace must be 0 or 1");
      a.trace = val == "1";
    } else if (key == "--tmp") {
      a.tmp = val;
    } else {
      usage(("unknown argument " + key).c_str());
    }
  }
  if (a.workload != "bicgstab-busy" && a.workload != "heat-torus") {
    usage("unknown or missing --workload");
  }
  if (!have_seed) usage("--seed must be a non-negative integer");
  if (a.seconds <= 0.0) usage("missing --seconds");
  if (a.tmp.empty() || !std::filesystem::is_directory(a.tmp)) {
    usage("--tmp must name an existing directory");
  }
  return a;
}

} // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  const std::vector<std::string> ambient = ambient_wss_vars();
  if (!ambient.empty()) {
    for (const std::string& v : ambient) {
      std::fprintf(stderr, "simbench: refusing to run with %s set\n",
                   v.c_str());
    }
    return 2;
  }
  try {
    return run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "simbench: %s\n", e.what());
    return 1;
  }
}
