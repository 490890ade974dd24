// acbm end-to-end benchmark driver. One process runs one named workload
// in-process against the library's public calls (trace::build_world,
// Dataset::save_csv/load_csv, AdversaryModel::fit/save_framed,
// armm::pack_model, ServingModel::map_file/predict, serve::Server/Client,
// ingest::Ingestor), checks every output, and prints one JSON object on the
// last line of stdout: correct / attempted / failed / metrics, where
// metrics holds every end-to-end and per-layer value this workload
// measured (perfbench/run.py selects the set BENCHMARK.json asks for).
//
// Usage (normally through run.py, which builds this file and sets
// ACBM_THREADS):
//   acbm_perfbench offline-paper|serve-paper|ingest-live
//       --dir WORKDIR --seed N --seconds S [--trace] [--toy]
//   acbm_perfbench fit-hash --dir WORKDIR
//
// Layer timings come from spans the driver times itself around each public
// call (the `Ledger`), plus — with --trace — the spans and counters the
// library already emits through core::observe. See perfbench/README.md.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <mutex>
#include <optional>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/artifact_map.h"
#include "core/durable.h"
#include "core/ingest.h"
#include "core/observe.h"
#include "core/pipeline.h"
#include "core/server.h"
#include "core/serving.h"
#include "trace/scenario.h"
#include "trace/world.h"

namespace {

namespace fs = std::filesystem;
namespace obs = acbm::core::observe;
namespace serve = acbm::core::serve;
namespace ingest = acbm::core::ingest;
namespace durable = acbm::core::durable;
using acbm::core::AdversaryModel;
using acbm::core::AttackPrediction;
using acbm::core::Precision;
using acbm::core::ServingModel;
using acbm::net::Asn;
using acbm::trace::Dataset;
using acbm::trace::EpochSeconds;
using Clock = std::chrono::steady_clock;

constexpr double kSloMs = 10.0;  // query p99 limit for max_qps_at_slo.


double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// Wall milliseconds of one call.
template <class F>
double time_ms(F&& fn) {
  const auto t0 = Clock::now();
  fn();
  return ms_between(t0, Clock::now());
}

double median(std::vector<double> xs) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const std::size_t n = xs.size();
  return n % 2 == 1 ? xs[n / 2] : 0.5 * (xs[n / 2 - 1] + xs[n / 2]);
}

/// The p99, or — with fewer than 1,000 samples — the highest percentile
/// that still has at least ten samples beyond it (the smallest sample when
/// there are eleven or fewer).
double tail(std::vector<double> xs) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const std::size_t n = xs.size();
  const auto p99 = static_cast<std::size_t>(std::ceil(0.99 * n)) - 1;
  const std::size_t ten_beyond = n > 11 ? n - 11 : 0;
  return xs[std::min(p99, ten_beyond)];
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

double ratio(std::uint64_t num, std::uint64_t den) {
  return den == 0 ? 0.0 : static_cast<double>(num) / static_cast<double>(den);
}

// --- Result ------------------------------------------------------------------

/// Metrics, output checks, and the op tally one run prints.
class Report {
 public:
  void metric(const std::string& name, double value, const char* unit) {
    metrics_[name] = {value, unit};
  }

  /// An output check: a false `ok` makes the run incorrect.
  void check(bool ok, const std::string& what) {
    if (ok) return;
    if (failures_.size() < 20) failures_.push_back(what);
    std::fprintf(stderr, "[perfbench] CHECK FAILED: %s\n", what.c_str());
  }

  /// One user-visible operation (query, fit, append, refit, publish).
  void op(bool ok) {
    attempted_.fetch_add(1);
    if (!ok) failed_.fetch_add(1);
  }

  void set_model_hash(std::uint64_t hash) { model_hash_ = hash; }

  /// A non-finite metric fails the run and prints as NaN / Infinity, which
  /// the JSON reader in run.py accepts and rejects as not finite.
  void print() {
    metric("error_ratio", ratio(failed_.load(), attempted_.load()), "ratio");
    for (const auto& [name, m] : metrics_) {
      check(std::isfinite(m.first), "metric " + name + " is not finite");
    }
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, ",
                failures_.empty() ? "true" : "false",
                static_cast<unsigned long long>(attempted_.load()),
                static_cast<unsigned long long>(failed_.load()));
    std::printf("\"model_hash\": \"%016llx\", \"failures\": [",
                static_cast<unsigned long long>(model_hash_));
    for (std::size_t i = 0; i < failures_.size(); ++i) {
      std::printf("%s\"%s\"", i == 0 ? "" : ", ",
                  json_escape(failures_[i]).c_str());
    }
    std::printf("], \"metrics\": {");
    bool first = true;
    for (const auto& [name, m] : metrics_) {
      char value[32];
      if (std::isnan(m.first)) {
        std::snprintf(value, sizeof value, "NaN");
      } else if (std::isinf(m.first)) {
        std::snprintf(value, sizeof value, "%sInfinity", m.first < 0 ? "-" : "");
      } else {
        std::snprintf(value, sizeof value, "%.17g", m.first);
      }
      std::printf("%s\"%s\": {\"value\": %s, \"unit\": \"%s\"}",
                  first ? "" : ", ", name.c_str(), value, m.second);
      first = false;
    }
    std::printf("}}\n");
    std::fflush(stdout);
  }

 private:
  static std::string json_escape(const std::string& s) {
    std::string out;
    for (const char c : s) {
      if (c == '"' || c == '\\') out += '\\';
      out += (c == '\n' || c == '\t') ? ' ' : c;
    }
    return out;
  }

  std::map<std::string, std::pair<double, const char*>> metrics_;
  std::vector<std::string> failures_;
  std::atomic<std::uint64_t> attempted_{0};
  std::atomic<std::uint64_t> failed_{0};
  std::uint64_t model_hash_ = 0;
};

/// Driver-timed top-level spans of one end-to-end window, so the window's
/// wall time can be reconciled against the sum of its parts.
class Ledger {
 public:
  template <class F>
  double span(const std::string& name, F&& fn) {
    const double ms = time_ms(std::forward<F>(fn));
    add(name, ms);
    return ms;
  }
  void add(const std::string& name, double ms) {
    for (auto& [n, total] : parts_) {
      if (n == name) {
        total += ms;
        return;
      }
    }
    parts_.emplace_back(name, ms);
  }
  [[nodiscard]] double part(const std::string& name) const {
    for (const auto& [n, total] : parts_) {
      if (n == name) return total;
    }
    return 0.0;
  }
  /// Prints "reconcile <window>: wall = parts + unaccounted" on stderr and
  /// returns the gap (wall minus the sum of the parts).
  double reconcile(const char* window, double wall_ms) const {
    double sum = 0.0;
    std::string line;
    char buf[96];
    for (const auto& [n, total] : parts_) {
      sum += total;
      std::snprintf(buf, sizeof buf, " %s %.1f +", n.c_str(), total);
      line += buf;
    }
    const double gap = wall_ms - sum;
    std::fprintf(stderr,
                 "[perfbench] reconcile %s: wall %.1f ms =%s unaccounted "
                 "%.1f ms (%.2f%%)\n",
                 window, wall_ms, line.c_str(), gap,
                 wall_ms > 0 ? 100.0 * gap / wall_ms : 0.0);
    return gap;
  }

 private:
  std::vector<std::pair<std::string, double>> parts_;
};

// --- core::observe readers -------------------------------------------------------

/// Library counters over a window: snapshot at construction, delta on read.
class CounterWindow {
 public:
  CounterWindow() : start_(snapshot()) {}
  [[nodiscard]] std::map<std::string, std::uint64_t> delta() const {
    std::map<std::string, std::uint64_t> out = snapshot();
    for (auto& [name, value] : out) {
      const auto it = start_.find(name);
      if (it != start_.end()) value -= it->second;
    }
    return out;
  }

 private:
  static std::map<std::string, std::uint64_t> snapshot() {
    std::map<std::string, std::uint64_t> out;
    for (auto& [name, value] : obs::Metrics::instance().counters_snapshot()) {
      out[name] = value;
    }
    return out;
  }
  std::map<std::string, std::uint64_t> start_;
};

/// Total wall ms per span name across the collected events, counting a
/// span only when no ancestor carries the same name (no double counting of
/// nested same-name spans).
std::map<std::string, double> span_totals_ms(
    const std::vector<obs::SpanEvent>& events) {
  std::map<std::uint64_t, const obs::SpanEvent*> by_seq;
  for (const obs::SpanEvent& e : events) by_seq[e.seq] = &e;
  std::map<std::string, double> out;
  for (const obs::SpanEvent& e : events) {
    bool nested = false;
    for (auto it = by_seq.find(e.parent); it != by_seq.end();
         it = by_seq.find(it->second->parent)) {
      if (std::strcmp(it->second->name, e.name) == 0) {
        nested = true;
        break;
      }
    }
    if (!nested) out[e.name] += static_cast<double>(e.wall_ns) / 1e6;
  }
  return out;
}

/// Reports the library's fit-stage spans and counters. `fits` divides the
/// span and counter totals so the numbers are per fit; `fit_total_ms` is
/// the per-fit wall of the enclosing call (driver-timed fit, or
/// ingest.refit).
void report_fit_layers(Report& report, const std::map<std::string, double>& spans,
                       const std::map<std::string, std::uint64_t>& counters,
                       double fits, double fit_total_ms) {
  const auto span = [&](const char* name) {
    const auto it = spans.find(name);
    return it == spans.end() || fits <= 0 ? 0.0 : it->second / fits;
  };
  const auto total = [&](const char* name) -> std::uint64_t {
    const auto it = counters.find(name);
    return it == counters.end() ? 0 : it->second;
  };
  const auto count = [&](const char* name) {
    return fits <= 0 ? 0.0 : static_cast<double>(total(name)) / fits;
  };
  const double rows = span("fit.rows");
  const double spatial = span("fit.spatial");
  const double temporal = span("fit.temporal");
  const double tree = span("fit.tree");
  report.metric("fit.total_ms", fit_total_ms, "ms");
  report.metric("fit.rows_ms", rows, "ms");
  report.metric("fit.spatial_ms", spatial, "ms");
  report.metric("fit.temporal_ms", temporal, "ms");
  report.metric("fit.tree_ms", tree, "ms");
  report.metric("fit.unaccounted_ms",
                fits > 0 ? fit_total_ms - (rows + spatial + temporal + tree)
                         : 0.0,
                "ms");
  report.metric("gemv.flops", count("gemv.flops"), "count");
  report.metric("gemm.flops", count("gemm.flops"), "count");
  report.metric("ols.solves", count("ols.solves"), "count");
  report.metric("nar.candidates", count("nar.candidates"), "count");
  report.metric("fit.degraded", count("fit.degraded"), "count");
  report.metric("feature_cache.hit_ratio",
                ratio(total("feature_cache.hit"),
                      total("feature_cache.hit") + total("feature_cache.miss")),
                "ratio");
  report.metric("lag_cache.hit_ratio",
                ratio(total("lag_cache.hit"),
                      total("lag_cache.hit") + total("lag_cache.miss")),
                "ratio");
}

/// Tracing overhead on a fixed slice of the workload: the slice runs
/// `reps` times untraced and `reps` times traced, interleaved; returns
/// (traced median / untraced median - 1) in percent.
double tracing_overhead_pct(const std::function<void()>& slice, int reps) {
  std::vector<double> off, on;
  for (int r = 0; r < reps; ++r) {
    obs::set_enabled(false);
    off.push_back(time_ms(slice));
    obs::set_enabled(true);
    on.push_back(time_ms(slice));
  }
  obs::set_enabled(false);
  (void)obs::Tracer::instance().collect();
  return 100.0 * (median(on) / median(off) - 1.0);
}

// --- Options -----------------------------------------------------------------

struct Options {
  std::string workload;
  fs::path dir;
  std::uint64_t seed = 1;
  double seconds = 0.0;  ///< Required for the workloads (run.py passes it).
  bool trace = false;
  bool toy = false;
};

/// Every workload fits the one fixed paper-table1 world (seed 1), as the
/// paper fits its one trace: forecast quality and fit cost then depend on
/// the code alone, not on the run's seed. The run's --seed drives the
/// inputs the system receives while running: query targets and arrival
/// times.
constexpr std::uint64_t kWorldSeed = 1;

acbm::trace::WorldOptions world_options(std::size_t days) {
  acbm::trace::WorldOptions opts = acbm::trace::small_world_options(kWorldSeed);
  (void)acbm::trace::apply_scenario(opts, "paper-table1");
  opts.generator.days = days;
  return opts;
}

/// tracing_overhead_pct of the fit layers, on a 14-day fit of the world.
double fit_tracing_overhead_pct() {
  const acbm::trace::World toy = acbm::trace::build_world(world_options(14));
  return tracing_overhead_pct(
      [&] {
        AdversaryModel m(acbm::core::default_cli_options());
        m.fit(toy.dataset, toy.ip_map);
      },
      5);
}

// --- Forecast scoring ----------------------------------------------------------

/// Mean absolute error of next-attack forecasts against the first real
/// attack on each target in `truth` (targets with no such attack are
/// skipped). Day error in days; hour error circular on the 24 h clock.
struct ForecastScore {
  double day_mae = 0.0;
  double hour_mae = 0.0;
  std::size_t scored = 0;
};

ForecastScore score_forecasts(
    const std::vector<std::pair<Asn, AttackPrediction>>& predictions,
    const Dataset& truth, EpochSeconds window_start) {
  ForecastScore score;
  for (const auto& [asn, pred] : predictions) {
    const std::vector<std::size_t> hits = truth.attacks_on_asn(asn);
    if (hits.empty()) continue;
    const EpochSeconds offset =
        truth.attacks()[hits.front()].start - window_start;
    const double day = std::floor(static_cast<double>(offset) / 86400.0);
    const double hour =
        static_cast<double>(offset % 86400) / 3600.0;
    const double dh = std::fabs(pred.hour - hour);
    score.day_mae += std::fabs(pred.day - day);
    score.hour_mae += std::min(dh, 24.0 - dh);
    ++score.scored;
  }
  if (score.scored > 0) {
    score.day_mae /= static_cast<double>(score.scored);
    score.hour_mae /= static_cast<double>(score.scored);
  }
  return score;
}

bool finite_prediction(const AttackPrediction& p) {
  return std::isfinite(p.magnitude) && std::isfinite(p.duration_s) &&
         std::isfinite(p.day) && std::isfinite(p.hour) && p.hour >= 0.0 &&
         p.hour < 24.0;
}

// --- Serving helpers --------------------------------------------------------

std::string predict_payload(Asn asn) {
  std::string payload(4, '\0');
  for (int i = 0; i < 4; ++i) {
    payload[static_cast<std::size_t>(i)] =
        static_cast<char>((asn >> (8 * i)) & 0xffu);
  }
  return payload;
}

/// The wire payloads an f64 predict must return for each target: the
/// in-process ServingModel forecast, encoded exactly as the daemon does.
std::vector<std::string> expected_payloads(const ServingModel& model,
                                           const std::vector<Asn>& targets,
                                           Report& report) {
  std::vector<std::string> out;
  out.reserve(targets.size());
  for (const Asn asn : targets) {
    const auto pred = model.predict(asn);
    report.check(pred.has_value() && finite_prediction(*pred),
                 "in-process forecast missing or non-finite for AS" +
                     std::to_string(asn));
    out.push_back(pred ? serve::encode_prediction(
                             *pred, model.family_name(pred->assumed_family))
                       : std::string());
  }
  return out;
}

/// Appends `sweeps` timings (ms) of forecasting every target once in process
/// (f64). forecast_all_ms is the median over three such batches taken at
/// different points of the run, so one slow stretch of the machine does not
/// decide it.
void forecast_sweeps(const ServingModel& model, const std::vector<Asn>& targets,
                     int sweeps, std::vector<double>& out) {
  for (int s = 0; s < sweeps; ++s) {
    out.push_back(time_ms([&] {
      for (const Asn asn : targets) (void)model.predict(asn);
    }));
  }
}

/// In-process predict latency over every target (f64 and f32), repeated
/// `sweeps` times; reports serving.predict_* and returns per-target f64
/// medians in µs.
std::vector<double> measure_predict(const ServingModel& model,
                                    const std::vector<Asn>& targets,
                                    int sweeps, Report& report) {
  std::vector<std::vector<double>> per_target(targets.size());
  std::vector<double> all64, all32;
  for (int s = 0; s < sweeps; ++s) {
    for (std::size_t i = 0; i < targets.size(); ++i) {
      const auto t0 = Clock::now();
      const auto p64 = model.predict(targets[i], Precision::kF64);
      const auto t1 = Clock::now();
      const auto p32 = model.predict(targets[i], Precision::kF32);
      const auto t2 = Clock::now();
      const double us64 = 1000.0 * ms_between(t0, t1);
      per_target[i].push_back(us64);
      all64.push_back(us64);
      all32.push_back(1000.0 * ms_between(t1, t2));
      if (s == 0) {
        report.check(p64 && finite_prediction(*p64) && p32 &&
                         finite_prediction(*p32),
                     "non-finite forecast for AS" + std::to_string(targets[i]));
      }
    }
  }
  report.metric("serving.predict_us_p50", median(all64), "us");
  report.metric("serving.predict_us_p99", tail(all64), "us");
  report.metric("serving.predict_f32_us_p50", median(all32), "us");
  std::vector<double> out;
  for (auto& v : per_target) out.push_back(median(v));
  return out;
}

/// One daemon in the driver's process.
struct Daemon {
  std::unique_ptr<serve::Server> server;
  std::string socket;
};

/// The daemon answers every target once over one connection. Each answer
/// is checked byte-equal to `expected` (when given) and kept in `answers`,
/// its round trip in `rtt_us`.
void first_answers(const std::string& socket, const std::vector<Asn>& targets,
                   const std::vector<std::string>* expected,
                   std::vector<std::string>& answers,
                   std::vector<double>& rtt_us, Report& report) {
  answers.clear();
  rtt_us.clear();
  serve::Client client = serve::Client::connect_unix(socket);
  for (std::size_t i = 0; i < targets.size(); ++i) {
    const auto q0 = Clock::now();
    serve::Client::Response r = client.request(
        serve::Opcode::kPredict, Precision::kF64, "m",
        predict_payload(targets[i]));
    rtt_us.push_back(1000.0 * ms_between(q0, Clock::now()));
    const bool ok = r.status == serve::Status::kOk;
    report.op(ok);
    report.check(ok, "daemon refused AS" + std::to_string(targets[i]));
    if (expected != nullptr) {
      report.check(r.payload == (*expected)[i],
                   "serve != predict for AS" + std::to_string(targets[i]));
    }
    answers.push_back(std::move(r.payload));
  }
}

/// One set-up: the daemon's cold start (construct, preload the artifact,
/// start, answer a ping) plus a cold in-process load of the same artifact
/// that forecasts every target once — what a process pays before it
/// serves. Returns its wall ms.
double cold_start(Daemon& daemon, const std::string& socket,
                  const fs::path& artifact, std::size_t watch_ms,
                  const std::vector<Asn>& targets, Report& report) {
  const auto t0 = Clock::now();
  serve::ServerOptions opts;
  opts.socket_path = socket;
  opts.models.emplace_back("m", artifact);
  opts.threads = 4;
  opts.preload = true;
  opts.watch_interval_ms = watch_ms;
  daemon.socket = socket;
  daemon.server = std::make_unique<serve::Server>(std::move(opts));
  daemon.server->start();
  serve::Client client = serve::Client::connect_unix(socket);
  report.check(client.ping().status == serve::Status::kOk,
               "daemon did not answer a ping");
  {
    const ServingModel model = ServingModel::load_any(artifact);
    for (const Asn asn : targets) (void)model.predict(asn);
  }
  return ms_between(t0, Clock::now());
}

/// One open-loop step: Poisson arrivals at `rate` for `seconds`, targets
/// uniform, spread over `conns` blocking connections. Latency runs from
/// each request's due time, so a stall charges every request queued
/// behind it.
struct Step {
  double rate = 0.0;
  std::vector<double> latency_us;
  std::vector<double> late_ms;  ///< Send time minus due time.
  std::size_t failed = 0;
  bool backlog = false;
  [[nodiscard]] bool pass() const {
    return failed == 0 && !backlog && !latency_us.empty() &&
           tail(latency_us) <= 1000.0 * kSloMs;
  }
};

/// Lets another thread end an open loop early (`stop`) or hold it while it
/// measures something the loop's requests would disturb: quiesce() returns
/// once no request is in flight, and requests due until resume() are
/// skipped (not sent, not counted).
struct Gate {
  std::atomic<bool> stop{false};
  std::atomic<bool> hold{false};
  std::atomic<int> inflight{0};

  void quiesce() {
    hold.store(true);
    while (inflight.load() > 0) {
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
  }
  void resume() { hold.store(false); }

  /// Marks one request in flight for its scope (no-op without a gate).
  class InFlight {
   public:
    explicit InFlight(Gate* gate) : gate_(gate) {
      if (gate_ != nullptr) gate_->inflight.fetch_add(1);
    }
    ~InFlight() {
      if (gate_ != nullptr) gate_->inflight.fetch_sub(1);
    }
    InFlight(const InFlight&) = delete;
    InFlight& operator=(const InFlight&) = delete;

   private:
    Gate* gate_;
  };
};

Step open_loop(const std::string& socket, const std::vector<Asn>& targets,
               const std::vector<std::string>* expected, double rate,
               double seconds, std::uint64_t seed, std::size_t conns,
               Gate* gate, Report& report) {
  std::mt19937_64 rng(seed);
  std::exponential_distribution<double> gap(rate);
  std::uniform_int_distribution<std::size_t> pick(0, targets.size() - 1);
  std::vector<double> due_s;
  std::vector<std::size_t> which;
  for (double t = gap(rng); t < seconds; t += gap(rng)) {
    due_s.push_back(t);
    which.push_back(pick(rng));
  }
  Step step;
  step.rate = rate;
  std::vector<double> latency(due_s.size(), -1.0), late(due_s.size(), 0.0);
  std::vector<char> bad(due_s.size(), 0);
  std::atomic<std::size_t> next{0};
  std::mutex err_mu;
  std::string first_error;
  const auto start = Clock::now() + std::chrono::milliseconds(5);
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < conns; ++c) {
    threads.emplace_back([&]() {
      try {
        serve::Client client = serve::Client::connect_unix(socket);
        for (std::size_t i = next.fetch_add(1); i < due_s.size();
             i = next.fetch_add(1)) {
          const auto due = start + std::chrono::duration_cast<Clock::duration>(
                                       std::chrono::duration<double>(due_s[i]));
          if (gate != nullptr && gate->stop.load()) break;
          std::this_thread::sleep_until(due);
          const Gate::InFlight in_flight(gate);
          if (gate != nullptr && gate->hold.load()) continue;
          const auto sent = Clock::now();
          const serve::Client::Response r = client.request(
              serve::Opcode::kPredict, Precision::kF64, "m",
              predict_payload(targets[which[i]]));
          latency[i] = 1000.0 * ms_between(due, Clock::now());
          late[i] = ms_between(due, sent);
          bad[i] = r.status != serve::Status::kOk ||
                   (expected != nullptr && r.payload != (*expected)[which[i]]);
        }
      } catch (const std::exception& e) {
        std::lock_guard lock(err_mu);
        if (first_error.empty()) first_error = e.what();
      }
    });
  }
  for (std::thread& t : threads) t.join();
  report.check(first_error.empty(), "load generator: " + first_error);
  std::vector<double> first_q, last_q;
  std::size_t sent = 0;
  for (std::size_t i = 0; i < due_s.size(); ++i) {
    if (latency[i] < 0.0) continue;  // Not sent (stopped early).
    ++sent;
    step.latency_us.push_back(latency[i]);
    step.late_ms.push_back(late[i]);
    if (bad[i] != 0) ++step.failed;
    report.op(bad[i] == 0);
  }
  report.check(step.failed == 0,
               std::to_string(step.failed) +
                   " daemon answers refused or != in-process predict at " +
                   std::to_string(static_cast<int>(rate)) + " qps");
  const std::size_t q = sent / 4;
  if (q > 0) {
    first_q.assign(step.late_ms.begin(), step.late_ms.begin() + q);
    last_q.assign(step.late_ms.end() - q, step.late_ms.end());
    step.backlog = median(last_q) > median(first_q) + 1.0;
  }
  return step;
}

/// Closed loop: `conns` connections each send their next request as soon
/// as the previous answer arrives, for `seconds`, targets uniform.
/// Completions are counted in five equal windows; each window's
/// throughput (requests/s) is appended to `windows`. The caller reports the
/// median window over several bursts spread across the run, so a transient
/// stall of the machine does not decide the result.
void closed_loop(const std::string& socket, const std::vector<Asn>& targets,
                 const std::vector<std::string>& expected, double seconds,
                 std::uint64_t seed, std::size_t conns, Report& report,
                 std::vector<double>& windows) {
  constexpr int kWindows = 5;
  std::vector<std::atomic<std::uint64_t>> done(kWindows);
  std::atomic<std::uint64_t> bad{0};
  std::mutex err_mu;
  std::string first_error;
  const auto start = Clock::now();
  const double window_s = seconds / kWindows;
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < conns; ++c) {
    threads.emplace_back([&, c]() {
      try {
        std::mt19937_64 rng(seed * 7727u + c);
        std::uniform_int_distribution<std::size_t> pick(0, targets.size() - 1);
        serve::Client client = serve::Client::connect_unix(socket);
        for (;;) {
          const std::size_t t = pick(rng);
          const serve::Client::Response r = client.request(
              serve::Opcode::kPredict, Precision::kF64, "m",
              predict_payload(targets[t]));
          const double at = ms_between(start, Clock::now()) / 1000.0;
          const bool ok =
              r.status == serve::Status::kOk && r.payload == expected[t];
          report.op(ok);
          if (!ok) bad.fetch_add(1);
          const auto w = static_cast<int>(at / window_s);
          if (w >= kWindows) break;
          done[static_cast<std::size_t>(w)].fetch_add(1);
        }
      } catch (const std::exception& e) {
        std::lock_guard lock(err_mu);
        if (first_error.empty()) first_error = e.what();
      }
    });
  }
  for (std::thread& t : threads) t.join();
  report.check(first_error.empty(), "closed loop: " + first_error);
  report.check(bad.load() == 0, std::to_string(bad.load()) +
                                    " closed-loop answers refused or != "
                                    "in-process predict");
  std::fprintf(stderr, "[perfbench] closed loop x%zu, req/s per window:",
               conns);
  for (const auto& d : done) {
    windows.push_back(static_cast<double>(d.load()) / window_s);
    std::fprintf(stderr, " %.0f", windows.back());
  }
  std::fprintf(stderr, "\n");
}

/// Doubling ladder from 250 qps until the first rate that misses the SLO
/// (tail <= 10 ms, no growing backlog, no failure), then `bisect` bisection
/// steps between the last pass and the first miss. Returns the highest
/// passing rate.
double ladder(const std::string& socket, const std::vector<Asn>& targets,
              const std::vector<std::string>* expected, double step_seconds,
              int bisect, std::uint64_t seed, Report& report) {
  double pass = 0.0, miss = 0.0;
  const auto step = [&](double rate, const char* what) {
    const Step s = open_loop(socket, targets, expected, rate, step_seconds,
                             seed * 1000003u + static_cast<std::uint64_t>(rate),
                             4, nullptr, report);
    std::fprintf(stderr,
                 "[perfbench] %s %6.0f qps: n=%zu p50=%.0f us tail=%.0f us "
                 "late_p99=%.2f ms failed=%zu backlog=%d -> %s\n",
                 what, rate, s.latency_us.size(), median(s.latency_us),
                 tail(s.latency_us), tail(s.late_ms), s.failed,
                 s.backlog ? 1 : 0, s.pass() ? "pass" : "miss");
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    return s.pass();
  };
  for (double rate = 250.0; rate <= 64000.0; rate *= 2.0) {
    if (!step(rate, "ladder")) {
      miss = rate;
      break;
    }
    pass = rate;
  }
  for (int b = 0; miss > 0.0 && b < bisect; ++b) {
    const double rate = 0.5 * (pass + miss);
    (step(rate, "bisect") ? pass : miss) = rate;
  }
  return pass;
}

void report_queries(Report& report, const Step& ref) {
  report.metric("query_p50_us", median(ref.latency_us), "us");
  report.metric("query_p99_us", tail(ref.latency_us), "us");
  report.metric("loadgen.ref_samples",
                static_cast<double>(ref.latency_us.size()), "count");
  report.metric("loadgen.late_ms_p99", tail(ref.late_ms), "ms");
}

void report_server(Report& report, const serve::Server& server) {
  const serve::ServerStats s = server.stats();
  report.metric("server.batch_size_mean", ratio(s.requests, s.batches),
                "count");
  report.metric("server.coalesced_ratio", ratio(s.coalesced, s.requests),
                "ratio");
  report.metric("server.swaps", static_cast<double>(s.swaps), "count");
}

/// Round trip minus in-process predict, per target, median.
double server_overhead_us(const std::vector<double>& rtt_us,
                          const std::vector<double>& predict_us) {
  std::vector<double> diff;
  for (std::size_t i = 0; i < rtt_us.size() && i < predict_us.size(); ++i) {
    diff.push_back(rtt_us[i] - predict_us[i]);
  }
  return median(diff);
}

// --- Paper-scale pipeline (offline-paper, serve-paper) -----------------------

struct PipelineResult {
  double pipeline_ms = 0.0;
  double fit_ms = 0.0;       ///< CSV on disk -> published model.art.
  double fit_call_ms = 0.0;  ///< AdversaryModel::fit alone.
  std::uint64_t art_hash = 0;
  std::size_t art_bytes = 0;
  std::size_t armm_bytes = 0;
  std::size_t attacks = 0;
  Dataset test;  ///< The held-out 20%.
  EpochSeconds window_start = 0;
};

/// Seeded 242-day paper-table1 trace -> CSV round trip -> fit on the 80%
/// train split -> framed model.art -> pack -> published model.armm.
PipelineResult paper_pipeline(const Options& o, Ledger& ledger, Report& report) {
  PipelineResult out;
  const auto t0 = Clock::now();
  acbm::trace::World world;
  ledger.span("trace.generate", [&] {
    world = acbm::trace::build_world(world_options(o.toy ? 21 : 242));
  });
  out.attacks = world.dataset.size();
  ledger.span("trace.csv_save", [&] {
    std::ostringstream csv, ipmap;
    world.dataset.save_csv(csv);
    world.ip_map.save(ipmap);
    durable::atomic_write_file("trace.csv", csv.str());
    durable::atomic_write_file("ipmap.txt", ipmap.str());
  });
  const auto fit_t0 = Clock::now();
  Dataset loaded;
  acbm::net::IpToAsnMap ip_map;
  ledger.span("trace.csv_load", [&] {
    std::istringstream csv(durable::read_file("trace.csv"));
    loaded = Dataset::load_csv(csv);
    std::istringstream map(durable::read_file("ipmap.txt"));
    ip_map = acbm::net::IpToAsnMap::load(map);
  });
  report.check(loaded.size() == world.dataset.size(),
               "CSV round trip changed the attack count");
  Dataset train;
  ledger.span("trace.split", [&] {
    auto parts = loaded.split(0.8);
    train = std::move(parts.first);
    out.test = std::move(parts.second);
  });
  out.window_start = loaded.window_start();
  AdversaryModel model(acbm::core::default_cli_options());
  out.fit_call_ms = ledger.span("fit", [&] { model.fit(train, ip_map); });
  report.op(model.fitted());
  ledger.span("durable.save_framed", [&] {
    std::ostringstream os;
    model.save_framed(os);
    const std::string bytes = os.str();
    durable::atomic_write_file("model.art", bytes);
    out.art_hash = durable::fnv1a64(bytes);
    out.art_bytes = bytes.size();
  });
  out.fit_ms = ms_between(fit_t0, Clock::now());
  std::string image;
  ledger.span("artifact.pack", [&] { image = acbm::core::armm::pack_model(model); });
  ledger.span("artifact.publish",
              [&] { durable::atomic_write_file("model.armm", image); });
  out.armm_bytes = image.size();
  report.op(!image.empty());
  out.pipeline_ms = ms_between(t0, Clock::now());
  return out;
}

/// offline-paper and serve-paper: both run the paper pipeline and then
/// serve its .armm. offline-paper spends its measured seconds on pipeline
/// iterations and probes the daemon briefly; serve-paper runs the pipeline
/// once and spends its measured seconds serving.
void run_paper(const Options& o, bool offline, Report& report) {
  if (o.trace) obs::set_enabled(true);
  CounterWindow fit_counters;
  Ledger ledger;
  std::vector<PipelineResult> runs;
  const auto window0 = Clock::now();
  do {
    runs.push_back(paper_pipeline(o, ledger, report));
    std::fprintf(stderr,
                 "[perfbench] pipeline %zu: %zu attacks, %.0f ms (fit %.0f "
                 "ms), model.art %016llx\n",
                 runs.size(), runs.back().attacks, runs.back().pipeline_ms,
                 runs.back().fit_ms,
                 static_cast<unsigned long long>(runs.back().art_hash));
  } while (offline && ms_between(window0, Clock::now()) < 1000.0 * o.seconds);
  const double window_ms = ms_between(window0, Clock::now());
  const auto fit_counts = fit_counters.delta();
  const PipelineResult& last = runs.back();
  for (const PipelineResult& r : runs) {
    report.check(r.art_hash == last.art_hash,
                 "model.art differs between pipeline iterations");
  }
  report.set_model_hash(last.art_hash);

  std::vector<double> pipeline_ms, fit_ms;
  for (const PipelineResult& r : runs) {
    pipeline_ms.push_back(r.pipeline_ms);
    fit_ms.push_back(r.fit_ms);
  }
  const double iters = static_cast<double>(runs.size());
  report.metric("pipeline_s", median(pipeline_ms) / 1000.0, "s");
  report.metric("fit_s", median(fit_ms) / 1000.0, "s");
  report.metric("trace.generate_ms", ledger.part("trace.generate") / iters,
                "ms");
  report.metric("trace.attacks_per_s",
                static_cast<double>(last.attacks) /
                    (ledger.part("trace.generate") / iters / 1000.0),
                "1/s");
  report.metric("trace.csv_save_ms", ledger.part("trace.csv_save") / iters,
                "ms");
  report.metric("trace.csv_load_ms", ledger.part("trace.csv_load") / iters,
                "ms");
  report.metric("durable.save_framed_ms",
                ledger.part("durable.save_framed") / iters, "ms");
  report.metric("artifact.pack_ms", ledger.part("artifact.pack") / iters,
                "ms");
  report.metric("model_art_bytes", static_cast<double>(last.art_bytes), "B");
  report.metric("armm_bytes", static_cast<double>(last.armm_bytes), "B");
  report.metric("unaccounted_ms",
                ledger.reconcile(offline ? "offline-paper pipeline"
                                         : "serve-paper pipeline",
                                 window_ms) /
                    iters,
                "ms");

  // Serving side: map, score, and verify the published artifact.
  std::vector<double> map_ms;
  ServingModel model;
  for (int i = 0; i < 5; ++i) {
    map_ms.push_back(time_ms([&] { model = ServingModel::map_file("model.armm"); }));
  }
  report.metric("artifact.map_ms", median(map_ms), "ms");
  const std::vector<Asn> targets = model.targets();
  report.check(!targets.empty(), "packed model has no targets");
  if (targets.empty()) return;
  std::vector<std::pair<Asn, AttackPrediction>> preds;
  for (const Asn asn : targets) {
    if (const auto p = model.predict(asn)) preds.emplace_back(asn, *p);
  }
  const ForecastScore score =
      score_forecasts(preds, last.test, last.window_start);
  report.check(score.scored > 0, "no target has a held-out attack to score");
  report.metric("forecast_day_mae", score.day_mae, "day");
  report.metric("forecast_hour_mae", score.hour_mae, "h");
  const std::vector<std::string> expected =
      expected_payloads(model, targets, report);
  CounterWindow predict_counters;
  const std::vector<double> predict_us =
      measure_predict(model, targets, o.toy ? 3 : 15, report);
  const auto predict_counts = predict_counters.delta();
  const int sweeps = o.toy ? 2 : 10;
  std::vector<double> sweep_ms;
  forecast_sweeps(model, targets, sweeps, sweep_ms);

  // Set-up: cold start on the published .armm, five times.
  std::vector<double> setup_ms;
  std::vector<std::string> answers;
  std::vector<double> rtt_us;
  Daemon daemon;
  for (int i = 0; i < 5; ++i) {
    if (daemon.server) daemon.server->stop();
    setup_ms.push_back(cold_start(daemon, "paper" + std::to_string(i) + ".sock",
                                  "model.armm", 0, targets, report));
    first_answers(daemon.socket, targets, &expected, answers, rtt_us, report);
  }
  report.metric("setup_s", median(setup_ms) / 1000.0, "s");
  report.metric("server.overhead_us_p50", server_overhead_us(rtt_us, predict_us),
                "us");

  // Closed-loop bursts interleaved with the reference rate and the capacity
  // ladder. offline-paper spent its measured seconds on the pipeline and
  // gives the daemon a third as long.
  const double measure_s = offline ? 0.3 * o.seconds : o.seconds;
  std::vector<double> windows;
  closed_loop(daemon.socket, targets, expected, 0.15 * measure_s, o.seed, 4,
              report, windows);
  const Step ref = open_loop(daemon.socket, targets, &expected, 500.0,
                             0.3 * measure_s, o.seed, 4, nullptr, report);
  forecast_sweeps(model, targets, sweeps, sweep_ms);
  closed_loop(daemon.socket, targets, expected, 0.15 * measure_s, o.seed + 1,
              4, report, windows);
  report.metric("max_qps_at_slo",
                ladder(daemon.socket, targets, &expected,
                       std::max(0.1, 0.25 * measure_s / 8.0), o.toy ? 1 : 3,
                       o.seed, report),
                "1/s");
  closed_loop(daemon.socket, targets, expected, 0.15 * measure_s, o.seed + 2,
              4, report, windows);
  forecast_sweeps(model, targets, sweeps, sweep_ms);
  report.metric("forecast_all_ms", median(sweep_ms), "ms");
  report.metric("serve_qps", median(windows), "1/s");
  report_queries(report, ref);
  report_server(report, *daemon.server);
  daemon.server->stop();
  report.metric("peak_rss_mb", peak_rss_mb(), "MB");

  if (o.trace) {
    // serve-paper's exact counts are those of the fixed predict sweep;
    // offline-paper's are one pipeline's.
    const std::map<std::string, std::uint64_t>& counts =
        offline ? fit_counts : predict_counts;
    const auto spans = span_totals_ms(obs::Tracer::instance().collect());
    report_fit_layers(report, spans, counts, iters,
                      ledger.part("fit") / iters);
    report.metric("trace.overhead_pct",
                  offline ? fit_tracing_overhead_pct()
                          : tracing_overhead_pct(
                                [&] {
                                  for (const Asn asn : targets) {
                                    (void)model.predict(asn);
                                  }
                                },
                                7),
                  "%");
  }
}

// --- ingest-live --------------------------------------------------------------

/// The attacks of `ds` starting in [from, to), as a Dataset on the same
/// families and window.
Dataset slice(const Dataset& ds, EpochSeconds from, EpochSeconds to) {
  std::vector<acbm::trace::Attack> attacks;
  for (const acbm::trace::Attack& a : ds.attacks()) {
    if (a.start >= from && a.start < to) attacks.push_back(a);
  }
  return Dataset(ds.family_names(), std::move(attacks), {}, ds.window_start());
}

void run_ingest(const Options& o, Report& report) {
  if (o.trace) obs::set_enabled(true);
  const std::size_t days = o.toy ? 14 : 70;
  const std::size_t init_days = o.toy ? 12 : 60;
  const std::size_t replay_hours = o.toy ? 48 : 96;
  // The pipeline three times, each into a fresh directory; the daemon
  // serves the last one.
  Ledger pipeline;
  std::vector<double> pipeline_ms;
  acbm::trace::World world;
  Dataset base;
  std::optional<ingest::Ingestor> last;
  const auto window0 = Clock::now();
  for (int i = 0; i < 3; ++i) {
    const auto p0 = Clock::now();
    pipeline.span("trace.generate", [&] {
      world = acbm::trace::build_world(world_options(days));
    });
    pipeline.span("trace.split", [&] {
      const EpochSeconds start = world.dataset.window_start();
      base = slice(world.dataset, start,
                   start + static_cast<EpochSeconds>(init_days) * 86400);
    });
    ingest::IngestorOptions iopts;
    iopts.dir = "ingest" + std::to_string(i);
    iopts.model = acbm::core::default_cli_options();
    iopts.refit_backoff_ms = 0;
    pipeline.span("ingest.init", [&] {
      last.emplace(iopts);
      last->init(base, world.ip_map);
    });
    report.op(last->initialized());
    pipeline_ms.push_back(ms_between(p0, Clock::now()));
  }
  ingest::Ingestor& ingestor = *last;
  pipeline.reconcile("ingest-live pipeline x3", ms_between(window0, Clock::now()));
  const EpochSeconds ws = world.dataset.window_start();
  const EpochSeconds split_at = ws + static_cast<EpochSeconds>(init_days) * 86400;
  report.metric("pipeline_s", median(pipeline_ms) / 1000.0, "s");
  report.metric("trace.generate_ms", pipeline.part("trace.generate") / 3.0,
                "ms");
  report.metric("trace.attacks_per_s",
                static_cast<double>(world.dataset.size()) /
                    (pipeline.part("trace.generate") / 3.0 / 1000.0),
                "1/s");
  report.metric("trace.csv_save_ms", 0.0, "ms");
  report.metric("trace.csv_load_ms", 0.0, "ms");
  report.metric("artifact.pack_ms", 0.0, "ms");
  report.metric("armm_bytes", 0.0, "B");

  // Hourly snapshots of the remaining days, prepared before the clock runs.
  std::vector<std::pair<std::size_t, std::string>> snapshots;
  for (std::size_t h = init_days * 24; h < init_days * 24 + replay_hours; ++h) {
    const EpochSeconds from = ws + static_cast<EpochSeconds>(h) * 3600;
    std::ostringstream csv;
    slice(world.dataset, from, from + 3600).save_csv(csv);
    snapshots.emplace_back(h, csv.str());
  }
  const EpochSeconds replay_end =
      split_at + static_cast<EpochSeconds>(replay_hours) * 3600;
  const Dataset replayed = slice(world.dataset, split_at, replay_end);
  const std::vector<Asn> targets = base.target_asns();

  // Set-up: cold start on the framed model.art (the daemon watching it),
  // three times; the daemon's first answers are the generation-1 forecasts,
  // each byte-checked against the in-process forecast of the same file.
  const std::vector<std::string> gen1_expected = expected_payloads(
      ServingModel::load_any(ingestor.model_path()), targets, report);
  std::vector<double> setup_ms;
  std::vector<std::string> answers;
  std::vector<double> rtt_us;
  Daemon daemon;
  for (int i = 0; i < 3; ++i) {
    if (daemon.server) daemon.server->stop();
    setup_ms.push_back(cold_start(daemon, "ingest" + std::to_string(i) + ".sock",
                                  ingestor.model_path(), 20, targets, report));
    first_answers(daemon.socket, targets, &gen1_expected, answers, rtt_us,
                  report);
  }
  report.metric("setup_s", median(setup_ms) / 1000.0, "s");
  std::vector<std::pair<Asn, AttackPrediction>> gen1;
  for (std::size_t i = 0; i < targets.size(); ++i) {
    try {
      const serve::PredictResult r = serve::decode_prediction(answers[i]);
      report.check(finite_prediction(r.prediction),
                   "non-finite generation-1 forecast");
      gen1.emplace_back(targets[i], r.prediction);
    } catch (const std::exception& e) {
      report.check(false, std::string("undecodable answer: ") + e.what());
    }
  }
  const ForecastScore score = score_forecasts(gen1, replayed, ws);
  report.check(score.scored > 0, "no target attacked in the replayed hours");
  report.metric("forecast_day_mae", score.day_mae, "day");
  report.metric("forecast_hour_mae", score.hour_mae, "h");

  // Replay: append every hour, force a refit every 24 appended hours, while
  // an open-loop 100 qps stream reads from the daemon. The library counters
  // are global and the daemon's forecasts count gemv work too, so the
  // traced run holds the reader during each check_and_refit and counts
  // only inside those calls.
  if (o.trace) (void)obs::Tracer::instance().collect();  // Replay spans only.
  std::map<std::string, std::uint64_t> refit_counts;
  Gate gate;
  Step live;
  std::thread reader([&] {
    live = open_loop(daemon.socket, targets, nullptr, 100.0, 170.0,
                     o.seed * 7919u + 1u, 4, &gate, report);
  });
  Ledger replay;
  std::vector<double> append_ms, refit_ms, staleness_s, swap_ms;
  std::size_t refits = 0, stages = 0, trips = 0;
  const auto r0 = Clock::now();
  try {
    for (std::size_t i = 0; i < snapshots.size(); ++i) {
      ingest::AppendOutcome out;
      append_ms.push_back(replay.span("ingest.append", [&] {
        out = ingestor.append(snapshots[i].first, snapshots[i].second);
      }));
      const bool appended = out.status == ingest::AppendStatus::kAccepted ||
                            out.status == ingest::AppendStatus::kRepaired;
      report.op(appended);
      report.check(appended, "hour " + std::to_string(snapshots[i].first) +
                                 " snapshot " + ingest::to_string(out.status) +
                                 ": " + out.detail);
      if ((i + 1) % 24 != 0 && i + 1 != snapshots.size()) continue;
      const std::uint64_t gen = daemon.server->generation("m");
      ingest::RefitResult r;
      if (o.trace) gate.quiesce();
      std::optional<CounterWindow> counters;
      if (o.trace) counters.emplace();
      const double ms = replay.span("ingest.check_and_refit", [&] {
        r = ingestor.check_and_refit(/*force=*/true);
      });
      if (o.trace) {
        for (const auto& [name, v] : counters->delta()) refit_counts[name] += v;
        gate.resume();
      }
      report.op(r.published);
      report.check(r.published, "refit not published: " + r.error);
      if (!r.published) continue;
      refit_ms.push_back(ms);
      ++refits;
      stages += r.stages_invalidated;
      trips += r.trips.size();
      bool swapped = false;
      const double wait = replay.span("server.swap_wait", [&] {
        swapped = daemon.server->wait_for_generation("m", gen + 1, 60000);
      });
      report.check(swapped, "daemon never picked up a published generation");
      staleness_s.push_back((ms + wait) / 1000.0);
      swap_ms.push_back(wait);
    }
  } catch (...) {
    gate.resume();
    gate.stop.store(true);
    reader.join();
    throw;
  }
  const double replay_ms = ms_between(r0, Clock::now());
  gate.stop.store(true);
  reader.join();
  report.metric("unaccounted_ms", replay.reconcile("ingest-live replay", replay_ms),
                "ms");
  report_queries(report, live);
  report.metric("fit_s", median(refit_ms) / 1000.0, "s");
  report.metric("staleness_s", median(staleness_s), "s");
  report.metric("append_p50_ms", median(append_ms), "ms");
  report.metric("ingest.append_ms_p50", median(append_ms), "ms");
  report.metric("ingest.append_ms_p99", tail(append_ms), "ms");
  report.metric("ingest.refit_ms", median(refit_ms), "ms");
  report.metric("ingest.refits", static_cast<double>(refits), "count");
  report.metric("ingest.refit_stages", static_cast<double>(stages), "count");
  report.metric("ingest.drift_trips", static_cast<double>(trips), "count");
  report.metric("server.swap_ms", median(swap_ms), "ms");

  // The final generation: in-process model, byte-checked daemon ladder.
  ServingModel model;
  report.metric(
      "artifact.map_ms",
      time_ms([&] { model = ServingModel::load_any(ingestor.model_path()); }),
      "ms");
  const std::vector<std::string> expected =
      expected_payloads(model, targets, report);
  const std::vector<double> predict_us =
      measure_predict(model, targets, o.toy ? 3 : 15, report);
  const int sweeps = o.toy ? 2 : 10;
  std::vector<double> sweep_ms;
  forecast_sweeps(model, targets, sweeps, sweep_ms);
  std::vector<std::string> final_answers;
  first_answers(daemon.socket, targets, &expected, final_answers, rtt_us,
                report);
  report.metric("server.overhead_us_p50", server_overhead_us(rtt_us, predict_us),
                "us");
  std::vector<double> windows;
  closed_loop(daemon.socket, targets, expected, o.toy ? 0.3 : 1.0, o.seed, 4,
              report, windows);
  forecast_sweeps(model, targets, sweeps, sweep_ms);
  report.metric("max_qps_at_slo",
                ladder(daemon.socket, targets, &expected, o.toy ? 0.1 : 0.2,
                       o.toy ? 1 : 3, o.seed, report),
                "1/s");
  closed_loop(daemon.socket, targets, expected, o.toy ? 0.3 : 1.0, o.seed + 1,
              4, report, windows);
  forecast_sweeps(model, targets, sweeps, sweep_ms);
  report.metric("forecast_all_ms", median(sweep_ms), "ms");
  report.metric("serve_qps", median(windows), "1/s");
  report_server(report, *daemon.server);
  daemon.server->stop();
  report.metric("peak_rss_mb", peak_rss_mb(), "MB");

  // The live model must equal a cold fit on the log's cumulative dataset.
  const std::string published = durable::read_file(ingestor.model_path());
  report.set_model_hash(durable::fnv1a64(published));
  report.metric("model_art_bytes", static_cast<double>(published.size()), "B");
  const Dataset cumulative = ingestor.log().cumulative();
  report.check(cumulative.size() == base.size() + replayed.size(),
               "the log's cumulative dataset lost attacks");
  AdversaryModel cold(acbm::core::default_cli_options());
  const std::vector<obs::SpanEvent> events =
      o.trace ? obs::Tracer::instance().collect() : std::vector<obs::SpanEvent>{};
  const bool was_tracing = obs::enabled();
  obs::set_enabled(false);
  cold.fit(cumulative, world.ip_map);
  std::ostringstream os;
  report.metric("durable.save_framed_ms", time_ms([&] { cold.save_framed(os); }),
                "ms");
  report.check(os.str() == published,
               "final ingest model != cold fit on the cumulative dataset");
  obs::set_enabled(was_tracing);

  if (o.trace) {
    const auto spans = span_totals_ms(events);
    const auto it = spans.find("ingest.refit");
    const double refit_total = it == spans.end() ? 0.0 : it->second;
    const double n = static_cast<double>(std::max<std::size_t>(refits, 1));
    report_fit_layers(report, spans, refit_counts, n, refit_total / n);
    report.metric("trace.overhead_pct", fit_tracing_overhead_pct(), "%");
  }
}

// --- Zero-filled layers ---------------------------------------------------------

/// Layers a workload does not exercise report 0, so every workload prints
/// the same metric set.
void zero_unexercised(const std::string& workload, Report& report) {
  if (workload != "ingest-live") {
    for (const char* name : {"ingest.append_ms_p50", "ingest.append_ms_p99",
                             "ingest.refit_ms", "ingest.refits",
                             "ingest.refit_stages", "ingest.drift_trips"}) {
      report.metric(name, 0.0, std::strstr(name, "_ms") ? "ms" : "count");
    }
    report.metric("server.swap_ms", 0.0, "ms");
    report.metric("staleness_s", 0.0, "s");
    report.metric("append_p50_ms", 0.0, "ms");
  }
}

/// fit-hash: the model.art fnv1a64 of the 80% split of WORKDIR/trace.csv
/// fitted at this process's ACBM_THREADS (the cross-thread-count check).
int run_fit_hash() {
  std::istringstream csv(durable::read_file("trace.csv"));
  const Dataset loaded = Dataset::load_csv(csv);
  std::istringstream map(durable::read_file("ipmap.txt"));
  const acbm::net::IpToAsnMap ip_map = acbm::net::IpToAsnMap::load(map);
  AdversaryModel model(acbm::core::default_cli_options());
  model.fit(loaded.split(0.8).first, ip_map);
  std::ostringstream os;
  model.save_framed(os);
  std::printf("%016llx\n",
              static_cast<unsigned long long>(durable::fnv1a64(os.str())));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  if (argc >= 2) o.workload = argv[1];
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--dir" && has_value) {
      o.dir = argv[++i];
    } else if (arg == "--seed" && has_value) {
      o.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      o.seconds = std::strtod(argv[++i], nullptr);
    } else if (arg == "--trace") {
      o.trace = true;
    } else if (arg == "--toy") {
      o.toy = true;
    } else {
      std::fprintf(stderr, "acbm_perfbench: unknown argument %s\n", arg.c_str());
      return 2;
    }
  }
  if (o.dir.empty() || (o.workload != "fit-hash" && o.seconds <= 0.0)) {
    std::fprintf(stderr,
                 "usage: acbm_perfbench offline-paper|serve-paper|ingest-live "
                 "--dir DIR --seconds S [--seed N] [--trace] [--toy]\n"
                 "       acbm_perfbench fit-hash --dir DIR\n");
    return 2;
  }
  try {
    fs::create_directories(o.dir);
    fs::current_path(o.dir);  // Short relative socket paths.
    if (o.workload == "fit-hash") return run_fit_hash();
    Report report;
    if (o.workload == "offline-paper" || o.workload == "serve-paper") {
      run_paper(o, o.workload == "offline-paper", report);
    } else if (o.workload == "ingest-live") {
      run_ingest(o, report);
    } else {
      std::fprintf(stderr, "acbm_perfbench: unknown workload %s\n",
                   o.workload.c_str());
      return 2;
    }
    zero_unexercised(o.workload, report);
    report.print();
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "acbm_perfbench: %s\n", e.what());
    return 1;
  }
}
