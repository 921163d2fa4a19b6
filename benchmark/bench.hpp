#pragma once

/// \file bench.hpp
/// Shared vocabulary of the pitk_bench workloads: options, the metric report,
/// timing/percentile helpers, the global heap counter (alloc_count.cpp) and
/// the per-layer meters every workload uses.
///
/// The program under test only ever sees generated inputs: every random
/// choice (problem data, arrival times, tenant draws) is derived from the
/// `--seed` argument here, never from the environment.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "kalman/model.hpp"
#include "parallel/thread_pool.hpp"

namespace pitk_bench {

using Clock = std::chrono::steady_clock;
using pitk::la::index;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 20.0;  ///< nominal measured time; sizes the run, see each workload
  bool trace = false;
  std::string out_dir = "bench_results";  ///< where the Chrome trace is written
  std::string scratch_dir = "build-bench/tmp";  ///< durable-session journals
};

/// One measured value with its unit and the number of samples behind it.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::size_t samples = 1;
};

/// Everything a workload hands back: metrics, the input sizes that define
/// the run, and the correctness accounting.
struct Report {
  std::vector<Metric> metrics;
  std::vector<std::pair<std::string, double>> sizes;
  std::uint64_t attempted = 0;  ///< operations issued (smooths, requests, appends)
  std::uint64_t failed = 0;     ///< shed, failed or wrong-result operations

  void add(std::string name, double value, std::string unit, std::size_t samples = 1) {
    metrics.push_back({std::move(name), value, std::move(unit), samples});
  }
  void size(std::string name, double value) { sizes.emplace_back(std::move(name), value); }
};

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

template <class Fn>
double time_call(Fn&& fn) {
  const Clock::time_point t0 = Clock::now();
  fn();
  return seconds_since(t0);
}

/// Linear-interpolated quantile (q in [0, 1]) of an unsorted sample.
inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] * (1.0 - frac) + v[hi] * frac;
}

inline double sum(const std::vector<double>& v) {
  double s = 0.0;
  for (double x : v) s += x;
  return s;
}

/// Pool size for every pool the benchmark builds: min(4, cores), so load
/// never oversubscribes the machine and runs compare across hosts with at
/// least four cores.
inline unsigned bench_threads() { return std::min(4u, pitk::par::ThreadPool::hardware_cores()); }

/// Independent deterministic stream id for (seed, purpose).
inline std::uint64_t stream_seed(std::uint64_t seed, std::uint64_t purpose) {
  return seed * 0x9E3779B97F4A7C15ULL + purpose * 0xD1B54A32D192ED03ULL + 1;
}

/// Set-ups per run behind setup_s: a single set-up takes 0.01-0.4 s and
/// varies by tens of percent (thread creation, first-touch page faults).
constexpr int kSetupReps = 5;

/// Run `fn` (one complete set-up of the workload) `reps` times and return
/// the median wall time; the state built by the last call is what the
/// workload measures.
template <class Fn>
double median_setup(int reps, Fn&& fn) {
  std::vector<double> t;
  for (int r = 0; r < reps; ++r) t.push_back(time_call(fn));
  return quantile(t, 0.5);
}

/// Largest absolute entry-wise difference of means and (when both carry
/// them) covariances.
double max_deviation(const pitk::kalman::SmootherResult& got,
                     const pitk::kalman::SmootherResult& ref);

/// Peak resident set of this process so far, in MB.
double peak_rss_mb();

/// GFLOP/s of the three dense kernels the QR smoothers spend their time in,
/// timed on the shapes the factorization uses at state dimension n:
/// QrScratch::factor_apply on a 2n x n panel with 2n+1 attached columns,
/// an n x n by n x n gemm, and trsm_left with an n x n triangle.
void la_kernel_metrics(index n, std::uint64_t seed, Report& r);

// ---- global heap counter (alloc_count.cpp) ---------------------------------
namespace heap {
/// Count every global operator new (all sized/aligned/nothrow/array forms)
/// made on any thread while counting is on.
void set_counting(bool on) noexcept;
[[nodiscard]] std::uint64_t count() noexcept;
/// Startup self-check: one new counts 1 with counting on and 0 with it off.
[[nodiscard]] bool self_check();
/// Scoped exclusion for the calling thread: allocations the benchmark makes
/// to build its own inputs (copying a request's problem, the matrices passed
/// to evolve/observe) are not the system's.
class Exclude {
 public:
  Exclude() noexcept;
  ~Exclude();
  Exclude(const Exclude&) = delete;
  Exclude& operator=(const Exclude&) = delete;
};
}  // namespace heap

/// Counts la:: buffer and global heap allocations over a region.  la::
/// allocations the calling thread makes inside an Exclude scope are
/// subtracted via `exclude_la()`.
class AllocMeter {
 public:
  void start();
  void stop();
  /// Remove `n` la:: allocations made by the benchmark itself.
  void exclude_la(std::uint64_t n) { la_excluded_ += n; }
  [[nodiscard]] std::uint64_t la() const { return la_ > la_excluded_ ? la_ - la_excluded_ : 0; }
  [[nodiscard]] std::uint64_t heap() const { return heap_; }

 private:
  std::uint64_t la0_ = 0, heap0_ = 0, la_ = 0, heap_ = 0, la_excluded_ = 0;
};

/// Busy time and executed tasks of a set of pools over a region.
class PoolMeter {
 public:
  explicit PoolMeter(std::vector<pitk::par::ThreadPool*> pools) : pools_(std::move(pools)) {}
  void start();
  void stop();
  /// Busy seconds over (wall seconds x total lanes), accumulated over every
  /// start/stop window.
  [[nodiscard]] double utilization() const;
  [[nodiscard]] std::uint64_t tasks() const { return tasks_; }

 private:
  std::vector<pitk::par::ThreadPool*> pools_;
  double busy0_ = 0.0, busy_ = 0.0, wall_ = 0.0;
  std::uint64_t tasks0_ = 0, tasks_ = 0;
  Clock::time_point t0_{};
  [[nodiscard]] double busy_now() const;
  [[nodiscard]] std::uint64_t tasks_now() const;
};

/// Writes the Chrome trace of a traced run to <out_dir>/<workload>.trace.json
/// and reports trace.dropped_events.
void finish_trace(const Options& o, Report& r);

// ---- workloads ---------------------------------------------------------------
void run_paper(const Options& o, Report& r, index n, index k);
void run_serve_mixed(const Options& o, Report& r);
void run_stream_append(const Options& o, Report& r);

}  // namespace pitk_bench
