/// \file pitk_bench.cpp
/// One workload of the pitk benchmark per process:
///
///   pitk_bench --workload NAME --seed N [--seconds S] [--trace 0|1]
///              [--out-dir DIR] [--scratch DIR]
///
/// Prints human-readable progress on stderr and, as the last line of
/// stdout, one JSON object: the workload, seed, trace flag, compiler, input
/// sizes, attempted/failed operation counts and every metric with its unit
/// and sample count.  benchmark/run.py builds this binary, runs it once per
/// workload with a clean environment and turns that line into the
/// benchmark's report.  Exit status is nonzero when a correctness check
/// failed or the arguments were bad.

#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "bench.hpp"
#include "la/blas.hpp"
#include "la/qr.hpp"
#include "la/random.hpp"
#include "obs/trace.hpp"

namespace pitk_bench {

namespace la = pitk::la;

double max_deviation(const pitk::kalman::SmootherResult& got,
                     const pitk::kalman::SmootherResult& ref) {
  if (got.means.size() != ref.means.size()) return INFINITY;
  double d = 0.0;
  for (std::size_t i = 0; i < ref.means.size(); ++i)
    d = std::max(d, la::max_abs_diff(got.means[i].span(), ref.means[i].span()));
  if (got.has_covariances() && ref.has_covariances()) {
    if (got.covariances.size() != ref.covariances.size()) return INFINITY;
    for (std::size_t i = 0; i < ref.covariances.size(); ++i)
      d = std::max(d, la::max_abs_diff(got.covariances[i].view(), ref.covariances[i].view()));
  }
  return d;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux reports KiB
}

namespace {

/// Time `pass` (which performs `calls` kernel calls of `flops` each) until
/// `budget` seconds have accumulated; GFLOP/s of the median pass.  `refill`
/// restores destroyed inputs between passes, outside the timed region.
template <class Pass, class Refill>
double kernel_gflops(double flops, std::size_t calls, double budget, Pass&& pass,
                     Refill&& refill) {
  std::vector<double> rates;
  double spent = 0.0;
  pass();  // warm: packing buffers, workspace arena
  while (spent < budget || rates.size() < 5) {
    refill();
    const double t = time_call(pass);
    spent += t;
    rates.push_back(flops * static_cast<double>(calls) / t * 1e-9);
  }
  return quantile(rates, 0.5);
}

}  // namespace

void la_kernel_metrics(index n, std::uint64_t seed, Report& r) {
  la::Rng rng(stream_seed(seed, 0x1A));
  const double nd = static_cast<double>(n);
  // Enough independent operands per pass to amortize the clock read while
  // the whole set stays cache resident (~256 KiB of doubles).
  const index m = 2 * n, attached = 2 * n + 1;
  const std::size_t panel_doubles = static_cast<std::size_t>(m * (n + attached));
  const std::size_t copies = std::max<std::size_t>(1, 32768 / panel_doubles);

  {
    std::vector<la::Matrix> pristine, work;
    for (std::size_t c = 0; c < copies; ++c) {
      pristine.push_back(la::random_gaussian(rng, m, n + attached));
      work.push_back(pristine.back());
    }
    la::QrScratch qr;
    // Householder QR of an m x n panel plus Q^T applied to `attached` columns.
    const double flops = 2.0 * nd * nd * (static_cast<double>(m) - nd / 3.0) +
                         static_cast<double>(attached) * (4.0 * static_cast<double>(m) * nd -
                                                          2.0 * nd * nd);
    r.add("la.qr_apply.gflops",
          kernel_gflops(
              flops, copies, 0.15,
              [&] {
                for (la::Matrix& w : work)
                  qr.factor_apply(w.block(0, 0, m, n), w.block(0, n, m, attached));
              },
              [&] {
                for (std::size_t c = 0; c < copies; ++c) work[c].assign_from(pristine[c].view());
              }),
          "GFLOP/s");
  }
  {
    const la::Matrix a = la::random_gaussian(rng, n, n), b = la::random_gaussian(rng, n, n);
    la::Matrix c(n, n);
    const std::size_t calls = std::max<std::size_t>(1, 32768 / static_cast<std::size_t>(n * n));
    r.add("la.gemm.gflops",
          kernel_gflops(
              2.0 * nd * nd * nd, calls, 0.15,
              [&] {
                for (std::size_t i = 0; i < calls; ++i)
                  la::gemm(1.0, a, la::Trans::No, b, la::Trans::No, 0.0, c);
              },
              [] {}),
          "GFLOP/s");
  }
  {
    // Well-conditioned upper triangle: unit-ish diagonal, small coupling.
    la::Matrix t = la::random_gaussian(rng, n, n);
    for (index j = 0; j < n; ++j)
      for (index i = 0; i < n; ++i) t(i, j) = i > j ? 0.0 : (i == j ? 2.0 + std::abs(t(i, j)) : 0.1 * t(i, j));
    std::vector<la::Matrix> pristine, work;
    for (std::size_t c = 0; c < copies; ++c) {
      pristine.push_back(la::random_gaussian(rng, n, n));
      work.push_back(pristine.back());
    }
    r.add("la.trsm.gflops",
          kernel_gflops(
              nd * nd * nd, copies, 0.15,
              [&] {
                for (la::Matrix& w : work)
                  la::trsm_left(la::Uplo::Upper, la::Trans::No, la::Diag::NonUnit, t, w);
              },
              [&] {
                for (std::size_t c = 0; c < copies; ++c) work[c].assign_from(pristine[c].view());
              }),
          "GFLOP/s");
  }
}

void AllocMeter::start() {
  la0_ = la::aligned_alloc_count();
  heap0_ = heap::count();
}

void AllocMeter::stop() {
  la_ += la::aligned_alloc_count() - la0_;
  heap_ += heap::count() - heap0_;
}

double PoolMeter::busy_now() const {
  double b = 0.0;
  for (const pitk::par::ThreadPool* p : pools_) b += p->busy_seconds();
  return b;
}

std::uint64_t PoolMeter::tasks_now() const {
  std::uint64_t t = 0;
  for (const pitk::par::ThreadPool* p : pools_) t += p->tasks_executed();
  return t;
}

void PoolMeter::start() {
  busy0_ = busy_now();
  tasks0_ = tasks_now();
  t0_ = Clock::now();
}

void PoolMeter::stop() {
  wall_ += seconds_since(t0_);
  busy_ += busy_now() - busy0_;
  tasks_ += tasks_now() - tasks0_;
}

double PoolMeter::utilization() const {
  unsigned lanes = 0;
  for (const pitk::par::ThreadPool* p : pools_) lanes += p->concurrency();
  return wall_ > 0.0 && lanes > 0 ? busy_ / (wall_ * static_cast<double>(lanes)) : 0.0;
}

void finish_trace(const Options& o, Report& r) {
  pitk::obs::trace::set_enabled(false);
  r.add("trace.dropped_events", static_cast<double>(pitk::obs::trace::dropped_count()), "count");
  const std::string path = o.out_dir + "/" + o.workload + ".trace.json";
  if (!pitk::obs::trace::write(path)) ++r.failed;
}

}  // namespace pitk_bench

namespace {

using namespace pitk_bench;

void print_json_string(const std::string& s) {
  std::putchar('"');
  for (char c : s) {
    if (c == '"' || c == '\\') std::putchar('\\');
    if (static_cast<unsigned char>(c) >= 0x20) std::putchar(c);
  }
  std::putchar('"');
}

void print_number(double v) {
  if (std::isfinite(v))
    std::printf("%.17g", v);
  else
    std::printf("null");
}

void emit(const Options& o, const Report& r) {
  std::printf("{\"workload\": ");
  print_json_string(o.workload);
  std::printf(", \"seed\": %llu, \"trace\": %d, \"seconds\": ",
              static_cast<unsigned long long>(o.seed), o.trace ? 1 : 0);
  print_number(o.seconds);
  std::printf(", \"threads\": %u, \"compiler\": ", bench_threads());
#if defined(__VERSION__)
  print_json_string(__VERSION__);
#else
  print_json_string("unknown");
#endif
  std::printf(", \"sizes\": {");
  for (std::size_t i = 0; i < r.sizes.size(); ++i) {
    std::printf("%s", i == 0 ? "" : ", ");
    print_json_string(r.sizes[i].first);
    std::printf(": ");
    print_number(r.sizes[i].second);
  }
  std::printf("}, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed));
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const Metric& m = r.metrics[i];
    std::printf("%s", i == 0 ? "" : ", ");
    print_json_string(m.name);
    std::printf(": {\"value\": ");
    print_number(m.value);
    std::printf(", \"unit\": ");
    print_json_string(m.unit);
    std::printf(", \"samples\": %zu}", m.samples);
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

[[noreturn]] void usage(const char* msg) {
  std::fprintf(stderr,
               "pitk_bench: %s\nusage: pitk_bench --workload "
               "{paper_n6|paper_n48|serve_mixed|stream_append} --seed N [--seconds S] "
               "[--trace 0|1] [--out-dir DIR] [--scratch DIR]\n",
               msg);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + a).c_str());
    const std::string v = argv[++i];
    if (a == "--workload") {
      o.workload = v;
    } else if (a == "--seed") {
      o.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (a == "--seconds") {
      o.seconds = std::atof(v.c_str());
      if (!(o.seconds > 0.0 && o.seconds <= 600.0)) usage("--seconds must be in (0, 600]");
    } else if (a == "--trace") {
      o.trace = v == "1";
    } else if (a == "--out-dir") {
      o.out_dir = v;
    } else if (a == "--scratch") {
      o.scratch_dir = v;
    } else {
      usage(("unknown argument " + a).c_str());
    }
  }

  if (!heap::self_check()) {
    std::fprintf(stderr, "pitk_bench: heap counter self-check failed\n");
    return 3;
  }

  Report r;
  try {
    if (o.workload == "paper_n6")
      run_paper(o, r, 6, 50000);
    else if (o.workload == "paper_n48")
      run_paper(o, r, 48, 1000);
    else if (o.workload == "serve_mixed")
      run_serve_mixed(o, r);
    else if (o.workload == "stream_append")
      run_stream_append(o, r);
    else
      usage(("unknown workload '" + o.workload + "'").c_str());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "pitk_bench: %s failed: %s\n", o.workload.c_str(), e.what());
    return 1;
  }
  r.add("peak_rss_mb", peak_rss_mb(), "MB");
  emit(o, r);
  return r.failed == 0 && r.attempted > 0 ? 0 : 1;
}
