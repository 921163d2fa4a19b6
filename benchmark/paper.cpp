/// \file paper.cpp
/// paper_n6 / paper_n48: the paper's Section 5.2 problem smoothed in a
/// closed loop by one caller.
///
/// Untraced: one warm-up per pool, then odd-even smooths with covariances
/// on the min(4, cores)-thread pool (~60% of the time) and on a 1-thread
/// pool (~40%), interleaved so both see the same machine conditions.  Every
/// result is checked against Paige-Saunders to 1e-10 (means and
/// covariances).
///
/// Traced: iterations that each run one untraced smooth (the overhead
/// baseline) and then call every stage separately under the benchmark's own
/// trace spans with the heap counter on: odd-even factor/solve/covariances
/// on both pools, the Paige-Saunders sweep and SelInv, the associative
/// smoother on both pools and RTS.  That yields Table 1 (work overhead on
/// one core) and the Fig. 3 point at 4 cores.

#include <memory>

#include "bench.hpp"
#include "core/associative.hpp"
#include "core/oddeven.hpp"
#include "core/paige_saunders.hpp"
#include "core/selinv.hpp"
#include "kalman/rts.hpp"
#include "kalman/simulate.hpp"
#include "la/random.hpp"
#include "obs/trace.hpp"

namespace pitk_bench {

namespace {

namespace kalman = pitk::kalman;
namespace par = pitk::par;
using pitk::obs::trace::TraceSpan;

/// Nominal seconds per smooth on the reference container (4-core x86_64,
/// g++ 12, Release, -march=native).  They only size the run — a run issues
/// the same number of operations on every machine and every commit, so
/// sample counts do not depend on the speed being measured.
struct Costs {
  double parallel;  ///< one odd-even smooth on the 4-thread pool
  double serial;    ///< the same on 1 thread
  double traced;    ///< one traced iteration (every stage of every smoother)
};

Costs nominal_costs(index n) {
  return n <= 8 ? Costs{0.40, 0.65, 3.1} : Costs{0.23, 0.74, 2.9};
}

int count_for(double budget, double cost, int floor) {
  return std::max(floor, static_cast<int>(budget / cost + 0.5));
}

double check_result(const kalman::SmootherResult& got, const kalman::SmootherResult& ref,
                    Report& r) {
  const double dev = max_deviation(got, ref);
  ++r.attempted;
  if (!(dev <= 1e-10)) ++r.failed;
  return dev;
}

void run_traced(const Options& o, Report& r, index n, const kalman::Problem& p,
                par::ThreadPool& pool, par::ThreadPool& serial,
                const kalman::SmootherResult& ref) {
  const Costs c = nominal_costs(n);
  double worst = 0.0;

  // The same 4-thread oddeven_smooth untraced and traced, for
  // trace.overhead_frac.
  std::vector<double> plain, traced;
  const kalman::GaussianPrior prior = kalman::diffuse_prior(n);
  struct Stages {
    std::vector<double> factor, solve, selinv, total, nc_total;
  } par4, par1, ps;
  std::vector<double> assoc4, assoc1, rts;
  AllocMeter allocs;
  PoolMeter pool_meter({&pool});

  const auto oddeven_stages = [&](par::ThreadPool& pl, Stages& st, kalman::SmootherResult& out) {
    kalman::OddEvenFactor f;
    const double tf = time_call([&] {
      TraceSpan s("bench.oddeven_factor");
      f = kalman::oddeven_factor(p, pl);
    });
    const double ts = time_call([&] {
      TraceSpan s("bench.oddeven_solve");
      out.means = kalman::oddeven_solve(f, pl);
    });
    const double tc = time_call([&] {
      TraceSpan s("bench.oddeven_covariances");
      out.covariances = kalman::oddeven_covariances(f, pl);
    });
    st.factor.push_back(tf);
    st.solve.push_back(ts);
    st.selinv.push_back(tc);
    st.total.push_back(tf + ts + tc);
    st.nc_total.push_back(tf + ts);
  };

  for (int it = 0, m = count_for(0.9 * o.seconds, c.traced, 3); it < m; ++it) {
    // Untraced and traced smooth back to back in every iteration, so both
    // sides of trace.overhead_frac see the same machine.
    {
      kalman::SmootherResult res;
      plain.push_back(time_call([&] { res = kalman::oddeven_smooth(p, pool); }));
      worst = std::max(worst, check_result(res, ref, r));
    }
    heap::set_counting(true);
    pitk::obs::trace::set_enabled(true);
    {
      kalman::SmootherResult res;
      allocs.start();
      pool_meter.start();
      traced.push_back(time_call([&] {
        TraceSpan s("bench.oddeven_smooth");
        res = kalman::oddeven_smooth(p, pool);
      }));
      pool_meter.stop();
      allocs.stop();
      worst = std::max(worst, check_result(res, ref, r));
    }
    for (auto [pl, st] : {std::pair{&pool, &par4}, std::pair{&serial, &par1}}) {
      kalman::SmootherResult res;
      oddeven_stages(*pl, *st, res);
      worst = std::max(worst, check_result(res, ref, r));
    }
    {
      kalman::BidiagonalFactor f;
      kalman::SmootherResult res;
      const double tf = time_call([&] {
        TraceSpan s("bench.paige_saunders_factor");
        f = kalman::paige_saunders_factor(p);
      });
      const double ts = time_call([&] {
        TraceSpan s("bench.paige_saunders_solve");
        res.means = kalman::paige_saunders_solve(f);
      });
      const double tc = time_call([&] {
        TraceSpan s("bench.selinv_bidiagonal");
        res.covariances = kalman::selinv_bidiagonal(f);
      });
      ps.factor.push_back(tf);
      ps.solve.push_back(ts);
      ps.selinv.push_back(tc);
      ps.total.push_back(tf + ts + tc);
      ps.nc_total.push_back(tf + ts);
      worst = std::max(worst, check_result(res, ref, r));
    }
    assoc4.push_back(time_call([&] {
      TraceSpan s("bench.associative_smooth");
      (void)kalman::associative_smooth(p, prior, pool);
    }));
    assoc1.push_back(time_call([&] {
      TraceSpan s("bench.associative_smooth_1t");
      (void)kalman::associative_smooth(p, prior, serial);
    }));
    rts.push_back(time_call([&] {
      TraceSpan s("bench.rts_smooth");
      (void)kalman::rts_smooth(p, prior);
    }));
    pitk::obs::trace::set_enabled(false);
    heap::set_counting(false);
  }
  finish_trace(o, r);

  const std::size_t iters = par4.total.size();
  const auto med = [](const std::vector<double>& v) { return quantile(v, 0.5); };
  r.add("core.oddeven.factor_s", med(par4.factor), "s", iters);
  r.add("core.oddeven.solve_s", med(par4.solve), "s", iters);
  r.add("core.oddeven.selinv_s", med(par4.selinv), "s", iters);
  r.add("core.oddeven.factor_1t_s", med(par1.factor), "s", iters);
  r.add("core.oddeven.solve_1t_s", med(par1.solve), "s", iters);
  r.add("core.oddeven.selinv_1t_s", med(par1.selinv), "s", iters);
  r.add("core.oddeven.speedup", med(par1.total) / med(par4.total), "ratio", iters);
  r.add("core.oddeven.overhead_vs_ps", med(par1.total) / med(ps.total), "ratio", iters);
  r.add("core.oddeven_nc.overhead_vs_ps_nc", med(par1.nc_total) / med(ps.nc_total), "ratio",
        iters);
  r.add("core.paige_saunders.factor_s", med(ps.factor), "s", iters);
  r.add("core.paige_saunders.solve_s", med(ps.solve), "s", iters);
  r.add("core.selinv.bidiagonal_s", med(ps.selinv), "s", iters);
  r.add("core.associative.smooth_s", med(assoc4), "s", iters);
  r.add("core.associative.smooth_1t_s", med(assoc1), "s", iters);
  r.add("kalman.rts.smooth_s", med(rts), "s", iters);
  r.add("core.associative.overhead_vs_rts", med(assoc1) / med(rts), "ratio", iters);
  // The pool and allocation meters cover the traced oddeven_smooth only.
  const double smooths = static_cast<double>(traced.size());
  r.add("parallel.pool.utilization", pool_meter.utilization(), "ratio", traced.size());
  r.add("parallel.pool.tasks_per_op", static_cast<double>(pool_meter.tasks()) / smooths, "count",
        traced.size());
  r.add("la.allocs_per_op", static_cast<double>(allocs.la()) / smooths, "count", traced.size());
  r.add("mem.heap_allocs_per_op", static_cast<double>(allocs.heap()) / smooths, "count",
        traced.size());
  r.add("trace.overhead_frac", med(traced) / med(plain) - 1.0, "ratio", traced.size());
  r.add("check.max_abs_diff", worst, "abs", r.attempted);
  la_kernel_metrics(n, o.seed, r);
}

}  // namespace

void run_paper(const Options& o, Report& r, index n, index k) {
  const Costs c = nominal_costs(n);
  kalman::Problem p;
  std::unique_ptr<par::ThreadPool> pool, serial;
  const double setup = median_setup(kSetupReps, [&] {
    pitk::la::Rng rng(stream_seed(o.seed, static_cast<std::uint64_t>(n)));
    p = kalman::make_paper_benchmark(rng, n, k);
    pool = std::make_unique<par::ThreadPool>(bench_threads());
    serial = std::make_unique<par::ThreadPool>(1);
  });
  r.size("n", static_cast<double>(n));
  r.size("k", static_cast<double>(k));
  r.size("threads", static_cast<double>(pool->concurrency()));

  // Warm-up (first-touch of the workspace arenas, pool threads spun up) and
  // the sequential reference every result is checked against.
  (void)kalman::oddeven_smooth(p, *pool);
  (void)kalman::oddeven_smooth(p, *serial);
  const kalman::SmootherResult ref = kalman::paige_saunders_smooth(p);

  if (o.trace) {
    run_traced(o, r, n, p, *pool, *serial, ref);
    return;
  }

  const int n_par = count_for(0.6 * o.seconds, c.parallel, 8);
  const int n_ser = count_for(0.4 * o.seconds, c.serial, 4);
  r.size("smooths_4t", n_par);
  r.size("smooths_1t", n_ser);
  std::vector<double> t_par, t_ser;
  double worst = 0.0;
  for (int i = 0; i < n_par + n_ser; ++i) {
    // Serial smooths are spread evenly through the parallel ones.
    const bool ser = static_cast<int>(t_ser.size()) < n_ser &&
                     (static_cast<int>(t_par.size()) >= n_par ||
                      static_cast<long>(t_ser.size()) * n_par <
                          static_cast<long>(t_par.size()) * n_ser);
    kalman::SmootherResult res;
    const double t = time_call([&] { res = kalman::oddeven_smooth(p, ser ? *serial : *pool); });
    (ser ? t_ser : t_par).push_back(t);
    worst = std::max(worst, check_result(res, ref, r));
  }

  r.add("setup_s", setup, "s", kSetupReps);
  r.add("latency_p50_s", quantile(t_par, 0.5), "s", t_par.size());
  r.add("latency_p99_s", quantile(t_par, 0.99), "s", t_par.size());
  r.add("serial_p50_s", quantile(t_ser, 0.5), "s", t_ser.size());
  r.add("throughput_per_s", static_cast<double>(t_par.size()) / sum(t_par), "1/s", t_par.size());
  r.add("check.max_abs_diff", worst, "abs", r.attempted);
}

}  // namespace pitk_bench
