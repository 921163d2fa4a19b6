/// \file test_nonlinear.cpp
/// Nonlinear (Gauss-Newton/LM) tenants through the SmootherEngine.
///
/// The acceptance bar: engine-routed Gauss-Newton agrees with the direct
/// gauss_newton_smooth to 1e-10 across all five inner backends, batched
/// nonlinear tenants share the pool (metrics/stats sane, everything
/// completes), and a warm worker runs a whole nonlinear job — outer
/// iterations included — with zero counted heap allocations.  The mixed
/// nonlinear+linear stress case is the TSan CI leg's main course: nested
/// inner solves of large nonlinear jobs interleave with linear batch jobs
/// and session smooths on one shared pool.

#include <gtest/gtest.h>

#include <cmath>
#include <future>
#include <vector>

#include "core/gauss_newton.hpp"
#include "engine/engine.hpp"
#include "engine/nonlinear_session.hpp"
#include "engine/session.hpp"
#include "kalman/simulate.hpp"
#include "la/workspace.hpp"
#include "test_util.hpp"

namespace pitk::engine {
namespace {

using kalman::CovFactor;
using kalman::GaussNewtonOptions;
using kalman::GaussNewtonResult;
using kalman::NonlinearModel;
using la::index;
using la::Matrix;
using la::Rng;
using la::Vector;

/// The shared noisy-pendulum benchmark (kalman/simulate.cpp): always carries
/// the *_into callbacks; `identity_noise` makes even a cold Gauss-Newton
/// init allocation-free on a warm state.
NonlinearModel pendulum_model(Rng& rng, index k, bool identity_noise = false) {
  return kalman::make_pendulum_benchmark(rng, k, /*theta0=*/0.5, identity_noise);
}

std::vector<Vector> flat_init(index k, double angle = 0.1) {
  std::vector<Vector> init(static_cast<std::size_t>(k + 1));
  for (auto& v : init) v = Vector({angle, 0.0});
  return init;
}

/// Tight-tolerance options so every backend's iteration lands within 1e-10
/// of the shared Gauss-Newton fixed point.
GaussNewtonOptions tight_options(bool lm = false) {
  GaussNewtonOptions gn;
  gn.tolerance = 1e-13;
  gn.max_iterations = 60;
  gn.levenberg_marquardt = lm;
  return gn;
}

TEST(EngineNonlinear, MatchesDirectAcrossAllBackends) {
  Rng rng(0x6E1);
  NonlinearModel m = pendulum_model(rng, 40);
  const GaussNewtonOptions gn = tight_options();

  par::ThreadPool pool(4);
  const GaussNewtonResult direct = gauss_newton_smooth(m, flat_init(m.k), pool, gn);
  ASSERT_TRUE(direct.converged);

  SmootherEngine eng({.threads = 4});
  for (const BackendInfo& info : all_backends()) {
    NonlinearJobOptions opts;
    opts.backend = info.id;
    opts.gn = gn;
    JobResult jr = eng.submit_nonlinear({m, flat_init(m.k)}, opts).get();
    EXPECT_TRUE(jr.metrics.nonlinear_converged) << info.name;
    EXPECT_GT(jr.metrics.outer_iterations, 0) << info.name;
    EXPECT_EQ(jr.metrics.backend, info.id);
    test::expect_means_near(jr.result.means, direct.states, 1e-10,
                            std::string("engine vs direct means via ") + info.name);
  }
}

TEST(EngineNonlinear, LevenbergMarquardtMatchesDirect) {
  Rng rng(0x6E2);
  NonlinearModel m = pendulum_model(rng, 32);
  const GaussNewtonOptions gn = tight_options(/*lm=*/true);

  par::ThreadPool pool(2);
  const GaussNewtonResult direct = gauss_newton_smooth(m, flat_init(m.k), pool, gn);
  ASSERT_TRUE(direct.converged);

  SmootherEngine eng({.threads = 2});
  for (const Backend b : {Backend::PaigeSaunders, Backend::OddEven, Backend::Rts}) {
    NonlinearJobOptions opts;
    opts.backend = b;
    opts.gn = gn;
    JobResult jr = eng.submit_nonlinear({m, flat_init(m.k)}, opts).get();
    EXPECT_TRUE(jr.metrics.nonlinear_converged);
    EXPECT_LE(jr.metrics.nonlinear_final_cost, direct.final_cost + 1e-8);
    test::expect_means_near(jr.result.means, direct.states, 1e-10, "LM engine vs direct");
  }
}

TEST(EngineNonlinear, FinalCovariancePass) {
  Rng rng(0x6E3);
  NonlinearModel m = pendulum_model(rng, 24);
  GaussNewtonOptions gn = tight_options();
  gn.final_covariance = true;

  par::ThreadPool pool(2);
  const GaussNewtonResult direct = gauss_newton_smooth(m, flat_init(m.k), pool, gn);
  ASSERT_EQ(direct.covariances.size(), static_cast<std::size_t>(m.k + 1));

  SmootherEngine eng({.threads = 2});
  NonlinearJobOptions opts;
  opts.backend = Backend::PaigeSaunders;
  opts.gn = gn;
  JobResult jr = eng.submit_nonlinear({m, flat_init(m.k)}, opts).get();
  ASSERT_EQ(jr.result.covariances.size(), direct.covariances.size());
  test::expect_covs_near(jr.result.covariances, direct.covariances, 1e-8,
                         "final covariance engine vs direct");

  // Regression: after LM's *damped* iterations the final-covariance pass
  // relinearizes undamped, which must swap the stacked damping noise back
  // for the true per-step factors (shape 3 -> 1 observation rows here).
  GaussNewtonOptions lm = gn;
  lm.levenberg_marquardt = true;
  NonlinearJobOptions lopts;
  lopts.backend = Backend::PaigeSaunders;
  lopts.gn = lm;
  JobResult lm_jr = eng.submit_nonlinear({m, flat_init(m.k)}, lopts).get();
  ASSERT_EQ(lm_jr.result.covariances.size(), direct.covariances.size());
  test::expect_covs_near(lm_jr.result.covariances, direct.covariances, 1e-8,
                         "LM final covariance engine vs direct");
}

TEST(EngineNonlinear, BatchedTenantsShareThePool) {
  Rng rng(0x6E4);
  const int jobs = 12;
  std::vector<NonlinearJob> batch;
  std::vector<NonlinearModel> models;
  for (int j = 0; j < jobs; ++j) {
    models.push_back(pendulum_model(rng, 36));
    batch.push_back({models.back(), flat_init(36)});
  }

  SmootherEngine eng({.threads = 4});
  NonlinearJobOptions opts;
  opts.gn = tight_options();
  auto futures = eng.submit_nonlinear_batch(std::move(batch), opts);
  eng.wait_idle();
  ASSERT_EQ(futures.size(), static_cast<std::size_t>(jobs));

  par::ThreadPool serial(1);
  for (int j = 0; j < jobs; ++j) {
    JobResult jr = futures[static_cast<std::size_t>(j)].get();
    EXPECT_TRUE(jr.metrics.nonlinear_converged) << "job " << j;
    EXPECT_GT(jr.metrics.outer_iterations, 0);
    EXPECT_GE(jr.metrics.queue_seconds, 0.0);
    // Spot-check one tenant end to end against the direct solver.
    if (j == 0) {
      const GaussNewtonResult direct = gauss_newton_smooth(
          models[static_cast<std::size_t>(j)], flat_init(36), serial, opts.gn);
      test::expect_means_near(jr.result.means, direct.states, 1e-10, "batch job 0");
    }
  }

  const EngineStats st = eng.stats();
  EXPECT_EQ(st.nonlinear_jobs, static_cast<std::uint64_t>(jobs));
  EXPECT_GE(st.total_outer_iterations, static_cast<std::uint64_t>(jobs));
  EXPECT_EQ(st.jobs_failed, 0u);
}

TEST(EngineNonlinear, WarmWorkerRunsWholeJobAllocationFree) {
  // The nonlinear warm-path acceptance criterion: a serial engine (jobs run
  // inline on this thread) serving the same-shaped job repeatedly must reach
  // zero counted allocations — GaussNewtonState, linearized problem, inner
  // Paige-Saunders factor and the into-storage all reuse capacity; the model
  // provides *_into callbacks and identity noise.
  Rng rng(0x6E5);
  NonlinearModel m = pendulum_model(rng, 30, /*identity_noise=*/true);
  NonlinearJobOptions opts;
  opts.backend = Backend::PaigeSaunders;
  opts.gn = tight_options();
  SmootherResult storage;
  opts.into = &storage;

  SmootherEngine eng({.threads = 1});
  JobResult cold = eng.submit_nonlinear({m, flat_init(30)}, opts).get();
  EXPECT_GT(cold.metrics.outer_iterations, 0);
  JobResult settle = eng.submit_nonlinear({m, flat_init(30)}, opts).get();
  NonlinearJob warm_job{m, flat_init(30)};  // built before counting
  la::tls_workspace().reset();

  const std::uint64_t before = la::aligned_alloc_count();
  JobResult warm = eng.submit_nonlinear(std::move(warm_job), opts).get();
  EXPECT_EQ(la::aligned_alloc_count() - before, 0u)
      << "a warm worker must run the whole nonlinear job without heap traffic";
  EXPECT_EQ(warm.metrics.allocations, 0u) << "per-job metric must agree";
  EXPECT_EQ(warm.metrics.outer_iterations, settle.metrics.outer_iterations)
      << "identical jobs must take identical outer iterations";
  EXPECT_TRUE(warm.metrics.nonlinear_converged);
  EXPECT_TRUE(warm.result.means.empty()) << "into-jobs leave JobResult::result empty";

  // The into-storage result matches a plain value-returning run.
  NonlinearJobOptions plain = opts;
  plain.into = nullptr;
  JobResult value = eng.submit_nonlinear({m, flat_init(30)}, plain).get();
  test::expect_means_near(storage.means, value.result.means, 0.0, "into vs value");
}

TEST(EngineNonlinear, MixedNonlinearLinearBatchStress) {
  // Satellite of the TSan CI leg: large nonlinear jobs (inner odd-even
  // solves fan out on the shared pool, whose joins can nest other job
  // bodies) racing linear batch jobs and streaming session smooths.  The
  // assertions are completion + metric sanity; the sanitizer leg asserts the
  // absence of races and deadlocks.
  Rng rng(0x6E6);
  SmootherEngine eng({.threads = 4, .small_job_flops = 0.0});  // force intra-parallel

  std::vector<NonlinearJob> nl;
  for (int j = 0; j < 6; ++j) nl.push_back({pendulum_model(rng, 120), flat_init(120)});
  NonlinearJobOptions nopts;
  nopts.backend = Backend::OddEven;
  nopts.gn = tight_options();

  std::vector<kalman::Problem> linear;
  for (int j = 0; j < 24; ++j) {
    la::Rng jr = rng.split();
    linear.push_back(kalman::make_paper_benchmark(jr, 4, 60));
  }

  Session s = eng.open_session(3);
  s.observe(Matrix::identity(3), Vector({0.1, 0.2, 0.3}), CovFactor::identity(3));

  auto nl_futs = eng.submit_nonlinear_batch(std::move(nl), nopts);
  auto lin_futs = eng.submit_batch(std::move(linear), {});
  std::vector<std::future<JobResult>> session_futs;
  for (int i = 0; i < 16; ++i) {
    s.evolve(la::random_orthonormal(rng, 3), Vector(3), CovFactor::identity(3));
    s.observe(Matrix::identity(3), la::random_gaussian_vector(rng, 3),
              CovFactor::identity(3));
    session_futs.push_back(s.smooth_async(true));
  }
  eng.wait_idle();

  for (auto& f : nl_futs) {
    JobResult jr = f.get();
    EXPECT_TRUE(jr.metrics.nonlinear_converged);
    EXPECT_GT(jr.metrics.outer_iterations, 0);
    EXPECT_TRUE(jr.metrics.intra_parallel);
  }
  for (auto& f : lin_futs) {
    JobResult jr = f.get();
    EXPECT_EQ(jr.metrics.outer_iterations, 0);
    EXPECT_FALSE(jr.result.means.empty());
  }
  for (auto& f : session_futs) EXPECT_FALSE(f.get().result.means.empty());

  const EngineStats st = eng.stats();
  EXPECT_EQ(st.jobs_failed, 0u);
  EXPECT_EQ(st.nonlinear_jobs, 6u);
  EXPECT_EQ(st.jobs_completed, 6u + 24u + 16u);
}

TEST(EngineNonlinear, SessionWarmStartsFromCachedMeans) {
  Rng rng(0x6E7);
  const index k_total = 48;
  const index k_base = 40;
  NonlinearModel full = pendulum_model(rng, k_total);

  // Session seeded with the first k_base steps of the history.
  NonlinearModel base = full;
  base.k = k_base;
  base.dims.resize(static_cast<std::size_t>(k_base + 1));
  base.obs.resize(static_cast<std::size_t>(k_base + 1));

  SmootherEngine eng({.threads = 2});
  const GaussNewtonOptions gn = tight_options();
  NonlinearSession s =
      eng.open_session(base, Vector({0.1, 0.0}), SessionOptions{}.gauss_newton(gn));
  EXPECT_EQ(s.current_step(), k_base);

  SmootherResult cold;
  s.smooth_into(cold);
  const NonlinearSolveInfo cold_info = s.last_info();
  EXPECT_TRUE(cold_info.converged);
  EXPECT_GT(cold_info.iterations, 1);

  // Stream the remaining measurements and re-smooth: warm-started from the
  // cached means, the re-solve takes fewer outer iterations than the cold
  // one and still matches the direct full-history solver.
  for (index i = k_base + 1; i <= k_total; ++i)
    s.advance(full.obs[static_cast<std::size_t>(i)]);
  EXPECT_EQ(s.current_step(), k_total);
  SmootherResult warm;
  s.smooth_into(warm);
  const NonlinearSolveInfo warm_info = s.last_info();
  EXPECT_TRUE(warm_info.converged);
  EXPECT_LT(warm_info.iterations, cold_info.iterations);

  par::ThreadPool pool(2);
  const GaussNewtonResult direct =
      gauss_newton_smooth(full, flat_init(k_total), pool, gn);
  test::expect_means_near(warm.means, direct.states, 1e-9, "warm session vs direct");

  // An unmutated repeat is a cache hit: identical result, no new solve.
  SmootherResult repeat;
  s.smooth_into(repeat);
  test::expect_means_near(repeat.means, warm.means, 0.0, "cache hit");
}

TEST(EngineNonlinear, SessionAsyncSmooth) {
  Rng rng(0x6E8);
  NonlinearModel m = pendulum_model(rng, 36);
  SmootherEngine eng({.threads = 2});
  GaussNewtonOptions gn = tight_options();
  NonlinearSession s =
      eng.open_session(m, Vector({0.1, 0.0}), SessionOptions{}.gauss_newton(gn));

  SmootherResult storage;
  JobResult jr = s.smooth_async(/*with_covariances=*/true, &storage).get();
  EXPECT_TRUE(jr.metrics.nonlinear_converged);
  EXPECT_GT(jr.metrics.outer_iterations, 0);
  EXPECT_TRUE(jr.result.means.empty());
  ASSERT_EQ(storage.means.size(), static_cast<std::size_t>(m.k + 1));
  ASSERT_EQ(storage.covariances.size(), static_cast<std::size_t>(m.k + 1));

  par::ThreadPool pool(2);
  gn.final_covariance = true;
  const GaussNewtonResult direct = gauss_newton_smooth(m, flat_init(m.k), pool, gn);
  test::expect_means_near(storage.means, direct.states, 1e-9, "async session vs direct");
  test::expect_covs_near(storage.covariances, direct.covariances, 1e-7,
                         "async session covariances");
}

TEST(EngineNonlinear, InvalidUsesThrow) {
  Rng rng(0x6E9);
  SmootherEngine eng({.threads = 1});
  NonlinearModel m = pendulum_model(rng, 4);

  SmootherResult storage;
  NonlinearJobOptions opts;
  opts.into = &storage;
  std::vector<NonlinearJob> batch;
  batch.push_back({m, flat_init(4)});
  EXPECT_THROW((void)eng.submit_nonlinear_batch(std::move(batch), opts),
               std::invalid_argument);

  EXPECT_THROW((void)eng.open_session(m, Vector({0.0})), std::invalid_argument);

  // A malformed model fails the job's future, not the engine.
  NonlinearModel bad = m;
  bad.f = nullptr;
  auto fut = eng.submit_nonlinear({bad, flat_init(4)}, {});
  EXPECT_THROW((void)fut.get(), std::invalid_argument);
  EXPECT_GE(eng.stats().jobs_failed, 1u);
}

}  // namespace
}  // namespace pitk::engine
