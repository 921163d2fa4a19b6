/// \file observability_demo.cpp
/// The pitk::obs stack end to end: a mixed workload (batched linear tracks,
/// one streaming session, a pool of nonlinear tenants) runs through one
/// engine with tracing on, then the process dumps everything an operator
/// would look at —
///
///  - the Prometheus text exposition of the global metrics registry (what a
///    scrape endpoint would serve), printed to stdout;
///  - the same snapshot as JSON, written programmatically;
///  - a Chrome trace-event file (chrome://tracing / Perfetto) with the
///    queue/solve/splice spans of every job, written programmatically.
///
/// The environment knobs work on any binary in this repo without code:
/// PITK_TRACE=<file.json> records from process start and writes the trace at
/// exit; PITK_METRICS=<path> dumps the metrics snapshot at exit (a `.prom`
/// suffix selects the Prometheus rendering).  CI runs this demo with both
/// set and validates the dumped files.

#include <cstdio>
#include <utility>
#include <vector>

#include "engine/engine.hpp"
#include "engine/nonlinear_session.hpp"
#include "engine/session.hpp"
#include "kalman/simulate.hpp"
#include "la/random.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"

using namespace pitk;
using la::index;
using la::Vector;

namespace {

kalman::Problem make_track(la::Rng& rng, index k) {
  const Vector x0({rng.uniform(-50.0, 50.0), rng.uniform(-1.0, 1.0),
                   rng.uniform(-50.0, 50.0), rng.uniform(-1.0, 1.0)});
  kalman::SimSpec spec = kalman::constant_velocity_spec(
      /*axes=*/2, k, /*dt=*/0.5, /*process_std=*/0.08, /*obs_std=*/1.2, x0);
  return kalman::simulate(rng, spec).problem;
}

}  // namespace

int main() {
  // Programmatic enable: the PITK_TRACE env knob does the same at process
  // start (and registers the at-exit write).
  obs::trace::set_enabled(true);

  la::Rng rng(0x0B5DE40);
  engine::SmootherEngine eng;
  std::printf("observability demo: %u-way engine, tracing %s\n\n", eng.concurrency(),
              obs::trace::enabled() ? "on" : "off");

  // ---- batched linear tenants: 48 short tracks + 2 large ones ----
  std::vector<std::future<engine::JobResult>> futures;
  for (int t = 0; t < 48; ++t) futures.push_back(eng.submit(make_track(rng, 120), {}));
  for (int t = 0; t < 2; ++t) futures.push_back(eng.submit(make_track(rng, 2200), {}));
  eng.wait_idle();
  for (auto& f : futures) (void)f.get();

  // ---- streaming tenant: evolve/observe with periodic re-smooths ----
  kalman::Problem live = make_track(rng, 300);
  engine::Session session = eng.open_session(4);
  // Weak prior as the session's first observation (QR formulation).
  session.observe(la::Matrix::identity(4), Vector({0.0, 0.0, 0.0, 0.0}),
                  kalman::CovFactor::scaled_identity(4, 100.0));
  kalman::SmootherResult warm;
  for (index i = 0; i <= live.last_index(); ++i) {
    const kalman::TimeStep& step = live.step(i);
    if (step.evolution)
      session.evolve(step.evolution->F, step.evolution->c, step.evolution->noise);
    if (step.observation)
      session.observe(step.observation->G, step.observation->o, step.observation->noise);
    if (i % 60 == 59) session.smooth_into(warm, /*with_covariances=*/false);
  }
  session.smooth_into(warm, /*with_covariances=*/false);  // final means: cache miss
  session.smooth_into(warm, /*with_covariances=*/true);   // covariance upgrade only
  session.smooth_into(warm, /*with_covariances=*/true);   // unchanged: cache hit
  const engine::SessionStats ss = session.stats();
  std::printf("session: %llu resmooth hits, %llu misses, %llu covariance upgrades, "
              "%llu steps spliced incrementally\n",
              static_cast<unsigned long long>(ss.resmooth_hits),
              static_cast<unsigned long long>(ss.resmooth_misses),
              static_cast<unsigned long long>(ss.covariance_upgrades),
              static_cast<unsigned long long>(ss.steps_spliced));

  // ---- nonlinear tenants: pendulum tracks, then one streaming session ----
  const index k = 160;
  std::vector<engine::NonlinearJob> jobs;
  for (int t = 0; t < 8; ++t) {
    la::Rng jr = rng.split();
    jobs.push_back({kalman::make_pendulum_benchmark(jr, k, 0.4 + 0.2 * jr.uniform()),
                    std::vector<Vector>(static_cast<std::size_t>(k + 1), Vector({0.1, 0.0}))});
  }
  engine::NonlinearJobOptions nopts;
  nopts.gn.levenberg_marquardt = true;
  auto nfutures = eng.submit_nonlinear_batch(std::move(jobs), nopts);
  eng.wait_idle();
  for (auto& f : nfutures) (void)f.get();

  la::Rng srng = rng.split();
  kalman::NonlinearModel track = kalman::make_pendulum_benchmark(srng, k, 0.5);
  kalman::NonlinearModel seed = track;
  seed.k = 0;
  seed.dims.resize(1);
  seed.obs.resize(1);
  engine::NonlinearSession nls =
      eng.open_session(seed, Vector({0.1, 0.0}), engine::SessionOptions{}.gauss_newton(nopts.gn));
  kalman::SmootherResult nsmoothed;
  for (index i = 1; i <= k; ++i) {
    nls.advance(track.obs[static_cast<std::size_t>(i)]);
    if (i % 40 == 0) nls.smooth_into(nsmoothed);
  }
  nls.smooth_into(nsmoothed);  // unchanged: served from the cache
  const engine::NonlinearSessionStats ns = nls.stats();
  std::printf("nonlinear session: %llu cache hits, %llu misses (%llu warm / %llu cold "
              "solves), %llu outer iterations total\n\n",
              static_cast<unsigned long long>(ns.cache_hits),
              static_cast<unsigned long long>(ns.cache_misses),
              static_cast<unsigned long long>(ns.warm_solves),
              static_cast<unsigned long long>(ns.cold_solves),
              static_cast<unsigned long long>(ns.total_outer_iterations));

  // Refresh the engine-level gauges, then export all three renderings.
  (void)eng.stats();
  std::printf("---- Prometheus exposition (what a scrape would return) ----\n%s\n",
              obs::MetricsRegistry::global().to_prometheus().c_str());

  const char* metrics_path = "observability_demo.metrics.json";
  const char* trace_path = "observability_demo.trace.json";
  const bool metrics_ok = obs::MetricsRegistry::global().write(metrics_path);
  obs::trace::set_enabled(false);  // quiesce before the export
  const bool trace_ok = obs::trace::write(trace_path);
  std::printf("wrote %s (%s) and %s (%s; %llu events, %llu dropped)\n", metrics_path,
              metrics_ok ? "ok" : "FAILED", trace_path, trace_ok ? "ok" : "FAILED",
              static_cast<unsigned long long>(obs::trace::event_count()),
              static_cast<unsigned long long>(obs::trace::dropped_count()));

  const bool ok = metrics_ok && trace_ok && obs::trace::event_count() > 0 &&
                  ss.resmooth_hits > 0 && ss.resmooth_misses > 0 &&
                  ss.covariance_upgrades > 0 && ns.cache_hits > 0;
  std::printf("%s\n", ok ? "[OK ] observability demo sane" : "[???] observability demo FAILED");
  return ok ? 0 : 1;
}
