/// \file durable_sessions.cpp
/// Crash-consistent streaming sessions: the kill -9 demo CI actually kills.
///
/// Two modes over one checkpoint directory:
///
///   durable_sessions stream  <dir> [max_steps]
///       Opens a fleet of durable linear tracks plus one durable nonlinear
///       pendulum tenant and streams measurements into them (journal flushed
///       on every append).  Designed to be killed mid-stream — CI runs it
///       under `timeout -s KILL`, so the process dies between (or inside)
///       appends with no chance to clean up.
///
///   durable_sessions recover <dir>
///       recover_all() over whatever the crash left behind, then the strict
///       gate: every track's ops are a pure function of (id, step), so the
///       recovered session's smooth must agree to 1e-10 with a plain session
///       fed the same deterministic prefix.  A crash can land between the
///       evolve and the observe of a step, so both candidate prefixes are
///       checked — exactly one must match.  The recovered sessions then keep
///       streaming durably (they are live tenants again, not read-only
///       restores), so stream/kill/recover cycles compose.
///
/// Exit status: 0 when every session recovered and matched, 1 otherwise.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "engine/durable.hpp"
#include "engine/engine.hpp"
#include "engine/nonlinear_session.hpp"
#include "engine/session.hpp"
#include "io/session_store.hpp"
#include "kalman/simulate.hpp"
#include "la/blas.hpp"
#include "la/random.hpp"

namespace {

using namespace pitk;
using la::index;

constexpr int kTracks = 6;
constexpr index kDim = 3;

std::string track_id(int t) { return "track-" + std::to_string(t); }

/// Deterministic per-(track, step) inputs: a fixed stable rotation for F, a
/// small control and observation derived from trig of the step index.  No
/// global state — the recover mode rebuilds identical ops from the id alone.
la::Matrix track_f() {
  const double c = std::cos(0.1);
  const double s = std::sin(0.1);
  la::Matrix f(kDim, kDim);
  f(0, 0) = c;  f(0, 1) = -s; f(0, 2) = 0.0;
  f(1, 0) = s;  f(1, 1) = c;  f(1, 2) = 0.0;
  f(2, 0) = 0.0; f(2, 1) = 0.0; f(2, 2) = 0.95;
  return f;
}

la::Vector track_c(int t, index step) {
  la::Vector c(kDim);
  for (index q = 0; q < kDim; ++q)
    c[q] = 0.05 * std::sin(0.3 * static_cast<double>(step) + t + static_cast<double>(q));
  return c;
}

la::Vector track_o(int t, index step) {
  la::Vector o(kDim);
  for (index q = 0; q < kDim; ++q)
    o[q] = std::cos(0.2 * static_cast<double>(step) + 0.7 * t) + 0.1 * static_cast<double>(q);
  return o;
}

/// One streamed step of track t: evolve to `step`, then observe it.
void append_step(engine::Session& s, int t, index step) {
  s.evolve(track_f(), track_c(t, step), kalman::CovFactor::identity(kDim));
  s.observe(la::Matrix::identity(kDim), track_o(t, step), kalman::CovFactor::identity(kDim));
}

/// Deterministic pendulum observation stream (the model callbacks come from
/// kalman::make_pendulum_benchmark and are pure functions of constants).
la::Vector pendulum_obs(index step) {
  return la::Vector({0.5 * std::cos(0.14 * static_cast<double>(step)) +
                     0.02 * std::sin(3.0 * static_cast<double>(step))});
}

kalman::NonlinearModel pendulum_callbacks() {
  // The rng only shapes the simulated observations, which we discard — the
  // callbacks themselves are deterministic (dt, g/l constants).
  la::Rng rng(1);
  kalman::NonlinearModel m = kalman::make_pendulum_benchmark(rng, 1, 0.5, true);
  m.k = 0;
  m.dims.assign(1, 2);
  m.obs.assign(1, pendulum_obs(0));
  return m;
}

int run_stream(const std::string& dir, long max_steps) {
  io::DurabilityOptions o = io::SessionStore::env_options();
  o.dir = dir;
  io::SessionStore store(o);
  engine::SmootherEngine eng;

  std::vector<engine::Session> tracks;
  for (int t = 0; t < kTracks; ++t)
    tracks.push_back(eng.open_session(kDim, engine::SessionOptions{}.durable(store, track_id(t))));
  engine::NonlinearSession pend =
      eng.open_session(pendulum_callbacks(), la::Vector({0.5, 0.0}),
                       engine::SessionOptions{}.durable(store, "pendulum"));

  std::printf("streaming %d linear tracks + 1 pendulum into %s (kill me)\n", kTracks,
              dir.c_str());
  std::fflush(stdout);
  kalman::SmootherResult warm;
  for (index step = 1; step <= static_cast<index>(max_steps); ++step) {
    for (int t = 0; t < kTracks; ++t) append_step(tracks[static_cast<std::size_t>(t)], t, step);
    pend.advance(pendulum_obs(step));
    if (step % 64 == 0) {
      // Mid-stream smooths keep the warm-means compaction path hot.
      tracks[0].smooth_into(warm, false);
      (void)pend.smooth();
      std::printf("  step %lld journaled\n", static_cast<long long>(step));
      std::fflush(stdout);
    }
  }
  std::printf("stream finished without being killed (max_steps=%ld)\n", max_steps);
  return 0;
}

/// Worst mean deviation between two smooths (means only).
double deviation(const kalman::SmootherResult& a, const kalman::SmootherResult& b) {
  if (a.means.size() != b.means.size()) return 1e300;
  double d = 0.0;
  for (std::size_t i = 0; i < a.means.size(); ++i)
    d = std::max(d, la::max_abs_diff(a.means[i].span(), b.means[i].span()));
  return d;
}

int run_recover(const std::string& dir) {
  io::DurabilityOptions o = io::SessionStore::env_options();
  o.dir = dir;
  io::SessionStore store(o);
  engine::SmootherEngine eng;

  engine::RecoveryOptions ro;
  ro.nonlinear_model = [](const std::string&) { return pendulum_callbacks(); };
  engine::RecoveredSessions rec = eng.recover_all(store, ro);
  std::printf("recovered %zu linear + %zu nonlinear sessions, %zu failed, "
              "%llu torn tails, %llu replayed records\n",
              rec.linear.size(), rec.nonlinear.size(), rec.failed.size(),
              static_cast<unsigned long long>(rec.torn_tails),
              static_cast<unsigned long long>(rec.replayed_records));
  for (const auto& [id, why] : rec.failed)
    std::printf("  [???] %s: %s\n", id.c_str(), why.c_str());

  bool ok = rec.failed.empty() && rec.linear.size() == kTracks && rec.nonlinear.size() == 1;

  for (auto& [id, session] : rec.linear) {
    const int t = std::atoi(id.c_str() + std::strlen("track-"));
    const index steps = session.current_step();
    const kalman::SmootherResult got = session.smooth(false);

    // The crash may have landed between the evolve and the observe of the
    // last step: rebuild both candidate prefixes and require exactly one
    // bit-level match.
    engine::Session full = eng.open_session(kDim);
    for (index i = 1; i <= steps; ++i) append_step(full, t, i);
    const double full_dev = deviation(got, full.smooth(false));
    double best = full_dev;
    bool torn_step = false;
    if (steps > 0 && best > 1e-10) {
      engine::Session half = eng.open_session(kDim);
      for (index i = 1; i < steps; ++i) append_step(half, t, i);
      half.evolve(track_f(), track_c(t, steps), kalman::CovFactor::identity(kDim));
      const double half_dev = deviation(got, half.smooth(false));
      torn_step = half_dev < 1e-10;
      best = std::min(best, half_dev);
    }
    const bool match = best < 1e-10;
    ok = ok && match;
    // Resume exactly where the stream left off: a step whose observe chunk
    // was torn off gets its (deterministic) observation re-appended, so the
    // journal is a whole-step history again before more steps pile on.
    if (torn_step)
      session.observe(la::Matrix::identity(kDim), track_o(t, steps),
                      kalman::CovFactor::identity(kDim));
    std::printf("  [%s] %-10s %6lld steps, recovered smooth |diff| %.2e%s\n",
                match ? "OK " : "???", id.c_str(), static_cast<long long>(steps), best,
                torn_step ? "  (re-observed the torn step)" : "");
  }

  for (auto& [id, session] : rec.nonlinear) {
    kalman::SmootherResult sm;
    session.smooth_into(sm, false);
    bool finite = session.last_info().converged;
    for (const la::Vector& m : sm.means)
      for (index q = 0; q < m.size(); ++q) finite = finite && std::isfinite(m[q]);
    ok = ok && finite;
    std::printf("  [%s] %-10s %6lld steps, recovered Gauss-Newton smooth %s\n",
                finite ? "OK " : "???", id.c_str(),
                static_cast<long long>(session.current_step()),
                finite ? "converged" : "DIVERGED");
  }

  // Recovered sessions are durable tenants again: stream a few more steps
  // through the reattached journals so kill/recover cycles compose.
  for (auto& [id, session] : rec.linear) {
    const int t = std::atoi(id.c_str() + std::strlen("track-"));
    const index base = session.current_step();
    for (index i = base + 1; i <= base + 8; ++i) append_step(session, t, i);
  }
  for (auto& [id, session] : rec.nonlinear)
    for (index i = 0; i < 8; ++i) session.advance(pendulum_obs(session.current_step() + 1));

  std::printf("%s\n", ok ? "[OK ] crash recovery gate passed"
                         : "[???] crash recovery gate FAILED");
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 3) {
    std::fprintf(stderr,
                 "usage: %s stream <dir> [max_steps]\n"
                 "       %s recover <dir>\n",
                 argv[0], argv[0]);
    return 2;
  }
  const std::string mode = argv[1];
  const std::string dir = argv[2];
  if (mode == "stream")
    return run_stream(dir, argc > 3 ? std::atol(argv[3]) : 1000000L);
  if (mode == "recover") return run_recover(dir);
  std::fprintf(stderr, "unknown mode '%s'\n", mode.c_str());
  return 2;
}
