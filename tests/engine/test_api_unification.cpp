/// \file test_api_unification.cpp
/// The unified submit/session API contract:
///
///  - JobOptions / NonlinearJobOptions are thin extensions of the shared
///    SubmitOptions base (the deadline/timeout/cancel/into/backend plumbing
///    exists exactly once);
///  - the one open_session(SessionOptions) entry point (nonlinear and
///    durable as orthogonal options) defaults like the bare overload and
///    validates its options.

#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <type_traits>
#include <vector>

#include "engine/engine.hpp"
#include "engine/nonlinear_session.hpp"
#include "engine/session.hpp"
#include "io/session_store.hpp"
#include "kalman/simulate.hpp"
#include "test_util.hpp"

namespace pitk::engine {
namespace {

namespace fs = std::filesystem;
using la::index;
using la::Rng;
using la::Vector;

static_assert(std::is_base_of_v<SubmitOptions, JobOptions>,
              "JobOptions must extend the shared SubmitOptions");
static_assert(std::is_base_of_v<SubmitOptions, NonlinearJobOptions>,
              "NonlinearJobOptions must extend the shared SubmitOptions");

io::SessionStore fresh_store(const std::string& name) {
  io::DurabilityOptions o;
  o.dir = testing::TempDir() + "/pitk_api_unification/" + name;
  fs::remove_all(o.dir);
  return io::SessionStore(o);
}

void expect_bit_identical(const kalman::SmootherResult& a, const kalman::SmootherResult& b) {
  ASSERT_EQ(a.means.size(), b.means.size());
  for (std::size_t i = 0; i < a.means.size(); ++i)
    for (index j = 0; j < a.means[i].size(); ++j)
      EXPECT_EQ(a.means[i][j], b.means[i][j]) << "state " << i << " component " << j;
}

void feed(Session& s, const kalman::Problem& track) {
  for (index i = 1; i < track.num_states(); ++i) {
    const kalman::TimeStep& step = track.step(i);
    if (step.evolution) s.evolve(step.evolution->F, step.evolution->c, step.evolution->noise);
    if (step.observation)
      s.observe(step.observation->G, step.observation->o, step.observation->noise);
  }
}

TEST(ApiUnification, SubmitOptionsSliceCarriesTheSharedFields) {
  auto cancel = std::make_shared<CancelToken>();
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  kalman::SmootherResult storage;

  JobOptions jo;
  jo.backend = Backend::Rts;
  jo.into = &storage;
  jo.deadline = deadline;
  jo.timeout = std::chrono::duration<double>(1.5);
  jo.cancel = cancel;

  // Slicing to the base keeps every shared field (one source of truth).
  const SubmitOptions& base = jo;
  EXPECT_EQ(base.backend, Backend::Rts);
  EXPECT_EQ(base.into, &storage);
  EXPECT_EQ(base.deadline, deadline);
  EXPECT_EQ(base.timeout, std::chrono::duration<double>(1.5));
  EXPECT_EQ(base.cancel, cancel);

  // And assigning a base into a derived adapter carries them over.
  NonlinearJobOptions njo;
  static_cast<SubmitOptions&>(njo) = base;
  EXPECT_EQ(njo.backend, Backend::Rts);
  EXPECT_EQ(njo.cancel, cancel);
  EXPECT_EQ(njo.delta_prior_variance, 1e4);  // derived defaults untouched
}

TEST(ApiUnification, LinearSessionOldVsNewBitIdentical) {
  SmootherEngine eng({.threads = 2});
  Rng rng(0xAB1);
  const kalman::Problem track = kalman::make_paper_benchmark(rng, 3, 32);

  Session s_new = eng.open_session(3);
  Session s_old = eng.open_session(3, SessionOptions{});
  feed(s_new, track);
  feed(s_old, track);
  expect_bit_identical(s_old.smooth(true), s_new.smooth(true));
}

TEST(ApiUnification, SessionOptionsValidatesLikeTheOldEntryPoints) {
  SmootherEngine eng({.threads = 1});
  Rng rng(0xAB5);
  kalman::NonlinearModel m = kalman::make_pendulum_benchmark(rng, 8, 0.3);
  // Wrong-dimension u0 still throws through the unified path.
  EXPECT_THROW((void)eng.open_session(std::move(m), Vector({1.0, 2.0, 3.0})),
               std::invalid_argument);
  // Durable without a valid id throws from the store's id validation.
  io::SessionStore store = fresh_store("validate");
  EXPECT_THROW((void)eng.open_session(3, SessionOptions{}.durable(store, "bad id!")),
               std::invalid_argument);
}

TEST(ApiUnification, QueuedJobsAccessorTracksTheBoundedQueue) {
  SmootherEngine eng({.threads = 1});
  EXPECT_EQ(eng.queued_jobs(), 0u);
  Rng rng(0xAB6);
  std::vector<std::future<JobResult>> futs;
  for (int i = 0; i < 8; ++i)
    futs.push_back(eng.submit(kalman::make_paper_benchmark(rng, 3, 16),
                              [] {
                                JobOptions jo;
                                jo.prior = kalman::diffuse_prior(3);
                                return jo;
                              }()));
  eng.wait_idle();
  for (auto& f : futs) (void)f.get();
  EXPECT_EQ(eng.queued_jobs(), 0u);
}

}  // namespace
}  // namespace pitk::engine
