/// \file test_serve.cpp
/// The serving-tier contract: stable tenant placement (hash, pin, hook),
/// every class agreeing with direct submits across all five backends,
/// synchronous rejection of malformed problems, per-class admission under
/// overload (besteffort sheds first, interactive last), strict parsing of
/// the environment knobs, every future resolving when the tier is destroyed
/// mid-flight, shard-aware durable journal placement + recovery, and a
/// TSan-able concurrent multi-tenant stress.
///
/// The ServeFault suite also runs in CI's fault-smoke leg with
/// PITK_FAULTS="engine.dequeue:delay:..." armed: per-request deadlines must
/// hold (every future resolves, slow jobs classify as DeadlineExceeded)
/// whether or not the dequeue path is artificially slowed.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <future>
#include <memory>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "pitk.hpp"
#include "test_util.hpp"

namespace pitk::serve {
namespace {

namespace fs = std::filesystem;
using engine::Backend;
using la::index;
using la::Rng;

kalman::Problem small_problem(Rng& rng, index n = 3, index k = 24) {
  return kalman::make_paper_benchmark(rng, n, k);
}

double max_deviation(const kalman::SmootherResult& got, const kalman::SmootherResult& ref) {
  double d = 0.0;
  for (std::size_t i = 0; i < ref.means.size(); ++i)
    d = std::max(d, la::max_abs_diff(got.means[i].span(), ref.means[i].span()));
  if (got.has_covariances() && ref.has_covariances())
    for (std::size_t i = 0; i < ref.covariances.size(); ++i)
      d = std::max(d, la::max_abs_diff(got.covariances[i].view(), ref.covariances[i].view()));
  return d;
}

ServeOptions two_shards() {
  ServeOptions so;
  so.shards = 2;
  so.threads_per_shard = 2;
  return so;
}

TEST(ServeTier, PlacementIsStableAcrossTierInstances) {
  std::vector<unsigned> first;
  {
    ServingTier tier(two_shards());
    for (int i = 0; i < 64; ++i)
      first.push_back(tier.shard_of("tenant-" + std::to_string(i)));
  }
  // A second tier (a "restarted process") places every tenant identically.
  ServingTier tier(two_shards());
  std::set<unsigned> used;
  for (int i = 0; i < 64; ++i) {
    const unsigned s = tier.shard_of("tenant-" + std::to_string(i));
    EXPECT_EQ(s, first[static_cast<std::size_t>(i)]) << "tenant-" << i;
    EXPECT_LT(s, tier.num_shards());
    used.insert(s);
  }
  // The hash actually spreads load (64 tenants never all land on one shard).
  EXPECT_EQ(used.size(), tier.num_shards());
  // And the handle carries the same placement as shard_of.
  TenantHandle h = tier.tenant("tenant-7", TenantClass::Interactive);
  EXPECT_EQ(h.shard(), tier.shard_of("tenant-7"));
  EXPECT_EQ(h.tenant_class(), TenantClass::Interactive);
  EXPECT_EQ(h.id(), "tenant-7");
}

TEST(ServeTier, PinBeatsHookBeatsHash) {
  ServingTier tier(two_shards());
  const unsigned hashed = tier.shard_of("vip");

  // Hook overrides the hash...
  tier.set_rebalance_hook([&](std::string_view id, unsigned) -> std::optional<unsigned> {
    if (id == "vip") return 1u - hashed;
    return std::nullopt;  // everyone else keeps the hash placement
  });
  EXPECT_EQ(tier.shard_of("vip"), 1u - hashed);
  EXPECT_EQ(tier.shard_of("other"), tier.shard_of("other"));

  // ...and a pin overrides the hook.
  tier.pin("vip", hashed);
  EXPECT_EQ(tier.shard_of("vip"), hashed);
  tier.unpin("vip");
  EXPECT_EQ(tier.shard_of("vip"), 1u - hashed);
  tier.set_rebalance_hook(nullptr);
  EXPECT_EQ(tier.shard_of("vip"), hashed);
}

TEST(ServeTier, EveryClassAgreesWithDirectSubmitAllBackends) {
  ServingTier tier(two_shards());

  Rng rng(0x5E11);
  for (const engine::BackendInfo& info : engine::all_backends()) {
    Rng prng = rng.split();
    kalman::Problem p = small_problem(prng);
    const kalman::GaussianPrior prior = kalman::diffuse_prior(3);

    for (int c = 0; c < num_tenant_classes; ++c) {
      const TenantClass cls = static_cast<TenantClass>(c);
      TenantHandle t =
          tier.tenant(std::string("t-") + info.name + "-" + tenant_class_name(cls), cls);
      engine::JobOptions direct;
      direct.backend = info.id;
      direct.prior = prior;
      const kalman::SmootherResult ref =
          tier.shard_engine(t.shard()).submit(p, direct).get().result;

      Request req;
      req.problem = p;
      req.prior = prior;
      engine::SubmitOptions opts;
      opts.backend = info.id;
      const kalman::SmootherResult got = tier.submit(t, std::move(req), opts).get().result;
      EXPECT_LE(max_deviation(got, ref), 1e-10) << info.name << " " << tenant_class_name(cls);
    }
  }
  const TierStats st = tier.stats();
  for (const TierClassStats& c : st.classes) {
    EXPECT_EQ(c.submitted, engine::all_backends().size());
    EXPECT_EQ(c.shed, 0u);
  }
  // The tier buffers nothing, so the former flush counters stay 0.
  EXPECT_EQ(st.size_flushes, 0u);
  EXPECT_EQ(st.deadline_flushes, 0u);
}

TEST(ServeTier, MalformedProblemThrowsSynchronouslyForEveryClass) {
  ServingTier tier(two_shards());
  Rng rng(0xBAD);
  kalman::Problem bad = small_problem(rng);
  // An observation vector one entry longer than its G has rows.
  for (index i = 0; i < bad.num_states(); ++i)
    if (bad.step(i).observation) {
      kalman::Observation& ob = *bad.step(i).observation;
      ob.o = la::Vector(ob.o.size() + 1);
      break;
    }
  ASSERT_TRUE(bad.validate().has_value());

  for (int c = 0; c < num_tenant_classes; ++c) {
    const TenantClass cls = static_cast<TenantClass>(c);
    TenantHandle t = tier.tenant(std::string("bad-") + tenant_class_name(cls), cls);
    Request req;
    req.problem = bad;
    req.prior = kalman::diffuse_prior(3);
    EXPECT_THROW((void)tier.submit(t, std::move(req)), std::invalid_argument)
        << tenant_class_name(cls);
  }
}

/// Sets environment variables for one scope and restores each previous value
/// (or its absence) on exit.
class ScopedEnv {
 public:
  ScopedEnv() = default;
  ScopedEnv(const ScopedEnv&) = delete;
  ScopedEnv& operator=(const ScopedEnv&) = delete;
  ~ScopedEnv() {
    for (auto it = saved_.rbegin(); it != saved_.rend(); ++it) {
      if (it->second)
        setenv(it->first.c_str(), it->second->c_str(), 1);
      else
        unsetenv(it->first.c_str());
    }
  }

  void set(const char* name, const char* value) {
    const char* old = std::getenv(name);
    saved_.emplace_back(name, old != nullptr ? std::optional<std::string>(old) : std::nullopt);
    setenv(name, value, 1);
  }

 private:
  std::vector<std::pair<std::string, std::optional<std::string>>> saved_;
};

TEST(ServeTier, EnvDefaultsKeepDefaultsForMalformedValues) {
  const ServeOptions defaults;
  auto expect_defaults = [&](const ServeOptions& got, const std::string& what) {
    EXPECT_EQ(got.shards, defaults.shards) << what;
    EXPECT_EQ(got.threads_per_shard, defaults.threads_per_shard) << what;
    for (int c = 0; c < num_tenant_classes; ++c)
      EXPECT_EQ(got.classes[c].max_queue_wait_seconds,
                defaults.classes[c].max_queue_wait_seconds)
          << what << " class " << c;
  };

  ScopedEnv env;
  env.set("PITK_SHARDS", "3");
  env.set("PITK_SERVE_THREADS", "2");
  env.set("PITK_SERVE_WAIT_MS", "10");
  const ServeOptions good = ServeOptions::env_defaults();
  EXPECT_EQ(good.shards, 3u);
  EXPECT_EQ(good.threads_per_shard, 2u);
  const auto wait_of = [&](TenantClass c) {
    return good.classes[tenant_class_index(c)].max_queue_wait_seconds;
  };
  EXPECT_DOUBLE_EQ(wait_of(TenantClass::Interactive), 0.02);
  EXPECT_DOUBLE_EQ(wait_of(TenantClass::Standard), 0.01);
  EXPECT_DOUBLE_EQ(wait_of(TenantClass::BestEffort), 0.004);

  // Counts: whole string, positive, no overflow.
  for (const char* bad : {"2x", "abc", "", "0", "-2", "1.5", "999999999999999999999"}) {
    env.set("PITK_SHARDS", bad);
    env.set("PITK_SERVE_THREADS", bad);
    env.set("PITK_SERVE_WAIT_MS", "abc");
    expect_defaults(ServeOptions::env_defaults(), std::string("counts '") + bad + "'");
  }
  env.set("PITK_SHARDS", "4294967297");  // 2^32 + 1 clamps like PITK_THREADS
  EXPECT_EQ(ServeOptions::env_defaults().shards, 1024u);

  // The wait: whole string, finite, >= 0.
  env.set("PITK_SHARDS", "x");
  for (const char* bad : {"abc", "", "5ms", "inf", "-inf", "nan", "-1", "1e999"}) {
    env.set("PITK_SERVE_WAIT_MS", bad);
    expect_defaults(ServeOptions::env_defaults(), std::string("wait '") + bad + "'");
  }
}

TEST(ServeTier, LowPriorityShedsBeforeHighUnderOverload) {
  ServeOptions so;
  so.shards = 1;
  so.threads_per_shard = 2;
  // Tight budgets; interactive may block briefly, besteffort sheds at once.
  so.classes[0] = {2e-3, true, 2e-3};
  so.classes[1] = {1e-3, false, 0.0};
  so.classes[2] = {0.4e-3, false, 0.0};
  ServingTier tier(so);

  Rng rng(0x0E21);
  const kalman::GaussianPrior prior = kalman::diffuse_prior(3);
  kalman::Problem base = small_problem(rng, 3, 64);

  // Warm the seconds/job estimate so admission has a measured rate.
  {
    engine::JobOptions warm;
    warm.prior = prior;
    (void)tier.shard_engine(0).submit(base, warm).get();
  }

  TenantHandle hi = tier.tenant("hi", TenantClass::Interactive);
  TenantHandle lo = tier.tenant("lo", TenantClass::BestEffort);
  std::vector<std::future<engine::JobResult>> futs;
  for (int i = 0; i < 400; ++i) {
    Request rh;
    rh.problem = base;
    rh.prior = prior;
    futs.push_back(tier.submit(hi, std::move(rh)));
    Request rl;
    rl.problem = base;
    rl.prior = prior;
    futs.push_back(tier.submit(lo, std::move(rl)));
  }
  std::uint64_t resolved = 0;
  for (auto& f : futs) {
    try {
      (void)f.get();
      ++resolved;
    } catch (const engine::SolveError& e) {
      EXPECT_EQ(e.code(), engine::SolveErrorCode::QueueFull);
    }
  }
  tier.wait_idle();
  const TierStats st = tier.stats();
  const auto& ci = st.classes[tenant_class_index(TenantClass::Interactive)];
  const auto& cb = st.classes[tenant_class_index(TenantClass::BestEffort)];
  EXPECT_EQ(ci.submitted, 400u);
  EXPECT_EQ(cb.submitted, 400u);
  // The overload is real: someone shed...
  EXPECT_GT(cb.shed, 0u);
  // ...and the SLO ordering holds: besteffort sheds at least as hard.
  EXPECT_GE(cb.shed, ci.shed);
  EXPECT_EQ(resolved + ci.shed + cb.shed, 800u);
}

TEST(ServeTier, ConcurrentMultiTenantStress) {
  ServeOptions so = two_shards();
  ServingTier tier(so);
  constexpr int kThreads = 4;
  constexpr int kPerThread = 32;

  std::atomic<std::uint64_t> completed{0};
  std::atomic<std::uint64_t> shed{0};
  std::vector<std::thread> threads;
  for (int w = 0; w < kThreads; ++w) {
    threads.emplace_back([&, w] {
      Rng rng(0xC0DE + static_cast<std::uint64_t>(w));
      for (int i = 0; i < kPerThread; ++i) {
        const TenantClass cls = static_cast<TenantClass>(i % num_tenant_classes);
        TenantHandle t =
            tier.tenant("w" + std::to_string(w) + "-t" + std::to_string(i % 5), cls);
        Request req;
        req.problem = small_problem(rng);
        req.prior = kalman::diffuse_prior(3);
        try {
          (void)tier.submit(t, std::move(req)).get();
          completed.fetch_add(1, std::memory_order_relaxed);
        } catch (const engine::SolveError&) {
          shed.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  tier.wait_idle();
  EXPECT_EQ(completed.load() + shed.load(),
            static_cast<std::uint64_t>(kThreads * kPerThread));
  const TierStats st = tier.stats();
  std::uint64_t submitted = 0;
  for (const auto& c : st.classes) submitted += c.submitted;
  EXPECT_EQ(submitted, static_cast<std::uint64_t>(kThreads * kPerThread));
}

TEST(ServeTier, DestroyingTheTierResolvesEveryInFlightFuture) {
  Rng rng(0xDE57);
  kalman::Problem base = small_problem(rng, 3, 256);
  const kalman::GaussianPrior prior = kalman::diffuse_prior(3);
  std::vector<std::future<engine::JobResult>> futs;
  std::size_t in_flight = 0;
  {
    ServeOptions so;
    so.shards = 1;  // one 2-thread shard: the submits outrun the solves
    so.threads_per_shard = 2;
    ServingTier tier(so);
    for (int i = 0; i < 48; ++i) {
      const TenantClass cls = static_cast<TenantClass>(i % num_tenant_classes);
      TenantHandle t = tier.tenant("inflight-" + std::to_string(i % 6), cls);
      Request req;
      req.problem = base;
      req.prior = prior;
      futs.push_back(tier.submit(t, std::move(req)));
    }
    for (auto& f : futs)
      if (f.wait_for(std::chrono::seconds(0)) != std::future_status::ready) ++in_flight;
  }  // no wait_idle(): the destructor alone must settle every request
  EXPECT_GT(in_flight, 0u);

  std::uint64_t completed = 0, classified = 0;
  for (auto& f : futs) {
    ASSERT_EQ(f.wait_for(std::chrono::seconds(0)), std::future_status::ready);
    try {
      (void)f.get();
      ++completed;
    } catch (const engine::SolveError&) {
      ++classified;  // shed at admission
    } catch (const std::future_error& e) {
      ADD_FAILURE() << "unfulfilled future: " << e.what();
    }
  }
  EXPECT_EQ(completed + classified, futs.size());
  EXPECT_GT(completed, 0u);
}

TEST(ServeTier, DurableSessionsPlaceJournalsPerShardAndRecover) {
  io::DurabilityOptions dopts;
  dopts.dir = testing::TempDir() + "/pitk_serve_store";
  fs::remove_all(dopts.dir);
  io::SessionStore base(dopts);

  Rng rng(0xD0D0);
  kalman::Problem track = small_problem(rng, 3, 40);
  std::vector<std::string> ids = {"alpha", "beta", "gamma", "delta"};
  std::vector<unsigned> shard_of_id;
  std::vector<kalman::SmootherResult> live_results;

  {
    ServingTier tier(two_shards());
    for (const std::string& id : ids) {
      TenantHandle t = tier.tenant(id);
      shard_of_id.push_back(t.shard());
      engine::SessionOptions sopts;
      sopts.store = &base;  // tier reroutes to base/shard-N
      engine::Session s = tier.open_session(t, 3, sopts);
      for (index i = 1; i < track.num_states(); ++i) {
        const kalman::TimeStep& step = track.step(i);
        if (step.evolution) s.evolve(step.evolution->F, step.evolution->c, step.evolution->noise);
        if (step.observation)
          s.observe(step.observation->G, step.observation->o, step.observation->noise);
      }
      live_results.push_back(s.smooth(true));
      // The journal landed in the tenant's shard subdirectory, named by id.
      EXPECT_TRUE(fs::exists(base.shard_store(t.shard()).path_for(id)))
          << id << " shard " << t.shard();
    }
    const TierStats st = tier.stats();
    EXPECT_EQ(st.durable_sessions_opened, ids.size());
  }  // tier torn down: "process death" (journals are crash-consistent anyway)

  ServingTier tier(two_shards());
  auto recovered = tier.recover(base);
  ASSERT_EQ(recovered.size(), tier.num_shards());
  std::size_t total = 0;
  for (auto& [shard, rec] : recovered) {
    EXPECT_TRUE(rec.failed.empty());
    for (auto& [id, session] : rec.linear) {
      const auto it = std::find(ids.begin(), ids.end(), id);
      ASSERT_NE(it, ids.end());
      const std::size_t idx = static_cast<std::size_t>(it - ids.begin());
      // Recovered on the same shard the tenant hashes to.
      EXPECT_EQ(shard, shard_of_id[idx]) << id;
      EXPECT_LE(max_deviation(session.smooth(true), live_results[idx]), 1e-10) << id;
      ++total;
    }
  }
  EXPECT_EQ(total, ids.size());
}

/// Runs unarmed in the normal suite and with PITK_FAULTS=
/// "engine.dequeue:delay:1.0:3:5" in CI's fault-smoke leg: every future must
/// resolve either with a result or with a *classified* deadline error, and
/// the tier must stay consistent — injected dequeue slowness can make jobs
/// late, never lost or misclassified.
TEST(ServeFault, PerClassDeadlinesHoldUnderInjectedDequeueDelay) {
  ServeOptions so;
  so.shards = 1;
  so.threads_per_shard = 2;
  ServingTier tier(so);

  Rng rng(0xFA017);
  TenantHandle t = tier.tenant("deadline-tenant", TenantClass::Standard);
  std::vector<std::future<engine::JobResult>> futs;
  for (int i = 0; i < 16; ++i) {
    Request req;
    req.problem = small_problem(rng);
    req.prior = kalman::diffuse_prior(3);
    engine::SubmitOptions opts;
    opts.timeout = std::chrono::duration<double>(0.05);
    futs.push_back(tier.submit(t, std::move(req), opts));
  }
  std::uint64_t completed = 0, deadline = 0;
  for (auto& f : futs) {
    try {
      (void)f.get();
      ++completed;
    } catch (const engine::SolveError& e) {
      // Injected slowness may push a job past its deadline — that must be
      // the *classified* outcome, never a hang or a generic failure.
      EXPECT_TRUE(e.code() == engine::SolveErrorCode::DeadlineExceeded ||
                  e.code() == engine::SolveErrorCode::QueueFull)
          << static_cast<int>(e.code());
      ++deadline;
    }
  }
  EXPECT_EQ(completed + deadline, 16u);
  tier.wait_idle();
  const engine::EngineStats st = tier.shard_engine(0).stats();
  EXPECT_EQ(st.jobs_completed + st.jobs_deadline_exceeded + st.jobs_failed +
                st.jobs_cancelled + st.jobs_rejected,
            st.jobs_submitted);
}

}  // namespace
}  // namespace pitk::serve
