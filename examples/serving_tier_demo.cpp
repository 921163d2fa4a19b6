/// \file serving_tier_demo.cpp
/// The sharded serving tier end to end through the one public umbrella
/// header: a fleet of tenants in all three classes runs a mixed workload —
/// batch smooths, a durable streaming session, a nonlinear track — against
/// a ServingTier, then the process prints the per-class tier accounting an
/// operator would look at (submitted/blocked/shed, placement) and proves a
/// restart recovers every durable tenant on the shard that owns it.
///
/// Knobs (all optional): PITK_SHARDS, PITK_SERVE_THREADS, PITK_SERVE_WAIT_MS.

#include <cstdio>
#include <filesystem>
#include <string>
#include <utility>
#include <vector>

#include "pitk.hpp"

using namespace pitk;
using la::index;
using la::Vector;

namespace {

serve::TenantClass class_of(int i) {
  if (i % 4 == 0) return serve::TenantClass::Interactive;
  if (i % 4 == 3) return serve::TenantClass::BestEffort;
  return serve::TenantClass::Standard;
}

}  // namespace

int main() {
  la::Rng rng(2025);
  serve::ServingTier tier;
  std::printf("serving tier: %u shards x %u threads\n", tier.num_shards(),
              tier.options().threads_per_shard);

  // --- batch traffic: 24 tenants spread across the classes -----------------
  std::vector<std::future<engine::JobResult>> futs;
  for (int i = 0; i < 24; ++i) {
    const std::string id = "tenant-" + std::to_string(i);
    serve::TenantHandle t = tier.tenant(id, class_of(i));
    serve::Request req;
    req.problem = kalman::make_paper_benchmark(rng, 4, 64);
    req.prior = kalman::diffuse_prior(4);
    req.compute_covariance = false;
    futs.push_back(tier.submit(t, std::move(req)));
  }

  // --- one durable streaming tenant ----------------------------------------
  const std::string dir = "serve_demo_ckpt";
  std::filesystem::remove_all(dir);
  io::DurabilityOptions dopts;
  dopts.dir = dir;
  io::SessionStore store(dopts);
  serve::TenantHandle ten = tier.tenant("stream-7", serve::TenantClass::Interactive);
  {
    engine::Session s =
        tier.open_session(ten, 2, engine::SessionOptions{}.durable(store, ""));
    la::Matrix f = la::Matrix::identity(2);
    la::Vector c({0.1, -0.1});
    for (int i = 0; i < 32; ++i) {
      s.evolve(f, c, kalman::CovFactor::identity(2));
      s.observe(la::Matrix::identity(2), Vector({0.1 * i, -0.1 * i}),
                kalman::CovFactor::identity(2));
    }
    const kalman::SmootherResult sr = s.smooth(false);
    std::printf("durable stream on shard %u: %zu smoothed states\n", ten.shard(),
                sr.means.size());
  }

  // --- one nonlinear streaming tenant on its shard --------------------------
  {
    serve::TenantHandle nt = tier.tenant("pendulum-0", serve::TenantClass::Standard);
    engine::NonlinearSession ns = tier.open_session(nt, kalman::make_pendulum_benchmark(rng, 48, 0.5),
                                                    Vector({0.5, 0.0}));
    const kalman::SmootherResult sr = ns.smooth();
    std::printf("nonlinear tenant on shard %u: %zu states\n", nt.shard(), sr.means.size());
  }

  int ok = 0;
  for (auto& f : futs) ok += f.get().result.means.empty() ? 0 : 1;
  tier.wait_idle();

  const serve::TierStats st = tier.stats();
  std::printf("%d/%zu batch smooths completed\n", ok, futs.size());
  for (unsigned c = 0; c < serve::num_tenant_classes; ++c)
    std::printf("  %-11s submitted %3llu  blocked %3llu  shed %3llu\n",
                serve::tenant_class_name(static_cast<serve::TenantClass>(c)),
                static_cast<unsigned long long>(st.classes[c].submitted),
                static_cast<unsigned long long>(st.classes[c].blocked),
                static_cast<unsigned long long>(st.classes[c].shed));

  // --- restart: a fresh tier recovers the durable tenant on its shard ------
  serve::ServingTier tier2;
  std::size_t recovered = 0;
  for (auto& [shard, rec] : tier2.recover(store)) {
    for (auto& [id, session] : rec.linear) {
      const kalman::SmootherResult sr = session.smooth(false);
      std::printf("recovered '%s' on shard %u: %zu states\n", id.c_str(), shard,
                  sr.means.size());
      ++recovered;
    }
  }
  std::filesystem::remove_all(dir);
  if (ok != static_cast<int>(futs.size()) || recovered == 0) {
    std::printf("FAILED\n");
    return 1;
  }
  std::printf("OK\n");
  return 0;
}
