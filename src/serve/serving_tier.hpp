#pragma once

/// \file serving_tier.hpp
/// ServingTier: N SmootherEngine shards behind a tenant-centric front door.
///
///   tenant id ──hash/pin/hook──▶ shard s
///                                   │
///   any class ──admission──────────▶│  SmootherEngine::submit on the
///               (block or shed)     │  caller's thread
///                                   ▼
///                         SmootherEngine shard s
///                         (own pool, bounded queue)
///
/// Placement: a stable byte-hash of the tenant id modulo the shard count,
/// overridable per tenant with pin() and globally with a rebalance hook —
/// the same id maps to the same shard across process restarts, which is
/// what keeps durable journal placement (SessionStore::shard_store) and
/// the shard-migration follow-up coherent.
///
/// Admission: before a request enters a shard, the tier estimates that
/// shard's queue wait as queued_jobs x measured seconds/job / concurrency
/// (from EngineStats, sampled at most every ~1ms).  A class over its budget
/// sheds (future fails with SolveErrorCode::QueueFull) or blocks briefly,
/// per ClassOptions.  Every decision is mirrored to pitk.serve.* registry
/// counters and trace events.  Admitted requests ride the engine's normal
/// small/large scheduling; the tier starts no thread of its own.

#include <atomic>
#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "engine/durable.hpp"
#include "engine/engine.hpp"
#include "serve/options.hpp"
#include "serve/tenant.hpp"

namespace pitk::io {
class SessionStore;
}

namespace pitk::serve {

/// Tier-level counters per tenant class (engine-level numbers live in each
/// shard's EngineStats; TierStats covers what only the tier can see).
struct TierClassStats {
  std::uint64_t submitted = 0;  ///< requests handed to the tier
  std::uint64_t shed = 0;       ///< failed admission (QueueFull at the door)
  std::uint64_t blocked = 0;    ///< admissions that waited before entering
};

struct TierStats {
  TierClassStats classes[num_tenant_classes];
  /// Always 0: the tier buffers no requests, so nothing flushes.  Kept only
  /// for existing readers of the former batch counters
  /// (benchmark/serve_mixed.cpp).
  std::uint64_t size_flushes = 0;
  std::uint64_t deadline_flushes = 0;
  std::uint64_t sessions_opened = 0;
  std::uint64_t durable_sessions_opened = 0;
};

class ServingTier {
 public:
  explicit ServingTier(ServeOptions opts = ServeOptions::env_defaults());

  ServingTier(const ServingTier&) = delete;
  ServingTier& operator=(const ServingTier&) = delete;

  /// Tears the shards down; each shard engine first drains its own queue
  /// (~SmootherEngine waits for every submitted job), so every future the
  /// tier handed out resolves with a result or a SolveError.
  ~ServingTier();

  [[nodiscard]] unsigned num_shards() const noexcept;

  /// Resolve (place) a tenant: pin wins over the rebalance hook wins over
  /// the consistent hash.  Cheap enough to call per request, stable enough
  /// to cache.
  [[nodiscard]] TenantHandle tenant(std::string_view id,
                                    TenantClass cls = TenantClass::Standard);

  /// The shard `id` currently resolves to (without constructing a handle).
  [[nodiscard]] unsigned shard_of(std::string_view id) const;

  /// Pin `id` to a shard (wins over hash and hook) / drop the pin.
  void pin(std::string_view id, unsigned shard);
  void unpin(std::string_view id);

  /// Placement override consulted for unpinned tenants: return the target
  /// shard or nullopt to accept the consistent-hash shard.  The hook must
  /// be deterministic per id to keep placement stable.
  using RebalanceHook =
      std::function<std::optional<unsigned>(std::string_view id, unsigned hashed_shard)>;
  void set_rebalance_hook(RebalanceHook hook);

  /// Submit one request for `t`: admission for its class, then a submit to
  /// its shard engine on the calling thread.  The future fails with
  /// SolveError(QueueFull) when the class's admission budget sheds the
  /// request; a malformed problem throws std::invalid_argument here.
  [[nodiscard]] std::future<engine::JobResult> submit(const TenantHandle& t, Request req,
                                                      engine::SubmitOptions opts = {});

  /// Nonlinear requests take the same path: admission, then the shard.
  [[nodiscard]] std::future<engine::JobResult> submit_nonlinear(
      const TenantHandle& t, engine::NonlinearJob job, engine::NonlinearJobOptions opts = {});

  /// Open a streaming session on `t`'s shard.  With opts.store set the
  /// journal is placed shard-aware via SessionStore::shard_store(t.shard())
  /// — and opts.id defaults to the tenant id — so recover() can rebuild
  /// every shard's sessions on the right shard.
  [[nodiscard]] engine::Session open_session(const TenantHandle& t, la::index n0,
                                             engine::SessionOptions opts = {});
  [[nodiscard]] engine::NonlinearSession open_session(const TenantHandle& t,
                                                      kalman::NonlinearModel model,
                                                      la::Vector u0,
                                                      engine::SessionOptions opts = {});

  /// Recover every shard subdirectory of `base` (the store handed to
  /// open_session, not a shard_store) on its own shard engine.  Returns
  /// (shard, recovered) pairs in shard order.
  [[nodiscard]] std::vector<std::pair<unsigned, engine::RecoveredSessions>> recover(
      const io::SessionStore& base, const engine::RecoveryOptions& opts = {});

  /// Block until every shard has finished every submitted job.
  void wait_idle();

  [[nodiscard]] engine::SmootherEngine& shard_engine(unsigned shard);
  [[nodiscard]] const ServeOptions& options() const noexcept { return opts_; }
  [[nodiscard]] TierStats stats() const;

 private:
  struct Shard;

  [[nodiscard]] Shard& shard(unsigned s);
  [[nodiscard]] unsigned place(std::string_view id) const;
  /// Estimated seconds a job admitted now would wait in `sh`'s queue.
  [[nodiscard]] double estimated_queue_wait(Shard& sh) const;
  /// Counts one request and decides its admission.  True = enter.
  [[nodiscard]] bool admit(Shard& sh, TenantClass cls);

  ServeOptions opts_;
  std::vector<std::unique_ptr<Shard>> shards_;

  mutable std::mutex place_mu_;
  std::vector<std::pair<std::string, unsigned>> pins_;  ///< few pins: linear scan
  RebalanceHook hook_;

  std::atomic<std::uint64_t> class_submitted_[num_tenant_classes] = {};
  std::atomic<std::uint64_t> class_shed_[num_tenant_classes] = {};
  std::atomic<std::uint64_t> class_blocked_[num_tenant_classes] = {};
  std::atomic<std::uint64_t> sessions_opened_{0};
  std::atomic<std::uint64_t> durable_sessions_opened_{0};
};

}  // namespace pitk::serve
