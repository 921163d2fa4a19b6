#pragma once

/// \file options.hpp
/// Tenant classes and tuning knobs of the sharded serving tier.
///
/// A ServingTier owns N SmootherEngine shards (each with its own thread
/// pool and bounded queue) and fronts them with a tenant-centric API.
/// Every request goes straight to its tenant's shard; the three tenant
/// classes differ only in admission, i.e. how much estimated shard-queue
/// wait they accept and whether they block or shed beyond it:
///
///   Interactive  largest budget, and admission *blocks* briefly under
///                backlog before shedding — the last-shed class.
///   Standard     default budget; sheds at once when over it.
///   BestEffort   smallest budget, first to shed: throughput traffic that
///                yields the queue to the classes above.
///
/// Environment knobs (read by ServeOptions::env_defaults(); explicit
/// options always win).  A value must parse in full, or it keeps the
/// default:
///   PITK_SHARDS          number of engine shards (positive integer)
///   PITK_SERVE_THREADS   pool threads per shard (positive integer)
///   PITK_SERVE_WAIT_MS   Standard admission budget in milliseconds, i.e.
///                        the max estimated shard-queue wait admitted
///                        (finite, >= 0; Interactive 2x, BestEffort 0.4x)

#include <cstdint>

#include "engine/engine.hpp"

namespace pitk::serve {

enum class TenantClass : std::uint8_t { Interactive = 0, Standard = 1, BestEffort = 2 };

inline constexpr int num_tenant_classes = 3;

[[nodiscard]] constexpr const char* tenant_class_name(TenantClass c) noexcept {
  switch (c) {
    case TenantClass::Interactive: return "interactive";
    case TenantClass::Standard: return "standard";
    case TenantClass::BestEffort: return "besteffort";
  }
  return "unknown";
}

[[nodiscard]] constexpr int tenant_class_index(TenantClass c) noexcept {
  return static_cast<int>(c);
}

/// Per-class admission policy.
struct ClassOptions {
  /// Admission budget: a request is admitted while the shard's *estimated*
  /// queue wait (queued jobs x measured seconds/job / shard concurrency)
  /// stays below this.  Above it the class sheds (fails the future with
  /// SolveErrorCode::QueueFull) or blocks, per `block`.
  double max_queue_wait_seconds = 0.025;
  /// Block instead of shedding: the submitting thread waits up to
  /// max_block_seconds for the backlog estimate to fall back under budget,
  /// then sheds anyway.  Interactive traffic blocks; the others shed.
  bool block = false;
  double max_block_seconds = 0.05;
};

/// Tier-wide configuration.
struct ServeOptions {
  /// Engine shards; 0 resolves to max(1, default_concurrency()/4) so a
  /// shard keeps a few lanes for intra-parallel large jobs.
  unsigned shards = 0;
  /// Pool threads per shard; 0 splits par::ThreadPool::default_concurrency()
  /// evenly across shards (at least 1 each).
  unsigned threads_per_shard = 0;
  /// Template for every shard's engine (threads is overridden by
  /// threads_per_shard; a bounded queue is applied when max_queued_jobs is
  /// left at 0 — see ServingTier's constructor).
  engine::EngineOptions engine;
  /// Per-class policy, indexed by tenant_class_index().
  ClassOptions classes[num_tenant_classes] = {
      /*Interactive*/ {0.05, true, 0.05},
      /*Standard*/ {0.025, false, 0.0},
      /*BestEffort*/ {0.01, false, 0.0},
  };

  /// Defaults with the PITK_SHARDS / PITK_SERVE_* environment knobs
  /// applied (see the file comment).
  [[nodiscard]] static ServeOptions env_defaults();
};

}  // namespace pitk::serve
