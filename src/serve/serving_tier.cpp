#include "serve/serving_tier.hpp"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <thread>

#include "engine/control.hpp"
#include "io/session_store.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"

namespace pitk::serve {

namespace {

using Clock = std::chrono::steady_clock;

/// FNV-1a over the tenant id bytes: stable across processes and builds, so
/// placement survives restarts (the property the placement test pins).
std::uint64_t stable_hash(std::string_view id) noexcept {
  std::uint64_t h = 1469598103934665603ull;
  for (unsigned char c : id) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

/// A positive integer knob, parsed by PITK_THREADS's rule: the whole string
/// must parse, garbage, overflow and non-positive values keep `fallback`,
/// and absurd counts clamp.
unsigned env_count(const char* name, unsigned fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr) return fallback;
  char* end = nullptr;
  errno = 0;
  const long long n = std::strtoll(v, &end, 10);
  constexpr long long max_count = 1024;
  if (end == v || *end != '\0' || errno != 0 || n <= 0) return fallback;
  return static_cast<unsigned>(std::min(n, max_count));
}

/// A finite, non-negative number of milliseconds; nullopt when unset or
/// malformed.
std::optional<double> env_millis(const char* name) {
  const char* v = std::getenv(name);
  if (v == nullptr) return std::nullopt;
  char* end = nullptr;
  errno = 0;
  const double ms = std::strtod(v, &end);
  if (end == v || *end != '\0' || errno != 0 || !std::isfinite(ms) || ms < 0.0)
    return std::nullopt;
  return ms;
}

/// Registry handles, resolved once (same leaked-singleton pattern as the
/// engine's metrics): the warm submit path only bumps relaxed atomics.
struct ServeMetrics {
  obs::Counter* submitted[num_tenant_classes];
  obs::Counter* shed[num_tenant_classes];
  obs::Counter* blocked[num_tenant_classes];
  obs::Counter& sessions = obs::counter("pitk.serve.sessions_opened");
  obs::Gauge& shards = obs::gauge("pitk.serve.shards");
  obs::Histogram& est_wait_s = obs::histogram("pitk.serve.admission_est_wait_s");

  ServeMetrics() {
    for (int c = 0; c < num_tenant_classes; ++c) {
      const std::string cls = tenant_class_name(static_cast<TenantClass>(c));
      submitted[c] = &obs::counter("pitk.serve.submitted." + cls);
      shed[c] = &obs::counter("pitk.serve.shed." + cls);
      blocked[c] = &obs::counter("pitk.serve.blocked." + cls);
    }
  }
};

ServeMetrics& metrics() {
  static ServeMetrics* m = new ServeMetrics();
  return *m;
}

std::future<engine::JobResult> shed_future(TenantClass cls) {
  std::promise<engine::JobResult> p;
  p.set_exception(std::make_exception_ptr(engine::SolveError(
      engine::SolveErrorCode::QueueFull,
      std::string("serve: admission shed (class ") + tenant_class_name(cls) + ")")));
  return p.get_future();
}

}  // namespace

ServeOptions ServeOptions::env_defaults() {
  ServeOptions o;
  o.shards = env_count("PITK_SHARDS", 0);
  o.threads_per_shard = env_count("PITK_SERVE_THREADS", 0);
  if (const std::optional<double> wait_ms = env_millis("PITK_SERVE_WAIT_MS")) {
    o.classes[tenant_class_index(TenantClass::Interactive)].max_queue_wait_seconds =
        *wait_ms * 2e-3;
    o.classes[tenant_class_index(TenantClass::Standard)].max_queue_wait_seconds =
        *wait_ms * 1e-3;
    o.classes[tenant_class_index(TenantClass::BestEffort)].max_queue_wait_seconds =
        *wait_ms * 0.4e-3;
  }
  return o;
}

struct ServingTier::Shard {
  std::unique_ptr<engine::SmootherEngine> engine;

  /// Admission estimate: measured seconds/job, refreshed from EngineStats
  /// at most every ~1ms (stats() takes a mutex; the estimate does not).
  std::atomic<double> avg_solve_seconds{0.0};
  std::atomic<std::int64_t> last_sample_ns{0};
};

ServingTier::ServingTier(ServeOptions opts) : opts_(opts) {
  if (opts_.shards == 0)
    opts_.shards = std::max(1u, par::ThreadPool::default_concurrency() / 4);
  if (opts_.threads_per_shard == 0)
    opts_.threads_per_shard =
        std::max(1u, par::ThreadPool::default_concurrency() / opts_.shards);
  engine::EngineOptions eo = opts_.engine;
  eo.threads = opts_.threads_per_shard;
  if (eo.max_queued_jobs == 0) {
    // Per-shard bounded queue: the tier's admission budgets normally keep
    // the queue far below this; the engine bound is the hard backstop.
    eo.max_queued_jobs = 4096;
    eo.queue_policy = engine::QueuePolicy::Block;
  }
  shards_.reserve(opts_.shards);
  for (unsigned s = 0; s < opts_.shards; ++s) {
    auto sh = std::make_unique<Shard>();
    sh->engine = std::make_unique<engine::SmootherEngine>(eo);
    shards_.push_back(std::move(sh));
  }
  metrics().shards.set(static_cast<double>(opts_.shards));
}

ServingTier::~ServingTier() = default;

unsigned ServingTier::num_shards() const noexcept { return opts_.shards; }

ServingTier::Shard& ServingTier::shard(unsigned s) {
  if (s >= shards_.size()) throw std::out_of_range("ServingTier: shard out of range");
  return *shards_[s];
}

unsigned ServingTier::place(std::string_view id) const {
  {
    std::lock_guard<std::mutex> lk(place_mu_);
    for (const auto& [pid, s] : pins_)
      if (pid == id) return s % opts_.shards;
    if (hook_) {
      const unsigned hashed = static_cast<unsigned>(stable_hash(id) % opts_.shards);
      if (auto s = hook_(id, hashed)) return *s % opts_.shards;
      return hashed;
    }
  }
  return static_cast<unsigned>(stable_hash(id) % opts_.shards);
}

TenantHandle ServingTier::tenant(std::string_view id, TenantClass cls) {
  return TenantHandle(std::string(id), cls, place(id));
}

unsigned ServingTier::shard_of(std::string_view id) const { return place(id); }

void ServingTier::pin(std::string_view id, unsigned shard) {
  std::lock_guard<std::mutex> lk(place_mu_);
  for (auto& [pid, s] : pins_)
    if (pid == id) {
      s = shard;
      return;
    }
  pins_.emplace_back(std::string(id), shard);
}

void ServingTier::unpin(std::string_view id) {
  std::lock_guard<std::mutex> lk(place_mu_);
  pins_.erase(std::remove_if(pins_.begin(), pins_.end(),
                             [&](const auto& p) { return p.first == id; }),
              pins_.end());
}

void ServingTier::set_rebalance_hook(RebalanceHook hook) {
  std::lock_guard<std::mutex> lk(place_mu_);
  hook_ = std::move(hook);
}

double ServingTier::estimated_queue_wait(Shard& sh) const {
  const auto now_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                          Clock::now().time_since_epoch())
                          .count();
  std::int64_t last = sh.last_sample_ns.load(std::memory_order_relaxed);
  if (now_ns - last > 1'000'000 &&
      sh.last_sample_ns.compare_exchange_strong(last, now_ns, std::memory_order_relaxed)) {
    const engine::EngineStats st = sh.engine->stats();
    if (st.jobs_completed > 0)
      sh.avg_solve_seconds.store(st.total_solve_seconds /
                                     static_cast<double>(st.jobs_completed),
                                 std::memory_order_relaxed);
  }
  const double avg = sh.avg_solve_seconds.load(std::memory_order_relaxed);
  return static_cast<double>(sh.engine->queued_jobs()) * avg /
         static_cast<double>(sh.engine->concurrency());
}

bool ServingTier::admit(Shard& sh, TenantClass cls) {
  const int c = tenant_class_index(cls);
  const ClassOptions& co = opts_.classes[c];
  class_submitted_[c].fetch_add(1, std::memory_order_relaxed);
  metrics().submitted[c]->add(1);
  double wait = estimated_queue_wait(sh);
  metrics().est_wait_s.record(wait);
  if (wait <= co.max_queue_wait_seconds) return true;
  if (co.block) {
    class_blocked_[c].fetch_add(1, std::memory_order_relaxed);
    metrics().blocked[c]->add(1);
    const auto give_up = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                            std::chrono::duration<double>(co.max_block_seconds));
    while (Clock::now() < give_up) {
      std::this_thread::sleep_for(std::chrono::microseconds(200));
      wait = estimated_queue_wait(sh);
      if (wait <= co.max_queue_wait_seconds) return true;
    }
  }
  class_shed_[c].fetch_add(1, std::memory_order_relaxed);
  metrics().shed[c]->add(1);
  obs::trace::instant("serve.shed");
  return false;
}

std::future<engine::JobResult> ServingTier::submit(const TenantHandle& t, Request req,
                                                   engine::SubmitOptions opts) {
  Shard& sh = shard(t.shard());
  if (!admit(sh, t.tenant_class())) return shed_future(t.tenant_class());
  engine::JobOptions jo;
  static_cast<engine::SubmitOptions&>(jo) = std::move(opts);
  jo.compute_covariance = req.compute_covariance;
  jo.prior = std::move(req.prior);
  return sh.engine->submit(std::move(req.problem), std::move(jo));
}

std::future<engine::JobResult> ServingTier::submit_nonlinear(
    const TenantHandle& t, engine::NonlinearJob job, engine::NonlinearJobOptions opts) {
  Shard& sh = shard(t.shard());
  if (!admit(sh, t.tenant_class())) return shed_future(t.tenant_class());
  return sh.engine->submit_nonlinear(std::move(job), std::move(opts));
}

void ServingTier::wait_idle() {
  for (auto& shp : shards_) shp->engine->wait_idle();
}

engine::SmootherEngine& ServingTier::shard_engine(unsigned s) { return *shard(s).engine; }

TierStats ServingTier::stats() const {
  TierStats out;
  for (int c = 0; c < num_tenant_classes; ++c) {
    out.classes[c].submitted = class_submitted_[c].load(std::memory_order_relaxed);
    out.classes[c].shed = class_shed_[c].load(std::memory_order_relaxed);
    out.classes[c].blocked = class_blocked_[c].load(std::memory_order_relaxed);
  }
  out.sessions_opened = sessions_opened_.load(std::memory_order_relaxed);
  out.durable_sessions_opened = durable_sessions_opened_.load(std::memory_order_relaxed);
  return out;
}

engine::Session ServingTier::open_session(const TenantHandle& t, la::index n0,
                                          engine::SessionOptions opts) {
  Shard& sh = shard(t.shard());
  sessions_opened_.fetch_add(1, std::memory_order_relaxed);
  metrics().sessions.add(1);
  if (opts.store != nullptr) {
    durable_sessions_opened_.fetch_add(1, std::memory_order_relaxed);
    io::SessionStore placed = opts.store->shard_store(t.shard());
    opts.store = &placed;
    if (opts.id.empty()) opts.id = t.id();
    return sh.engine->open_session(n0, opts);
  }
  return sh.engine->open_session(n0, opts);
}

engine::NonlinearSession ServingTier::open_session(const TenantHandle& t,
                                                   kalman::NonlinearModel model,
                                                   la::Vector u0,
                                                   engine::SessionOptions opts) {
  Shard& sh = shard(t.shard());
  sessions_opened_.fetch_add(1, std::memory_order_relaxed);
  metrics().sessions.add(1);
  if (opts.store != nullptr) {
    durable_sessions_opened_.fetch_add(1, std::memory_order_relaxed);
    io::SessionStore placed = opts.store->shard_store(t.shard());
    opts.store = &placed;
    if (opts.id.empty()) opts.id = t.id();
    return sh.engine->open_session(std::move(model), std::move(u0), opts);
  }
  return sh.engine->open_session(std::move(model), std::move(u0), opts);
}

std::vector<std::pair<unsigned, engine::RecoveredSessions>> ServingTier::recover(
    const io::SessionStore& base, const engine::RecoveryOptions& opts) {
  std::vector<std::pair<unsigned, engine::RecoveredSessions>> out;
  out.reserve(shards_.size());
  for (unsigned s = 0; s < shards_.size(); ++s) {
    io::SessionStore sub = base.shard_store(s);
    out.emplace_back(s, shards_[s]->engine->recover_all(sub, opts));
  }
  return out;
}

}  // namespace pitk::serve
