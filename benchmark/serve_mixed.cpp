/// \file serve_mixed.cpp
/// serve_mixed: open-loop mixed-tenant traffic through serve::ServingTier,
/// a long-track window, then a closed-loop capacity phase.
///
/// Two shards of two threads serve 48 tenants split 25/50/25 across the
/// Interactive/Standard/BestEffort classes.  Requests are the paper problem
/// at n=4, k=48 drawn from a 32-problem pool; half of each class's tenants
/// send a prior (served by RTS), half do not (Paige-Saunders).
///
/// Phases, as shares of --seconds:
///  - open loop (0.45): Poisson arrivals at 2000 req/s.  Latency runs from
///    the *scheduled* send time to the moment the collector sees the future
///    ready, so a generator stall is charged to the requests it delayed.
///    These latencies are the gated ones.
///  - long window (0.15): the same traffic, with every 512th request a
///    k=16384 track.  Those take the engine's intra-parallel odd-even path
///    (far from both calibrated cutoffs, so routing cannot flip between
///    runs) and hold both lanes of their shard for ~0.1 s, so small requests
///    queue behind them.  They get their own window because in the main
///    mix that head-of-line wait alone sets the p99 and varies ~30% run to
///    run.
///  - capacity (0.4): 256 small requests kept outstanding; completions per
///    second is the capacity.
///
/// The collector waits on the oldest request of each (shard, class, long)
/// queue.  Every completed result's last mean is checked against a direct
/// sequential solve of the same problem.  Load comes from this process
/// only: one generator thread and one collector thread.

#include <atomic>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <random>
#include <string>
#include <thread>

#include "bench.hpp"
#include "engine/backend.hpp"
#include "engine/control.hpp"
#include "kalman/simulate.hpp"
#include "la/blas.hpp"
#include "la/random.hpp"
#include "obs/trace.hpp"
#include "pitk/serve.hpp"

namespace pitk_bench {

namespace {

namespace engine = pitk::engine;
namespace kalman = pitk::kalman;
namespace la = pitk::la;
namespace serve = pitk::serve;
using pitk::obs::trace::TraceSpan;

constexpr index kN = 4;
constexpr index kSmallK = 48;
constexpr index kLongK = 16384;
constexpr int kPoolProblems = 32;
constexpr int kLongProblems = 2;
constexpr int kTenants = 48;
constexpr std::uint64_t kLongEvery = 512;
constexpr double kRate = 2000.0;
constexpr int kOutstanding = 256;
/// Last-mean agreement, engine vs direct sequential solve (the long tracks
/// compare odd-even against RTS/Paige-Saunders, hence not bit-for-bit).
constexpr double kTolerance = 1e-9;

serve::TenantClass class_of(int tenant) {
  const int r = tenant % 4;
  return r == 0 ? serve::TenantClass::Interactive
                : (r == 3 ? serve::TenantClass::BestEffort : serve::TenantClass::Standard);
}

/// Alternate blocks of four tenants send a prior, so every class has both.
bool sends_prior(int tenant) { return (tenant / 4) % 2 == 0; }

struct Inputs {
  std::vector<kalman::Problem> small, longs;
  kalman::GaussianPrior prior;
  /// Last smoothed mean of the direct sequential solve, [with_prior][problem].
  std::vector<la::Vector> ref_small[2], ref_long[2];
};

std::optional<kalman::GaussianPrior> prior_if(bool with, const kalman::GaussianPrior& p) {
  return with ? std::optional<kalman::GaussianPrior>(p) : std::nullopt;
}

Inputs make_inputs(std::uint64_t seed, pitk::par::ThreadPool& serial) {
  Inputs in;
  la::Rng rng(stream_seed(seed, 0x5E));
  for (int i = 0; i < kPoolProblems; ++i) {
    la::Rng r = rng.split();
    in.small.push_back(kalman::make_paper_benchmark(r, kN, kSmallK));
  }
  for (int i = 0; i < kLongProblems; ++i) {
    la::Rng r = rng.split();
    in.longs.push_back(kalman::make_paper_benchmark(r, kN, kLongK));
  }
  in.prior = kalman::diffuse_prior(kN);
  for (int wp = 0; wp < 2; ++wp) {
    for (const kalman::Problem& p : in.small)
      in.ref_small[wp].push_back(
          engine::solve_with(engine::Backend::Auto, p, prior_if(wp, in.prior), serial).means.back());
    for (const kalman::Problem& p : in.longs)
      in.ref_long[wp].push_back(
          engine::solve_with(engine::Backend::Auto, p, prior_if(wp, in.prior), serial).means.back());
  }
  return in;
}

serve::ServeOptions tier_options() {
  serve::ServeOptions so;  // explicit: never the PITK_* environment
  so.shards = 2;
  so.threads_per_shard = std::max(1u, bench_threads() / 2);
  // While a long track holds its shard ~100 small requests queue behind it;
  // with the default 25/10 ms budgets the batched classes shed in every such
  // window.  This traffic is sized to be served in full, so their budgets
  // match Interactive's.
  so.classes[serve::tenant_class_index(serve::TenantClass::Standard)].max_queue_wait_seconds = 0.05;
  so.classes[serve::tenant_class_index(serve::TenantClass::BestEffort)].max_queue_wait_seconds = 0.05;
  return so;
}

enum Phase { kOpenPlain = 0, kOpenTraced, kLongWindow, kCapacity, kPhases };

struct InFlight {
  std::future<engine::JobResult> fut;
  Clock::time_point due;  ///< scheduled send time (open loop) or send time (closed loop)
  Clock::time_point phase_t0;
  const la::Vector* ref = nullptr;
  double submit_s = 0.0;  ///< time spent inside tier.submit
  int cls = 0;
  bool is_long = false;
  int phase = 0;
};

/// What the collector learned, per phase.
struct PhaseStats {
  std::vector<double> latency;  ///< small requests
  std::vector<double> latency_cls[serve::num_tenant_classes], latency_long;
  std::vector<double> queue_s, solve_s, tier_s;
  /// tier.submit time plus engine solve time: the part of a request that
  /// trace spans sit on (end-to-end latency is set by the flush deadlines).
  std::vector<double> span_cost;
  std::vector<double> done_at;  ///< completion time since the phase start
  std::uint64_t shed[serve::num_tenant_classes] = {};
  std::uint64_t completed = 0, failed = 0, wrong = 0, la_allocs = 0;
  std::uint64_t backend[engine::num_backends] = {};
  double worst = 0.0;
};

class Collector {
 public:
  Collector() : thread_([this] { loop(); }) {}
  Collector(const Collector&) = delete;
  Collector& operator=(const Collector&) = delete;
  ~Collector() { finish(); }

  void push(InFlight f, unsigned shard) {
    heap::Exclude ex;  // deque growth is the benchmark's, not the tier's
    const std::size_t q = shard * kQueuesPerShard + static_cast<std::size_t>(f.cls * 2) +
                          (f.is_long ? 1 : 0);
    outstanding_.fetch_add(1, std::memory_order_acq_rel);
    std::lock_guard<std::mutex> lk(mu_);
    queues_[q].push_back(std::move(f));
  }

  [[nodiscard]] std::uint64_t outstanding() const {
    return outstanding_.load(std::memory_order_acquire);
  }

  /// Stop once everything pushed so far has completed; join.
  void finish() {
    if (!thread_.joinable()) return;
    done_.store(true, std::memory_order_release);
    thread_.join();
  }

  /// Written by the collector thread only; read after finish().
  PhaseStats stats[kPhases];

 private:
  static constexpr std::size_t kQueuesPerShard = 2 * serve::num_tenant_classes;
  static constexpr std::size_t kQueues = 2 * kQueuesPerShard;

  void complete(InFlight& f, Clock::time_point now) {
    PhaseStats& st = stats[f.phase];
    try {
      engine::JobResult jr = f.fut.get();
      const double lat = std::chrono::duration<double>(now - f.due).count();
      const double dev = la::max_abs_diff(jr.result.means.back().span(), f.ref->span());
      st.worst = std::max(st.worst, dev);
      if (!(dev <= kTolerance)) {
        ++st.wrong;
        return;
      }
      ++st.completed;
      if (f.is_long) {
        st.latency_long.push_back(lat);
      } else {
        st.latency.push_back(lat);
        st.latency_cls[f.cls].push_back(lat);
      }
      st.queue_s.push_back(jr.metrics.queue_seconds);
      st.solve_s.push_back(jr.metrics.solve_seconds);
      st.tier_s.push_back(lat - jr.metrics.queue_seconds - jr.metrics.solve_seconds);
      st.span_cost.push_back(f.submit_s + jr.metrics.solve_seconds);
      st.done_at.push_back(std::chrono::duration<double>(now - f.phase_t0).count());
      st.la_allocs += jr.metrics.allocations;
      ++st.backend[engine::backend_index(jr.metrics.backend)];
    } catch (const engine::SolveError& e) {
      if (e.code() == engine::SolveErrorCode::QueueFull)
        ++st.shed[f.cls];
      else
        ++st.failed;
    } catch (...) {
      ++st.failed;
    }
  }

  void loop() {
    heap::Exclude ex;  // the collector's bookkeeping is not the system's
    for (;;) {
      bool progressed = false;
      for (std::size_t q = 0; q < kQueues; ++q) {
        for (;;) {
          InFlight* front = nullptr;
          {
            std::lock_guard<std::mutex> lk(mu_);
            if (queues_[q].empty()) break;
            front = &queues_[q].front();  // only this thread pops: stays valid
          }
          if (front->fut.wait_for(std::chrono::seconds(0)) != std::future_status::ready) break;
          complete(*front, Clock::now());
          {
            std::lock_guard<std::mutex> lk(mu_);
            queues_[q].pop_front();
          }
          outstanding_.fetch_sub(1, std::memory_order_acq_rel);
          progressed = true;
        }
      }
      if (progressed) continue;
      // Nothing ready: block briefly on the oldest outstanding request.
      InFlight* oldest = nullptr;
      {
        std::lock_guard<std::mutex> lk(mu_);
        for (auto& q : queues_)
          if (!q.empty() && (oldest == nullptr || q.front().due < oldest->due))
            oldest = &q.front();
      }
      if (oldest == nullptr) {
        if (done_.load(std::memory_order_acquire)) return;
        std::this_thread::sleep_for(std::chrono::microseconds(20));
        continue;
      }
      (void)oldest->fut.wait_for(std::chrono::microseconds(50));
    }
  }

  std::mutex mu_;
  std::deque<InFlight> queues_[kQueues];
  std::atomic<std::uint64_t> outstanding_{0};
  std::atomic<bool> done_{false};
  std::thread thread_;  // last: loop() uses every member above
};

/// The load generator: tenant handles, inputs and the seeded draws.
struct Generator {
  Generator(serve::ServingTier& t, const Inputs& i, const std::vector<serve::TenantHandle>& h,
            Collector& c, std::uint64_t seed)
      : tier(t), in(i), tenants(h), col(c), draws(seed) {}

  serve::ServingTier& tier;
  const Inputs& in;
  const std::vector<serve::TenantHandle>& tenants;
  Collector& col;
  std::mt19937_64 draws;
  /// Tenants that send the long tracks, cycled so consecutive long tracks
  /// alternate shards and prior/no-prior.
  std::vector<int> long_tenants;
  std::uint64_t longs_sent = 0;
  std::uint64_t la_own = 0;  ///< la:: allocations made copying problems
  std::uint64_t sent[kPhases] = {};
  std::vector<double> late;  ///< open-loop send lateness
  Clock::time_point phase_t0{};

  void send(Clock::time_point due, int phase, bool is_long) {
    int t = static_cast<int>(draws() % kTenants);
    std::size_t pi = static_cast<std::size_t>(draws() % kPoolProblems);
    if (is_long) {
      t = long_tenants[longs_sent % long_tenants.size()];
      pi = (longs_sent / long_tenants.size()) % kLongProblems;
      ++longs_sent;
    }
    const serve::TenantHandle& h = tenants[static_cast<std::size_t>(t)];
    const int wp = sends_prior(t) ? 1 : 0;
    serve::Request req;
    {
      heap::Exclude ex;
      const std::uint64_t la0 = la::aligned_alloc_count_this_thread();
      req.problem = is_long ? in.longs[pi] : in.small[pi];
      req.prior = prior_if(wp, in.prior);
      la_own += la::aligned_alloc_count_this_thread() - la0;
    }
    InFlight f;
    f.due = due;
    f.phase_t0 = phase_t0;
    f.ref = is_long ? &in.ref_long[wp][pi] : &in.ref_small[wp][pi];
    f.cls = serve::tenant_class_index(h.tenant_class());
    f.is_long = is_long;
    f.phase = phase;
    f.submit_s = time_call([&] {
      TraceSpan s("bench.tier_submit");
      f.fut = tier.submit(h, std::move(req));
    });
    col.push(std::move(f), h.shard());
    ++sent[phase];
  }

  /// Poisson arrivals at kRate for `seconds`, every `long_every`-th request
  /// a long track (0: none).  Tracing, when `trace_window` > 0, covers only
  /// that many seconds so the per-thread trace rings never fill.
  void open_loop(double seconds, int phase, std::uint64_t long_every, double trace_window) {
    std::exponential_distribution<double> gap(kRate);
    const Clock::time_point t0 = Clock::now();
    phase_t0 = t0;
    const auto after = [t0](double s) {
      return t0 + std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(s));
    };
    const Clock::time_point end = after(seconds), trace_end = after(trace_window);
    if (trace_window > 0.0) pitk::obs::trace::set_enabled(true);
    Clock::time_point due = t0;
    for (std::uint64_t j = 1; due < end; ++j) {
      std::this_thread::sleep_until(due);
      const Clock::time_point now = Clock::now();
      if (trace_window > 0.0 && now >= trace_end) pitk::obs::trace::set_enabled(false);
      {
        heap::Exclude ex;
        late.push_back(std::chrono::duration<double>(now - due).count());
      }
      send(due, phase, long_every > 0 && j % long_every == 0);
      due += std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(gap(draws)));
    }
    pitk::obs::trace::set_enabled(false);
  }

  /// Closed loop with kOutstanding small requests in flight for `seconds`.
  void capacity(double seconds) {
    const Clock::time_point t0 = Clock::now();
    phase_t0 = t0;
    const Clock::time_point end =
        t0 + std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(seconds));
    for (Clock::time_point now = t0; now < end; now = Clock::now()) {
      if (col.outstanding() >= static_cast<std::uint64_t>(kOutstanding)) {
        std::this_thread::sleep_for(std::chrono::microseconds(20));
        continue;
      }
      send(now, kCapacity, false);
    }
  }
};

void add_percentiles(Report& r, const std::string& name, const std::vector<double>& v) {
  r.add(name + ".p50", quantile(v, 0.5), "s", v.size());
  r.add(name + ".p99", quantile(v, 0.99), "s", v.size());
}

}  // namespace

void run_serve_mixed(const Options& o, Report& r) {
  pitk::par::ThreadPool serial(1);
  Inputs in;
  std::unique_ptr<serve::ServingTier> tier;
  std::vector<serve::TenantHandle> tenants;
  const double setup = median_setup(kSetupReps, [&] {
    in = make_inputs(o.seed, serial);
    tier.reset();
    tier = std::make_unique<serve::ServingTier>(tier_options());
    tenants.clear();
    for (int t = 0; t < kTenants; ++t)
      tenants.push_back(tier->tenant("tenant-" + std::to_string(t), class_of(t)));
  });
  r.size("n", kN);
  r.size("k", kSmallK);
  r.size("k_long", kLongK);
  r.size("long_every", kLongEvery);
  r.size("shards", tier->num_shards());
  r.size("threads_per_shard", tier->options().threads_per_shard);
  r.size("rate_per_s", kRate);
  r.size("outstanding", kOutstanding);

  Collector col;
  Generator gen(*tier, in, tenants, col, stream_seed(o.seed, 0xA7));
  for (int wp : {1, 0})
    for (unsigned s = 0; s < tier->num_shards(); ++s)
      for (int t = 0; t < kTenants; ++t)
        if (tenants[static_cast<std::size_t>(t)].shard() == s && (sends_prior(t) ? 1 : 0) == wp) {
          gen.long_tenants.push_back(t);
          break;
        }

  // Warm-up: every tenant a few times, and one long track per shard.
  {
    std::vector<std::future<engine::JobResult>> warm;
    for (int i = 0; i < 4 * kTenants; ++i) {
      const int t = i % kTenants;
      serve::Request req;
      req.problem = in.small[static_cast<std::size_t>(i % kPoolProblems)];
      req.prior = prior_if(sends_prior(t), in.prior);
      warm.push_back(tier->submit(tenants[static_cast<std::size_t>(t)], std::move(req)));
    }
    for (unsigned s = 0; s < tier->num_shards(); ++s) {
      serve::Request req;
      req.problem = in.longs[s % kLongProblems];
      warm.push_back(tier->submit(tenants[static_cast<std::size_t>(gen.long_tenants[s])], std::move(req)));
    }
    for (auto& f : warm) (void)f.get();
  }

  std::vector<pitk::par::ThreadPool*> pools;
  for (unsigned s = 0; s < tier->num_shards(); ++s) pools.push_back(&tier->shard_engine(s).pool());
  PoolMeter pool_meter(pools);
  AllocMeter allocs;
  const double open_s = 0.45 * o.seconds, long_s = 0.15 * o.seconds, cap_s = 0.4 * o.seconds;
  serve::TierStats before{}, after{};
  if (o.trace) {
    // Untraced block first (the overhead baseline), then the traced block
    // with the heap counter on and spans for its first two seconds.
    gen.open_loop(0.4 * open_s, kOpenPlain, 0, 0.0);
    before = tier->stats();
    heap::set_counting(true);
    gen.la_own = 0;
    gen.late.clear();
    allocs.start();
    pool_meter.start();
    gen.open_loop(0.6 * open_s, kOpenTraced, 0, 2.0);
    pool_meter.stop();
    allocs.stop();
    allocs.exclude_la(gen.la_own);
    after = tier->stats();
  } else {
    gen.open_loop(open_s, kOpenPlain, 0, 0.0);
  }
  const std::vector<double> late = gen.late;
  gen.open_loop(long_s, kLongWindow, kLongEvery, 0.0);
  gen.capacity(cap_s);
  col.finish();
  heap::set_counting(false);

  // Correctness accounting over every request sent.
  double worst = 0.0;
  for (int ph = 0; ph < kPhases; ++ph) {
    const PhaseStats& st = col.stats[ph];
    r.attempted += gen.sent[ph];
    for (std::uint64_t s : st.shed) r.failed += s;
    r.failed += st.failed + st.wrong;
    worst = std::max(worst, st.worst);
  }
  const PhaseStats& open = col.stats[o.trace ? kOpenTraced : kOpenPlain];
  const PhaseStats& lw = col.stats[kLongWindow];
  const PhaseStats& cap = col.stats[kCapacity];
  std::uint64_t cap_in_window = 0;
  for (double t : cap.done_at)
    if (t <= cap_s) ++cap_in_window;
  r.add("check.max_abs_diff", worst, "abs", r.attempted);
  r.add("serve.interactive.latency_p99_s", quantile(open.latency_cls[0], 0.99), "s",
        open.latency_cls[0].size());
  r.add("serve.long.latency_p50_s", quantile(lw.latency_long, 0.5), "s", lw.latency_long.size());
  r.add("serve.long_window.latency_p99_s", quantile(lw.latency, 0.99), "s", lw.latency.size());
  r.add("serve.capacity.latency_p99_s", quantile(cap.latency, 0.99), "s", cap.latency.size());
  r.add("loadgen.lateness_p99_s", quantile(late, 0.99), "s", late.size());

  if (!o.trace) {
    r.add("setup_s", setup, "s", kSetupReps);
    r.add("latency_p50_s", quantile(open.latency, 0.5), "s", open.latency.size());
    r.add("latency_p99_s", quantile(open.latency, 0.99), "s", open.latency.size());
    r.add("serial_p50_s", quantile(open.solve_s, 0.5), "s", open.solve_s.size());
    r.add("throughput_per_s", static_cast<double>(cap_in_window) / cap_s, "1/s", cap_in_window);
    return;
  }

  const PhaseStats& plain = col.stats[kOpenPlain];
  const double requests = static_cast<double>(gen.sent[kOpenTraced]);
  r.add("trace.overhead_frac",
        quantile(open.span_cost, 0.5) / quantile(plain.span_cost, 0.5) - 1.0, "ratio",
        open.span_cost.size());
  add_percentiles(r, "engine.queue_s", open.queue_s);
  add_percentiles(r, "engine.solve_s", open.solve_s);
  add_percentiles(r, "serve.tier_s", open.tier_s);
  r.add("serve.interactive.latency_p50_s", quantile(open.latency_cls[0], 0.5), "s",
        open.latency_cls[0].size());
  r.add("serve.standard.latency_p99_s", quantile(open.latency_cls[1], 0.99), "s",
        open.latency_cls[1].size());
  r.add("serve.besteffort.latency_p99_s", quantile(open.latency_cls[2], 0.99), "s",
        open.latency_cls[2].size());
  for (int c = 0; c < serve::num_tenant_classes; ++c) {
    const double sub = static_cast<double>(after.classes[c].submitted - before.classes[c].submitted);
    r.add(std::string("serve.shed_frac.") + serve::tenant_class_name(static_cast<serve::TenantClass>(c)),
          sub > 0.0 ? static_cast<double>(open.shed[c]) / sub : 0.0, "ratio",
          static_cast<std::size_t>(sub));
  }
  const std::uint64_t deadline_flushes = after.deadline_flushes - before.deadline_flushes;
  const std::uint64_t flushes = deadline_flushes + (after.size_flushes - before.size_flushes);
  r.add("serve.deadline_flush_frac",
        flushes > 0 ? static_cast<double>(deadline_flushes) / static_cast<double>(flushes) : 0.0,
        "ratio", flushes);
  // Routing guard over the traced block plus the long window.
  const double routed = static_cast<double>(open.completed + lw.completed);
  for (engine::Backend b : {engine::Backend::Rts, engine::Backend::PaigeSaunders,
                            engine::Backend::OddEven}) {
    const int bi = engine::backend_index(b);
    r.add(std::string("engine.backend.") + engine::backend_info(b).name + ".frac",
          static_cast<double>(open.backend[bi] + lw.backend[bi]) / routed, "ratio",
          open.completed + lw.completed);
  }
  r.add("engine.la_allocs_per_request",
        static_cast<double>(open.la_allocs) / static_cast<double>(open.completed), "count",
        open.completed);
  r.add("la.allocs_per_op", static_cast<double>(allocs.la()) / requests, "count",
        gen.sent[kOpenTraced]);
  r.add("mem.heap_allocs_per_op", static_cast<double>(allocs.heap()) / requests, "count",
        gen.sent[kOpenTraced]);
  r.add("parallel.pool.utilization", pool_meter.utilization(), "ratio", gen.sent[kOpenTraced]);
  r.add("parallel.pool.tasks_per_op", static_cast<double>(pool_meter.tasks()) / requests, "count",
        gen.sent[kOpenTraced]);
  finish_trace(o, r);
  la_kernel_metrics(kN, o.seed, r);
}

}  // namespace pitk_bench
