#pragma once

/// \file engine.hpp
/// SmootherEngine: batched multi-tenant execution of smoothing jobs.
///
/// A production deployment does not run one smoother at a time — it serves
/// many independent tracking/navigation problems concurrently.  The engine
/// owns one shared work-stealing pool and multiplexes two kinds of tenants
/// over it:
///
///  - batch jobs: whole `kalman::Problem`s submitted for smoothing, each
///    returning a `std::future<JobResult>`;
///  - streaming sessions (`engine::Session`): long-lived evolve/observe
///    tenants wrapping `kalman::IncrementalFilter`, with on-demand smoothing.
///
/// Scheduling is two-level.  Small jobs execute as a single pool task from
/// start to finish (throughput: B jobs ride B tasks with zero intra-job
/// synchronization, the engine analogue of the paper's observation that
/// per-column tasks are perfectly parallel).  Large jobs run their solver
/// with intra-job `parallel_for` on the *same* pool (latency: one big job
/// fans out across idle lanes).  Both paths place exactly one logical lane
/// of work per worker, so mixing them never oversubscribes.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "core/gauss_newton.hpp"
#include "engine/backend.hpp"
#include "engine/control.hpp"
#include "kalman/model.hpp"
#include "parallel/thread_pool.hpp"

namespace pitk::io {
class SessionStore;
}

namespace pitk::engine {

class Session;
class NonlinearSession;
struct SolverCache;
struct RecoveredSessions;  // engine/durable.hpp

/// What submit does when the bounded queue is full.
enum class QueuePolicy {
  /// Fail the job's future immediately with SolveErrorCode::QueueFull — the
  /// overloaded engine sheds load at the door instead of melting its p99.
  Reject,
  /// Apply backpressure: the submitting thread helps drain the queue (it
  /// runs queued jobs itself) for up to max_queue_wait_seconds before
  /// falling back to Reject.  Bounds the queue without dropping work as
  /// long as the submitters collectively keep up.
  Block,
};

struct EngineOptions {
  /// Pool concurrency; 0 means par::ThreadPool::default_concurrency()
  /// (which honors the PITK_THREADS environment variable).
  unsigned threads = 0;
  /// parallel_for grain for intra-parallel backends (the paper's block size).
  la::index grain = par::default_grain;
  /// Jobs whose estimated_flops() falls below this cut run as one whole-job
  /// pool task; larger jobs additionally parallelize inside themselves.
  /// Negative (the default) means "derive from the measured kernel rate at
  /// construction" (calibrated_small_job_flops()); 0 forces every job onto
  /// the intra-parallel path, huge values force whole-job execution.
  double small_job_flops = -1.0;
  /// Bounded admission: jobs submitted-but-not-yet-started may never exceed
  /// this count (0 = unbounded, the pre-robustness behavior).  Overflow is
  /// handled per queue_policy and counted in EngineStats::jobs_rejected.
  std::size_t max_queued_jobs = 0;
  QueuePolicy queue_policy = QueuePolicy::Reject;
  /// Block policy only: the longest one submit may spend helping the queue
  /// drain before giving up with QueueFull.
  double max_queue_wait_seconds = 0.05;
};

/// Execution options shared by every way of handing work to the engine —
/// linear jobs, nonlinear jobs, and the serving tier's tenant requests.
/// This is the one place the deadline/timeout/cancel/into/backend plumbing
/// is declared; JobOptions and NonlinearJobOptions extend it with their
/// job-kind-specific knobs.
struct SubmitOptions {
  Backend backend = Backend::Auto;
  /// When set, the solver writes means/covariances directly into this
  /// caller-owned storage (capacity-reusing: warm storage from a previous
  /// same-shaped job is refilled with zero heap allocations) and
  /// JobResult::result is left empty.  The storage must stay untouched
  /// until the job's future is ready, with one distinct storage per job in
  /// flight.  This is the serving pattern for tenants that re-smooth the
  /// same track shape repeatedly.
  SmootherResult* into = nullptr;
  /// Absolute deadline: a job still queued past it completes with
  /// SolveErrorCode::DeadlineExceeded without solving; one already running
  /// fails at its next stage checkpoint.  When `timeout` is also set the
  /// earlier of the two wins.
  std::optional<std::chrono::steady_clock::time_point> deadline;
  /// Relative flavor of the same deadline, resolved against the submit time.
  std::optional<std::chrono::duration<double>> timeout;
  /// Cooperative cancellation: flip the token to abandon the job (checked at
  /// dequeue and at stage checkpoints; the future fails with
  /// SolveErrorCode::Cancelled).  One token may be shared by many jobs.
  std::shared_ptr<CancelToken> cancel;
};

/// Per-job execution options of a linear smoothing job.
///
/// The deadline/timeout/cancel/into/backend members now live in the
/// SubmitOptions base (deprecation note: code that spelled out the full
/// shared set on JobOptions keeps compiling unchanged — the fields moved,
/// they did not change name or meaning — but new code that only needs the
/// shared subset should take a SubmitOptions).
struct JobOptions : SubmitOptions {
  bool compute_covariance = true;
  /// Prior on u_0; required by the conventional backends (rts/associative),
  /// folded in as a pseudo-observation by the QR backends.
  std::optional<GaussianPrior> prior;
};

/// One nonlinear tenant: the model plus the initial trajectory guess
/// (size k+1; e.g. an extended-KF pass or the observations mapped to state
/// space).
struct NonlinearJob {
  kalman::NonlinearModel model;
  std::vector<la::Vector> init;
};

/// Per-job options of a nonlinear (Gauss-Newton/LM) job.  The shared
/// backend/into/deadline/timeout/cancel plumbing lives in the SubmitOptions
/// base; nonlinear jobs additionally checkpoint deadline/cancel between
/// Gauss-Newton outer iterations.  `backend` here serves the inner
/// linearized solves; Auto resolves via select_nonlinear_backend (odd-even
/// for long tracks on a parallel pool, Paige-Saunders otherwise).
struct NonlinearJobOptions : SubmitOptions {
  /// Outer-loop knobs: iteration budget, tolerance, Levenberg-Marquardt
  /// damping, final_covariance (one covariance-enabled pass over the final
  /// linearization, filling JobResult::result.covariances).  `gn.linear.grain`
  /// governs the relinearization sweep AND the inner solves, exactly as in
  /// direct gauss_newton_smooth.
  kalman::GaussNewtonOptions gn;
  /// Backends that require a prior (rts, associative) get a synthetic
  /// zero-mean prior with this variance on the step-0 *correction*: pure
  /// step damping that leaves the Gauss-Newton fixed point in place.  Large
  /// enough to be ~1e6x weaker than typical measurement weights, small
  /// enough that covariance-form filtering keeps full precision (a diffuse
  /// 1e8-style variance costs ~8 digits in (I - KG)P and shows up as a
  /// ~1e-9 noise floor in the converged states).
  double delta_prior_variance = 1e4;
};

/// Default tolerance of the truncated delta re-smooth (see
/// SessionOptions::resmooth_tolerance): the per-pass neglected correction is
/// bounded per state by this value, and the session forces a full backward
/// pass every few hundred truncated ones, so the worst-case accumulated
/// deviation stays well below the library-wide 1e-10 agreement bar.
inline constexpr double kDefaultResmoothTolerance = 1e-13;

/// Options for opening a streaming session — ONE struct for all four
/// previous entry points.  Nonlinear-ness is the open_session *overload*
/// (pass a NonlinearModel + initial guess); durability is the orthogonal
/// `durable(store, id)` option here.  Defaults reproduce the plain
/// in-memory linear/nonlinear sessions exactly.
struct SessionOptions {
  /// Non-null: journal every mutation to `store` under `id` (write-ahead,
  /// with periodic snapshot compaction) so the session survives a crash and
  /// recover_all() can rebuild it.  The store must outlive the open call
  /// only — the journal copies the durability options and paths it needs.
  io::SessionStore* store = nullptr;
  std::string id;
  /// Nonlinear sessions only: backend + Gauss-Newton knobs for every smooth
  /// (NonlinearJobOptions::into must stay null — it is per smooth_async
  /// call).  Ignored by linear sessions.
  NonlinearJobOptions nonlinear;
  /// Linear sessions: serve every re-smooth through the full spliced
  /// backward pass (bit-for-bit the pre-truncation behavior) instead of the
  /// truncated delta pass.  Also forced process-wide by PITK_RESMOOTH_EXACT=1.
  bool exact = false;
  /// Linear sessions: per-state bound (2-norm for means, Frobenius for
  /// covariances) on the correction a truncated delta re-smooth may neglect.
  /// Must be positive; larger values truncate earlier (faster appends,
  /// looser agreement with the exact pass).
  double resmooth_tol = kDefaultResmoothTolerance;

  /// Builder conveniences so call sites read as a sentence:
  ///   eng.open_session(n0, SessionOptions{}.durable(store, "tenant-7"));
  SessionOptions& durable(io::SessionStore& s, std::string session_id) {
    store = &s;
    id = std::move(session_id);
    return *this;
  }
  SessionOptions& gauss_newton(const kalman::GaussNewtonOptions& gn) {
    nonlinear.gn = gn;
    return *this;
  }
  SessionOptions& backend(Backend b) {
    nonlinear.backend = b;
    return *this;
  }
  SessionOptions& exact_resmooth() {
    exact = true;
    return *this;
  }
  SessionOptions& resmooth_tolerance(double tol) {
    resmooth_tol = tol;
    return *this;
  }
};

/// How recover_all() rebuilds sessions from a SessionStore.  Nonlinear
/// journals record the model *history* only — the callbacks are code, not
/// data — so recovery re-binds them through `nonlinear_model`: given the
/// session id, return a NonlinearModel with the same callbacks the session
/// was opened with (k/dims/obs are overwritten from the journal).  Linear
/// sessions need nothing here.
struct RecoveryOptions {
  std::function<kalman::NonlinearModel(const std::string&)> nonlinear_model;
  /// Options for recovered nonlinear sessions (backend, GN knobs).
  NonlinearJobOptions nonlinear_opts;
};

/// Measurements taken around one job.
struct JobMetrics {
  Backend backend = Backend::Auto;  ///< backend actually used
  double queue_seconds = 0.0;       ///< submit -> execution start
  double solve_seconds = 0.0;       ///< execution start -> finish
  bool intra_parallel = false;      ///< took the large-job path
  la::index num_states = 0;
  /// Peak bytes of the executing worker's la::Workspace arena after the job:
  /// observable evidence that batched jobs reuse one warm arena per worker
  /// (the value plateaus instead of scaling with jobs served).
  std::size_t workspace_high_water_bytes = 0;
  /// Matrix/vector/workspace buffer allocations performed by the executing
  /// worker during this job (la::aligned_alloc_count_this_thread delta).
  /// Drops to zero on a warm worker solving into warm storage.  Allocations
  /// made by intra-parallel fan-out on *other* workers are charged to them,
  /// not to this job, and a job body nested inside this job's parallel_for
  /// join is charged separately (each allocation counts toward exactly one
  /// job).
  std::uint64_t allocations = 0;
  /// Nonlinear (Gauss-Newton/LM) jobs: outer iterations run (including LM
  /// rejections), whether the outer loop converged, and the final weighted
  /// nonlinear cost.  Linear jobs leave these at 0/false/0.
  la::index outer_iterations = 0;
  bool nonlinear_converged = false;
  double nonlinear_final_cost = 0.0;
  /// Numerical-failure recovery: true when the first solve produced a
  /// non-finite result (or threw) and the job was rescued by one retry on
  /// the degradation ladder.  `backend` then reports the backend that
  /// actually served the result and `fallback_backend` repeats it; the
  /// originally selected backend is the one recorded by the job span.
  bool retried = false;
  Backend fallback_backend = Backend::Auto;  ///< Auto unless retried
};

struct JobResult {
  SmootherResult result;
  JobMetrics metrics;
};

/// Aggregate counters since engine construction (one snapshot per stats()).
struct EngineStats {
  std::uint64_t jobs_submitted = 0;
  std::uint64_t jobs_completed = 0;
  /// Completed exceptionally for any reason other than the deadline/cancel/
  /// admission taxonomy below (solver exceptions, unsupported backends,
  /// unrescued numerical failures).
  std::uint64_t jobs_failed = 0;
  std::uint64_t jobs_small = 0;    ///< whole-job path
  std::uint64_t jobs_large = 0;    ///< intra-parallel path
  /// Robustness taxonomy: QueueFull rejections at submit, jobs that hit
  /// their deadline (at dequeue or mid-solve), jobs cancelled via their
  /// token, and jobs rescued by the numerical-fallback retry (the rescued
  /// job also counts in jobs_completed; an unrescued one in jobs_failed).
  std::uint64_t jobs_rejected = 0;
  std::uint64_t jobs_deadline_exceeded = 0;
  std::uint64_t jobs_cancelled = 0;
  std::uint64_t jobs_retried = 0;
  /// Largest number of jobs simultaneously submitted-but-not-started; with
  /// max_queued_jobs bounded this never exceeds the bound.
  std::uint64_t queue_high_water = 0;
  double total_queue_seconds = 0.0;
  double total_solve_seconds = 0.0;
  /// Sum of JobMetrics::allocations over completed jobs; divided by
  /// jobs_completed this is the engine-wide allocations-per-job figure (it
  /// plateaus at ~0 once every worker's SolverCache is warm).
  std::uint64_t total_allocations = 0;
  /// Completed jobs per concrete backend, in registry order
  /// (index with backend_index()).
  std::uint64_t per_backend[num_backends] = {0, 0, 0, 0, 0};
  /// Completed jobs that ran a Gauss-Newton/LM outer loop, and the outer
  /// iterations they spent in total (inner linearized solves ride the same
  /// pool as everything else and are not separate jobs).
  std::uint64_t nonlinear_jobs = 0;
  std::uint64_t total_outer_iterations = 0;
};

class SmootherEngine {
 public:
  explicit SmootherEngine(EngineOptions opts = {});

  SmootherEngine(const SmootherEngine&) = delete;
  SmootherEngine& operator=(const SmootherEngine&) = delete;

  /// Drains all outstanding jobs before tearing the pool down.  Sessions
  /// obtained from open_session() must not outlive the engine.
  ~SmootherEngine();

  /// Enqueue one smoothing job; the future completes with the result and
  /// per-job metrics, or with the solver's exception (e.g. when a pinned
  /// backend cannot express the problem).
  ///
  /// Futures become ready without any help from the consumer, but a thread
  /// that merely blocks in future::get() contributes nothing: call
  /// wait_idle() before draining a batch so the calling thread works as one
  /// of the pool's lanes (the pool counts it in concurrency()).  Never
  /// block on a job future from inside a pool task — request there, get()
  /// outside.
  [[nodiscard]] std::future<JobResult> submit(Problem p, JobOptions opts = {});

  /// Enqueue a batch of independent jobs sharing one option set.
  [[nodiscard]] std::vector<std::future<JobResult>> submit_batch(
      std::vector<Problem> problems, const JobOptions& opts = {});

  /// Enqueue one nonlinear (Gauss-Newton/LM) job: the whole outer loop runs
  /// as a single engine job whose inner linearized solves go through the
  /// backend registry and the executing worker's warm SolverCache, so the
  /// outer iterations of many nonlinear tenants interleave on the shared
  /// pool instead of each tenant monopolizing it.  The future's result
  /// carries the final smoothed states (plus covariances when
  /// gn.final_covariance); metrics report outer_iterations /
  /// nonlinear_converged / nonlinear_final_cost.
  [[nodiscard]] std::future<JobResult> submit_nonlinear(NonlinearJob job,
                                                        NonlinearJobOptions opts = {});

  /// Enqueue a batch of independent nonlinear jobs sharing one option set
  /// (opts.into must be null — one storage per job in flight; use
  /// submit_nonlinear per job for into-serving).
  [[nodiscard]] std::vector<std::future<JobResult>> submit_nonlinear_batch(
      std::vector<NonlinearJob> jobs, const NonlinearJobOptions& opts = {});

  /// Open a streaming evolve/observe session starting at a state of
  /// dimension n0.  With opts.store set, every evolve/observe/reset appends
  /// to a write-ahead journal `<id>.pitkj` in the store before returning,
  /// with periodic snapshot compaction, so a crashed process can rebuild
  /// the session with recover_all().  Overwrites any previous journal for
  /// the id.  Throws on I/O failure (creating the journal, or — after open —
  /// the first failed append; the session then keeps serving undurably).
  [[nodiscard]] Session open_session(la::index n0, const SessionOptions& opts = {});

  /// Open a streaming *nonlinear* tenant: observations arrive step by step
  /// through advance(), and each smooth runs a Gauss-Newton/LM pass over
  /// everything seen so far, warm-started from the session's cached smoothed
  /// means.  `model` seeds the callbacks and the (possibly pre-filled)
  /// history; `u0` is the initial guess for state 0 used before the first
  /// smooth; opts.nonlinear carries the backend + Gauss-Newton knobs.  With
  /// opts.store set, advance() journals the observation stream and
  /// compaction snapshots the history plus the last smoothed means as a
  /// warm start (same durability contract as the linear overload).
  [[nodiscard]] NonlinearSession open_session(kalman::NonlinearModel model, la::Vector u0,
                                              const SessionOptions& opts = {});

  /// Reopen every journal in `store` and rebuild its session: scan the chunk
  /// file (truncating a torn tail), restore the snapshot if one was
  /// compacted, replay the journal tail through the normal append path, and
  /// reattach the journal for further durable appends.  Per-session failures
  /// (corrupt journal, missing nonlinear_model hook) are collected in
  /// RecoveredSessions::failed — one bad tenant never blocks the rest.  The
  /// next smooth() of a recovered session agrees with an uninterrupted run.
  [[nodiscard]] RecoveredSessions recover_all(io::SessionStore& store,
                                              const RecoveryOptions& opts = {});

  /// Block until every submitted job has finished, helping the pool while
  /// waiting (safe to call from anywhere, including pool workers).
  void wait_idle();

  [[nodiscard]] EngineStats stats() const;
  /// Jobs submitted but not yet started, right now (lock-free snapshot).
  /// The serving tier's admission control multiplies this by the measured
  /// per-job solve time to bound estimated queue wait per tenant class.
  [[nodiscard]] std::uint64_t queued_jobs() const noexcept {
    return queued_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] unsigned concurrency() const noexcept { return pool_.concurrency(); }
  [[nodiscard]] par::ThreadPool& pool() noexcept { return pool_; }

 private:
  friend class Session;
  friend class NonlinearSession;

  using Clock = std::chrono::steady_clock;

  /// Deadline/cancellation a job carries into launch(), already resolved
  /// (deadline = min of the absolute and relative forms at submit time).
  struct LaunchControl {
    std::optional<Clock::time_point> deadline;
    std::shared_ptr<CancelToken> cancel;
  };

  /// Common path for batch jobs and session smooths: admit against the
  /// bounded queue, then run `body` (with the shared pool on the large path,
  /// an inline serial pool on the small one) against the executing worker's
  /// SolverCache, writing into `into` when set (else into a fresh result
  /// moved to the future); time it, account it, fulfill the future.  A job
  /// past its deadline or cancelled at dequeue completes with the matching
  /// SolveError without running the body.  The body may fill the nonlinear
  /// fields of the metrics it is handed; everything else is measured by the
  /// engine.
  [[nodiscard]] std::future<JobResult> launch(
      std::function<void(par::ThreadPool&, SolverCache&, SmootherResult&, JobMetrics&)> body,
      Backend chosen, bool large, la::index num_states, SmootherResult* into,
      LaunchControl ctl = {});

  /// Reserve one bounded-queue slot (CAS, so the queue depth can never
  /// exceed max_queued_jobs); Block policy helps the pool drain before
  /// giving up.  True when admitted.
  [[nodiscard]] bool admit_one();

  /// The executing thread's solver cache: the engine-owned per-worker cache
  /// for pool workers, a thread-local one for external threads that execute
  /// jobs while helping in wait_idle().
  [[nodiscard]] SolverCache& worker_cache();

  EngineOptions opts_;
  std::vector<std::unique_ptr<SolverCache>> caches_;  ///< one per pool worker
  std::atomic<std::uint64_t> outstanding_{0};
  /// Jobs submitted but not yet started; bounded by max_queued_jobs when set.
  std::atomic<std::uint64_t> queued_{0};
  mutable std::mutex stats_mu_;
  EngineStats stats_;
  // The pools are declared last on purpose: destruction joins the workers
  // first, so a job's final notify/stat update can never touch an already-
  // destroyed member.
  par::ThreadPool pool_;
  par::ThreadPool serial_pool_{1};  ///< inline executor for whole-job tasks
};

}  // namespace pitk::engine
