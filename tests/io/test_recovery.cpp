/// \file test_recovery.cpp
/// The crash-consistency matrix for durable sessions.
///
/// The contract under test: a process killed at ANY byte of its journal —
/// between appends, mid-append, mid-compaction — recovers via
/// SmootherEngine::recover_all() to a session whose next smooth() agrees
/// with an uninterrupted run, across snapshot/journal-tail/torn-tail file
/// states, for linear and nonlinear sessions, with the nonlinear matrix run
/// once per inner backend.  Crashes are emulated by copying the live
/// journal's on-disk bytes (what a kill -9 would leave) into a second store
/// and recovering there; truncation sweeps emulate torn writes at every
/// boundary.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <functional>
#include <string>
#include <vector>

#include "engine/durable.hpp"
#include "engine/engine.hpp"
#include "engine/nonlinear_session.hpp"
#include "engine/session.hpp"
#include "fault/fault.hpp"
#include "io/chunk.hpp"
#include "io/journal.hpp"
#include "io/session_store.hpp"
#include "kalman/simulate.hpp"
#include "test_util.hpp"

namespace pitk::engine {
namespace {

namespace fs = std::filesystem;
using kalman::CovFactor;
using la::index;
using la::Matrix;
using la::Rng;
using la::Vector;

/// A fresh store under TempDir (stale files from earlier runs removed).
io::SessionStore fresh_store(const std::string& name, la::index compact_every = 0,
                             io::FlushPolicy flush = io::FlushPolicy::EveryAppend) {
  io::DurabilityOptions o;
  o.dir = testing::TempDir() + "/pitk_recovery/" + name;
  o.flush = flush;
  o.compact_every = compact_every;
  fs::remove_all(o.dir);
  return io::SessionStore(o);
}

/// Simulated kill -9: duplicate the journal's current on-disk bytes (and
/// nothing else — buffered bytes died with the process) into `crash_store`.
void crash_copy(const io::SessionStore& live, const io::SessionStore& crash,
                const std::string& id) {
  fs::copy_file(live.path_for(id), crash.path_for(id), fs::copy_options::overwrite_existing);
}

/// The journal-record view of a problem: one closure per evolve/observe in
/// stream order, so tests can replay any prefix into any session.
std::vector<std::function<void(Session&)>> ops_of(const kalman::Problem& p) {
  std::vector<std::function<void(Session&)>> ops;
  for (index i = 0; i < p.num_states(); ++i) {
    const kalman::TimeStep& step = p.step(i);
    if (step.evolution) {
      const kalman::Evolution& e = *step.evolution;
      const index n = step.n;
      if (e.identity_h())
        ops.push_back([e](Session& s) { s.evolve(e.F, e.c, e.noise); });
      else
        ops.push_back([e, n](Session& s) { s.evolve_rect(n, e.H, e.F, e.c, e.noise); });
    }
    if (step.observation) {
      const kalman::Observation& ob = *step.observation;
      ops.push_back([ob](Session& s) { s.observe(ob.G, ob.o, ob.noise); });
    }
  }
  return ops;
}

/// Byte offsets after the header and after each whole chunk of `path`.
std::vector<std::uint64_t> chunk_boundaries(const std::string& path) {
  const io::ScanResult r = io::scan_chunk_file(path);
  std::vector<std::uint64_t> b{io::kFileHeaderSize};
  for (const io::ChunkView& c : r.chunks)
    b.push_back(b.back() + io::kChunkOverhead + c.payload.size());
  return b;
}

void truncate_to(const std::string& src, const std::string& dst, std::uint64_t cut) {
  std::ifstream is(src, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(is)), std::istreambuf_iterator<char>());
  ASSERT_LE(cut, bytes.size());
  std::ofstream os(dst, std::ios::binary | std::ios::trunc);
  os.write(bytes.data(), static_cast<std::streamsize>(cut));
}

kalman::Problem general_problem(Rng& rng, index k) {
  test::RandomProblemSpec spec;
  spec.k = k;
  spec.n_min = 2;
  spec.n_max = 4;
  spec.varying_dims = true;
  spec.rectangular_h = true;
  spec.obs_probability = 0.7;
  spec.dense_covariances = true;
  return test::random_problem(rng, spec);
}

TEST(Recovery, LinearKillAtEveryByte) {
  // The full matrix, exhaustively, on a small track: truncate the journal at
  // EVERY byte offset and recover.  At each cut the session must come back
  // with exactly the operations whose final byte reached disk, and its
  // smooth must match a plain session fed the same prefix to 1e-10.
  Rng rng(0xD0C1);
  const kalman::Problem p = general_problem(rng, 6);
  const auto ops = ops_of(p);

  SmootherEngine eng({.threads = 2});
  io::SessionStore live = fresh_store("every_byte_live");
  io::SessionStore crash = fresh_store("every_byte_crash");
  {
    Session s = eng.open_session(p.step(0).n, SessionOptions{}.durable(live, "s1"));
    for (const auto& op : ops) op(s);
  }  // destroying the handle closes the journal; the bytes are already flushed

  const std::vector<std::uint64_t> bounds = chunk_boundaries(live.path_for("s1"));
  ASSERT_EQ(bounds.size(), ops.size() + 2);  // header + open chunk + one per op
  const std::uint64_t file_size = bounds.back();

  for (std::uint64_t cut = 0; cut <= file_size; ++cut) {
    truncate_to(live.path_for("s1"), crash.path_for("s1"), cut);
    RecoveredSessions rec = eng.recover_all(crash);
    // Count whole chunks on disk at this cut.
    std::size_t whole = 0;
    while (whole + 1 < bounds.size() && bounds[whole + 1] <= cut) ++whole;
    if (whole == 0) {
      // Nothing replayable (not even the open record): reported, not silently
      // resurrected as an empty session.
      ASSERT_EQ(rec.failed.size(), 1u) << cut;
      EXPECT_TRUE(rec.linear.empty()) << cut;
      continue;
    }
    ASSERT_EQ(rec.linear.size(), 1u) << cut;
    ASSERT_TRUE(rec.failed.empty()) << cut;
    Session& r = rec.linear[0].second;
    const std::size_t got_ops = whole - 1;  // minus the open chunk

    // Compare against a plain session fed the same op prefix.
    Session ref = eng.open_session(p.step(0).n);
    for (std::size_t i = 0; i < got_ops; ++i) ops[i](ref);
    EXPECT_EQ(r.current_step(), ref.current_step()) << cut;
    EXPECT_EQ(r.current_dim(), ref.current_dim()) << cut;
    // Full smooth on a sample of cuts (got_ops >= 1 keeps the prefix
    // anchored: the first op is the full-rank step-0 observation).
    if (got_ops >= 1 && (cut == file_size || cut % 3 == 0)) {
      const SmootherResult a = r.smooth(true);
      const SmootherResult b = ref.smooth(true);
      test::expect_means_near(a.means, b.means, 1e-10, "cut " + std::to_string(cut));
      test::expect_covs_near(a.covariances, b.covariances, 1e-10,
                             "cut " + std::to_string(cut));
    }
  }
}

TEST(Recovery, LinearSnapshotCompactionRoundTrip) {
  // With compaction armed the journal periodically collapses to one snapshot
  // chunk + a short tail; recovery from every post-compaction file state
  // must still reproduce the uninterrupted session, and the recovered
  // session must keep journaling (a second crash/recover cycle works too).
  Rng rng(0xD0C2);
  const kalman::Problem p = general_problem(rng, 24);
  const auto ops = ops_of(p);

  SmootherEngine eng({.threads = 2});
  io::SessionStore live = fresh_store("compact_live", /*compact_every=*/5);
  io::SessionStore crash = fresh_store("compact_crash", /*compact_every=*/5);

  Session s = eng.open_session(p.step(0).n, SessionOptions{}.durable(live, "s1"));
  for (const auto& op : ops) op(s);

  // The file must be bounded by the snapshot + tail, not the full history.
  const io::ScanResult scan = io::scan_chunk_file(live.path_for("s1"));
  ASSERT_FALSE(scan.chunks.empty());
  EXPECT_EQ(scan.chunks[0].type, static_cast<std::uint8_t>(io::ChunkType::kSnapshot));
  EXPECT_LE(scan.chunks.size(), 6u);  // snapshot + at most compact_every tail records

  crash_copy(live, crash, "s1");
  RecoveredSessions rec = eng.recover_all(crash);
  ASSERT_EQ(rec.linear.size(), 1u);
  ASSERT_TRUE(rec.failed.empty());
  Session& r = rec.linear[0].second;

  const SmootherResult want = s.smooth(true);
  const SmootherResult got = r.smooth(true);
  test::expect_means_near(got.means, want.means, 1e-10);
  test::expect_covs_near(got.covariances, want.covariances, 1e-10);

  // The recovered session is durable again: stream more, crash again,
  // recover again.
  io::SessionStore crash2 = fresh_store("compact_crash2", /*compact_every=*/5);
  {
    Session cont = eng.open_session(p.step(0).n);
    // Rebuild a reference holding the full history: original ops + new obs.
    for (const auto& op : ops) op(cont);
    const index n = r.current_dim();
    for (int j = 0; j < 7; ++j) {
      Vector o(n);
      for (index q = 0; q < n; ++q) o[q] = 0.1 * (j + 1) + 0.01 * q;
      r.observe(Matrix::identity(n), o, CovFactor::identity(n));
      cont.observe(Matrix::identity(n), o, CovFactor::identity(n));
    }
    crash_copy(crash, crash2, "s1");
    RecoveredSessions rec2 = eng.recover_all(crash2);
    ASSERT_EQ(rec2.linear.size(), 1u) << (rec2.failed.empty() ? "" : rec2.failed[0].second);
    const SmootherResult a = rec2.linear[0].second.smooth(true);
    const SmootherResult b = cont.smooth(true);
    test::expect_means_near(a.means, b.means, 1e-10);
    test::expect_covs_near(a.covariances, b.covariances, 1e-10);
  }
}

TEST(Recovery, RecoveredSmoothAgreesWithAllFiveBackends) {
  // The recovered session's answer is not just self-consistent: it matches
  // every backend's solve of the same estimation problem (the prior enters
  // the session as a step-0 observation, the conventional backends take it
  // separately — the exact-equivalence construction from the backend tests).
  Rng rng(0xD0C4);
  const test::CommonProblem cp = test::common_problem(rng, 3, 30);
  const auto ops = ops_of(cp.for_qr);

  SmootherEngine eng({.threads = 2});
  io::SessionStore live = fresh_store("backends_live");
  io::SessionStore crash = fresh_store("backends_crash");
  Session s = eng.open_session(3, SessionOptions{}.durable(live, "s1"));
  for (const auto& op : ops) op(s);

  crash_copy(live, crash, "s1");
  RecoveredSessions rec = eng.recover_all(crash);
  ASSERT_EQ(rec.linear.size(), 1u);
  const SmootherResult got = rec.linear[0].second.smooth(true);

  const SmootherResult uninterrupted = s.smooth(true);
  test::expect_means_near(got.means, uninterrupted.means, 1e-10, "vs uninterrupted");
  test::expect_covs_near(got.covariances, uninterrupted.covariances, 1e-10);

  par::ThreadPool pool(2);
  for (const BackendInfo& info : all_backends()) {
    SCOPED_TRACE(info.name);
    const SmootherResult ref = solve_with(info.id, cp.for_conventional, cp.prior, pool);
    test::expect_means_near(got.means, ref.means, 1e-7, info.name);
  }
}

TEST(Recovery, NonlinearKillAndRecoverPerBackend) {
  // The nonlinear matrix, once per inner backend: a durable pendulum tenant
  // smooths (caching warm means), streams more, dies, and the recovered
  // session's next smooth must match the uninterrupted one to 1e-10 with the
  // same backend serving the inner solves.
  const index k_base = 12;
  const index k_total = 36;
  Rng rng(0xD0C5);
  kalman::NonlinearModel full = kalman::make_pendulum_benchmark(rng, k_total, 0.5, false);
  kalman::GaussNewtonOptions gn;
  gn.tolerance = 1e-13;
  gn.max_iterations = 60;

  auto model_hook = [&full](const std::string&) {
    kalman::NonlinearModel m = full;  // same callbacks; history is overwritten
    return m;
  };

  SmootherEngine eng({.threads = 2});
  for (const BackendInfo& info : all_backends()) {
    SCOPED_TRACE(info.name);
    NonlinearJobOptions opts;
    opts.backend = info.id;
    opts.gn = gn;

    io::SessionStore live = fresh_store(std::string("nl_live_") + info.name,
                                        /*compact_every=*/8);
    io::SessionStore crash = fresh_store(std::string("nl_crash_") + info.name,
                                         /*compact_every=*/8);
    kalman::NonlinearModel base = full;
    base.k = k_base;
    base.dims.resize(static_cast<std::size_t>(k_base + 1));
    base.obs.resize(static_cast<std::size_t>(k_base + 1));

    SessionOptions so = SessionOptions{}.durable(live, "pend");
    so.nonlinear = opts;
    NonlinearSession s = eng.open_session(base, Vector({0.1, 0.0}), so);
    SmootherResult mid;
    s.smooth_into(mid);  // caches means -> the next compaction snapshots them
    for (index i = k_base + 1; i <= k_total; ++i)
      s.advance(full.obs[static_cast<std::size_t>(i)]);

    crash_copy(live, crash, "pend");
    RecoveryOptions ro;
    ro.nonlinear_model = model_hook;
    ro.nonlinear_opts = opts;
    RecoveredSessions rec = eng.recover_all(crash, ro);
    ASSERT_EQ(rec.nonlinear.size(), 1u)
        << (rec.failed.empty() ? "" : rec.failed[0].second);
    NonlinearSession& r = rec.nonlinear[0].second;
    EXPECT_EQ(r.current_step(), k_total);

    SmootherResult want;
    s.smooth_into(want);
    SmootherResult got;
    r.smooth_into(got);
    EXPECT_TRUE(r.last_info().converged);
    test::expect_means_near(got.means, want.means, 1e-10, info.name);

    // Compaction snapshotted the warm-start means cached by the pre-crash
    // smooth, so the recovered session's first solve warm-started — from the
    // very same trajectory the uninterrupted session warm-starts from.
    EXPECT_EQ(r.stats().warm_solves, 1u);
    EXPECT_EQ(r.stats().cold_solves, 0u);
  }
}

TEST(Recovery, ResetChunkInvalidatesEverythingBeforeIt) {
  // Crash windows around reset(): (a) immediately after the reset append —
  // before any new record — must come back as a fresh track of the new
  // dimension; (b) after post-reset appends must come back with exactly
  // those.  Compaction is disabled so the reset chunk itself is replayed.
  Rng rng(0xD0C6);
  const kalman::Problem before = general_problem(rng, 8);
  const auto pre_ops = ops_of(before);

  SmootherEngine eng({.threads = 2});
  io::SessionStore live = fresh_store("reset_live");
  io::SessionStore crash = fresh_store("reset_crash");
  Session s = eng.open_session(before.step(0).n, SessionOptions{}.durable(live, "s1"));
  for (const auto& op : pre_ops) op(s);
  const SmootherResult pre_smooth = s.smooth(true);  // populate the cache pre-reset

  const index n2 = 3;
  s.reset(n2);

  // (a) kill between the reset append and the first new record.
  crash_copy(live, crash, "s1");
  {
    RecoveredSessions rec = eng.recover_all(crash);
    ASSERT_EQ(rec.linear.size(), 1u);
    Session& r = rec.linear[0].second;
    EXPECT_EQ(r.current_step(), 0);
    EXPECT_EQ(r.current_dim(), n2);
    // The epoch bump must carry into the recovered session: a smooth after
    // fresh appends rebuilds from zero and matches a fresh track.
    Session ref = eng.open_session(n2);
    Vector o({1.0, 2.0, 3.0});
    r.observe(Matrix::identity(n2), o, CovFactor::identity(n2));
    ref.observe(Matrix::identity(n2), o, CovFactor::identity(n2));
    const SmootherResult a = r.smooth(true);
    const SmootherResult b = ref.smooth(true);
    ASSERT_EQ(a.means.size(), 1u);
    test::expect_means_near(a.means, b.means, 1e-10);
    test::expect_covs_near(a.covariances, b.covariances, 1e-10);
  }

  // (b) kill after the reset plus a few appends.
  Session ref = eng.open_session(n2);
  for (int j = 0; j < 3; ++j) {
    Vector o({0.5 * j, 1.0, -0.25 * j});
    s.observe(Matrix::identity(n2), o, CovFactor::identity(n2));
    ref.observe(Matrix::identity(n2), o, CovFactor::identity(n2));
    Matrix f = Matrix::identity(n2);
    Vector c(n2);
    s.evolve(f, c, CovFactor::identity(n2));
    ref.evolve(Matrix::identity(n2), Vector(n2), CovFactor::identity(n2));
  }
  crash_copy(live, crash, "s1");
  RecoveredSessions rec = eng.recover_all(crash);
  ASSERT_EQ(rec.linear.size(), 1u);
  const SmootherResult a = rec.linear[0].second.smooth(true);
  const SmootherResult b = ref.smooth(true);
  test::expect_means_near(a.means, b.means, 1e-10);
  test::expect_covs_near(a.covariances, b.covariances, 1e-10);
  (void)pre_smooth;
}

TEST(Recovery, ResmoothCacheRebuildsThenHits) {
  // Post-restore cache lifecycle: the first smooth is a miss that rebuilds
  // the spliced factor from the recovered filter; an unmutated repeat is a
  // hit served from the rebuilt result; both answers are identical.
  Rng rng(0xD0C7);
  const test::CommonProblem cp = test::common_problem(rng, 3, 20);
  SmootherEngine eng({.threads = 2});
  io::SessionStore live = fresh_store("cache_live");
  io::SessionStore crash = fresh_store("cache_crash");
  Session s = eng.open_session(3, SessionOptions{}.durable(live, "s1"));
  for (const auto& op : ops_of(cp.for_qr)) op(s);
  crash_copy(live, crash, "s1");

  RecoveredSessions rec = eng.recover_all(crash);
  ASSERT_EQ(rec.linear.size(), 1u);
  Session& r = rec.linear[0].second;
  EXPECT_EQ(r.stats().resmooth_misses, 0u);

  SmootherResult first;
  r.smooth_into(first, true);
  EXPECT_EQ(r.stats().resmooth_misses, 1u) << "first post-recovery smooth rebuilds";
  EXPECT_EQ(r.stats().resmooth_hits, 0u);

  SmootherResult second;
  r.smooth_into(second, true);
  EXPECT_EQ(r.stats().resmooth_misses, 1u);
  EXPECT_EQ(r.stats().resmooth_hits, 1u) << "unmutated repeat is served from the cache";
  test::expect_means_near(second.means, first.means, 0.0);
  test::expect_covs_near(second.covariances, first.covariances, 0.0);
}

TEST(Recovery, FailuresAreIsolatedPerSession) {
  Rng rng(0xD0C8);
  const test::CommonProblem cp = test::common_problem(rng, 3, 10);
  SmootherEngine eng({.threads = 2});
  io::SessionStore live = fresh_store("isolation_live");
  io::SessionStore crash = fresh_store("isolation_crash");
  {
    Session good = eng.open_session(3, SessionOptions{}.durable(live, "good"));
    for (const auto& op : ops_of(cp.for_qr)) op(good);
    Session other = eng.open_session(3, SessionOptions{}.durable(live, "corrupt"));
    for (const auto& op : ops_of(cp.for_qr)) op(other);
  }
  crash_copy(live, crash, "good");
  crash_copy(live, crash, "corrupt");

  // Corrupt the second journal mid-file (flip a payload byte of the first
  // chunk; complete chunks follow, so the scan must hard-fail).
  {
    const std::string path = crash.path_for("corrupt");
    std::ifstream is(path, std::ios::binary);
    std::string bytes((std::istreambuf_iterator<char>(is)),
                      std::istreambuf_iterator<char>());
    is.close();
    bytes[io::kFileHeaderSize + io::kChunkOverhead] ^= 0x40;
    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  // A torn-header journal (crash during create) and a nonlinear journal with
  // no model hook join the failure set.
  {
    std::ofstream f(crash.path_for("tornheader"), std::ios::binary);
    f.write("PITKJNL1\x01", 9);
  }
  {
    auto j = io::SessionJournal::create(crash, "nohook", io::SessionKind::Nonlinear);
    io::NonlinearSnapshot snap;
    snap.k = 0;
    snap.dims = {2};
    snap.obs.resize(1);
    snap.u0 = Vector({0.1, 0.0});
    j->stage_open_nonlinear(snap);
    j->commit();
    j->close();
  }

  RecoveredSessions rec = eng.recover_all(crash);
  ASSERT_EQ(rec.linear.size(), 1u);
  EXPECT_EQ(rec.linear[0].first, "good");
  EXPECT_EQ(rec.failed.size(), 3u);
  const SmootherResult got = rec.linear[0].second.smooth(false);
  EXPECT_EQ(got.means.size(), static_cast<std::size_t>(cp.for_qr.num_states()));
}

TEST(Recovery, PoisonedJournalLosesDurabilityLoudlyButKeepsServing) {
  // An injected torn write (io.write fault, the disk-full/yanked-volume
  // case) fails the mutation that hit it with an exception — durability loss
  // is loud — but the in-memory session stays consistent and serves; later
  // mutations skip the poisoned journal instead of corrupting it.
  fault::disarm_all();
  Rng rng(0xD0C9);
  const test::CommonProblem cp = test::common_problem(rng, 3, 12);
  const auto ops = ops_of(cp.for_qr);
  SmootherEngine eng({.threads = 2});
  io::SessionStore live = fresh_store("poison_live");

  Session s = eng.open_session(3, SessionOptions{}.durable(live, "s1"));
  Session ref = eng.open_session(3);
  for (std::size_t i = 0; i < ops.size(); ++i) {
    if (i == 4) {
      fault::arm("io.write", fault::Kind::Fail);
      EXPECT_THROW(ops[i](s), std::runtime_error);
      fault::disarm_all();
    } else {
      ops[i](s);
    }
    ops[i](ref);  // the in-memory mutation applied even when the append died
  }
  const SmootherResult a = s.smooth(true);
  const SmootherResult b = ref.smooth(true);
  test::expect_means_near(a.means, b.means, 1e-12, "poisoned session still serves");
  test::expect_covs_near(a.covariances, b.covariances, 1e-12);
}

TEST(Recovery, StoreValidatesIdsAndListsSessions) {
  io::SessionStore store = fresh_store("store_api");
  EXPECT_THROW((void)store.path_for(""), std::invalid_argument);
  EXPECT_THROW((void)store.path_for(".hidden"), std::invalid_argument);
  EXPECT_THROW((void)store.path_for("a/b"), std::invalid_argument);
  EXPECT_THROW((void)store.path_for("a b"), std::invalid_argument);
  EXPECT_NO_THROW((void)store.path_for("track-7.main_2"));

  SmootherEngine eng({.threads = 1});
  { Session a = eng.open_session(2, SessionOptions{}.durable(store, "alpha")); }
  { Session b = eng.open_session(2, SessionOptions{}.durable(store, "beta")); }
  const std::vector<std::string> ids = store.list();
  ASSERT_EQ(ids.size(), 2u);
  EXPECT_EQ(ids[0], "alpha");
  EXPECT_EQ(ids[1], "beta");
  store.remove("alpha");
  EXPECT_EQ(store.list().size(), 1u);
}

}  // namespace
}  // namespace pitk::engine
