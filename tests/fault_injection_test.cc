#include "core/fault_injector.h"

#include <gtest/gtest.h>

#include <string>

#include "core/repair.h"
#include "core/repair_scheduler.h"
#include "core/solve_cache.h"
#include "datagen/synthetic.h"
#include "linalg/thread_pool.h"
#include "pool_probe.h"

namespace otclean::core {
namespace {

dataset::Table MakeViolatingTable(uint64_t seed, size_t rows = 300,
                                  size_t num_z_attrs = 1, size_t z_card = 2) {
  datagen::ScalingDatasetOptions opts;
  opts.num_rows = rows;
  opts.num_z_attrs = num_z_attrs;
  opts.z_card = z_card;
  opts.violation = 0.7;
  opts.seed = seed;
  return datagen::MakeScalingDataset(opts).value();
}

CiConstraint XyGivenZ() { return CiConstraint({"x"}, {"y"}, {"z0"}); }

/// Restores the process-wide pool chunk hook however the test exits.
struct ScopedPoolDelayHook {
  explicit ScopedPoolDelayHook(FaultInjector& injector, size_t millis) {
    injector.InstallPoolDelayHook(millis);
  }
  ~ScopedPoolDelayHook() { FaultInjector::ClearPoolDelayHook(); }
};

// ------------------------------------------------------------------ Parse --

TEST(FaultInjectorParseTest, AcceptsTheDocumentedGrammar) {
  FaultInjector inj;
  ASSERT_TRUE(FaultInjector::Parse("alloc@2", &inj).ok());
  EXPECT_FALSE(inj.ShouldFire(FaultSite::kAlloc));  // visit 1
  EXPECT_TRUE(inj.ShouldFire(FaultSite::kAlloc));   // visit 2: armed
  EXPECT_FALSE(inj.ShouldFire(FaultSite::kAlloc));  // visit 3: exact, not sticky
  EXPECT_EQ(inj.hits(FaultSite::kAlloc), 3u);

  FaultInjector multi;
  ASSERT_TRUE(
      FaultInjector::Parse("kernel-nan@1,cache-insert@2+", &multi).ok());
  EXPECT_TRUE(multi.ShouldFire(FaultSite::kKernelNan));
  EXPECT_FALSE(multi.ShouldFire(FaultSite::kKernelNan));
  EXPECT_FALSE(multi.ShouldFire(FaultSite::kCacheInsert));  // visit 1
  EXPECT_TRUE(multi.ShouldFire(FaultSite::kCacheInsert));   // visit 2
  EXPECT_TRUE(multi.ShouldFire(FaultSite::kCacheInsert));   // sticky
  EXPECT_FALSE(multi.ShouldFire(FaultSite::kWorkerDelay));  // never armed
}

TEST(FaultInjectorParseTest, RejectsMalformedSpecsLoudly) {
  FaultInjector inj;
  for (const char* bad : {"", "alloc", "alloc@", "alloc@0", "alloc@x",
                          "bogus@1", "alloc@1,,alloc@2", "@3", "alloc@-1"}) {
    const Status s = FaultInjector::Parse(bad, &inj);
    EXPECT_EQ(s.code(), StatusCode::kInvalidArgument) << bad;
    EXPECT_FALSE(s.message().empty()) << bad;
  }
}

TEST(FaultInjectorTest, SiteNamesRoundTrip) {
  for (size_t i = 0; i < kNumFaultSites; ++i) {
    const auto site = static_cast<FaultSite>(i);
    FaultInjector inj;
    ASSERT_TRUE(FaultInjector::Parse(std::string(FaultSiteName(site)) + "@1",
                                     &inj)
                    .ok())
        << FaultSiteName(site);
    EXPECT_TRUE(inj.ShouldFire(site));
  }
}

// ----------------------------------------------------------- solve faults --

TEST(FaultInjectionTest, AllocFailureSurfacesAsResourceExhausted) {
  const dataset::Table table = MakeViolatingTable(41);
  FaultInjector inj;
  inj.Arm(FaultSite::kAlloc, 1);
  RepairOptions opts;
  opts.fast.fault_injector = &inj;
  const Result<RepairReport> r = RepairTable(table, XyGivenZ(), opts);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
  EXPECT_NE(r.status().message().find("bad_alloc"), std::string::npos);
}

TEST(FaultInjectionTest, AllocFailureIsNotRetried) {
  // kResourceExhausted is not in the retryable set: retrying an exhausted
  // process makes the exhaustion worse. The sticky arm proves no second
  // attempt ran: exactly one alloc visit fired.
  const dataset::Table table = MakeViolatingTable(41);
  FaultInjector inj;
  inj.Arm(FaultSite::kAlloc, 1, /*sticky=*/true);
  RepairOptions opts;
  opts.fast.fault_injector = &inj;
  opts.retry.max_attempts = 3;
  const Result<RepairReport> r = RepairTable(table, XyGivenZ(), opts);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(inj.hits(FaultSite::kAlloc), 1u);
}

TEST(FaultInjectionTest, KernelNanFailsCleanlyWithoutRetry) {
  const dataset::Table table = MakeViolatingTable(42);
  FaultInjector inj;
  inj.Arm(FaultSite::kKernelNan, 1);
  RepairOptions opts;
  opts.fast.fault_injector = &inj;
  const Result<RepairReport> r = RepairTable(table, XyGivenZ(), opts);
  // The dense linear path turns a NaN kernel entry into scalings that clamp
  // to zero and a plan with no mass — a clean Status, never a crash or a
  // silently wrong repair.
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInternal);
  EXPECT_NE(r.status().message().find("mass"), std::string::npos);
}

TEST(FaultInjectionTest, RetryRecoversFromTransientKernelNan) {
  const dataset::Table table = MakeViolatingTable(42);
  FaultInjector inj;
  inj.Arm(FaultSite::kKernelNan, 1);  // transient: only the first build
  RepairOptions opts;
  opts.fast.fault_injector = &inj;
  opts.retry.max_attempts = 2;
  // Loose enough that the fallback attempt converges well inside the
  // default step budget — "retried-ok" is only reported for a *converged*
  // recovery.
  opts.fast.outer_tolerance = 1e-4;
  const Result<RepairReport> r = RepairTable(table, XyGivenZ(), opts);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_TRUE(r->converged);
  EXPECT_STREQ(r->termination, "retried-ok");
  EXPECT_EQ(r->retry_attempts, 1u);
  EXPECT_NE(r->recovery.find("log-domain"), std::string::npos);
  EXPECT_STREQ(r->sinkhorn_domain, "log");

  // The recovered repair equals a straight log-domain run: the fallback
  // reconfigures, it never perturbs.
  RepairOptions log_opts = opts;
  log_opts.fast.fault_injector = nullptr;
  log_opts.retry = RetryOptions{};
  log_opts.fast.log_domain = true;
  const Result<RepairReport> direct = RepairTable(table, XyGivenZ(), log_opts);
  ASSERT_TRUE(direct.ok());
  EXPECT_TRUE(r->repaired.SameContents(direct->repaired));
  EXPECT_EQ(r->transport_cost, direct->transport_cost);
}

TEST(FaultInjectionTest, ZeroAttemptsAndNegativeBackoffAreInvalid) {
  const dataset::Table table = MakeViolatingTable(43);
  RepairOptions opts;
  opts.retry.max_attempts = 0;
  Result<RepairReport> r = RepairTable(table, XyGivenZ(), opts);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(r.status().message().find("max_attempts"), std::string::npos);

  opts.retry.max_attempts = 1;
  opts.retry.backoff_seconds = -0.5;
  r = RepairTable(table, XyGivenZ(), opts);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(r.status().message().find("backoff"), std::string::npos);
}

// ----------------------------------------------------------- cache faults --

TEST(FaultInjectionTest, FailedCacheInsertLeavesCacheConsistent) {
  const dataset::Table table = MakeViolatingTable(44);
  SolveCache cache;
  FaultInjector inj;
  inj.Arm(FaultSite::kCacheInsert, 1);
  cache.set_fault_injector(&inj);

  RepairOptions opts;
  opts.fast.solve_cache = &cache;
  const Result<RepairReport> first = RepairTable(table, XyGivenZ(), opts);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_EQ(first->cache_kernel_misses, 1u);

  // The failed insert is atomic: no kernel entry, no insertion counted, no
  // bytes pinned — the solve just ran uncached on its private kernel.
  const SolveCacheStats after_first = cache.Stats();
  EXPECT_EQ(after_first.insertions, 0u);
  EXPECT_EQ(after_first.bytes_pinned, 0u);
  EXPECT_FALSE(cache.FindKernel(MakeSolveCacheKey(0, 1, 1, 0.1, 0.0, false))
                   .has_value());

  // The cache is not poisoned: the next identical solve misses, inserts
  // (the arm was exact, not sticky), and repairs bit-identically.
  const Result<RepairReport> second = RepairTable(table, XyGivenZ(), opts);
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  const SolveCacheStats after_second = cache.Stats();
  EXPECT_EQ(after_second.insertions, 1u);
  EXPECT_GE(after_second.kernel_misses, 2u);
  EXPECT_TRUE(first->repaired.SameContents(second->repaired));
  EXPECT_EQ(first->transport_cost, second->transport_cost);

  // And a third run shares the now-resident kernel.
  const Result<RepairReport> third = RepairTable(table, XyGivenZ(), opts);
  ASSERT_TRUE(third.ok());
  EXPECT_EQ(third->cache_kernel_hits, 1u);
  EXPECT_TRUE(first->repaired.SameContents(third->repaired));
}

TEST(FaultInjectionTest, PoisonedSolveNeverPublishesToTheCache) {
  // A kernel-NaN solve bypasses the cache entirely: the poisoned kernel
  // must never become resident under the clean cost's key, where every
  // later request would share it.
  const dataset::Table table = MakeViolatingTable(44);
  SolveCache cache;
  FaultInjector inj;
  inj.Arm(FaultSite::kKernelNan, 1);
  RepairOptions opts;
  opts.fast.solve_cache = &cache;
  opts.fast.fault_injector = &inj;
  const Result<RepairReport> poisoned = RepairTable(table, XyGivenZ(), opts);
  EXPECT_FALSE(poisoned.ok());
  const SolveCacheStats s = cache.Stats();
  EXPECT_EQ(s.insertions, 0u);
  EXPECT_EQ(s.entries, 0u);

  // The clean follow-up populates the cache and repairs normally.
  opts.fast.fault_injector = nullptr;
  const Result<RepairReport> clean = RepairTable(table, XyGivenZ(), opts);
  ASSERT_TRUE(clean.ok()) << clean.status().ToString();
  EXPECT_EQ(cache.Stats().insertions, 1u);
}

// ------------------------------------------------------------ pool faults --

/// A 2*2*7^3 = 1372-cell domain (the constraint must span every z attr —
/// the cleaned domain only covers constraint columns) with 870 active
/// cells, the plan's rows and columns: its ~757k-nonzero kernel clears two
/// chunks of linalg::kMinParallelWork, so each pass splits and pool
/// workers — and the chunk hook — run. Small tables take the inline path.
dataset::Table MakeWideTable() {
  return MakeViolatingTable(45, /*rows=*/2000, /*num_z_attrs=*/3,
                            /*z_card=*/7);
}
CiConstraint WideConstraint() {
  return CiConstraint({"x"}, {"y"}, {"z0", "z1", "z2"});
}

TEST(FaultInjectionTest, WorkerDelayAloneChangesNothing) {
  const dataset::Table table = MakeWideTable();
  const CiConstraint wide = WideConstraint();
  linalg::ThreadPool pool(2);  // the chunk hook lives in the pooled path
  RepairOptions opts;
  opts.fast.num_threads = 2;
  opts.fast.thread_pool = &pool;
  // Keep the solve short: determinism doesn't need convergence, and the
  // sticky 1 ms delay below multiplies into every chunk dispatch.
  opts.fast.max_outer_iterations = 2;
  opts.fast.max_sinkhorn_iterations = 30;

  Result<RepairReport> baseline = Status::Internal("never ran");
  {
    testing::WorkerChunkProbe probe;
    baseline = RepairTable(table, wide, opts);
    ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();
    // ≥ 2 chunks per kernel pass, one fused pass per Sinkhorn iteration.
    EXPECT_GE(probe.pooled_chunks(), 2 * baseline->total_sinkhorn_iterations);
    EXPECT_GT(probe.worker_chunks(), 0u);
  }

  FaultInjector inj;
  inj.Arm(FaultSite::kWorkerDelay, 1, /*sticky=*/true);
  ScopedPoolDelayHook hook(inj, /*millis=*/1);
  const Result<RepairReport> delayed = RepairTable(table, wide, opts);
  ASSERT_TRUE(delayed.ok()) << delayed.status().ToString();

  // Delay perturbs scheduling, never results: chunk decomposition and
  // arithmetic are independent of worker timing.
  EXPECT_TRUE(baseline->repaired.SameContents(delayed->repaired));
  EXPECT_EQ(baseline->transport_cost, delayed->transport_cost);
  EXPECT_EQ(baseline->total_sinkhorn_iterations,
            delayed->total_sinkhorn_iterations);
  EXPECT_GT(inj.hits(FaultSite::kWorkerDelay), 0u);
}

TEST(FaultInjectionTest, WorkerDelayPlusTightDeadlineExpiresCleanly) {
  const dataset::Table table = MakeWideTable();
  FaultInjector inj;
  inj.Arm(FaultSite::kWorkerDelay, 1, /*sticky=*/true);
  ScopedPoolDelayHook hook(inj, /*millis=*/50);

  linalg::ThreadPool pool(2);
  RepairOptions opts;
  opts.fast.num_threads = 2;
  opts.fast.thread_pool = &pool;
  // Tight against the delayed solve — every pooled chunk sleeps 50 ms, so
  // one Sinkhorn iteration takes >= 100 ms and the solve needs minutes —
  // yet long enough for setup to reach the pooled kernel passes even in a
  // Debug sanitizer build.
  opts.fast.deadline = Deadline::After(3.0);
  const Result<RepairReport> r = RepairTable(table, WideConstraint(), opts);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_GT(inj.hits(FaultSite::kWorkerDelay), 0u);
}

// ------------------------------------------------------ scheduler plumbing --

TEST(FaultInjectionTest, SchedulerInjectsItsHarnessIntoJobs) {
  const dataset::Table table = MakeViolatingTable(46);
  FaultInjector inj;
  inj.Arm(FaultSite::kAlloc, 1);

  RepairSchedulerOptions sched;
  sched.max_concurrent_jobs = 1;
  sched.pool_threads = 1;
  sched.fault_injector = &inj;
  RepairScheduler scheduler(sched);

  RepairJob job;
  job.table = &table;
  job.constraints = {XyGivenZ()};
  const BatchReport report = scheduler.Run({job, job});
  ASSERT_EQ(report.jobs.size(), 2u);
  // Executor order is deterministic with one executor: the first job hits
  // the armed alloc visit, the second runs clean.
  EXPECT_EQ(report.failed_jobs, 1u);
  EXPECT_EQ(report.completed_jobs, 1u);
  size_t exhausted = 0;
  for (const auto& r : report.jobs) {
    if (!r.ok() && r.status().code() == StatusCode::kResourceExhausted) {
      ++exhausted;
    }
  }
  EXPECT_EQ(exhausted, 1u);
}

TEST(FaultInjectionTest, SchedulerRejectsConflictingJobHarness) {
  const dataset::Table table = MakeViolatingTable(46);
  FaultInjector scheduler_inj;
  FaultInjector job_inj;
  RepairSchedulerOptions sched;
  sched.max_concurrent_jobs = 1;
  sched.pool_threads = 1;
  sched.fault_injector = &scheduler_inj;
  RepairScheduler scheduler(sched);

  RepairJob job;
  job.table = &table;
  job.constraints = {XyGivenZ()};
  job.options.fast.fault_injector = &job_inj;
  const BatchReport report = scheduler.Run({job});
  ASSERT_EQ(report.jobs.size(), 1u);
  ASSERT_FALSE(report.jobs[0].ok());
  EXPECT_EQ(report.jobs[0].status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(report.jobs[0].status().message().find("fault_injector"),
            std::string::npos);
}

}  // namespace
}  // namespace otclean::core
