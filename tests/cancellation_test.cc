#include "common/cancellation.h"

#include <gtest/gtest.h>

#include <chrono>
#include <thread>
#include <vector>

#include "core/repair.h"
#include "core/repair_scheduler.h"
#include "core/solve_cache.h"
#include "datagen/synthetic.h"
#include "pool_probe.h"

namespace otclean::core {
namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

dataset::Table MakeViolatingTable(uint64_t seed, size_t rows = 400,
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

/// A solve sized to run for minutes if nobody stops it: an 864-cell domain
/// (the constraint spans all three z attrs) and tolerances no iterate will
/// ever meet, so only the iteration budget — or a stop signal — ends it.
/// The plan's rows and columns are its 773 active cells; the ~598k-nonzero
/// kernel clears two chunks of linalg::kMinParallelWork and splits across
/// a 2-thread pool, so a stop lands on pooled kernel dispatches.
struct HeavySolve {
  dataset::Table table =
      MakeViolatingTable(31, /*rows=*/4000, /*num_z_attrs=*/3, /*z_card=*/6);
  CiConstraint constraint{{"x"}, {"y"}, {"z0", "z1", "z2"}};
  RepairOptions options;

  HeavySolve() {
    options.fast.num_threads = 2;
    options.fast.max_outer_iterations = 100000;
    options.fast.outer_tolerance = 0.0;
    options.fast.max_sinkhorn_iterations = 5000;
    options.fast.sinkhorn_tolerance = 0.0;
  }
};

// ------------------------------------------------------------- stop paths --

TEST(CancellationTest, PreCancelledTokenAbortsBeforeAnyWork) {
  const dataset::Table table = MakeViolatingTable(30);
  CancellationToken token;
  token.Cancel();
  RepairOptions opts;
  opts.fast.cancel_token = &token;
  const Result<RepairReport> r = RepairTable(table, XyGivenZ(), opts);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kCancelled);
  EXPECT_NE(r.status().message().find("cancelled"), std::string::npos);
}

TEST(CancellationTest, PreExpiredDeadlineAbortsBeforeAnyWork) {
  const dataset::Table table = MakeViolatingTable(30);
  RepairOptions opts;
  opts.fast.deadline = Deadline::After(0.0);  // born expired
  const Result<RepairReport> r = RepairTable(table, XyGivenZ(), opts);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kDeadlineExceeded);
}

TEST(CancellationTest, CrossThreadCancelStopsALargeSolvePromptly) {
  HeavySolve heavy;
  CancellationToken token;
  heavy.options.fast.cancel_token = &token;

  testing::WorkerChunkProbe probe;
  Result<RepairReport> result = Status::Internal("never ran");
  std::thread solver([&] {
    result = RepairTable(heavy.table, heavy.constraint, heavy.options);
  });
  // Cancel once the solve is dispatching to the pool (setup time varies a
  // lot under sanitizers; 60 s bounds a solve that never pools).
  const Clock::time_point started = Clock::now();
  while (probe.pooled_chunks() < 100 && SecondsSince(started) < 60.0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_GE(probe.pooled_chunks(), 100u);
  const Clock::time_point cancelled_at = Clock::now();
  token.Cancel();
  solver.join();

  // Cooperative checks run per scaling iteration, so the abort lands within
  // a few iterations — the generous bound absorbs sanitizer slowdowns while
  // still being orders of magnitude below the full iteration budget.
  EXPECT_LT(SecondsSince(cancelled_at), 10.0);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kCancelled);
}

TEST(CancellationTest, DeadlineExpiresMidSolveWithDeadlineExceeded) {
  HeavySolve heavy;
  heavy.options.fast.deadline = Deadline::After(0.2);
  const Clock::time_point t0 = Clock::now();
  const Result<RepairReport> r =
      RepairTable(heavy.table, heavy.constraint, heavy.options);
  EXPECT_LT(SecondsSince(t0), 10.0);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kDeadlineExceeded);
}

// ---------------------------------------------------- cache non-corruption --

TEST(CancellationTest, MidSolveCancelLeavesTheCacheUncorrupted) {
  // The cancelled solve may have published its (complete, deterministic)
  // kernel, but never a partial entry and never a pin that outlives it: a
  // later identical request on the disturbed cache must repair
  // bit-identically to one on a fresh cache.
  const dataset::Table table =
      MakeViolatingTable(32, /*rows=*/800, /*num_z_attrs=*/3, /*z_card=*/6);
  const CiConstraint wide({"x"}, {"y"}, {"z0", "z1", "z2"});
  RepairOptions opts;
  opts.fast.max_outer_iterations = 3;
  opts.fast.max_sinkhorn_iterations = 500;
  opts.fast.sinkhorn_tolerance = 0.0;
  opts.fast.outer_tolerance = 0.0;

  SolveCache cache;
  CancellationToken token;
  RepairOptions cancelled_opts = opts;
  cancelled_opts.fast.solve_cache = &cache;
  cancelled_opts.fast.cancel_token = &token;

  Result<RepairReport> interrupted = Status::Internal("never ran");
  std::thread solver(
      [&] { interrupted = RepairTable(table, wide, cancelled_opts); });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  token.Cancel();
  solver.join();
  ASSERT_FALSE(interrupted.ok());
  EXPECT_EQ(interrupted.status().code(), StatusCode::kCancelled);

  // Consistency: every pin released, at most the one complete kernel entry.
  const SolveCacheStats stats = cache.Stats();
  EXPECT_EQ(stats.bytes_pinned, 0u);
  EXPECT_LE(stats.entries, 1u);
  EXPECT_LE(stats.insertions, 1u);

  RepairOptions warm_opts = opts;
  warm_opts.fast.solve_cache = &cache;
  const Result<RepairReport> warm = RepairTable(table, wide, warm_opts);
  ASSERT_TRUE(warm.ok()) << warm.status().ToString();
  EXPECT_EQ(cache.Stats().bytes_pinned, 0u);

  SolveCache fresh;
  RepairOptions cold_opts = opts;
  cold_opts.fast.solve_cache = &fresh;
  const Result<RepairReport> cold = RepairTable(table, wide, cold_opts);
  ASSERT_TRUE(cold.ok()) << cold.status().ToString();

  EXPECT_TRUE(warm->repaired.SameContents(cold->repaired));
  EXPECT_EQ(warm->transport_cost, cold->transport_cost);
  EXPECT_EQ(warm->total_sinkhorn_iterations, cold->total_sinkhorn_iterations);
}

// -------------------------------------------------------- batch isolation --

TEST(CancellationTest, DeadlinedJobLeavesItsSevenSiblingsBitIdentical) {
  const dataset::Table t1 = MakeViolatingTable(33);
  const dataset::Table t2 = MakeViolatingTable(34, /*rows=*/500);
  std::vector<RepairJob> jobs(8);
  for (size_t i = 0; i < jobs.size(); ++i) {
    jobs[i].table = (i % 2 == 0) ? &t1 : &t2;
    jobs[i].constraints = {XyGivenZ()};
    jobs[i].options.seed = 100 + i;
    if (i % 3 == 0) jobs[i].options.fast.log_domain = true;
  }

  RepairSchedulerOptions opts;
  opts.max_concurrent_jobs = 4;
  opts.pool_threads = 2;
  const BatchReport undisturbed = RepairScheduler(opts).Run(jobs);
  ASSERT_EQ(undisturbed.completed_jobs, jobs.size());

  std::vector<RepairJob> disturbed_jobs = jobs;
  disturbed_jobs[3].deadline_seconds = 1e-3;  // expires at the first check
  const BatchReport disturbed = RepairScheduler(opts).Run(disturbed_jobs);

  ASSERT_EQ(disturbed.jobs.size(), jobs.size());
  ASSERT_FALSE(disturbed.jobs[3].ok());
  EXPECT_EQ(disturbed.jobs[3].status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(disturbed.deadline_exceeded_jobs, 1u);
  EXPECT_EQ(disturbed.failed_jobs, 1u);
  EXPECT_EQ(disturbed.completed_jobs, jobs.size() - 1);

  // Same batch index → same derived seed; a sibling that even *reads*
  // state perturbed by the dying job would drift from the undisturbed run.
  for (size_t i = 0; i < jobs.size(); ++i) {
    if (i == 3) continue;
    ASSERT_TRUE(disturbed.jobs[i].ok()) << i;
    const RepairReport& a = *undisturbed.jobs[i];
    const RepairReport& b = *disturbed.jobs[i];
    EXPECT_TRUE(a.repaired.SameContents(b.repaired)) << "job " << i;
    EXPECT_EQ(a.transport_cost, b.transport_cost) << "job " << i;
    EXPECT_EQ(a.final_cmi, b.final_cmi) << "job " << i;
    EXPECT_EQ(a.total_sinkhorn_iterations, b.total_sinkhorn_iterations)
        << "job " << i;
  }
}

}  // namespace
}  // namespace otclean::core
