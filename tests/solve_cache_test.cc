#include "core/solve_cache.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <memory>
#include <thread>
#include <vector>

#include "core/repair.h"
#include "core/repair_scheduler.h"
#include "datagen/synthetic.h"
#include "linalg/matrix.h"
#include "linalg/vector.h"
#include "ot/sinkhorn.h"

namespace otclean::core {
namespace {

// ---------------------------------------------------------------------------
// Key construction

TEST(SolveCacheKeyTest, ZeroFingerprintYieldsInvalidKey) {
  SolveCacheKey key = MakeSolveCacheKey(0, 4, 4, 0.1, 0.0, false);
  EXPECT_FALSE(key.valid());

  // Invalid keys are silent no-ops: no counters move, nothing is stored.
  SolveCache cache;
  EXPECT_FALSE(cache.FindKernel(key).has_value());
  cache.InsertKernel(key,
                     CachedKernel{std::make_shared<linalg::Matrix>(2, 2, 1.0),
                                  nullptr, nullptr, nullptr, nullptr,
                                  nullptr});
  SolveCacheStats s = cache.Stats();
  EXPECT_EQ(s.kernel_hits, 0u);
  EXPECT_EQ(s.kernel_misses, 0u);
  EXPECT_EQ(s.insertions, 0u);
  EXPECT_EQ(s.entries, 0u);
}

TEST(SolveCacheKeyTest, EveryInputPerturbsTheKey) {
  const SolveCacheKey base = MakeSolveCacheKey(0xABCD, 8, 6, 0.1, 1e-9, false);
  ASSERT_TRUE(base.valid());
  EXPECT_TRUE(base == MakeSolveCacheKey(0xABCD, 8, 6, 0.1, 1e-9, false));

  const SolveCacheKey variants[] = {
      MakeSolveCacheKey(0xABCE, 8, 6, 0.1, 1e-9, false),  // cost fingerprint
      MakeSolveCacheKey(0xABCD, 9, 6, 0.1, 1e-9, false),  // rows
      MakeSolveCacheKey(0xABCD, 8, 7, 0.1, 1e-9, false),  // cols
      MakeSolveCacheKey(0xABCD, 8, 6, 0.2, 1e-9, false),  // epsilon
      MakeSolveCacheKey(0xABCD, 8, 6, 0.1, 1e-8, false),  // truncation
      MakeSolveCacheKey(0xABCD, 8, 6, 0.1, 0.0, false),   // sparse vs dense
      MakeSolveCacheKey(0xABCD, 8, 6, 0.1, 1e-9, true),   // log domain
      MakeSolveCacheKey(0xABCD, 8, 6, 0.1, 1e-9, false, /*salt=*/1),
      MakeSolveCacheKey(0xABCD, 8, 6, 0.1, 1e-9, false, /*salt=*/0,
                        linalg::Precision::kFloat32),  // storage precision
  };
  for (const SolveCacheKey& v : variants) {
    EXPECT_FALSE(base == v);
  }
}

TEST(SolveCacheKeyTest, EqualityChecksVerbatimFieldsNotJustTheHash) {
  // Two keys with the *same* content hash but different dimensions must not
  // compare equal — a content-hash collision may map them to one bucket,
  // but it can never alias their entries.
  SolveCacheKey a = MakeSolveCacheKey(0x1, 4, 4, 0.1, 0.0, false);
  SolveCacheKey b = a;
  b.rows = 5;  // simulate a collision: identical content, different shape
  EXPECT_FALSE(a == b);

  SolveCache cache;
  cache.InsertKernel(a,
                     CachedKernel{std::make_shared<linalg::Matrix>(4, 4, 1.0),
                                  nullptr, nullptr, nullptr, nullptr,
                                  nullptr});
  EXPECT_FALSE(cache.FindKernel(b).has_value());
  EXPECT_TRUE(cache.FindKernel(a).has_value());
}

// ---------------------------------------------------------------------------
// LRU / budget mechanics (synthetic entries; each dense 100x100 = 80 KB)

CachedKernel MakeDenseEntry(double fill) {
  return CachedKernel{std::make_shared<linalg::Matrix>(100, 100, fill), nullptr,
                      nullptr, nullptr, nullptr, nullptr};
}

constexpr size_t kEntryBytes = 100 * 100 * sizeof(double);

SolveCacheKey TestKey(uint64_t fp) {
  return MakeSolveCacheKey(fp, 100, 100, 0.1, 0.0, false);
}

TEST(SolveCacheLruTest, EvictsLeastRecentlyUsedUnderByteBudget) {
  SolveCache cache(2 * kEntryBytes);
  cache.InsertKernel(TestKey(1), MakeDenseEntry(1.0));
  cache.InsertKernel(TestKey(2), MakeDenseEntry(2.0));
  EXPECT_EQ(cache.Stats().entries, 2u);
  EXPECT_LE(cache.Stats().bytes_cached, cache.byte_budget());

  // Touch key 1 so key 2 becomes the LRU victim.
  ASSERT_TRUE(cache.FindKernel(TestKey(1)).has_value());
  cache.InsertKernel(TestKey(3), MakeDenseEntry(3.0));

  SolveCacheStats s = cache.Stats();
  EXPECT_EQ(s.entries, 2u);
  EXPECT_EQ(s.evictions, 1u);
  EXPECT_LE(s.bytes_cached, cache.byte_budget());
  EXPECT_TRUE(cache.FindKernel(TestKey(1)).has_value());
  EXPECT_TRUE(cache.FindKernel(TestKey(3)).has_value());
  EXPECT_FALSE(cache.FindKernel(TestKey(2)).has_value());  // evicted
}

TEST(SolveCacheLruTest, PinnedEntriesAreChargedButNeverEvicted) {
  SolveCache cache(kEntryBytes);  // room for exactly one entry
  // Hold a handle to pin entry 1 as "in use by a running solve".
  CachedKernel pinned = cache.InsertKernel(TestKey(1), MakeDenseEntry(1.0));
  ASSERT_FALSE(pinned.empty());

  cache.InsertKernel(TestKey(2), MakeDenseEntry(2.0));
  SolveCacheStats s = cache.Stats();
  // Entry 1 is over budget but pinned: still resident, counted as pinned.
  EXPECT_TRUE(cache.FindKernel(TestKey(1)).has_value());
  EXPECT_GE(s.bytes_cached, kEntryBytes);
  EXPECT_GE(s.bytes_pinned, kEntryBytes);

  // Release the pin: the next insert can evict entry 1 (and any other
  // unpinned overflow) down to the budget.
  pinned = CachedKernel{};
  cache.InsertKernel(TestKey(3), MakeDenseEntry(3.0));
  s = cache.Stats();
  EXPECT_LE(s.bytes_cached, cache.byte_budget() + kEntryBytes);
  EXPECT_GE(s.evictions, 1u);
  EXPECT_FALSE(cache.FindKernel(TestKey(1)).has_value());
}

TEST(SolveCacheLruTest, InsertRaceSharesTheResidentKernel) {
  SolveCache cache;
  CachedKernel first = cache.InsertKernel(TestKey(7), MakeDenseEntry(1.0));
  // A second insert under the same key (the losing thread of a build race)
  // gets the resident storage back, not its own copy.
  CachedKernel second = cache.InsertKernel(TestKey(7), MakeDenseEntry(99.0));
  EXPECT_EQ(first.dense.get(), second.dense.get());
  EXPECT_EQ(cache.Stats().insertions, 1u);
  EXPECT_EQ((*second.dense)(0, 0), 1.0);
}

TEST(SolveCacheStatsTest, DeltaSubtractsCountersKeepsGauges) {
  SolveCacheStats before;
  before.kernel_hits = 5;
  before.kernel_misses = 2;
  before.entries = 10;
  before.bytes_cached = 1000;
  SolveCacheStats after;
  after.kernel_hits = 9;
  after.kernel_misses = 3;
  after.entries = 4;
  after.bytes_cached = 400;
  SolveCacheStats d = DeltaStats(before, after);
  EXPECT_EQ(d.kernel_hits, 4u);
  EXPECT_EQ(d.kernel_misses, 1u);
  EXPECT_EQ(d.entries, 4u);        // gauge: end value
  EXPECT_EQ(d.bytes_cached, 400u); // gauge: end value
}

// ---------------------------------------------------------------------------
// End-to-end through the Sinkhorn entry points

linalg::Matrix TestCost(size_t rows, size_t cols) {
  linalg::Matrix cost(rows, cols);
  for (size_t r = 0; r < rows; ++r) {
    for (size_t c = 0; c < cols; ++c) {
      const double d = static_cast<double>(r) - static_cast<double>(c);
      cost(r, c) = d * d / 10.0 + 0.01 * static_cast<double>(c);
    }
  }
  return cost;
}

linalg::Vector UniformMarginal(size_t n) {
  return linalg::Vector(n, 1.0 / static_cast<double>(n));
}

TEST(SolveCacheSinkhornTest, DenseHitIsBitIdenticalToMiss) {
  const linalg::Matrix cost = TestCost(9, 7);
  const linalg::Vector p = UniformMarginal(9), q = UniformMarginal(7);

  SolveCache cache;
  ot::SinkhornOptions opts;
  opts.epsilon = 0.08;
  opts.tolerance = 1e-10;
  opts.num_threads = 1;
  opts.solve_cache = &cache;
  opts.cache_cost_fingerprint = 0xC0FFEE;

  Result<ot::SinkhornResult> cold = ot::RunSinkhorn(cost, p, q, opts);
  ASSERT_TRUE(cold.ok()) << cold.status().message();
  Result<ot::SinkhornResult> hot = ot::RunSinkhorn(cost, p, q, opts);
  ASSERT_TRUE(hot.ok()) << hot.status().message();

  // Bit-identical: the hit iterated on the very storage the miss built.
  EXPECT_TRUE(cold->plan.data() == hot->plan.data());
  EXPECT_TRUE(cold->u.data() == hot->u.data());
  EXPECT_TRUE(cold->v.data() == hot->v.data());
  EXPECT_EQ(cold->transport_cost, hot->transport_cost);
  EXPECT_EQ(cold->iterations, hot->iterations);

  // And identical to a cache-less solve.
  ot::SinkhornOptions plain = opts;
  plain.solve_cache = nullptr;
  plain.cache_cost_fingerprint = 0;
  Result<ot::SinkhornResult> off = ot::RunSinkhorn(cost, p, q, plain);
  ASSERT_TRUE(off.ok());
  EXPECT_TRUE(off->plan.data() == hot->plan.data());

  SolveCacheStats s = cache.Stats();
  EXPECT_EQ(s.kernel_misses, 1u);
  EXPECT_EQ(s.kernel_hits, 1u);
  EXPECT_EQ(s.insertions, 1u);
  EXPECT_EQ(s.entries, 1u);
  EXPECT_GT(s.bytes_cached, 0u);
}

TEST(SolveCacheSinkhornTest, SparseAndLogHitsAreBitIdentical) {
  const linalg::Matrix cost = TestCost(10, 8);
  const linalg::Vector p = UniformMarginal(10), q = UniformMarginal(8);

  for (const bool log_domain : {false, true}) {
    SolveCache cache;
    ot::SinkhornOptions opts;
    opts.epsilon = 0.08;
    opts.tolerance = 1e-10;
    opts.num_threads = 1;
    opts.log_domain = log_domain;
    opts.relaxed = true;  // truncation under-serves columns legitimately
    opts.solve_cache = &cache;
    opts.cache_cost_fingerprint = 0xBEEF;

    Result<ot::SparseSinkhornResult> cold =
        ot::RunSinkhornSparse(cost, p, q, opts, /*kernel_cutoff=*/1e-6);
    ASSERT_TRUE(cold.ok()) << cold.status().message();
    Result<ot::SparseSinkhornResult> hot =
        ot::RunSinkhornSparse(cost, p, q, opts, /*kernel_cutoff=*/1e-6);
    ASSERT_TRUE(hot.ok()) << hot.status().message();

    EXPECT_TRUE(cold->plan.values() == hot->plan.values())
        << "log_domain=" << log_domain;
    EXPECT_TRUE(cold->u.data() == hot->u.data());
    EXPECT_TRUE(cold->v.data() == hot->v.data());
    EXPECT_EQ(cold->transport_cost, hot->transport_cost);
    EXPECT_EQ(cold->iterations, hot->iterations);

    SolveCacheStats s = cache.Stats();
    EXPECT_EQ(s.kernel_misses, 1u) << "log_domain=" << log_domain;
    EXPECT_EQ(s.kernel_hits, 1u) << "log_domain=" << log_domain;
  }
}

TEST(SolveCacheSinkhornTest, F32HitIsBitIdenticalToMissAndKeyedSeparately) {
  const linalg::Matrix cost = TestCost(9, 7);
  const linalg::Vector p = UniformMarginal(9), q = UniformMarginal(7);

  SolveCache cache;
  ot::SinkhornOptions opts;
  opts.epsilon = 0.08;
  opts.tolerance = 1e-10;
  opts.num_threads = 1;
  opts.precision = linalg::Precision::kFloat32;
  opts.solve_cache = &cache;
  opts.cache_cost_fingerprint = 0xF32F32;

  Result<ot::SinkhornResult> cold = ot::RunSinkhorn(cost, p, q, opts);
  ASSERT_TRUE(cold.ok()) << cold.status().message();
  Result<ot::SinkhornResult> hot = ot::RunSinkhorn(cost, p, q, opts);
  ASSERT_TRUE(hot.ok()) << hot.status().message();

  // The f32 hit iterated on the very float storage the miss built.
  EXPECT_TRUE(cold->plan.data() == hot->plan.data());
  EXPECT_TRUE(cold->u.data() == hot->u.data());
  EXPECT_TRUE(cold->v.data() == hot->v.data());
  EXPECT_EQ(cold->iterations, hot->iterations);

  // And identical to a cache-less f32 solve: the cache cannot change
  // results within a precision.
  ot::SinkhornOptions plain = opts;
  plain.solve_cache = nullptr;
  plain.cache_cost_fingerprint = 0;
  Result<ot::SinkhornResult> off = ot::RunSinkhorn(cost, p, q, plain);
  ASSERT_TRUE(off.ok());
  EXPECT_TRUE(off->plan.data() == hot->plan.data());

  // Same problem at f64 must NOT reuse the f32 entry: the precisions key
  // separate kernels, or an f64 caller would silently get float storage.
  ot::SinkhornOptions f64o = opts;
  f64o.precision = linalg::Precision::kFloat64;
  ASSERT_TRUE(ot::RunSinkhorn(cost, p, q, f64o).ok());

  SolveCacheStats s = cache.Stats();
  EXPECT_EQ(s.kernel_misses, 2u);
  EXPECT_EQ(s.kernel_hits, 1u);
  EXPECT_EQ(s.entries, 2u);
}

TEST(SolveCacheSinkhornTest, SparseF32HitIsBitIdenticalToMiss) {
  const linalg::Matrix cost = TestCost(10, 8);
  const linalg::Vector p = UniformMarginal(10), q = UniformMarginal(8);

  SolveCache cache;
  ot::SinkhornOptions opts;
  opts.epsilon = 0.08;
  opts.tolerance = 1e-10;
  opts.num_threads = 1;
  opts.precision = linalg::Precision::kFloat32;
  opts.relaxed = true;  // truncation under-serves columns legitimately
  opts.solve_cache = &cache;
  opts.cache_cost_fingerprint = 0xF32BEEF;

  Result<ot::SparseSinkhornResult> cold =
      ot::RunSinkhornSparse(cost, p, q, opts, /*kernel_cutoff=*/1e-6);
  ASSERT_TRUE(cold.ok()) << cold.status().message();
  Result<ot::SparseSinkhornResult> hot =
      ot::RunSinkhornSparse(cost, p, q, opts, /*kernel_cutoff=*/1e-6);
  ASSERT_TRUE(hot.ok()) << hot.status().message();

  EXPECT_TRUE(cold->plan.values() == hot->plan.values());
  EXPECT_TRUE(cold->u.data() == hot->u.data());
  EXPECT_TRUE(cold->v.data() == hot->v.data());
  EXPECT_EQ(cold->iterations, hot->iterations);

  SolveCacheStats s = cache.Stats();
  EXPECT_EQ(s.kernel_misses, 1u);
  EXPECT_EQ(s.kernel_hits, 1u);
}

TEST(SolveCacheSinkhornTest, DistinctEpsilonAndCutoffUseDistinctEntries) {
  const linalg::Matrix cost = TestCost(6, 6);
  const linalg::Vector p = UniformMarginal(6), q = UniformMarginal(6);

  SolveCache cache;
  ot::SinkhornOptions opts;
  opts.num_threads = 1;
  opts.solve_cache = &cache;
  opts.cache_cost_fingerprint = 0x123;

  opts.epsilon = 0.08;
  ASSERT_TRUE(ot::RunSinkhorn(cost, p, q, opts).ok());
  opts.epsilon = 0.15;  // different ε ⇒ different kernel ⇒ new entry
  ASSERT_TRUE(ot::RunSinkhorn(cost, p, q, opts).ok());
  SolveCacheStats s = cache.Stats();
  EXPECT_EQ(s.kernel_misses, 2u);
  EXPECT_EQ(s.kernel_hits, 0u);
  EXPECT_EQ(s.entries, 2u);
}

TEST(SolveCacheSinkhornTest, CutoffZeroCsrKernelNeverAliasesADenseSolve) {
  // A cutoff-0 CSR kernel keeps every entry of the dense kernel of the same
  // (cost, ε), but it is a different storage: its entry must be keyed as
  // sparse, so a dense solve under the same fingerprint misses, builds and
  // publishes its own dense kernel, and hits on the repeat — bit-identical
  // to an uncached run.
  const linalg::Matrix cost = TestCost(9, 7);
  const linalg::Vector p = UniformMarginal(9), q = UniformMarginal(7);

  SolveCache cache;
  ot::SinkhornOptions opts;
  opts.epsilon = 0.08;
  opts.num_threads = 1;
  opts.solve_cache = &cache;
  opts.cache_cost_fingerprint = 0xC5A0;

  Result<ot::SparseSinkhornResult> csr =
      ot::RunSinkhornSparse(cost, p, q, opts, /*kernel_cutoff=*/0.0);
  ASSERT_TRUE(csr.ok()) << csr.status().message();
  EXPECT_EQ(cache.Stats().kernel_misses, 1u);

  Result<ot::SinkhornResult> miss = ot::RunSinkhorn(cost, p, q, opts);
  ASSERT_TRUE(miss.ok()) << miss.status().message();
  SolveCacheStats s = cache.Stats();
  EXPECT_EQ(s.kernel_misses, 2u);
  EXPECT_EQ(s.kernel_hits, 0u);
  EXPECT_EQ(s.entries, 2u);

  Result<ot::SinkhornResult> hit = ot::RunSinkhorn(cost, p, q, opts);
  ASSERT_TRUE(hit.ok()) << hit.status().message();
  s = cache.Stats();
  EXPECT_EQ(s.kernel_misses, 2u);
  EXPECT_EQ(s.kernel_hits, 1u);

  ot::SinkhornOptions plain = opts;
  plain.solve_cache = nullptr;
  plain.cache_cost_fingerprint = 0;
  Result<ot::SinkhornResult> off = ot::RunSinkhorn(cost, p, q, plain);
  ASSERT_TRUE(off.ok());
  EXPECT_TRUE(off->plan.data() == miss->plan.data());
  EXPECT_TRUE(off->plan.data() == hit->plan.data());
}

// ---------------------------------------------------------------------------
// Through FastOTClean / the RepairScheduler (the TSan-hammered paths)

dataset::Table MakeViolatingTable(uint64_t seed, size_t rows = 300) {
  datagen::ScalingDatasetOptions opts;
  opts.num_rows = rows;
  opts.num_z_attrs = 1;
  opts.z_card = 2;
  opts.violation = 0.7;
  opts.seed = seed;
  return datagen::MakeScalingDataset(opts).value();
}

CiConstraint XyGivenZ() { return CiConstraint({"x"}, {"y"}, {"z0"}); }

RepairOptions FastRepairOptions() {
  RepairOptions opts;
  opts.fast.epsilon = 0.08;
  opts.fast.max_outer_iterations = 30;
  opts.fast.max_sinkhorn_iterations = 300;
  opts.fast.num_threads = 1;
  return opts;
}

TEST(SolveCacheRepairTest, RepeatedRepairHitsAndStaysBitIdentical) {
  const dataset::Table table = MakeViolatingTable(31);
  SolveCache cache;
  RepairOptions opts = FastRepairOptions();
  opts.fast.solve_cache = &cache;

  Result<RepairReport> cold = RepairTable(table, XyGivenZ(), opts);
  ASSERT_TRUE(cold.ok()) << cold.status().message();
  EXPECT_EQ(cold->cache_kernel_misses, 1u);
  EXPECT_EQ(cold->cache_kernel_hits, 0u);

  Result<RepairReport> hot = RepairTable(table, XyGivenZ(), opts);
  ASSERT_TRUE(hot.ok()) << hot.status().message();
  EXPECT_EQ(hot->cache_kernel_hits, 1u);
  EXPECT_EQ(hot->cache_kernel_misses, 0u);

  // Kernel reuse leaves results bit-identical.
  EXPECT_TRUE(cold->repaired.SameContents(hot->repaired));
  EXPECT_EQ(cold->transport_cost, hot->transport_cost);
  EXPECT_EQ(cold->final_cmi, hot->final_cmi);
  EXPECT_EQ(cold->total_sinkhorn_iterations, hot->total_sinkhorn_iterations);
}

TEST(SolveCacheSchedulerTest, RejectsJobsThatBringTheirOwnCache) {
  const dataset::Table table = MakeViolatingTable(33);
  SolveCache rogue;
  RepairJob job;
  job.table = &table;
  job.constraints = {XyGivenZ()};
  job.options = FastRepairOptions();
  job.options.fast.solve_cache = &rogue;  // scheduler must reject this

  RepairSchedulerOptions sched;
  sched.max_concurrent_jobs = 1;
  sched.pool_threads = 1;
  sched.cache_bytes = 64 << 20;
  RepairScheduler scheduler(sched);
  BatchReport report = scheduler.Run({job});
  ASSERT_EQ(report.failed_jobs, 1u);
  EXPECT_FALSE(report.jobs[0].ok());
}

/// The TSan target: four executors hammering one shared cache with a batch
/// that repeats two distinct keys, racing FindKernel/InsertKernel and the
/// warm-start-free read path. Results must match a cache-less sequential
/// run bit for bit.
TEST(SolveCacheSchedulerTest, ConcurrentBatchSharesOneCacheBitIdentically) {
  const dataset::Table t1 = MakeViolatingTable(34);
  const dataset::Table t2 = MakeViolatingTable(35);

  std::vector<RepairJob> jobs;
  for (size_t i = 0; i < 8; ++i) {
    RepairJob j;
    j.table = (i % 2 == 0) ? &t1 : &t2;
    j.constraints = {XyGivenZ()};
    j.options = FastRepairOptions();
    j.id = i;  // stable seeds regardless of scheduling
    jobs.push_back(j);
  }

  RepairSchedulerOptions cached;
  cached.max_concurrent_jobs = 4;
  cached.pool_threads = 1;
  cached.cache_bytes = 256 << 20;
  RepairScheduler scheduler(cached);
  BatchReport report = scheduler.Run(jobs);
  ASSERT_EQ(report.completed_jobs, jobs.size());

  // Two distinct keys (one per table): every further lookup must hit. An
  // insert race can add a miss but never a bogus hit, and the resident-
  // entry-wins policy keeps storage shared either way.
  EXPECT_GE(report.cache.kernel_misses, 2u);
  EXPECT_GE(report.cache.kernel_hits, jobs.size() - 2 * 4u);
  EXPECT_EQ(report.cache.kernel_hits + report.cache.kernel_misses,
            jobs.size());
  EXPECT_EQ(report.cache.entries, 2u);
  EXPECT_GT(report.cache.bytes_cached, 0u);

  RepairSchedulerOptions plain;
  plain.max_concurrent_jobs = 1;
  plain.pool_threads = 1;
  RepairScheduler sequential(plain);
  BatchReport baseline = sequential.Run(jobs);
  ASSERT_EQ(baseline.completed_jobs, jobs.size());
  EXPECT_EQ(baseline.cache.kernel_hits + baseline.cache.kernel_misses, 0u);

  for (size_t i = 0; i < jobs.size(); ++i) {
    ASSERT_TRUE(report.jobs[i].ok());
    ASSERT_TRUE(baseline.jobs[i].ok());
    EXPECT_TRUE(report.jobs[i]->repaired.SameContents(baseline.jobs[i]->repaired))
        << "job " << i;
    EXPECT_EQ(report.jobs[i]->transport_cost, baseline.jobs[i]->transport_cost)
        << "job " << i;
  }
}

/// TSan target for the OTCLEAN_EXCLUDES(mu_) accessor contract on
/// SolveCache::Stats(): a poller thread hammers shared_cache()->Stats()
/// (and DeltaStats folding) while an 8-job batch runs on four executors.
/// Under -fsanitize=thread this pins down that Stats() snapshots the
/// counters under the cache mutex — no torn reads, no counter going
/// backwards mid-batch.
TEST(SolveCacheSchedulerTest, StatsPollRacingABatchStaysCoherent) {
  const dataset::Table t1 = MakeViolatingTable(36);
  const dataset::Table t2 = MakeViolatingTable(37);

  std::vector<RepairJob> jobs;
  for (size_t i = 0; i < 8; ++i) {
    RepairJob j;
    j.table = (i % 2 == 0) ? &t1 : &t2;
    j.constraints = {XyGivenZ()};
    j.options = FastRepairOptions();
    j.id = i;
    jobs.push_back(j);
  }

  RepairSchedulerOptions sched;
  sched.max_concurrent_jobs = 4;
  sched.pool_threads = 1;
  sched.cache_bytes = 256 << 20;
  RepairScheduler scheduler(sched);
  ASSERT_NE(scheduler.shared_cache(), nullptr);

  std::atomic<bool> stop{false};
  std::atomic<size_t> polls{0};
  std::thread poller([&] {
    SolveCacheStats last = scheduler.shared_cache()->Stats();
    while (!stop.load(std::memory_order_relaxed)) {
      const SolveCacheStats now = scheduler.shared_cache()->Stats();
      const SolveCacheStats delta = DeltaStats(last, now);
      // Counters are monotone within a batch; a snapshot taken under the
      // cache mutex can never observe one running backwards (an unsigned
      // wrap in the delta would betray a torn read).
      EXPECT_GE(now.kernel_hits, last.kernel_hits);
      EXPECT_GE(now.kernel_misses, last.kernel_misses);
      EXPECT_GE(now.insertions, last.insertions);
      EXPECT_LE(delta.kernel_hits, now.kernel_hits);
      EXPECT_LE(delta.kernel_misses, now.kernel_misses);
      last = now;
      polls.fetch_add(1, std::memory_order_relaxed);
    }
  });

  const BatchReport report = scheduler.Run(jobs);
  stop.store(true);
  poller.join();

  ASSERT_EQ(report.completed_jobs, jobs.size());
  EXPECT_GT(polls.load(), 0u);
  const SolveCacheStats end = scheduler.shared_cache()->Stats();
  EXPECT_EQ(end.kernel_hits + end.kernel_misses, jobs.size());
  EXPECT_EQ(end.entries, 2u);  // one kernel per distinct table
}

}  // namespace
}  // namespace otclean::core
