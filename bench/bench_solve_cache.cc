// Cross-request solve-cache bench: jobs/sec and total Sinkhorn iterations
// for a repeated-key batch served two ways through core::RepairScheduler —
//
//   off            no cache (pre-cache serving model)
//   kernel         SolveCache kernel reuse (hits are bit-identical to
//                  misses)
//
// The batch repeats a handful of distinct (table, ε, truncation) keys many
// times — the serving pattern the cache exists for (one tenant's nightly
// repairs, a dashboard re-solving on refresh). Kernel construction streams
// all rows×cols costs even when truncation keeps the kernel sparse, so on
// repeated keys the build dominates and reuse pays regardless of core
// count. Kernel-reuse results must stay bit-identical to the cache-off run
// job for job; any mismatch fails the bench, as does a kernel-reuse
// speedup below 1.5x.
//
// Results are printed as a table and written to BENCH_solve_cache.json.
//
// Flags:
//   --full     larger tables and more repeats
//   --smoke    tiny grid, one reliable reason: CI smoke mode

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_common.h"

using namespace otclean;

namespace {

struct LevelResult {
  std::string mode;
  double seconds = 0.0;
  double jobs_per_sec = 0.0;
  double speedup = 1.0;  ///< vs the cache-off run.
  size_t sinkhorn_iterations = 0;
  size_t kernel_hits = 0;
  size_t kernel_misses = 0;
  size_t bytes_cached = 0;
};

void WriteJson(const std::string& path, size_t num_jobs, size_t distinct_keys,
               const std::vector<LevelResult>& levels, bool identical) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(f, "{\n  \"bench\": \"solve_cache\",\n");
  std::fprintf(f, "  \"jobs\": %zu,\n", num_jobs);
  std::fprintf(f, "  \"distinct_keys\": %zu,\n", distinct_keys);
  std::fprintf(f, "  \"hardware_concurrency\": %zu,\n",
               linalg::ResolveThreadCount(0));
  std::fprintf(f, "  \"kernel_reuse_bit_identical\": %s,\n",
               identical ? "true" : "false");
  std::fprintf(f, "  \"levels\": [\n");
  for (size_t i = 0; i < levels.size(); ++i) {
    const LevelResult& r = levels[i];
    std::fprintf(
        f,
        "    {\"mode\": \"%s\", \"seconds\": %.4f, \"jobs_per_sec\": %.2f, "
        "\"speedup_vs_off\": %.2f, \"sinkhorn_iterations\": %zu, "
        "\"kernel_hits\": %zu, \"kernel_misses\": %zu, "
        "\"bytes_cached\": %zu}%s\n",
        r.mode.c_str(), r.seconds, r.jobs_per_sec, r.speedup,
        r.sinkhorn_iterations, r.kernel_hits, r.kernel_misses, r.bytes_cached,
        i + 1 < levels.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("# wrote %s\n", path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  const bool full = bench::FullScale(argc, argv);
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }

  bench::PrintHeader(
      "Solve cache: repeated-key batches with kernel reuse",
      "kernel reuse serves repeated keys bit-identically at >= 1.5x "
      "jobs/sec");

  // Two tables x two option variants = 4 distinct cache keys, each repeated
  // `repeats` times. Wide z-attributes grow the domain (the rows x cols
  // cost stream the cache skips); truncation keeps the iterated kernel
  // sparse so construction dominates the solve.
  datagen::ScalingDatasetOptions gen;
  gen.num_rows = smoke ? 400 : (full ? 8000 : 4000);
  gen.num_z_attrs = 2;
  gen.z_card = smoke ? 3 : 4;
  gen.num_w_attrs = smoke ? 2 : 3;
  gen.w_card = 6;
  gen.violation = 0.6;
  gen.seed = 21;
  const auto table_a = datagen::MakeScalingDataset(gen).value();
  gen.seed = 22;
  gen.violation = 0.4;
  const auto table_b = datagen::MakeScalingDataset(gen).value();
  const core::CiConstraint ci({"x"}, {"y"}, {"z0", "z1"});

  const size_t repeats = smoke ? 3 : (full ? 12 : 6);
  const size_t distinct_keys = 4;
  std::vector<core::RepairJob> jobs;
  for (size_t r = 0; r < repeats; ++r) {
    for (size_t k = 0; k < distinct_keys; ++k) {
      core::RepairJob job;
      job.table = k % 2 == 0 ? &table_a : &table_b;
      job.constraints = {ci};
      job.options = bench::BenchRepairOptions();
      // Clean the full joint (w-attributes included): the kernel streams
      // active² costs at build, which is the work the cache
      // skips on repeated keys. Gentle lambda + loose-ish tolerances so
      // every job converges, and an aggressive cutoff so iteration work
      // stays O(small nnz).
      job.options.use_saturation = false;
      job.options.fast.epsilon = 0.3;
      job.options.fast.lambda = 2.0;
      job.options.fast.sinkhorn_tolerance = 1e-4;
      job.options.fast.outer_tolerance = 5e-3;
      job.options.fast.max_outer_iterations = 150;
      job.options.fast.max_sinkhorn_iterations = 1000;
      job.options.fast.kernel_truncation = k < 2 ? 1e-2 : 3e-3;
      job.options.fast.num_threads = 1;
      // One logical job id per (key, repeat): repeats are *re-requests* of
      // the same repair, so they share the id (and therefore the seed) —
      // exactly the case where results must not depend on the cache.
      job.options.seed = 100 + k;
      job.id = k;
      jobs.push_back(std::move(job));
    }
  }

  std::printf("# jobs: %zu (%zu distinct keys x %zu repeats), hardware "
              "threads: %zu\n",
              jobs.size(), distinct_keys, repeats,
              linalg::ResolveThreadCount(0));
  std::printf("%-14s %-10s %-12s %-10s %-12s %-18s\n", "mode", "seconds",
              "jobs_per_s", "speedup", "sink_iters", "hits/misses");

  struct Mode {
    const char* name;
    size_t cache_bytes;
  };
  const Mode modes[] = {
      {"off", 0},
      {"kernel", 512u << 20},
  };

  bool identical = true;
  std::vector<LevelResult> levels;
  for (const Mode& mode : modes) {
    core::RepairSchedulerOptions sched;
    sched.max_concurrent_jobs = 1;  // isolate cache wins from concurrency
    sched.pool_threads = 1;
    sched.cache_bytes = mode.cache_bytes;
    core::RepairScheduler scheduler(sched);

    // Warm-up pass: pool startup and table fault-in leave the timing; for
    // the cached mode it also pre-populates the cache, so the measured
    // pass times *steady-state* serving (every key resident).
    scheduler.Run(jobs);
    core::BatchReport report = scheduler.Run(jobs);
    if (report.failed_jobs != 0) {
      std::fprintf(stderr, "FAILED: %zu jobs failed in mode %s\n",
                   report.failed_jobs, mode.name);
      return 1;
    }

    LevelResult level;
    level.mode = mode.name;
    level.seconds = report.wall_seconds;
    level.jobs_per_sec = report.jobs_per_second;
    level.sinkhorn_iterations = report.total_sinkhorn_iterations;
    level.kernel_hits = report.cache.kernel_hits;
    level.kernel_misses = report.cache.kernel_misses;
    level.bytes_cached = report.cache.bytes_cached;
    if (levels.empty()) {
      level.speedup = 1.0;
    } else {
      level.speedup = level.jobs_per_sec / levels.front().jobs_per_sec;
    }

    // Kernel reuse must not change a single byte of any repair.
    if (!levels.empty()) {
      // Compare against the cache-off run job for job (same seeds/ids).
      core::RepairSchedulerOptions plain;
      plain.max_concurrent_jobs = 1;
      plain.pool_threads = 1;
      core::RepairScheduler baseline_sched(plain);
      core::BatchReport baseline = baseline_sched.Run(jobs);
      for (size_t i = 0; i < jobs.size(); ++i) {
        if (!report.jobs[i].ok() || !baseline.jobs[i].ok() ||
            !report.jobs[i]->repaired.SameContents(
                baseline.jobs[i]->repaired) ||
            report.jobs[i]->transport_cost !=
                baseline.jobs[i]->transport_cost) {
          identical = false;
          std::fprintf(stderr,
                       "MISMATCH: job %zu with kernel reuse diverged from "
                       "the cache-off run\n",
                       i);
        }
      }
    }

    std::printf("%-14s %-10.3f %-12.2f %-10.2f %-12zu %zu/%zu\n",
                level.mode.c_str(), level.seconds, level.jobs_per_sec,
                level.speedup, level.sinkhorn_iterations, level.kernel_hits,
                level.kernel_misses);
    levels.push_back(level);
  }

  WriteJson("BENCH_solve_cache.json", jobs.size(), distinct_keys, levels,
            identical);
  std::printf("# kernel reuse bit-identical to cache-off = %s\n",
              identical ? "yes" : "NO");

  bool gates_ok = true;
  // Kernel reuse pays >= 1.5x on repeated keys. This is CPU work saved,
  // not parallelism — it must hold on any core count. (Smoke mode only
  // reports: tiny problems leave too little build work to amortize.)
  if (!smoke && levels[1].speedup < 1.5) {
    gates_ok = false;
    std::fprintf(stderr,
                 "SPEEDUP: kernel reuse %.2fx vs off — expected >= 1.5x\n",
                 levels[1].speedup);
  }
  return identical && gates_ok ? 0 : 1;
}
