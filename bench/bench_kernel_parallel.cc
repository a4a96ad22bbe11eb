// Micro-bench for the TransportKernel engine's threading.
//
// Part 1 — the parallel-cutoff sweep. Times one Sinkhorn iteration's
// kernel work (Apply + ApplyTranspose) inline on the calling thread and
// split across a ThreadPool, over kernel sizes from 5k to 4M nonzeros, on
// the dense f64 and the CSR f64 tier, with and without subnormal flushing
// (linalg::ScopedFlushSubnormals, which the Sinkhorn engine installs). The
// pooled pass is forced to split into one chunk per lane whatever the
// size, so the sweep shows what a split would cost where the real kernels
// decline it; each size row also reports the chunk plan the real kernels
// pick under linalg::kMinParallelWork. The sweep's passes repeat the real
// kernels' arithmetic, and their outputs are checked bit for bit against
// DenseTransportKernel / SparseTransportKernel. The "dense_fused" rows
// time what the Sinkhorn engine actually runs on a dense kernel: the
// fused sweep DenseTransportKernel::UpdateRowsApplyTranspose (one kernel
// pass for the row update and Kᵀu), inline and pooled over the kernel's
// own shape-fixed row blocks, cross-checked against the split pair plus
// simd::ScalingUpdate. Results are printed and written to
// BENCH_parallel_cutoff.json in the working directory.
//
// Part 2 — end-to-end Sinkhorn solves, serial vs pooled at every thread
// count, on problems sized so the pooled runs really dispatch to workers.
// Every thread count must produce the identical plan (the engine's
// bit-compatibility guarantee) and the pooled runs must have run chunks
// on pool workers; either failure fails the run.
//
// Usage: bench_kernel_parallel [--full]   (--full: more repetitions and the
// paper-scale 2000×2000 solve)

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "common/timer.h"
#include "linalg/fp_env.h"
#include "linalg/parallel_for.h"

#ifndef OTCLEAN_BUILD_TYPE
#define OTCLEAN_BUILD_TYPE "unknown"
#endif

using namespace otclean;

namespace {

// ------------------------------------------------------------- the sweep --

/// Kernel entries K = e^{−C/ε} at ε = 0.1 with C uniform in [0, 72], and
/// scalings log-uniform in [1e-20, 1]: the regime of a relaxed paper-scale
/// solve, where many K_ij·v_j products fall below the smallest normal
/// double.
constexpr double kEpsilon = 0.1;
constexpr double kMaxCost = 72.0;

double KernelEntry(Rng& rng) {
  return std::exp(-rng.NextDouble() * kMaxCost / kEpsilon);
}

linalg::Vector Scalings(size_t n, Rng& rng) {
  linalg::Vector v(n);
  for (size_t i = 0; i < n; ++i) v[i] = std::pow(10.0, -20.0 * rng.NextDouble());
  return v;
}

/// A dense m×n kernel.
linalg::Matrix DenseKernelMatrix(size_t m, size_t n, Rng& rng) {
  linalg::Matrix k(m, n);
  for (double& x : k.data()) x = KernelEntry(rng);
  return k;
}

/// An m×n CSR kernel keeping each entry with probability 1/4.
linalg::SparseMatrix SparseKernelMatrix(size_t m, size_t n, Rng& rng) {
  std::vector<size_t> row_ptr{0}, cols;
  std::vector<double> values;
  for (size_t r = 0; r < m; ++r) {
    for (size_t c = 0; c < n; ++c) {
      if (rng.NextUint64Below(4) != 0) continue;
      cols.push_back(c);
      values.push_back(KernelEntry(rng));
    }
    row_ptr.push_back(cols.size());
  }
  return linalg::SparseMatrix::FromParts(m, n, std::move(row_ptr),
                                         std::move(cols), std::move(values));
}

/// One Apply + ApplyTranspose on `storage`, each pass split into
/// `threads` equal chunks (threads = 1: inline). Same per-row/per-column
/// primitives as DenseKernel<double>.
void DensePair(const linalg::Matrix& k, const linalg::Vector& v,
               const linalg::Vector& u, linalg::Vector& kv, linalg::Vector& ktu,
               size_t threads, linalg::ThreadPool* pool) {
  const size_t m = k.rows();
  const size_t n = k.cols();
  const double* data = k.data().data();
  linalg::ParallelFor(
      m, threads,
      [&](size_t r0, size_t r1) {
        for (size_t r = r0; r < r1; ++r) {
          kv[r] = linalg::simd::Dot(data + r * n, v.begin(), n);
        }
      },
      /*grain=*/1, pool);
  linalg::ParallelFor(
      n, threads,
      [&](size_t c0, size_t c1) {
        double* out = ktu.begin() + c0;
        for (size_t c = 0; c < c1 - c0; ++c) out[c] = 0.0;
        linalg::simd::AxpyRows(u.begin(), data + c0, n, m, out, c1 - c0);
      },
      /*grain=*/1, pool);
}

/// The CSR twin of DensePair (SparseKernel<double>'s primitives).
void SparsePair(const linalg::SparseStorage<double>& s,
                const linalg::Vector& v, const linalg::Vector& u,
                linalg::Vector& kv, linalg::Vector& ktu, size_t threads,
                linalg::ThreadPool* pool) {
  linalg::ParallelFor(
      s.rows, threads,
      [&](size_t r0, size_t r1) {
        for (size_t r = r0; r < r1; ++r) {
          const size_t k0 = s.row_ptr[r];
          kv[r] = linalg::simd::GatherDot(s.values.data() + k0,
                                          s.col_index.data() + k0, v.begin(),
                                          s.row_ptr[r + 1] - k0);
        }
      },
      /*grain=*/1, pool);
  linalg::ParallelFor(
      s.cols, threads,
      [&](size_t c0, size_t c1) {
        for (size_t c = c0; c < c1; ++c) {
          const size_t k0 = s.col_ptr[c];
          ktu[c] = linalg::simd::GatherDotColumn(
              s.csc_values.data() + k0, s.csc_row_index.data() + k0,
              u.begin(), s.col_ptr[c + 1] - k0);
        }
      },
      /*grain=*/1, pool);
}

/// Median microseconds per call of `pair()` over `batches` timed batches,
/// each sized to take ~`batch_ms`.
template <typename Pair>
double MedianMicros(Pair&& pair, size_t batches, double batch_ms) {
  WallTimer probe;
  pair();  // warm-up; also sizes the batch
  const double one_ms = std::max(probe.ElapsedMillis(), 1e-4);
  const size_t reps = std::max<size_t>(1, static_cast<size_t>(batch_ms / one_ms));
  std::vector<double> samples;
  for (size_t b = 0; b < batches; ++b) {
    WallTimer timer;
    for (size_t r = 0; r < reps; ++r) pair();
    samples.push_back(timer.ElapsedSeconds() * 1e6 / static_cast<double>(reps));
  }
  std::nth_element(samples.begin(), samples.begin() + samples.size() / 2,
                   samples.end());
  return samples[samples.size() / 2];
}

struct SweepRow {
  std::string tier;
  size_t rows = 0, cols = 0, nnz = 0;
  bool flush = false;
  double serial_us = 0.0, pooled_us = 0.0;
  size_t kernel_chunks = 0;  ///< chunks the real kernel's (fused) pass uses
};

/// Times serial vs pooled for one kernel, flush off and on; checks the
/// sweep's pass against the real kernel (`Kernel`) bit for bit.
template <typename Storage, typename Kernel, typename Pair>
bool SweepOne(const char* tier, const Storage& storage, const Kernel& kernel,
              Pair&& pair, size_t threads, linalg::ThreadPool& pool, bool full,
              Rng& rng, std::vector<SweepRow>& out) {
  const size_t rows = kernel.rows(), cols = kernel.cols(), nnz = kernel.nnz();
  const linalg::Vector v = Scalings(cols, rng);
  const linalg::Vector u = Scalings(rows, rng);
  linalg::Vector kv(rows), ktu(cols), ref_kv, ref_ktu;
  bool ok = true;
  for (const bool flush : {false, true}) {
    std::optional<linalg::ScopedFlushSubnormals> scope;
    if (flush) scope.emplace();
    pair(storage, v, u, kv, ktu, threads, &pool);
    kernel.Apply(v, ref_kv);
    kernel.ApplyTranspose(u, ref_ktu);
    if (kv.data() != ref_kv.data() || ktu.data() != ref_ktu.data()) {
      std::printf("# MISMATCH: %s sweep pass != kernel (nnz=%zu flush=%d)\n",
                  tier, nnz, flush);
      ok = false;
    }
    const size_t batches = full ? 9 : 5;
    const double batch_ms = full ? 40.0 : 10.0;
    SweepRow row;
    row.tier = tier;
    row.rows = rows;
    row.cols = cols;
    row.nnz = nnz;
    row.flush = flush;
    row.serial_us = MedianMicros(
        [&] { pair(storage, v, u, kv, ktu, 1, nullptr); }, batches, batch_ms);
    row.pooled_us = MedianMicros(
        [&] { pair(storage, v, u, kv, ktu, threads, &pool); }, batches,
        batch_ms);
    row.kernel_chunks =
        linalg::PlanChunks(rows, threads,
                           linalg::GrainForWork(nnz / std::max<size_t>(rows, 1)))
            .num_chunks;
    std::printf("%-7s %-11zu %-6s %-12.2f %-12.2f %-8.2f %zu\n", tier, nnz,
                flush ? "on" : "off", row.serial_us, row.pooled_us,
                row.serial_us / row.pooled_us, row.kernel_chunks);
    out.push_back(row);
  }
  return ok;
}

/// Times the engine's dense sweep — UpdateRowsApplyTranspose at the
/// relaxed exponent of λ = 5, ε = 0.1 — inline (one thread, no pool) and
/// with the pool, flush off and on. The pooled sweep splits only as the
/// kernel's blocks allow (one block below kMinParallelWork). Checks it
/// against Apply + ScalingUpdate + ApplyTranspose: scalings and residual
/// bit for bit, Kᵀu bit for bit on a one-block kernel and to 1e-14
/// relative otherwise (the blocks' partials are summed in block order).
bool FusedOne(const linalg::DenseTransportKernel& kernel, size_t threads,
              linalg::ThreadPool& pool, bool full, Rng& rng,
              std::vector<SweepRow>& out) {
  const linalg::DenseTransportKernel serial(kernel.shared_storage(), 1);
  const linalg::DenseTransportKernel pooled(kernel.shared_storage(), threads,
                                            &pool);
  const size_t rows = kernel.rows(), cols = kernel.cols();
  const linalg::Vector marginal = Scalings(rows, rng);
  const linalg::Vector v = Scalings(cols, rng);
  const linalg::Vector u = Scalings(rows, rng);
  constexpr double kExponent = 5.0 / (5.0 + kEpsilon);
  const size_t block_rows = linalg::FusedSweepBlockRows(rows, cols);
  const bool one_block = block_rows >= rows;
  linalg::Vector next_u, ktu, scratch, kv, ref_u(rows), ref_ktu;
  bool ok = true;
  for (const bool flush : {false, true}) {
    std::optional<linalg::ScopedFlushSubnormals> scope;
    if (flush) scope.emplace();
    const double residual = pooled.UpdateRowsApplyTranspose(
        marginal, kExponent, v, u, next_u, ktu, scratch);
    serial.Apply(v, kv);
    const double ref_residual =
        linalg::simd::ScalingUpdate(marginal.begin(), kv.begin(), kExponent,
                                    u.begin(), ref_u.begin(), rows);
    serial.ApplyTranspose(ref_u, ref_ktu);
    bool match = residual == ref_residual && next_u.data() == ref_u.data();
    for (size_t c = 0; c < cols; ++c) {
      const double tol = one_block ? 0.0 : 1e-14 * std::fabs(ref_ktu[c]);
      match &= std::fabs(ktu[c] - ref_ktu[c]) <= tol;
    }
    if (!match) {
      std::printf("# MISMATCH: fused sweep != split pair (nnz=%zu flush=%d)\n",
                  rows * cols, flush);
      ok = false;
    }
    const size_t batches = full ? 9 : 5;
    const double batch_ms = full ? 40.0 : 10.0;
    SweepRow row;
    row.tier = "dense_fused";
    row.rows = rows;
    row.cols = cols;
    row.nnz = rows * cols;
    row.flush = flush;
    row.serial_us = MedianMicros(
        [&] {
          serial.UpdateRowsApplyTranspose(marginal, kExponent, v, u, next_u,
                                          ktu, scratch);
        },
        batches, batch_ms);
    row.pooled_us = MedianMicros(
        [&] {
          pooled.UpdateRowsApplyTranspose(marginal, kExponent, v, u, next_u,
                                          ktu, scratch);
        },
        batches, batch_ms);
    row.kernel_chunks =
        linalg::PlanChunks((rows + block_rows - 1) / block_rows, threads, 1)
            .num_chunks;
    std::printf("%-7s %-11zu %-6s %-12.2f %-12.2f %-8.2f %zu\n", "fused",
                row.nnz, flush ? "on" : "off", row.serial_us, row.pooled_us,
                row.serial_us / row.pooled_us, row.kernel_chunks);
    out.push_back(row);
  }
  return ok;
}

bool RunSweep(bool full, size_t threads, std::vector<SweepRow>& rows) {
  linalg::ThreadPool pool(threads);
  Rng rng(11);
  std::printf("%-7s %-11s %-6s %-12s %-12s %-8s %s\n", "tier", "nnz",
              "flush", "serial_us", "pooled_us", "speedup", "kernel_chunks");
  bool ok = true;
  for (const size_t target : {size_t{5000}, size_t{10000}, size_t{20200},
                              size_t{50000}, size_t{100000}, size_t{250000},
                              size_t{500000}, size_t{1000000}, size_t{2000000},
                              size_t{4000000}}) {
    // Paper shape: twice as many columns as rows (Boston is 101×200).
    const size_t m = static_cast<size_t>(std::sqrt(target / 2.0));
    {
      const linalg::DenseTransportKernel kernel(
          DenseKernelMatrix(m, 2 * m, rng), threads, &pool);
      ok &= SweepOne("dense", kernel.kernel(), kernel, DensePair, threads,
                     pool, full, rng, rows);
      ok &= FusedOne(kernel, threads, pool, full, rng, rows);
    }
    {
      // Same stored nnz at density 1/4: a 2× taller and wider grid.
      const linalg::SparseTransportKernel kernel(
          SparseKernelMatrix(2 * m, 4 * m, rng), threads, &pool);
      ok &= SweepOne("csr", *kernel.shared_storage(), kernel, SparsePair,
                     threads, pool, full, rng, rows);
    }
  }
  return ok;
}

void WriteSweepJson(const char* path, const std::vector<SweepRow>& rows,
                    size_t threads, bool full, bool checks_ok) {
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::printf("# could not write %s\n", path);
    return;
  }
  std::fprintf(f, "{\n  \"bench\": \"parallel_cutoff\",\n");
  std::fprintf(f, "  \"mode\": \"%s\",\n", full ? "full" : "smoke");
  std::fprintf(f, "  \"hardware_concurrency\": %zu,\n",
               linalg::ResolveThreadCount(0));
  std::fprintf(f, "  \"pool_threads\": %zu,\n", threads);
  std::fprintf(f, "  \"isa\": \"%s\",\n", linalg::simd::ActiveIsaName());
  std::fprintf(f, "  \"build_type\": \"%s\",\n", OTCLEAN_BUILD_TYPE);
  std::fprintf(f, "  \"min_parallel_work\": %zu,\n", linalg::kMinParallelWork);
  std::fprintf(f,
               "  \"op\": \"f64 median us per sweep: Apply+ApplyTranspose "
               "forced to one chunk per lane when pooled (dense, csr); the "
               "engine's fused UpdateRowsApplyTranspose over its own row "
               "blocks (dense_fused)\",\n");
  std::fprintf(f, "  \"cross_checks_ok\": %s,\n", checks_ok ? "true" : "false");
  std::fprintf(f, "  \"results\": [\n");
  for (size_t i = 0; i < rows.size(); ++i) {
    const SweepRow& r = rows[i];
    std::fprintf(f,
                 "    {\"tier\": \"%s\", \"rows\": %zu, \"cols\": %zu, "
                 "\"nnz\": %zu, \"flush\": %s, \"serial_us\": %.2f, "
                 "\"pooled_us\": %.2f, \"pooled_speedup\": %.3f, "
                 "\"kernel_chunks\": %zu}%s\n",
                 r.tier.c_str(), r.rows, r.cols, r.nnz,
                 r.flush ? "true" : "false", r.serial_us, r.pooled_us,
                 r.serial_us / r.pooled_us, r.kernel_chunks,
                 i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
}

// ------------------------------------------------------ end-to-end solves --

linalg::Matrix RandomCost(size_t m, size_t n, Rng& rng) {
  linalg::Matrix cost(m, n);
  for (double& v : cost.data()) v = rng.NextDouble() * 3.0;
  return cost;
}

linalg::Vector RandomMarginal(size_t n, Rng& rng) {
  linalg::Vector v(n);
  for (size_t i = 0; i < n; ++i) v[i] = 0.05 + rng.NextDouble();
  v.Normalize();
  return v;
}

/// Counts chunks run off the calling thread (i.e. on pool workers) while
/// installed as the pool's chunk hook.
struct WorkerChunkCount {
  std::thread::id dispatcher = std::this_thread::get_id();
  std::atomic<size_t> chunks{0};

  static void Hook(void* ctx) {
    auto* self = static_cast<WorkerChunkCount*>(ctx);
    if (std::this_thread::get_id() != self->dispatcher) ++self->chunks;
  }
};

struct RunStats {
  double seconds = 0.0;
  size_t iterations = 0;
  size_t worker_chunks = 0;
  linalg::Matrix plan;
};

RunStats TimeSolve(const linalg::Matrix& cost, const linalg::Vector& p,
                   const linalg::Vector& q, size_t threads, bool sparse) {
  ot::SinkhornOptions opts;
  opts.epsilon = 0.1;
  opts.relaxed = true;
  opts.lambda = 5.0;
  opts.tolerance = 1e-9;
  opts.num_threads = threads;
  WorkerChunkCount count;
  linalg::ThreadPool::SetChunkHook(&WorkerChunkCount::Hook, &count);
  WallTimer timer;
  RunStats stats;
  if (sparse) {
    auto r = ot::RunSinkhornSparse(cost, p, q, opts, /*kernel_cutoff=*/1e-6)
                 .value();
    stats.iterations = r.iterations;
    stats.plan = r.plan.ToDense();
  } else {
    auto r = ot::RunSinkhorn(cost, p, q, opts).value();
    stats.iterations = r.iterations;
    stats.plan = std::move(r.plan);
  }
  stats.seconds = timer.ElapsedSeconds();
  linalg::ThreadPool::SetChunkHook(nullptr, nullptr);
  stats.worker_chunks = count.chunks.load();
  return stats;
}

bool RunSolves(bool full, size_t hw) {
  // 1200×1200 keeps the dense (1.44M nnz) and the truncated (~0.66M nnz)
  // kernel above twice the parallel cutoff, so 2+ threads really split.
  const size_t n = full ? 2000 : 1200;
  std::printf("# problem: %zux%zu, hardware threads: %zu\n", n, n, hw);

  Rng rng(7);
  const linalg::Matrix cost = RandomCost(n, n, rng);
  const linalg::Vector p = RandomMarginal(n, rng);
  const linalg::Vector q = RandomMarginal(n, rng);

  bool identical = true, pooled = true;
  std::printf("%-8s %-10s %-12s %-12s %-10s %s\n", "kernel", "threads",
              "seconds", "iters_per_s", "speedup", "worker_chunks");
  // Always include 2 threads (even on a 1-core box) so the identical-plan
  // cross-check exercises the parallel path everywhere.
  std::vector<size_t> thread_counts{1, 2};
  if (hw > 2) thread_counts.push_back(hw);
  for (const bool sparse : {false, true}) {
    RunStats base;
    for (size_t threads : thread_counts) {
      const RunStats stats = TimeSolve(cost, p, q, threads, sparse);
      if (threads == 1) {
        base = stats;
      } else {
        if (!stats.plan.ApproxEquals(base.plan, 0.0)) identical = false;
        if (stats.worker_chunks == 0) pooled = false;
      }
      std::printf("%-8s %-10zu %-12.3f %-12.0f %-10.2f %zu\n",
                  sparse ? "sparse" : "dense", threads, stats.seconds,
                  static_cast<double>(stats.iterations) /
                      (stats.seconds > 0.0 ? stats.seconds : 1e-9),
                  threads == 1 ? 1.0 : base.seconds / stats.seconds,
                  stats.worker_chunks);
    }
  }
  std::printf("# plans identical across thread counts = %s\n",
              identical ? "yes" : "NO");
  std::printf("# pooled runs dispatched to workers = %s\n",
              pooled ? "yes" : "NO");
  return identical && pooled;
}

}  // namespace

int main(int argc, char** argv) {
  const bool full = bench::FullScale(argc, argv);
  const size_t hw = linalg::ResolveThreadCount(0);
  // Split into at least 2 chunks even on a 1-core box, so the sweep
  // always measures a real dispatch.
  const size_t threads = std::max<size_t>(hw, 2);

  bench::PrintHeader(
      "TransportKernel: serial vs pooled Sinkhorn sweep by kernel size",
      "pooling loses on cache-resident kernels and wins on large ones; "
      "the crossover sets linalg::kMinParallelWork; the fused dense sweep "
      "reads the kernel once");
  std::vector<SweepRow> rows;
  const bool sweep_ok = RunSweep(full, threads, rows);
  WriteSweepJson("BENCH_parallel_cutoff.json", rows, threads, full, sweep_ok);

  bench::PrintHeader(
      "TransportKernel: serial vs row-blocked parallel Sinkhorn",
      "near-linear kernel speedup with cores; identical plans at any "
      "thread count");
  const bool solves_ok = RunSolves(full, hw);
  return sweep_ok && solves_ok ? 0 : 1;
}
