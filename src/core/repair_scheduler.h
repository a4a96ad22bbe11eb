#ifndef OTCLEAN_CORE_REPAIR_SCHEDULER_H_
#define OTCLEAN_CORE_REPAIR_SCHEDULER_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/cancellation.h"
#include "common/thread_annotations.h"
#include "common/result.h"
#include "core/ci_constraint.h"
#include "core/repair.h"
#include "core/solve_cache.h"
#include "dataset/table.h"
#include "linalg/thread_pool.h"
#include "ot/cost.h"

namespace otclean::core {

/// Sentinel for RepairJob::id: derive the job's stable id from its position
/// in the batch handed to RepairScheduler::Run.
inline constexpr uint64_t kAutoJobId = ~uint64_t{0};

/// One entry of a repair batch. `table` (and `cost`, when set) must outlive
/// the Run call; the scheduler never copies the data.
struct RepairJob {
  const dataset::Table* table = nullptr;
  /// Every job runs RepairTableMulti over these constraints; one
  /// constraint is exactly RepairTable.
  std::vector<CiConstraint> constraints;
  /// Per-job solver configuration. `options.{fast,qclp}.thread_pool` must
  /// stay null — the scheduler dispatches every job on its one shared pool
  /// and rejects jobs that bring their own (InvalidArgument). When the
  /// scheduler's pool resolves to width 1, per-job `num_threads` is forced
  /// to 1 as well (executors are then the only concurrency; results are
  /// unchanged — kernels are bit-compatible across thread counts).
  RepairOptions options;
  /// Optional cost over the cleaned sub-domain (see OtCleanRepairer::Fit);
  /// null builds the paper's C1 cost per job.
  const ot::CostFunction* cost = nullptr;
  /// Stable id mixed into the per-job seed (see DeriveJobSeed). Defaults to
  /// the job's position in the batch (Run) or its ticket number (standalone
  /// Submit); set it explicitly when the same logical job must keep its
  /// seed across batches that order jobs differently.
  uint64_t id = kAutoJobId;
  /// Free-form label echoed in CLI/bench summaries; no semantic meaning.
  std::string name;
  /// Wall-clock budget in seconds, measured from Submit — queue wait counts
  /// against it, so an admission-starved job times out rather than running
  /// arbitrarily late. Unset inherits
  /// RepairSchedulerOptions::default_deadline_seconds; an explicit value
  /// must be finite and > 0 (zero or negative is InvalidArgument, loudly,
  /// never a silent "no deadline"). Exceeding it fails the job with
  /// kDeadlineExceeded; completed work is never altered retroactively.
  std::optional<double> deadline_seconds;
};

/// Aggregate outcome of one batch.
struct BatchReport {
  /// Per-job outcomes, in batch order (never reordered by completion).
  std::vector<Result<RepairReport>> jobs;
  size_t completed_jobs = 0;  ///< jobs whose Result is ok().
  size_t failed_jobs = 0;     ///< all non-ok jobs, cancelled/deadlined included.
  /// Termination-reason sub-counts. `cancelled_jobs` and
  /// `deadline_exceeded_jobs` partition the kCancelled / kDeadlineExceeded
  /// slices of `failed_jobs`; `retried_jobs` counts *successful* jobs that
  /// needed at least one RetryOptions fallback (termination "retried-ok").
  size_t cancelled_jobs = 0;
  size_t deadline_exceeded_jobs = 0;
  size_t retried_jobs = 0;
  double wall_seconds = 0.0;
  /// Batch throughput: total jobs / wall_seconds.
  double jobs_per_second = 0.0;
  /// Summed over successful jobs.
  size_t total_sinkhorn_iterations = 0;
  /// Largest single plan held by any successful job.
  size_t peak_plan_bytes = 0;
  /// Shared solve-cache activity attributable to this batch: counters are
  /// the delta over the Run call (the cache may outlive many batches),
  /// gauges (entries / bytes_cached / bytes_pinned) are end-of-batch
  /// values. All zero when the scheduler runs cache-less.
  SolveCacheStats cache;
};

struct RepairSchedulerOptions {
  /// Executor threads running whole repair jobs concurrently; 0 = hardware
  /// concurrency. Each executor drives solves on the one shared kernel
  /// pool, so a machine is never oversubscribed N-fold by N jobs.
  size_t max_concurrent_jobs = 0;
  /// Lanes of the shared kernel pool (0 = hardware concurrency). Ignored
  /// when `thread_pool` is supplied.
  size_t pool_threads = 0;
  /// Optional externally owned pool shared with other work in the process;
  /// must outlive the scheduler. When null the scheduler owns one pool for
  /// its lifetime.
  linalg::ThreadPool* thread_pool = nullptr;
  /// Byte budget of the scheduler-owned cross-request SolveCache. 0 — the
  /// default — runs cache-less (identical to pre-cache behavior); > 0
  /// creates one cache for the scheduler's lifetime, shared by every job
  /// of every batch, with strict LRU eviction at this budget. Ignored
  /// when `solve_cache` is supplied. (For an *unlimited* owned cache
  /// there is deliberately no spelling — pass your own SolveCache(0).)
  size_t cache_bytes = 0;
  /// Optional externally owned cache shared with other work in the
  /// process; must outlive the scheduler.
  SolveCache* solve_cache = nullptr;
  /// Admission control: upper bound on jobs *waiting* in the pending queue
  /// (in-flight jobs are not counted — they are bounded by
  /// max_concurrent_jobs already). Submit beyond the bound fails fast with
  /// kResourceExhausted instead of growing the queue without limit. 0 — the
  /// default — leaves the queue unbounded.
  size_t max_queued_jobs = 0;
  /// Deadline applied to jobs that do not set RepairJob::deadline_seconds,
  /// in seconds from their Submit. 0 — the default — means no default
  /// deadline; negative or NaN values are InvalidArgument (reported on the
  /// first Submit, the scheduler's earliest fallible call).
  double default_deadline_seconds = 0.0;
  /// Optional fault-injection harness (core/fault_injector.h) threaded
  /// through the scheduler's shared cache and into every job that does not
  /// carry its own; must outlive the scheduler. Null costs nothing.
  FaultInjector* fault_injector = nullptr;
};

/// The per-job seed: `base_seed` (the job's RepairOptions::seed) mixed with
/// the job's stable id through a SplitMix64-style finalizer. Distinct ids
/// decorrelate jobs that share a base seed, and the derivation depends only
/// on (base_seed, id) — never on executor assignment or completion order —
/// so batch results are reproducible run to run and identical however the
/// batch is sharded.
uint64_t DeriveJobSeed(uint64_t base_seed, uint64_t job_id);

/// Opaque handle to one submitted job; consumed by Wait.
using JobTicket = uint64_t;

/// Serves many repairs off one process: shards submitted RepairJobs across
/// a bounded set of executor threads that all dispatch kernel work on one
/// shared linalg::ThreadPool. Per-job results are bit-identical to running
/// the same jobs sequentially (same derived seeds, and a solve's chunk
/// decomposition never depends on what else shares the pool — cancellation
/// and deadlines can only *abort* a solve, never reshape it).
///
/// Two layers of API:
///  - Submit/Wait/Cancel — the serving surface: admission control
///    (max_queued_jobs), per-job deadlines measured from Submit, and
///    cooperative cancellation of queued or in-flight jobs. The scheduler
///    owns each job's CancellationToken; jobs must arrive with every
///    solver family's cancel_token null and deadline infinite
///    (`options.{fast,qclp,fairness}` alike — InvalidArgument otherwise,
///    the same loud-conflict policy as job-supplied pools and caches). The
///    scheduler wires its token and the Submit-anchored deadline into all
///    three, so kQclp and the fairness baselines honor Cancel and
///    deadline_seconds exactly like FastOTClean jobs.
///  - Run — the batch convenience, reimplemented over Submit/Wait: blocks
///    until every job completed, keeps results in batch order, and applies
///    backpressure (waiting out earlier jobs) instead of failing when a
///    batch overflows a bounded queue.
///
/// The scheduler is reusable across batches. DrainAndStop() (also run by
/// the destructor) finishes in-flight jobs, fails still-queued ones with
/// kCancelled, and stops the executors for good — Submit afterwards is
/// FailedPrecondition. Run itself must not be called concurrently from
/// several threads on the same scheduler; Submit/Wait/Cancel may be.
class RepairScheduler {
 public:
  explicit RepairScheduler(RepairSchedulerOptions options = {});
  ~RepairScheduler() { DrainAndStop(); }

  RepairScheduler(const RepairScheduler&) = delete;
  RepairScheduler& operator=(const RepairScheduler&) = delete;

  /// Admits one job. Validates loudly (null table, empty constraints,
  /// job-supplied pool/cache/token/deadline conflicts, non-positive
  /// explicit deadline → InvalidArgument), fails fast with
  /// kResourceExhausted when the pending queue is at max_queued_jobs, and
  /// with FailedPrecondition after DrainAndStop. The job's deadline clock
  /// starts now, in this call.
  Result<JobTicket> Submit(const RepairJob& job) OTCLEAN_EXCLUDES(mu_);

  /// Blocks until the ticket's job completed (ok, failed, cancelled or
  /// deadline-exceeded) and returns its result, consuming the ticket —
  /// a second Wait on it is NotFound.
  Result<RepairReport> Wait(JobTicket ticket) OTCLEAN_EXCLUDES(mu_);

  /// Requests cooperative cancellation: a still-queued job fails with
  /// kCancelled at dequeue; an in-flight solve aborts at its next
  /// iteration/outer-step/chunk checkpoint. Idempotent; a job that already
  /// completed keeps its result (Cancel still returns OK — the race is
  /// inherent). NotFound for unknown or already-consumed tickets.
  Status Cancel(JobTicket ticket) OTCLEAN_EXCLUDES(mu_);

  /// Lifecycle shutdown: lets in-flight jobs finish, fails every
  /// still-queued job with kCancelled, then joins the executors. Results
  /// remain collectable via Wait; further Submits are FailedPrecondition.
  /// Idempotent.
  void DrainAndStop() OTCLEAN_EXCLUDES(mu_);

  /// Runs every job; blocks until the whole batch completed. Per-job
  /// failures (bad options, infeasible solves, deadlines) land in the
  /// corresponding Result slot — one bad job never aborts its batch.
  BatchReport Run(const std::vector<RepairJob>& jobs) OTCLEAN_EXCLUDES(mu_);

  /// The pool every executor's solves dispatch on (null when the resolved
  /// pool width is 1 — solves run serial, executors still shard).
  /// EXCLUDES(mu_) documents lock-free polling as part of the contract:
  /// pool_/cache_ are fixed at construction, so accessors never need —
  /// and must never wait on — the scheduler mutex, even mid-batch.
  linalg::ThreadPool* shared_pool() OTCLEAN_EXCLUDES(mu_) { return pool_; }

  /// The cross-request cache every job solves through (null when the
  /// scheduler runs cache-less). Exposed so callers can fold their own
  /// lookups (the CLI's table cache) into its stats, and safe to poll
  /// (e.g. shared_cache()->Stats()) while a batch is running.
  SolveCache* shared_cache() OTCLEAN_EXCLUDES(mu_) { return cache_; }

 private:
  /// One admitted job: the copied RepairJob plus the scheduler-owned
  /// cancellation token, the deadline resolved at Submit, and the result
  /// slot the executor fills. Shared between the ticket map, the queue and
  /// the running executor, so a drained queue or consumed ticket never
  /// invalidates what another party still holds.
  struct PendingJob {
    RepairJob job;
    uint64_t seed_id = 0;
    CancellationToken token;
    Deadline deadline;
    /// done/result are guarded by the scheduler's mu_ (TSA cannot name a
    /// sibling object's mutex from a shared heap node, so the discipline
    /// is documented here and enforced on the scheduler's own fields).
    bool done = false;
    std::optional<Result<RepairReport>> result;
  };

  Status ValidateJob(const RepairJob& job) const;
  Result<RepairReport> RunOne(PendingJob& pending);
  void ExecutorLoop() OTCLEAN_EXCLUDES(mu_);

  RepairSchedulerOptions options_;
  std::optional<linalg::ThreadPool> owned_pool_;
  linalg::ThreadPool* pool_ = nullptr;
  std::optional<SolveCache> owned_cache_;
  SolveCache* cache_ = nullptr;

  Mutex mu_;
  CondVar cv_work_;  ///< executors: queue gained work / stop
  CondVar cv_done_;  ///< waiters: some job completed
  std::deque<std::shared_ptr<PendingJob>> queue_ OTCLEAN_GUARDED_BY(mu_);
  std::unordered_map<JobTicket, std::shared_ptr<PendingJob>> tickets_
      OTCLEAN_GUARDED_BY(mu_);
  /// Lazily started at first Submit; swapped out under mu_ and joined
  /// lock-free by DrainAndStop. Executors run whole repair jobs, not kernel
  /// chunks; per-chunk work inside each job still goes through the shared
  /// linalg::ThreadPool, so the bit-identity contract is untouched.
  // otclean-lint: allow(raw-thread) — see above.
  std::vector<std::thread> executors_ OTCLEAN_GUARDED_BY(mu_);
  JobTicket next_ticket_ OTCLEAN_GUARDED_BY(mu_) = 1;
  bool draining_ OTCLEAN_GUARDED_BY(mu_) = false;
};

}  // namespace otclean::core

#endif  // OTCLEAN_CORE_REPAIR_SCHEDULER_H_
