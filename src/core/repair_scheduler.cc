#include "core/repair_scheduler.h"

#include <algorithm>
#include <cmath>

#include "common/timer.h"
#include "core/fault_injector.h"
#include "linalg/parallel_for.h"

namespace otclean::core {

uint64_t DeriveJobSeed(uint64_t base_seed, uint64_t job_id) {
  // The SplitMix64 finalizer (the same mixer Rng seeds through) over the
  // (base_seed, id) pair. id+1 keeps job 0 from collapsing to the bare
  // base seed, so even the first job's stream is decorrelated from a
  // standalone RepairTable run with the same options.
  uint64_t z = base_seed + 0x9e3779b97f4a7c15ull * (job_id + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

RepairScheduler::RepairScheduler(RepairSchedulerOptions options)
    : options_(options) {
  if (options_.thread_pool != nullptr) {
    pool_ = options_.thread_pool;
  } else if (linalg::ResolveThreadCount(options_.pool_threads) > 1) {
    owned_pool_.emplace(options_.pool_threads);
    pool_ = &*owned_pool_;
  }
  if (options_.solve_cache != nullptr) {
    cache_ = options_.solve_cache;
  } else if (options_.cache_bytes > 0) {
    owned_cache_.emplace(options_.cache_bytes);
    cache_ = &*owned_cache_;
  }
  if (cache_ != nullptr && options_.fault_injector != nullptr) {
    cache_->set_fault_injector(options_.fault_injector);
  }
}

Status RepairScheduler::ValidateJob(const RepairJob& job) const {
  if (job.table == nullptr) {
    return Status::InvalidArgument("RepairScheduler: job has no table");
  }
  if (job.constraints.empty()) {
    return Status::InvalidArgument("RepairScheduler: job has no constraints");
  }
  if (job.options.fast.thread_pool != nullptr ||
      job.options.qclp.thread_pool != nullptr) {
    // Loud instead of silent: the scheduler's whole point is that every
    // job dispatches on ITS shared pool. A job arriving with its own pool
    // is a misconfiguration — honoring it would defeat the bounded-thread
    // model, overriding it would silently ignore the caller's setup.
    return Status::InvalidArgument(
        "RepairScheduler: job carries its own options thread_pool; jobs "
        "must leave it null — the scheduler dispatches every job on its one "
        "shared pool (RepairSchedulerOptions::thread_pool/pool_threads)");
  }
  if (job.options.fast.solve_cache != nullptr) {
    // Same policy as thread_pool: the scheduler's cache is THE cache.
    return Status::InvalidArgument(
        "RepairScheduler: job carries its own options solve_cache; jobs "
        "must leave it null — the scheduler injects its one shared cache "
        "(RepairSchedulerOptions::cache_bytes/solve_cache)");
  }
  if (job.options.fast.cancel_token != nullptr ||
      job.options.qclp.cancel_token != nullptr ||
      job.options.fairness.cancel_token != nullptr) {
    // Same policy again: cancellation of scheduled jobs goes through
    // Cancel(ticket) on the scheduler-owned token. A job-supplied token
    // would leave two parties able to stop one solve, with no way to tell
    // a caller cancel from a scheduler drain in the result. Checked on
    // every solver family's options — the scheduler wires its token into
    // whichever one the job's solver reads.
    return Status::InvalidArgument(
        "RepairScheduler: job carries its own options cancel_token; "
        "scheduled jobs must leave it null — cancellation goes through "
        "RepairScheduler::Cancel(ticket) on the scheduler-owned token");
  }
  if (!job.options.fast.deadline.infinite() ||
      !job.options.qclp.deadline.infinite() ||
      !job.options.fairness.deadline.infinite()) {
    return Status::InvalidArgument(
        "RepairScheduler: job carries its own options deadline; scheduled "
        "jobs must leave it infinite and set RepairJob::deadline_seconds "
        "instead — the scheduler starts the clock at Submit so queue wait "
        "counts against the budget");
  }
  if (options_.fault_injector != nullptr &&
      job.options.fast.fault_injector != nullptr) {
    return Status::InvalidArgument(
        "RepairScheduler: job carries its own options fault_injector while "
        "the scheduler already has one "
        "(RepairSchedulerOptions::fault_injector); jobs must leave it null "
        "— two harnesses double-counting visits would make the Nth-visit "
        "arming meaningless");
  }
  if (job.deadline_seconds.has_value()) {
    const double d = *job.deadline_seconds;
    if (std::isnan(d) || d <= 0.0) {
      return Status::InvalidArgument(
          "RepairScheduler: job deadline_seconds = " + std::to_string(d) +
          "; an explicit deadline must be finite and > 0 (leave it unset "
          "to inherit default_deadline_seconds, or to run without one)");
    }
  }
  const double default_deadline = options_.default_deadline_seconds;
  if (std::isnan(default_deadline) || default_deadline < 0.0) {
    return Status::InvalidArgument(
        "RepairScheduler: default_deadline_seconds = " +
        std::to_string(default_deadline) +
        " must be >= 0 and finite (0 = no default deadline)");
  }
  return Status::OK();
}

Result<JobTicket> RepairScheduler::Submit(const RepairJob& job) {
  OTCLEAN_RETURN_NOT_OK(ValidateJob(job));
  auto pending = std::make_shared<PendingJob>();
  pending->job = job;
  const double deadline_seconds =
      job.deadline_seconds.value_or(options_.default_deadline_seconds);
  // The clock starts here, at admission: a job stuck behind a full batch
  // burns its budget waiting and fails at dequeue instead of starting a
  // solve the caller gave up on long ago.
  pending->deadline = deadline_seconds > 0.0
                          ? Deadline::After(deadline_seconds)
                          : Deadline::Infinite();
  JobTicket ticket;
  {
    MutexLock lock(mu_);
    if (draining_) {
      return Status::FailedPrecondition(
          "RepairScheduler::Submit after DrainAndStop: the scheduler is "
          "stopped for good; construct a new one to serve more jobs");
    }
    if (options_.max_queued_jobs > 0 &&
        queue_.size() >= options_.max_queued_jobs) {
      // Admission control: fail fast while the caller can still shed load
      // upstream — an unbounded queue just converts overload into
      // unbounded latency and memory.
      return Status::ResourceExhausted(
          "RepairScheduler::Submit: pending queue full (" +
          std::to_string(queue_.size()) + " queued, bound " +
          std::to_string(options_.max_queued_jobs) +
          "); retry later or raise RepairSchedulerOptions::max_queued_jobs");
    }
    ticket = next_ticket_++;
    pending->seed_id = job.id == kAutoJobId ? ticket : job.id;
    tickets_.emplace(ticket, pending);
    queue_.push_back(pending);
    if (executors_.empty()) {
      const size_t executors =
          linalg::ResolveThreadCount(options_.max_concurrent_jobs);
      executors_.reserve(executors);
      for (size_t t = 0; t < executors; ++t) {
        executors_.emplace_back([this] { ExecutorLoop(); });
      }
    }
  }
  cv_work_.NotifyOne();
  return ticket;
}

Result<RepairReport> RepairScheduler::Wait(JobTicket ticket) {
  MutexLock lock(mu_);
  auto it = tickets_.find(ticket);
  if (it == tickets_.end()) {
    return Status::NotFound("RepairScheduler::Wait: ticket " +
                            std::to_string(ticket) +
                            " is unknown or already consumed");
  }
  std::shared_ptr<PendingJob> pending = it->second;
  while (!pending->done) cv_done_.Wait(mu_);
  tickets_.erase(ticket);
  return std::move(*pending->result);
}

Status RepairScheduler::Cancel(JobTicket ticket) {
  std::shared_ptr<PendingJob> pending;
  {
    MutexLock lock(mu_);
    auto it = tickets_.find(ticket);
    if (it == tickets_.end()) {
      return Status::NotFound("RepairScheduler::Cancel: ticket " +
                              std::to_string(ticket) +
                              " is unknown or already consumed");
    }
    pending = it->second;
  }
  // Cooperative and idempotent: a queued job observes the token at dequeue,
  // an in-flight solve at its next checkpoint, a completed job not at all
  // (its result is already fixed — that race is inherent to cancellation).
  pending->token.Cancel();
  return Status::OK();
}

void RepairScheduler::DrainAndStop() {
  // Joining the executor threads declared (and justified) in
  // repair_scheduler.h, not spawning kernel workers.
  // otclean-lint: allow(raw-thread)
  std::vector<std::thread> to_join;
  {
    MutexLock lock(mu_);
    if (draining_ && executors_.empty()) return;  // idempotent
    draining_ = true;
    for (const std::shared_ptr<PendingJob>& pending : queue_) {
      pending->result.emplace(Status::Cancelled(
          "RepairScheduler::DrainAndStop: job was still queued when the "
          "scheduler stopped"));
      pending->done = true;
    }
    queue_.clear();
    to_join.swap(executors_);
  }
  cv_work_.NotifyAll();
  cv_done_.NotifyAll();
  // otclean-lint: allow(raw-thread)
  for (std::thread& t : to_join) t.join();
}

void RepairScheduler::ExecutorLoop() {
  for (;;) {
    std::shared_ptr<PendingJob> pending;
    {
      MutexLock lock(mu_);
      while (!draining_ && queue_.empty()) cv_work_.Wait(mu_);
      if (queue_.empty()) return;  // draining and nothing left to start
      pending = std::move(queue_.front());
      queue_.pop_front();
    }
    // Admission happened a while ago: re-check the stop conditions before
    // spending a solve on a job whose caller cancelled it in the queue or
    // whose deadline burned down while it waited.
    Status admitted = CheckStop(&pending->token, pending->deadline,
                                "RepairScheduler: job dequeued");
    Result<RepairReport> result =
        admitted.ok() ? RunOne(*pending) : Result<RepairReport>(admitted);
    {
      MutexLock lock(mu_);
      pending->result.emplace(std::move(result));
      pending->done = true;
    }
    cv_done_.NotifyAll();
  }
}

Result<RepairReport> RepairScheduler::RunOne(PendingJob& pending) {
  const RepairJob& job = pending.job;
  RepairOptions opts = job.options;
  opts.seed = DeriveJobSeed(job.options.seed, pending.seed_id);
  // All executors dispatch on the one shared pool; the solve's chunk
  // decomposition stays governed by opts.fast/qclp.num_threads, so per-job
  // results do not depend on the pool's width or on concurrent neighbours.
  opts.fast.thread_pool = pool_;
  opts.qclp.thread_pool = pool_;
  opts.fast.solve_cache = cache_;
  // One token, one deadline, wired into every solver family: whichever
  // path the job's Solver dispatches to polls the same scheduler-owned
  // stop signals.
  opts.fast.cancel_token = &pending.token;
  opts.fast.deadline = pending.deadline;
  opts.qclp.cancel_token = &pending.token;
  opts.qclp.deadline = pending.deadline;
  opts.fairness.cancel_token = &pending.token;
  opts.fairness.deadline = pending.deadline;
  if (opts.fast.fault_injector == nullptr) {
    opts.fast.fault_injector = options_.fault_injector;
  }
  if (pool_ == nullptr) {
    // A width-1 pool resolution means the scheduler's contract is "solves
    // run serial, executors are the only concurrency". Left at N>1, each
    // executor's solve would spawn a private pool — exactly the N-fold
    // oversubscription the scheduler exists to prevent. Forcing serial
    // solves is result-preserving: kernel results are bit-compatible
    // across thread counts (pinned by thread_pool_test).
    opts.fast.num_threads = 1;
    opts.qclp.num_threads = 1;
  }
  return RepairTableMulti(*job.table, job.constraints, opts, job.cost);
}

BatchReport RepairScheduler::Run(const std::vector<RepairJob>& jobs) {
  BatchReport report;
  if (jobs.empty()) return report;

  const SolveCacheStats cache_before =
      cache_ != nullptr ? cache_->Stats() : SolveCacheStats{};

  WallTimer timer;
  std::vector<std::optional<Result<RepairReport>>> slots(jobs.size());
  // Submit everything, Wait in order. On a bounded queue, Run applies
  // backpressure — waiting out the oldest outstanding job frees a slot —
  // instead of surfacing kResourceExhausted for a batch the caller handed
  // over whole; admission control is for *competing* submitters.
  std::deque<std::pair<size_t, JobTicket>> outstanding;
  for (size_t i = 0; i < jobs.size(); ++i) {
    RepairJob job = jobs[i];
    if (job.id == kAutoJobId) job.id = i;  // batch-position seeds, as ever
    for (;;) {
      Result<JobTicket> ticket = Submit(job);
      if (ticket.ok()) {
        outstanding.emplace_back(i, *ticket);
        break;
      }
      if (ticket.status().code() == StatusCode::kResourceExhausted &&
          !outstanding.empty()) {
        slots[outstanding.front().first].emplace(
            Wait(outstanding.front().second));
        outstanding.pop_front();
        continue;
      }
      slots[i].emplace(ticket.status());
      break;
    }
  }
  for (const auto& [index, ticket] : outstanding) {
    slots[index].emplace(Wait(ticket));
  }
  report.wall_seconds = timer.ElapsedSeconds();
  report.jobs_per_second =
      static_cast<double>(jobs.size()) /
      (report.wall_seconds > 0.0 ? report.wall_seconds : 1e-12);

  report.jobs.reserve(jobs.size());
  for (auto& slot : slots) {
    Result<RepairReport>& r = *slot;
    if (r.ok()) {
      ++report.completed_jobs;
      if (r->converged && r->retry_attempts > 0) ++report.retried_jobs;
      report.total_sinkhorn_iterations += r->total_sinkhorn_iterations;
      report.peak_plan_bytes =
          std::max(report.peak_plan_bytes, r->plan_memory_bytes);
    } else {
      ++report.failed_jobs;
      if (r.status().code() == StatusCode::kCancelled) {
        ++report.cancelled_jobs;
      } else if (r.status().code() == StatusCode::kDeadlineExceeded) {
        ++report.deadline_exceeded_jobs;
      }
    }
    report.jobs.push_back(std::move(r));
  }
  if (cache_ != nullptr) {
    report.cache = DeltaStats(cache_before, cache_->Stats());
  }
  return report;
}

}  // namespace otclean::core
