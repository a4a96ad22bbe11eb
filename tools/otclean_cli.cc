// otclean — command-line data cleaner for conditional independence
// violations.
//
// Usage (single job):
//   otclean --input data.csv --output repaired.csv
//           --x sex --y marital-status --z occupation,age [options]
//
// Usage (batch; serve many repairs off one process):
//   otclean --batch manifest.txt [--jobs N] [options as defaults]
//
// Options:
//   --input PATH           input CSV (header row required)
//   --output PATH          output CSV (default: stdout)
//   --x COLS --y COLS      constraint sides (comma-separated column names)
//   --z COLS               conditioning set (optional)
//   --solver NAME          optimizer (default fast):
//                            fast        Sinkhorn + KL-NMF (Section 4.2)
//                            qclp        alternating exact LPs (Section 4.1)
//                            capuchin-ic Capuchin independent coupling
//                            capuchin-mf Capuchin per-slice rank-1 NMF
//                            capmaxsat   Capuchin MaxSAT tuple add/remove
//   --epsilon F            entropic regularization (default 0.08)
//   --lambda F             marginal relaxation (default 80)
//   --threads N            Sinkhorn kernel threads (default 0 = all cores);
//                          in batch mode also the shared pool's lane count
//   --truncation F         sparse-kernel cutoff: drop K entries below F
//                          (default 0 = dense kernel; fast solver only)
//   --log-domain           iterate Sinkhorn on log-potentials (stable at
//                          small --epsilon / huge penalty costs; composes
//                          with --truncation; fast solver only)
//   --precision f32|f64    kernel storage precision (default f64): f32
//                          halves kernel memory traffic, accumulates in
//                          double, and keeps the f64 plan structure
//                          (fast solver only)
//   --map                  deterministic MAP repairs instead of sampling
//   --seed N               RNG seed (default 42)
//   --report               print CMI / cost diagnostics to stderr
//   --deadline-ms N        wall-clock budget per job, in milliseconds; a
//                          solve past it aborts cleanly with
//                          DeadlineExceeded (in batch mode the clock
//                          starts at admission, so queue wait counts)
//   --retries N            on retryable solve failures (non-convergence,
//                          linear-domain scaling blow-ups) retry up to N
//                          more times with safer settings: log-domain
//                          first, then doubled epsilon (default 0 = fail
//                          on the first attempt; fast solver only)
//
// The "fast solver only" settings are rejected with InvalidArgument (exit
// 1) when another solver is selected — as flags or as manifest keys, and
// before any input is read — rather than silently ignored: --log-domain,
// --truncation > 0, --precision f32 and --retries > 0.
//
// Batch mode:
//   --batch PATH           manifest with one job per line; '#' starts a
//                          comment. Each line is whitespace-separated
//                          key=value tokens: input= x= y= are required
//                          (per line, or via the --input/--x/--y
//                          command-line defaults); output= and name= are
//                          per-line only; z= and any option key (solver=
//                          epsilon= lambda= threads= truncation=
//                          log-domain=0|1 precision= map=0|1 seed=
//                          deadline-ms= retries=) override
//                          the command-line defaults for that job.
//   --jobs N               concurrent repair jobs (default 0 = all cores).
//                          All jobs share ONE kernel thread pool; per-job
//                          results are bit-identical to --jobs 1.
//   --cache-bytes N        byte budget of the batch's shared solve cache
//                          (default 256 MiB): jobs repeating a (cost, ε,
//                          truncation) share one built kernel —
//                          bit-identical to rebuilding it per job.
//   --no-cache             run the batch cache-less.
//   --max-queued N         admission bound on the scheduler's pending
//                          queue (default 0 = unbounded). The CLI hands
//                          the scheduler whole batches with backpressure,
//                          so this only changes pacing, never results.
//
// The flag set is closed: an unknown flag, or a value flag given last
// with no value, is an InvalidArgument (exit 1), never a silent default.
//
// In batch mode each job's RepairOptions::seed is derived from seed= mixed
// with the job's 0-based position among the manifest's JOBS — comment and
// blank lines don't count (core::DeriveJobSeed) — so a batch is
// reproducible end to end and independent of completion order.
//
// Fault injection (testing/CI only): set OTCLEAN_FAULTS=SITE@N[+][,...]
// to arm the deterministic fault harness (core/fault_injector.h) — SITE in
// {alloc, kernel-nan, worker-delay, cache-insert}, failing the site's Nth
// visit (every visit from the Nth with a trailing '+'). Injected failures
// surface as clean non-zero exits with the Status printed, never crashes.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "common/string_util.h"
#include "otclean/otclean.h"

using namespace otclean;

namespace {

struct CliArgs {
  std::map<std::string, std::string> named;
  bool map_repair = false;
  bool report = false;
  bool log_domain = false;
  bool no_cache = false;
};

/// Parses the command line against the closed flag set: the boolean flags
/// below, and the `--key value` flags named in kValueFlags. An unknown
/// flag (a typo like --eps must not run with the default ε), a stray
/// positional argument, or a value flag with nothing after it is an
/// InvalidArgument — the same policy as the manifest's closed key set.
Result<CliArgs> ParseArgs(int argc, char** argv) {
  static const std::set<std::string> kValueFlags{
      "input", "output", "x", "y", "z", "solver", "epsilon", "lambda",
      "seed", "threads", "truncation", "precision", "deadline-ms", "retries",
      "batch", "jobs", "cache-bytes", "max-queued"};
  CliArgs args;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--map") {
      args.map_repair = true;
    } else if (a == "--log-domain") {
      args.log_domain = true;
    } else if (a == "--report") {
      args.report = true;
    } else if (a == "--no-cache") {
      args.no_cache = true;
    } else if (a.rfind("--", 0) != 0 || !kValueFlags.count(a.substr(2))) {
      return Status::InvalidArgument("unknown argument '" + a + "'");
    } else if (i + 1 == argc) {
      return Status::InvalidArgument(a + " needs a value");
    } else {
      args.named[a.substr(2)] = argv[++i];
    }
  }
  return args;
}

int Fail(const std::string& message) {
  std::fprintf(stderr, "otclean: %s\n", message.c_str());
  return 1;
}

/// The empty line layer single-job mode passes to KvLookup (which holds
/// references, so the empty map must outlive it).
const std::map<std::string, std::string> kNoLine;

/// Layered key lookup: a manifest line's key=value tokens override the
/// command-line --key values, which override the built-in default. Single
/// mode passes an empty line layer, so both modes parse one way.
class KvLookup {
 public:
  KvLookup(const std::map<std::string, std::string>& line,
           const std::map<std::string, std::string>& global)
      : line_(line), global_(global) {}

  std::string Get(const std::string& key,
                  const std::string& fallback = "") const {
    if (const auto it = line_.find(key); it != line_.end()) return it->second;
    if (const auto it = global_.find(key); it != global_.end()) {
      return it->second;
    }
    return fallback;
  }

  bool Has(const std::string& key) const {
    return line_.count(key) > 0 || global_.count(key) > 0;
  }

 private:
  const std::map<std::string, std::string>& line_;
  const std::map<std::string, std::string>& global_;
};

Result<bool> ParseBool(const std::string& s, bool fallback) {
  if (s.empty()) return fallback;
  if (s == "1" || s == "true") return true;
  if (s == "0" || s == "false") return false;
  return Status::InvalidArgument("expected 0/1/true/false, got '" + s + "'");
}

/// Builds the RepairOptions both modes share. Boolean command-line flags
/// (--map, --log-domain) arrive as defaults; manifest lines may override
/// them with map=0|1 / log-domain=0|1.
Result<core::RepairOptions> BuildRepairOptions(const KvLookup& kv,
                                               bool default_map,
                                               bool default_log_domain) {
  core::RepairOptions options;
  const std::string solver = kv.Get("solver", "fast");
  if (solver == "qclp") {
    options.solver = core::Solver::kQclp;
  } else if (solver == "capuchin-ic") {
    options.solver = core::Solver::kCapuchinIC;
  } else if (solver == "capuchin-mf") {
    options.solver = core::Solver::kCapuchinMF;
  } else if (solver == "capmaxsat") {
    options.solver = core::Solver::kCapMaxSat;
  } else if (solver != "fast") {
    return Status::InvalidArgument(
        "unknown solver '" + solver +
        "' (use fast, qclp, capuchin-ic, capuchin-mf or capmaxsat)");
  }
  OTCLEAN_ASSIGN_OR_RETURN(const bool map_repair,
                           ParseBool(kv.Get("map"), default_map));
  options.sample_repair = !map_repair;
  auto eps = ParseDouble(kv.Get("epsilon", "0.08"));
  if (!eps.ok()) return Status::InvalidArgument("bad epsilon");
  options.fast.epsilon = *eps;
  auto lam = ParseDouble(kv.Get("lambda", "80"));
  if (!lam.ok()) return Status::InvalidArgument("bad lambda");
  options.fast.lambda = *lam;
  auto seed = ParseInt(kv.Get("seed", "42"));
  if (!seed.ok()) return Status::InvalidArgument("bad seed");
  options.seed = static_cast<uint64_t>(*seed);
  auto threads = ParseInt(kv.Get("threads", "0"));
  if (!threads.ok() || *threads < 0) {
    return Status::InvalidArgument("bad threads");
  }
  options.fast.num_threads = static_cast<size_t>(*threads);
  options.qclp.num_threads = static_cast<size_t>(*threads);
  auto cutoff = ParseDouble(kv.Get("truncation", "0"));
  if (!cutoff.ok() || *cutoff < 0.0) {
    return Status::InvalidArgument("bad truncation");
  }
  options.fast.kernel_truncation = *cutoff;
  OTCLEAN_ASSIGN_OR_RETURN(const bool log_domain,
                           ParseBool(kv.Get("log-domain"), default_log_domain));
  options.fast.log_domain = log_domain;
  const std::string precision = kv.Get("precision", "f64");
  if (precision == "f32") {
    options.fast.precision = linalg::Precision::kFloat32;
  } else if (precision != "f64") {
    return Status::InvalidArgument("unknown precision '" + precision +
                                   "' (use f32 or f64)");
  }
  auto retries = ParseInt(kv.Get("retries", "0"));
  if (!retries.ok() || *retries < 0) {
    return Status::InvalidArgument("bad retries");
  }
  options.retry.max_attempts = static_cast<size_t>(*retries) + 1;
  // The Sinkhorn and retry settings only change a fast solve; every other
  // solver would run as if they were unset, so they are rejected instead.
  if (options.solver != core::Solver::kFastOtClean) {
    const char* ignored = nullptr;
    if (log_domain) {
      ignored = "log-domain";
    } else if (*cutoff > 0.0) {
      ignored = "truncation";
    } else if (precision == "f32") {
      ignored = "precision f32";
    } else if (*retries > 0) {
      ignored = "retries";
    }
    if (ignored != nullptr) {
      return Status::InvalidArgument(
          std::string(ignored) + " applies to solver fast only; solver '" +
          solver + "' would silently ignore it");
    }
  }
  return options;
}

/// Parses the layered deadline-ms key: unset/empty means no deadline
/// (returns 0); anything else must be a positive integer.
Result<int64_t> ParseDeadlineMillis(const KvLookup& kv) {
  const std::string d = kv.Get("deadline-ms");
  if (d.empty()) return int64_t{0};
  auto ms = ParseInt(d);
  if (!ms.ok() || *ms <= 0) {
    return Status::InvalidArgument("bad deadline-ms (positive milliseconds)");
  }
  return static_cast<int64_t>(*ms);
}

Result<core::CiConstraint> BuildConstraint(const KvLookup& kv) {
  const std::string x = kv.Get("x"), y = kv.Get("y"), z = kv.Get("z");
  if (x.empty() || y.empty()) {
    return Status::InvalidArgument("x= and y= columns are required");
  }
  return core::CiConstraint(SplitString(x, ','), SplitString(y, ','),
                            z.empty() ? std::vector<std::string>{}
                                      : SplitString(z, ','));
}

void PrintReport(const core::CiConstraint& constraint,
                 const core::RepairReport& report) {
  const std::string kernel_note =
      report.kernel_nnz > 0
          ? " [kernel nnz " + std::to_string(report.kernel_nnz) + "]"
          : "";
  std::fprintf(stderr,
               "constraint %s\n  CMI: %.6f -> %.6f (target %.2e)\n"
               "  transport cost: %.6f; outer iterations: %zu%s\n"
               "  plan storage: %s, %zu entries (%.1f KiB)%s\n"
               "  sinkhorn domain: %s; kernel precision: %s\n"
               "  simd: %s (override with OTCLEAN_SIMD=scalar|avx2|"
               "avx512|neon)\n",
               constraint.ToString().c_str(), report.initial_cmi,
               report.final_cmi, report.target_cmi, report.transport_cost,
               report.outer_iterations,
               report.converged ? "" : " (iteration cap)",
               report.plan_sparse ? "sparse (CSR)" : "dense", report.plan_nnz,
               static_cast<double>(report.plan_memory_bytes) / 1024.0,
               kernel_note.c_str(), report.sinkhorn_domain, report.precision,
               report.simd_isa);
  if (report.cache_kernel_hits + report.cache_kernel_misses > 0) {
    std::fprintf(stderr, "  solve cache: kernel %s\n",
                 report.cache_kernel_hits > 0 ? "hit" : "miss");
  }
  if (report.retry_attempts > 0) {
    std::fprintf(stderr, "  termination: %s after %zu fallback attempt(s)\n"
                 "    %s\n",
                 report.termination, report.retry_attempts,
                 report.recovery.c_str());
  }
}

/// The per-job status cell of the batch summary: ok jobs report their
/// RepairReport termination ("ok" / "retried-ok" / "iteration-cap"),
/// failures name the two
/// robustness outcomes and lump the rest as FAILED (the Status follows).
const char* TerminationLabel(const Result<core::RepairReport>& r) {
  if (r.ok()) return r->termination;
  switch (r.status().code()) {
    case StatusCode::kCancelled:
      return "cancelled";
    case StatusCode::kDeadlineExceeded:
      return "deadline";
    default:
      return "FAILED";
  }
}

/// Canonicalizes a manifest input path so spellings like ./a.csv and
/// a.csv dedupe to one table-cache slot. A path realpath cannot resolve
/// (missing file) falls back to its raw spelling — ReadCsv will report
/// the real error.
std::string CanonicalPath(const std::string& path) {
  char* resolved = ::realpath(path.c_str(), nullptr);
  if (resolved == nullptr) return path;
  std::string out(resolved);
  std::free(resolved);
  return out;
}

// ------------------------------------------------------------ batch mode --

int RunBatch(const CliArgs& args, const std::string& manifest_path,
             core::FaultInjector* faults) {
  if (args.named.count("output")) {
    // A global --output would either overwrite one file per job or be
    // ignored for lines without output= — both silent data loss. Refuse.
    return Fail("--output is not valid with --batch; give each manifest "
                "line its own output=PATH");
  }
  std::ifstream manifest(manifest_path);
  if (!manifest) return Fail("cannot open --batch manifest " + manifest_path);

  size_t cache_bytes = 256ull << 20;  // default: 256 MiB shared solve cache
  if (args.no_cache) {
    if (args.named.count("cache-bytes")) {
      return Fail("--no-cache and --cache-bytes are mutually exclusive");
    }
    cache_bytes = 0;
  } else if (args.named.count("cache-bytes")) {
    auto n = ParseInt(args.named.at("cache-bytes"));
    if (!n.ok() || *n <= 0) return Fail("bad --cache-bytes");
    cache_bytes = static_cast<size_t>(*n);
  }

  // Tables are cached by canonical path: many jobs over one dataset load
  // it once and share the in-memory table (jobs never mutate their input),
  // and ./a.csv vs a.csv dedupe to one slot.
  std::map<std::string, dataset::Table> tables;
  size_t table_hits = 0, table_misses = 0;
  std::vector<core::RepairJob> jobs;
  std::vector<std::string> outputs;  ///< per job; empty = don't write.
  std::string line;
  size_t line_no = 0;
  while (std::getline(manifest, line)) {
    ++line_no;
    std::istringstream tokens{line};
    std::string token;
    std::map<std::string, std::string> kv_line;
    bool comment = false;
    while (!comment && tokens >> token) {  // >> splits on any whitespace
      if (token.front() == '#') {
        comment = true;
        break;
      }
      const size_t eq = token.find('=');
      if (eq == std::string::npos || eq == 0) {
        return Fail("manifest line " + std::to_string(line_no) +
                    ": expected key=value tokens, got '" + token + "'");
      }
      const std::string key = token.substr(0, eq);
      // The key set is closed; a typo'd key (log_domain=, eps=) must not
      // silently run the job with defaults.
      static const std::set<std::string> kKnownKeys{
          "input", "x", "y", "z", "output", "name", "solver",
          "epsilon", "lambda", "seed", "threads", "truncation",
          "log-domain", "precision", "map", "deadline-ms", "retries"};
      if (!kKnownKeys.count(key)) {
        return Fail("manifest line " + std::to_string(line_no) +
                    ": unknown key '" + key + "'");
      }
      kv_line[key] = token.substr(eq + 1);
    }
    if (kv_line.empty()) continue;  // blank or comment-only line
    const KvLookup kv(kv_line, args.named);
    const std::string at = " (manifest line " + std::to_string(line_no) + ")";

    const std::string input = kv.Get("input");
    if (input.empty()) return Fail("input= is required" + at);
    core::RepairJob job;
    // The line's options are validated before its input is read.
    auto constraint = BuildConstraint(kv);
    if (!constraint.ok()) return Fail(constraint.status().ToString() + at);
    auto options = BuildRepairOptions(kv, args.map_repair, args.log_domain);
    if (!options.ok()) return Fail(options.status().ToString() + at);
    job.options = std::move(options).value();
    auto deadline_ms = ParseDeadlineMillis(kv);
    if (!deadline_ms.ok()) return Fail(deadline_ms.status().ToString() + at);
    if (*deadline_ms > 0) {
      job.deadline_seconds = static_cast<double>(*deadline_ms) / 1000.0;
    }
    const std::string canonical = CanonicalPath(input);
    auto table_slot = tables.find(canonical);
    if (table_slot == tables.end()) {
      ++table_misses;
      auto table = dataset::ReadCsv(input);
      if (!table.ok()) return Fail(table.status().ToString() + at);
      table_slot =
          tables.emplace(canonical, std::move(table).value()).first;
    } else {
      ++table_hits;
    }
    // std::map never moves its values, so the pointer stays valid while
    // later lines grow the cache.
    job.table = &table_slot->second;
    job.name = kv_line.count("name") ? kv_line["name"]
                                     : constraint->ToString();
    job.constraints = {std::move(constraint).value()};
    // output= is per-line only (no global fallback; see the check above),
    // and must be unique: two jobs writing one path would silently leave
    // only the later job's repair on disk.
    const std::string output = kv_line.count("output") ? kv_line["output"]
                                                       : "";
    if (!output.empty()) {
      for (size_t i = 0; i < outputs.size(); ++i) {
        if (outputs[i] == output) {
          return Fail("manifest line " + std::to_string(line_no) +
                      ": output=" + output + " is already written by job " +
                      std::to_string(i));
        }
      }
    }
    outputs.push_back(output);
    jobs.push_back(std::move(job));
  }
  if (jobs.empty()) return Fail("--batch manifest has no jobs");

  core::RepairSchedulerOptions sched;
  if (const std::string j = KvLookup(kNoLine, args.named).Get("jobs"); !j.empty()) {
    auto n = ParseInt(j);
    if (!n.ok() || *n < 0) return Fail("bad --jobs");
    sched.max_concurrent_jobs = static_cast<size_t>(*n);
  }
  if (const std::string t = KvLookup(kNoLine, args.named).Get("threads");
      !t.empty()) {
    auto n = ParseInt(t);
    if (!n.ok() || *n < 0) return Fail("bad --threads");
    sched.pool_threads = static_cast<size_t>(*n);
  }
  if (const std::string q = KvLookup(kNoLine, args.named).Get("max-queued");
      !q.empty()) {
    auto n = ParseInt(q);
    if (!n.ok() || *n <= 0) return Fail("bad --max-queued (positive bound)");
    sched.max_queued_jobs = static_cast<size_t>(*n);
  }
  sched.fault_injector = faults;

  sched.cache_bytes = cache_bytes;

  core::RepairScheduler scheduler(sched);
  if (core::SolveCache* cache = scheduler.shared_cache()) {
    // Fold the table-cache traffic of the manifest parse into the shared
    // cache's stats, so --report and the summary have one reuse ledger.
    for (size_t i = 0; i < table_hits; ++i) cache->RecordTableLookup(true);
    for (size_t i = 0; i < table_misses; ++i) {
      cache->RecordTableLookup(false);
    }
  }
  const core::BatchReport report = scheduler.Run(jobs);

  bool ok = true;
  std::printf("%-4s %-36s %-11s %-20s %-10s\n", "job", "label", "status",
              "cmi", "cost");
  for (size_t i = 0; i < jobs.size(); ++i) {
    const Result<core::RepairReport>& r = report.jobs[i];
    if (!r.ok()) {
      ok = false;
      std::printf("%-4zu %-36s %-11s %s\n", i, jobs[i].name.c_str(),
                  TerminationLabel(r), r.status().ToString().c_str());
      continue;
    }
    char cmi[32];
    std::snprintf(cmi, sizeof cmi, "%.4f -> %.4f", r->initial_cmi,
                  r->final_cmi);
    std::printf("%-4zu %-36s %-11s %-20s %-10.4f\n", i, jobs[i].name.c_str(),
                TerminationLabel(r), cmi, r->transport_cost);
    if (args.report) PrintReport(jobs[i].constraints.front(), *r);
    if (!outputs[i].empty()) {
      if (auto s = dataset::WriteCsv(r->repaired, outputs[i]); !s.ok()) {
        ok = false;
        std::fprintf(stderr, "otclean: job %zu: %s\n", i,
                     s.ToString().c_str());
      }
    }
  }
  std::printf(
      "# batch: %zu jobs (%zu failed) in %.2fs — %.2f jobs/s; "
      "%zu sinkhorn iterations; peak plan %.1f KiB\n",
      report.jobs.size(), report.failed_jobs, report.wall_seconds,
      report.jobs_per_second, report.total_sinkhorn_iterations,
      static_cast<double>(report.peak_plan_bytes) / 1024.0);
  if (report.cancelled_jobs + report.deadline_exceeded_jobs +
          report.retried_jobs > 0) {
    std::printf(
        "# terminations: %zu cancelled, %zu deadline-exceeded, "
        "%zu retried-ok\n",
        report.cancelled_jobs, report.deadline_exceeded_jobs,
        report.retried_jobs);
  }
  if (core::SolveCache* cache = scheduler.shared_cache()) {
    // Absolute stats, not the batch delta: this scheduler ran exactly one
    // batch, and only Stats() includes the table lookups recorded above.
    const core::SolveCacheStats c = cache->Stats();
    std::printf(
        "# cache: kernels %zu hit / %zu miss; tables %zu hit / %zu miss; "
        "%.1f MiB cached, %zu evictions\n",
        c.kernel_hits, c.kernel_misses, c.table_hits, c.table_misses,
        static_cast<double>(c.bytes_cached) / (1024.0 * 1024.0),
        c.evictions);
  }
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const Result<CliArgs> parsed = ParseArgs(argc, argv);
  if (!parsed.ok()) return Fail(parsed.status().ToString());
  const CliArgs& args = *parsed;
  const KvLookup kv(kNoLine, args.named);

  // The fault harness outlives both modes; armed only when the env var is
  // set (testing/CI), costs nothing otherwise.
  static core::FaultInjector fault_injector;
  core::FaultInjector* faults = nullptr;
  if (const char* spec = std::getenv("OTCLEAN_FAULTS");
      spec != nullptr && spec[0] != '\0') {
    if (Status s = core::FaultInjector::Parse(spec, &fault_injector);
        !s.ok()) {
      return Fail(s.ToString());
    }
    fault_injector.InstallPoolDelayHook();
    faults = &fault_injector;
  }

  if (const std::string manifest = kv.Get("batch"); !manifest.empty()) {
    return RunBatch(args, manifest, faults);
  }

  if (args.no_cache || args.named.count("cache-bytes") ||
      args.named.count("max-queued")) {
    // Silently accepting them would imply single-job runs are cached.
    return Fail(
        "--cache-bytes/--no-cache/--max-queued apply to "
        "--batch only (a single job has nothing to share a cache or an "
        "admission queue with)");
  }

  const std::string input = kv.Get("input");
  if (input.empty() || kv.Get("x").empty() || kv.Get("y").empty()) {
    std::fprintf(stderr,
                 "usage: otclean --input data.csv --x COLS --y COLS "
                 "[--z COLS] [--output out.csv] "
                 "[--solver fast|qclp|capuchin-ic|capuchin-mf|capmaxsat] "
                 "[--epsilon F] [--lambda F] [--threads N] [--truncation F] "
                 "[--log-domain] [--precision f32|f64] "
                 "[--map] [--seed N] [--report] [--deadline-ms N] "
                 "[--retries N]\n"
                 "       otclean --batch manifest.txt [--jobs N] "
                 "[option defaults]\n");
    return 2;
  }

  // Validate every option before reading the input, so a bad flag fails
  // without touching the file.
  auto constraint = BuildConstraint(kv);
  if (!constraint.ok()) return Fail(constraint.status().ToString());
  auto options = BuildRepairOptions(kv, args.map_repair, args.log_domain);
  if (!options.ok()) return Fail(options.status().ToString());
  auto deadline_ms = ParseDeadlineMillis(kv);
  if (!deadline_ms.ok()) return Fail(deadline_ms.status().ToString());
  auto table = dataset::ReadCsv(input);
  if (!table.ok()) return Fail(table.status().ToString());
  if (*deadline_ms > 0) {
    // One deadline, every solver family: whichever path --solver picked
    // polls the same budget.
    const Deadline deadline = Deadline::AfterMillis(*deadline_ms);
    options->fast.deadline = deadline;
    options->qclp.deadline = deadline;
    options->fairness.deadline = deadline;
  }
  options->fast.fault_injector = faults;

  const auto report = core::RepairTable(*table, *constraint, *options);
  if (!report.ok()) return Fail(report.status().ToString());

  if (args.report) PrintReport(*constraint, *report);

  const std::string output = kv.Get("output");
  if (output.empty()) {
    std::cout << dataset::ToCsvString(report->repaired);
  } else {
    if (auto s = dataset::WriteCsv(report->repaired, output); !s.ok()) {
      return Fail(s.ToString());
    }
  }
  return 0;
}
