#ifndef OTCLEAN_CORE_REPAIR_H_
#define OTCLEAN_CORE_REPAIR_H_

#include <memory>

#include "common/random.h"
#include "common/result.h"
#include "core/ci_constraint.h"
#include "core/fast_otclean.h"
#include "core/qclp_cleaner.h"
#include "dataset/table.h"
#include "fairness/maxsat.h"
#include "ot/cost.h"

namespace otclean::core {

/// Which optimizer computes the repair.
enum class Solver {
  kFastOtClean,  ///< Section 4.2 (Sinkhorn + KL-NMF); scales to large domains.
  kQclp,         ///< Section 4.1 (alternating LP); exact but small domains only.
  /// Capuchin baselines (Salimi et al., SIGMOD 2019 — Section 6's
  /// comparison points), run through the same fit/plan/apply machinery as
  /// the OT solvers so their reports and scheduling are uniform.
  kCapuchinIC,  ///< Cap(IC): independent-coupling target, plan-based resample.
  kCapuchinMF,  ///< Cap(MF): per-slice rank-1 NMF target, plan-based resample.
  kCapMaxSat,   ///< Cap(MS): MaxSAT tuple add/remove repair (no plan).
};

/// Knobs for the fairness-baseline solvers (kCapuchinIC / kCapuchinMF /
/// kCapMaxSat). Kept separate from FastOtCleanOptions/QclpOptions so each
/// solver family owns its cooperative-stop wiring, mirroring how the
/// scheduler threads per-job deadlines into whichever solver a job picked.
struct FairnessOptions {
  /// NMF iteration budget (kCapuchinMF only).
  size_t nmf_max_iterations = 500;
  /// WalkSAT budget/noise (kCapMaxSat only). The MaxSAT seed is overridden
  /// by RepairOptions::seed so one knob seeds every solver.
  fairness::MaxSatOptions maxsat;
  /// Cooperative stop signals, checked at the fairness solvers'
  /// coarse-grained boundaries (target build, repair materialization).
  const CancellationToken* cancel_token = nullptr;
  Deadline deadline = Deadline::Infinite();
};

/// Opt-in graceful degradation for the FastOTClean solver: when an attempt
/// fails retryably — the solve errors with kNotConverged, collapses to
/// "plan lost all mass" (the deterministic endpoint of NaN scalings in the
/// linear domain), or returns unconverged — the repair is retried with a
/// progressively safer configuration instead of hard-failing: the first
/// fallback switches the inner Sinkhorn to the log domain (immune to the
/// under/overflow that kills linear scalings at small ε), subsequent ones
/// double ε. Every fallback taken is recorded in
/// RepairReport::{termination, retry_attempts, recovery}. Non-retryable
/// errors (InvalidArgument, kCancelled, kDeadlineExceeded,
/// kResourceExhausted, ...) always propagate immediately.
struct RetryOptions {
  /// Total solve attempts (first try included). 1 — the default — means no
  /// retry; 0 is InvalidArgument (validated loudly, never a silent no-op).
  size_t max_attempts = 1;
  /// Sleep between attempts, in seconds (the cancel token / deadline are
  /// re-checked before each retry, so backoff never outlives a stop).
  double backoff_seconds = 0.0;
};

/// End-to-end repair configuration.
struct RepairOptions {
  Solver solver = Solver::kFastOtClean;
  FastOtCleanOptions fast;
  QclpOptions qclp;
  FairnessOptions fairness;
  /// Graceful-degradation policy (FastOTClean only; every other solver
  /// runs a single attempt — their failure modes are not scaling blow-ups).
  RetryOptions retry;
  /// Section 5 unsaturated-constraint optimization: clean only the marginal
  /// over the constraint attributes U = X∪Y∪Z and carry the remaining
  /// attributes along unchanged. When false, the *naive* method cleans the
  /// full joint over every column (exponentially larger plan — Fig. 11a).
  bool use_saturation = true;
  /// true: sample repairs from π(v′|v) (the probabilistic cleaner);
  /// false: deterministic MAP repairs.
  bool sample_repair = true;
  uint64_t seed = 42;
};

/// Summary of one repair run.
struct RepairReport {
  dataset::Table repaired;
  double initial_cmi = 0.0;  ///< CMI of the input empirical distribution.
  double final_cmi = 0.0;    ///< CMI of the repaired empirical distribution.
  double target_cmi = 0.0;   ///< CMI of the cleaner's target distribution Q.
  double transport_cost = 0.0;
  size_t outer_iterations = 0;
  size_t total_sinkhorn_iterations = 0;
  bool converged = false;
  /// Plan storage diagnostics: CSR-backed plans (kernel_truncation > 0)
  /// report their structural nonzeros; dense plans report rows×cols.
  bool plan_sparse = false;
  size_t plan_nnz = 0;
  size_t plan_memory_bytes = 0;
  /// Nonzeros of the (possibly truncated) Gibbs kernel the solver iterated
  /// on (FastOTClean only; 0 for QCLP, which solves LPs instead).
  size_t kernel_nnz = 0;
  /// Instruction set the kernel primitives dispatched on ("scalar",
  /// "avx2", "avx512", "neon" — see linalg/simd.h; override with the
  /// OTCLEAN_SIMD environment variable).
  const char* simd_isa = "";
  /// Iteration domain of the inner Sinkhorn solves: "linear" (scaling
  /// vectors over K = e^{−C/ε}) or "log" (log-potentials over a
  /// LogTransportKernel; FastOtCleanOptions::log_domain / the CLI's
  /// --log-domain). "n/a" for the QCLP solver, which iterates LPs.
  const char* sinkhorn_domain = "linear";
  /// Cross-request solve-cache activity of the fit (core/solve_cache.h;
  /// all zero/false when no cache was configured or the cost was
  /// unfingerprintable).
  size_t cache_kernel_hits = 0;
  size_t cache_kernel_misses = 0;
  /// Storage precision of the Gibbs kernel the solver iterated on ("f64"
  /// or "f32"; FastOtCleanOptions::precision / the CLI's --precision).
  /// "n/a" for the QCLP solver.
  const char* precision = "f64";
  /// How the repair terminated: "ok" (converged on the first attempt),
  /// "retried-ok" when RetryOptions fallbacks recovered a converged solve
  /// after at least one retryable failure, or "iteration-cap" when the
  /// returned result is unconverged (every attempt ran out of its
  /// iteration budget; `converged` is false). Failed repairs never produce
  /// a report — their reason lives in the returned Status code
  /// (kCancelled, kDeadlineExceeded, kResourceExhausted, ...).
  const char* termination = "ok";
  /// Fallback attempts taken beyond the first try (0 without retries).
  size_t retry_attempts = 0;
  /// Human-readable fallback trail, e.g. "attempt 2: log-domain after
  /// Internal: ... plan lost all mass". Empty when no fallback ran.
  std::string recovery;
};

/// A fitted probabilistic data cleaner: learns the transport plan from one
/// table's empirical distribution and can then repair that table — or any
/// stream of new tuples over the same schema (Section 1's streaming use
/// case). It is the one repair pipeline: RepairTable and RepairTableMulti
/// fit one and apply it, whatever the solver.
///
/// Given several constraints it enforces all of them at once (the paper's
/// stated extension) over the union of their attributes: FastOTClean runs
/// cyclic I-projections inside the Sinkhorn alternation and QCLP one
/// linearization block per constraint. Constraints may overlap but each
/// must be well-formed for the table's schema. Combinations that cannot
/// honour several constraints are InvalidArgument errors from Fit rather
/// than a silent single-constraint solve: the Capuchin baselines are
/// single-constraint by construction, and `use_saturation` must stay true
/// (there is no naive full-joint mode over a union). kCapMaxSat has no
/// plan, so Fit always rejects it.
class OtCleanRepairer {
 public:
  OtCleanRepairer(CiConstraint constraint, RepairOptions options = {})
      : OtCleanRepairer(std::vector<CiConstraint>{std::move(constraint)},
                        std::move(options)) {}
  OtCleanRepairer(std::vector<CiConstraint> constraints,
                  RepairOptions options = {})
      : constraints_(std::move(constraints)), options_(std::move(options)) {}

  /// Learns the plan from `table`. `cost` (over the cleaned sub-domain; see
  /// CleanedDomain()) may be null, in which case the paper's C1 cost
  /// (stddev-normalized Euclidean) is built from the empirical distribution.
  /// `Rng(options.seed)` seeds the solve.
  Status Fit(const dataset::Table& table, const ot::CostFunction* cost = nullptr);

  /// True once Fit has succeeded.
  bool fitted() const { return fitted_; }

  /// The domain the plan acts on: the union of the constraints' attributes
  /// (in first-appearance order) under saturation, the full table domain
  /// otherwise.
  const prob::Domain& CleanedDomain() const { return domain_; }

  /// The learned plan.
  const ot::TransportPlan& plan() const { return plan_; }
  /// The CI-consistent target distribution.
  const prob::JointDistribution& target() const { return target_; }

  /// Repairs a single row (vector of codes over the full table schema);
  /// rows with missing constraint attributes pass through unchanged.
  std::vector<int> RepairRow(const std::vector<int>& row, Rng& rng) const;

  /// Repairs every row of `table` (same schema as the fitted table).
  Result<dataset::Table> Apply(const dataset::Table& table, Rng& rng) const;

  /// Diagnostics of the underlying solve. `initial_cmi` and `target_cmi`
  /// are the largest CMI across the constraints.
  const RepairReport& fit_report() const { return fit_report_; }

 private:
  std::vector<CiConstraint> constraints_;
  RepairOptions options_;
  bool fitted_ = false;
  std::vector<size_t> cleaned_cols_;  ///< table columns the plan acts on.
  prob::Domain domain_;
  ot::TransportPlan plan_;
  prob::JointDistribution target_;
  RepairReport fit_report_;  ///< `repaired` left empty.
};

/// One-shot convenience: fit an OtCleanRepairer on `table` and repair it,
/// applying with `Rng(options.seed ^ 0xabcdef12345)`. Same as
/// RepairTableMulti(table, {constraint}, options, cost).
Result<RepairReport> RepairTable(const dataset::Table& table,
                                 const CiConstraint& constraint,
                                 const RepairOptions& options = {},
                                 const ot::CostFunction* cost = nullptr);

/// CMI of `table`'s empirical distribution w.r.t. `constraint` — the
/// "degree of inconsistency" δ_σ reported in Table 2.
Result<double> TableCmi(const dataset::Table& table,
                        const CiConstraint& constraint);

/// Repairs `table` under every constraint at once through OtCleanRepairer
/// (see its doc for the supported solvers), then reports `initial_cmi` /
/// `final_cmi` as the *largest* CMI across the constraints. Cap(MS), which
/// has no plan, repairs its one constraint directly. Runs under the
/// RetryOptions policy.
Result<RepairReport> RepairTableMulti(
    const dataset::Table& table, const std::vector<CiConstraint>& constraints,
    const RepairOptions& options = {}, const ot::CostFunction* cost = nullptr);

}  // namespace otclean::core

#endif  // OTCLEAN_CORE_REPAIR_H_
