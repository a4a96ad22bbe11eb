#include "core/repair.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <functional>
#include <new>
#include <optional>
#include <thread>

#include "fairness/cap_maxsat.h"
#include "fairness/capuchin.h"
#include "linalg/simd.h"
#include "linalg/sparse_matrix.h"

namespace otclean::core {
namespace {

/// The one place plan-storage diagnostics and the active SIMD tier flow
/// into a RepairReport — shared by every solver so the fields cannot
/// diverge.
void PopulatePlanReport(const ot::TransportPlan& plan, RepairReport& report) {
  report.plan_sparse = plan.IsSparse();
  report.plan_nnz = plan.Nnz();
  report.plan_memory_bytes = plan.MemoryBytes();
  report.simd_isa = linalg::simd::ActiveIsaName();
}

/// Populates every solve-diagnostic field of `report` from a *successful*
/// FastOTClean run. `sinkhorn_domain` is derived here, after the solve, so
/// no path can report a domain for Sinkhorn iterations that never ran.
void PopulateFastSolveReport(const FastOtCleanResult& r,
                             const FastOtCleanOptions& fast,
                             RepairReport& report) {
  report.target_cmi = r.target_cmi;
  report.transport_cost = r.transport_cost;
  report.outer_iterations = r.outer_iterations;
  report.total_sinkhorn_iterations = r.total_sinkhorn_iterations;
  report.converged = r.converged;
  report.kernel_nnz = r.kernel_nnz;
  report.sinkhorn_domain = fast.log_domain ? "log" : "linear";
  report.precision =
      fast.precision == linalg::Precision::kFloat32 ? "f32" : "f64";
  report.cache_kernel_hits = r.cache_kernel_hits;
  report.cache_kernel_misses = r.cache_kernel_misses;
  PopulatePlanReport(r.plan, report);
}

/// QCLP counterpart of PopulateFastSolveReport: the Sinkhorn-only counters
/// stay at their zero defaults and the domain/precision strings read "n/a"
/// so no QCLP path can masquerade as a Sinkhorn run.
void PopulateQclpSolveReport(const QclpResult& r, RepairReport& report) {
  report.target_cmi = r.target_cmi;
  report.transport_cost = r.transport_cost;
  report.outer_iterations = r.outer_iterations;
  report.converged = r.converged;
  report.sinkhorn_domain = "n/a";
  report.precision = "n/a";
  PopulatePlanReport(r.plan, report);
}

/// The Capuchin repair as a CSR TransportPlan: every active cell keeps its
/// non-Y coordinates and redistributes its mass over the Y cells of its
/// slice proportionally to the target q — Capuchin's "keep X and Z,
/// resample Y from Q(Y|X,Z)" — so the baselines flow through the same
/// SampleRepair/MapRepair apply path and report the same plan diagnostics
/// as the OT solvers. Rows whose slice carries no target mass get an empty
/// CSR row and therefore pass through unrepaired.
struct CapuchinPlanResult {
  ot::TransportPlan plan;
  double transport_cost = 0.0;
};

CapuchinPlanResult BuildCapuchinPlan(const prob::JointDistribution& p,
                                     const prob::JointDistribution& q,
                                     const prob::CiSpec& spec,
                                     const ot::CostFunction& cost) {
  const prob::Domain& dom = p.domain();
  std::vector<size_t> row_cells;
  for (size_t cell = 0; cell < p.size(); ++cell) {
    if (p[cell] > 0.0) row_cells.push_back(cell);
  }
  std::vector<size_t> col_cells;
  std::vector<size_t> col_of(dom.TotalSize(), dom.TotalSize());
  for (size_t cell = 0; cell < q.size(); ++cell) {
    if (q[cell] > 0.0) {
      col_of[cell] = col_cells.size();
      col_cells.push_back(cell);
    }
  }
  const prob::Domain y_dom = dom.Project(spec.y);
  const size_t num_y = y_dom.TotalSize();

  std::vector<size_t> row_ptr{0};
  std::vector<size_t> col_index;
  std::vector<double> values;
  double transport_cost = 0.0;
  std::vector<size_t> slice_cells(num_y);
  for (size_t cell : row_cells) {
    const double mass = p[cell];
    const std::vector<int> src = dom.Decode(cell);
    std::vector<int> coords = src;
    double slice = 0.0;
    for (size_t yc = 0; yc < num_y; ++yc) {
      const std::vector<int> yv = y_dom.Decode(yc);
      for (size_t i = 0; i < spec.y.size(); ++i) coords[spec.y[i]] = yv[i];
      slice_cells[yc] = dom.Encode(coords);
      slice += q[slice_cells[yc]];
    }
    if (slice <= 0.0) {
      row_ptr.push_back(col_index.size());
      continue;
    }
    for (size_t yc = 0; yc < num_y; ++yc) {
      const double qv = q[slice_cells[yc]];
      if (qv <= 0.0) continue;
      const double v = mass * qv / slice;
      col_index.push_back(col_of[slice_cells[yc]]);
      values.push_back(v);
      if (slice_cells[yc] != cell) {
        transport_cost += v * cost.Cost(src, dom.Decode(slice_cells[yc]));
      }
    }
    row_ptr.push_back(col_index.size());
  }

  const size_t rows = row_cells.size();
  const size_t cols = col_cells.size();
  CapuchinPlanResult out;
  out.transport_cost = transport_cost;
  out.plan = ot::TransportPlan(
      dom, std::move(row_cells), std::move(col_cells),
      linalg::SparseMatrix::FromParts(rows, cols, std::move(row_ptr),
                                      std::move(col_index),
                                      std::move(values)));
  return out;
}

/// A failure the RetryOptions fallbacks can plausibly fix: an explicit
/// non-convergence, or the deterministic endpoint of NaN/underflowed
/// scalings in the linear domain — every row scaling clamps to 0, the plan
/// drains, and FastOTClean reports Internal "plan lost all mass".
bool RetryableFailure(const Status& s) {
  if (s.code() == StatusCode::kNotConverged) return true;
  return s.code() == StatusCode::kInternal &&
         s.message().find("plan lost all mass") != std::string::npos;
}

/// Applies the next fallback tier to `opts` and appends a note to
/// `recovery`: linear → log domain first (fixes scaling under/overflow
/// outright), then ε doubling (smooths a kernel too sharp to converge).
void ApplyFallback(RepairOptions& opts, size_t attempt,
                   const Status& failure, std::string& recovery) {
  std::string note;
  if (!opts.fast.log_domain) {
    opts.fast.log_domain = true;
    note = "log-domain";
  } else {
    opts.fast.epsilon *= 2.0;
    note = "epsilon x2 -> " + std::to_string(opts.fast.epsilon);
  }
  if (!recovery.empty()) recovery += "; ";
  recovery += "attempt " + std::to_string(attempt + 2) + ": " + note +
              " after " +
              (failure.ok() ? std::string("non-convergence")
                            : failure.ToString());
}

/// One repair attempt with the allocation-failure boundary: a
/// std::bad_alloc from anywhere inside the solve (kernel storages, plans —
/// or FaultSite::kAlloc) unwinds to here and becomes kResourceExhausted,
/// so an overloaded process sheds the request instead of crashing.
Result<RepairReport> GuardedAttempt(
    const std::function<Result<RepairReport>(const RepairOptions&)>& attempt,
    const RepairOptions& opts) {
  try {
    return attempt(opts);
  } catch (const std::bad_alloc&) {
    return Status::ResourceExhausted(
        "repair: allocation failed (std::bad_alloc) while building the "
        "solve");
  }
}

/// The retry driver of RepairTableMulti (and so RepairTable). Runs up to
/// retry.max_attempts attempts, each through GuardedAttempt; retryable
/// failures (RetryableFailure, or an unconverged-but-ok result) trigger
/// the next fallback tier. A converged result from a fallback terminates
/// as "retried-ok"; if every fallback still fails, the best
/// ok-but-unconverged result seen (if any) is returned rather than the
/// final error — degradation never makes the outcome worse than attempt 1.
/// An unconverged result terminates as "iteration-cap".
Result<RepairReport> RunWithRetries(
    const RepairOptions& options,
    const std::function<Result<RepairReport>(const RepairOptions&)>&
        attempt_fn) {
  if (options.retry.max_attempts == 0) {
    return Status::InvalidArgument(
        "repair: RetryOptions::max_attempts = 0 — the first try counts as "
        "an attempt, so at least 1 is required (1 = no retry)");
  }
  if (!(options.retry.backoff_seconds >= 0.0)) {
    return Status::InvalidArgument(
        "repair: RetryOptions::backoff_seconds must be >= 0 and finite");
  }
  // The fallbacks reconfigure FastOTClean knobs; every other solver
  // (QCLP, the fairness baselines) runs one attempt.
  const size_t max_attempts = options.solver == Solver::kFastOtClean
                                  ? options.retry.max_attempts
                                  : 1;
  RepairOptions opts = options;
  std::string recovery;
  std::optional<RepairReport> best;  // floor: best ok-but-unconverged result
  for (size_t attempt = 0;; ++attempt) {
    Result<RepairReport> r = GuardedAttempt(attempt_fn, opts);
    if (r.ok() && r->converged) {
      RepairReport report = std::move(r).value();
      report.retry_attempts = attempt;
      report.termination = attempt > 0 ? "retried-ok" : "ok";
      report.recovery = recovery;
      return report;
    }
    const bool retryable = r.ok() || RetryableFailure(r.status());
    if (attempt + 1 >= max_attempts || !retryable) {
      if (r.ok()) {
        RepairReport report = std::move(r).value();
        report.retry_attempts = attempt;
        report.termination = "iteration-cap";
        report.recovery = recovery;
        return report;
      }
      if (best.has_value()) {
        best->termination = "iteration-cap";
        best->recovery = recovery + "; fallback failed (" +
                         r.status().ToString() +
                         "), keeping earlier unconverged result";
        return std::move(*best);
      }
      return r.status();
    }
    if (r.ok()) {
      r->retry_attempts = attempt;
      best = std::move(r).value();
    }
    ApplyFallback(opts, attempt, r.ok() ? Status::OK() : r.status(),
                  recovery);
    // Backoff must never outlive a stop: re-check before sleeping and
    // before the next attempt.
    OTCLEAN_RETURN_NOT_OK(CheckStop(options.fast.cancel_token,
                                    options.fast.deadline, "repair retry"));
    if (options.retry.backoff_seconds > 0.0) {
      std::this_thread::sleep_for(
          std::chrono::duration<double>(options.retry.backoff_seconds));
    }
  }
}

}  // namespace

Status OtCleanRepairer::Fit(const dataset::Table& table,
                            const ot::CostFunction* cost) {
  fitted_ = false;
  if (constraints_.empty()) {
    return Status::InvalidArgument("OtCleanRepairer::Fit: no constraints");
  }
  const bool ot_solver = options_.solver == Solver::kFastOtClean ||
                         options_.solver == Solver::kQclp;
  if (constraints_.size() > 1 && !ot_solver) {
    return Status::InvalidArgument(
        "OtCleanRepairer::Fit: multi-constraint repair supports "
        "Solver::kFastOtClean and Solver::kQclp; the fairness baselines "
        "(Capuchin) are single-constraint — repair per constraint");
  }
  if (options_.solver == Solver::kCapMaxSat) {
    return Status::InvalidArgument(
        "OtCleanRepairer::Fit: Solver::kCapMaxSat repairs by inserting and "
        "deleting whole tuples and has no row-level transport plan; use "
        "RepairTable, which dispatches it directly");
  }
  if (!options_.use_saturation && (constraints_.size() > 1 || !ot_solver)) {
    return Status::InvalidArgument(
        "OtCleanRepairer::Fit: use_saturation = false (naive full-joint "
        "cleaning) needs one constraint and Solver::kFastOtClean or "
        "Solver::kQclp; the multi-constraint and Capuchin cleaners always "
        "operate on the constraint attributes");
  }

  // Union of the constraint attributes, in first-appearance order, with
  // each constraint's spec positioned within it. ResolveColumns returns a
  // constraint's columns in X,Y,Z order, so they split by the X/Y sizes.
  const dataset::Schema& schema = table.schema();
  cleaned_cols_.clear();
  std::vector<prob::CiSpec> specs;
  for (const CiConstraint& constraint : constraints_) {
    OTCLEAN_ASSIGN_OR_RETURN(std::vector<size_t> cols,
                             constraint.ResolveColumns(schema));
    const size_t nx = constraint.x().size();
    const size_t ny = constraint.y().size();
    prob::CiSpec spec;
    for (size_t j = 0; j < cols.size(); ++j) {
      const auto it =
          std::find(cleaned_cols_.begin(), cleaned_cols_.end(), cols[j]);
      const size_t pos = static_cast<size_t>(it - cleaned_cols_.begin());
      if (it == cleaned_cols_.end()) cleaned_cols_.push_back(cols[j]);
      (j < nx ? spec.x : j < nx + ny ? spec.y : spec.z).push_back(pos);
    }
    specs.push_back(std::move(spec));
  }
  if (!options_.use_saturation) {
    // Naive mode: clean the full joint, the constraint attributes first
    // (so the spec above stays valid), then the remaining columns.
    std::vector<bool> in_u(schema.num_columns(), false);
    for (size_t c : cleaned_cols_) in_u[c] = true;
    for (size_t c = 0; c < schema.num_columns(); ++c) {
      if (!in_u[c]) cleaned_cols_.push_back(c);
    }
  }
  domain_ = schema.ToDomain(cleaned_cols_);

  prob::JointDistribution p = table.Empirical(cleaned_cols_);
  if (p.Mass() <= 0.0) {
    return Status::InvalidArgument(
        "OtCleanRepairer::Fit: no complete rows over the constraint "
        "attributes");
  }

  fit_report_ = RepairReport{};
  fit_report_.initial_cmi = prob::MaxCmi(p, specs);

  // Default cost: the paper's C1 (stddev-normalized Euclidean).
  std::unique_ptr<ot::CostFunction> default_cost;
  if (cost == nullptr) {
    default_cost = std::make_unique<ot::EuclideanCost>(
        ot::InverseStddevWeights(domain_, p.probs()));
    cost = default_cost.get();
  }

  Rng rng(options_.seed);
  if (options_.solver == Solver::kFastOtClean) {
    OTCLEAN_ASSIGN_OR_RETURN(
        FastOtCleanResult r,
        FastOtCleanMulti(p, specs, *cost, options_.fast, rng));
    PopulateFastSolveReport(r, options_.fast, fit_report_);
    plan_ = std::move(r.plan);
    target_ = std::move(r.target);
  } else if (options_.solver == Solver::kQclp) {
    OTCLEAN_ASSIGN_OR_RETURN(
        QclpResult r, QclpCleanMulti(p, specs, *cost, options_.qclp));
    PopulateQclpSolveReport(r, fit_report_);
    plan_ = std::move(r.plan);
    target_ = std::move(r.target);
  } else {  // kCapuchinIC / kCapuchinMF: one constraint, checked above
    const prob::CiSpec& spec = specs.front();
    OTCLEAN_RETURN_NOT_OK(CheckStop(options_.fairness.cancel_token,
                                    options_.fairness.deadline,
                                    "OtCleanRepairer::Fit: Capuchin target"));
    const auto method = options_.solver == Solver::kCapuchinIC
                            ? fairness::CapuchinMethod::kIndependentCoupling
                            : fairness::CapuchinMethod::kMatrixFactorization;
    OTCLEAN_ASSIGN_OR_RETURN(
        prob::JointDistribution q,
        fairness::CapuchinTarget(p, spec, method,
                                 options_.fairness.nmf_max_iterations, rng));
    OTCLEAN_RETURN_NOT_OK(CheckStop(options_.fairness.cancel_token,
                                    options_.fairness.deadline,
                                    "OtCleanRepairer::Fit: Capuchin plan"));
    CapuchinPlanResult built = BuildCapuchinPlan(p, q, spec, *cost);
    fit_report_.target_cmi = prob::ConditionalMutualInformation(q, spec);
    fit_report_.transport_cost = built.transport_cost;
    fit_report_.outer_iterations = 1;
    fit_report_.converged = true;
    fit_report_.sinkhorn_domain = "n/a";
    fit_report_.precision = "n/a";
    PopulatePlanReport(built.plan, fit_report_);
    plan_ = std::move(built.plan);
    target_ = std::move(q);
  }
  fitted_ = true;
  return Status::OK();
}

std::vector<int> OtCleanRepairer::RepairRow(const std::vector<int>& row,
                                            Rng& rng) const {
  assert(fitted_);
  // Encode the cleaned columns; missing values pass through unrepaired.
  size_t cell = 0;
  for (size_t i = 0; i < cleaned_cols_.size(); ++i) {
    const int v = row[cleaned_cols_[i]];
    if (v == dataset::kMissing) return row;
    cell = cell * domain_.Cardinality(i) + static_cast<size_t>(v);
  }
  const size_t repaired_cell = options_.sample_repair
                                   ? plan_.SampleRepair(cell, rng)
                                   : plan_.MapRepair(cell);
  if (repaired_cell == cell) return row;
  std::vector<int> out = row;
  const std::vector<int> values = domain_.Decode(repaired_cell);
  for (size_t i = 0; i < cleaned_cols_.size(); ++i) {
    out[cleaned_cols_[i]] = values[i];
  }
  return out;
}

Result<dataset::Table> OtCleanRepairer::Apply(const dataset::Table& table,
                                              Rng& rng) const {
  if (!fitted_) {
    return Status::FailedPrecondition("OtCleanRepairer::Apply before Fit");
  }
  dataset::Table out(table.schema());
  for (size_t r = 0; r < table.num_rows(); ++r) {
    OTCLEAN_RETURN_NOT_OK(out.AppendRow(RepairRow(table.Row(r), rng)));
  }
  return out;
}

namespace {

/// The largest CMI of `table`'s empirical distribution across
/// `constraints`.
Result<double> MaxTableCmi(const dataset::Table& table,
                           const std::vector<CiConstraint>& constraints) {
  double mx = 0.0;
  for (const CiConstraint& constraint : constraints) {
    OTCLEAN_ASSIGN_OR_RETURN(const double cmi, TableCmi(table, constraint));
    mx = std::max(mx, cmi);
  }
  return mx;
}

/// One fit+apply attempt of a repair, the body RunWithRetries retries.
Result<RepairReport> RepairOnce(const dataset::Table& table,
                                const std::vector<CiConstraint>& constraints,
                                const RepairOptions& options,
                                const ot::CostFunction* cost) {
  if (options.solver == Solver::kCapMaxSat && constraints.size() == 1) {
    // Cap(MS) is a tuple add/remove repair with no plan to fit; it
    // dispatches straight to the MaxSAT repairer and reports through the
    // same RepairReport. RepairOptions::seed seeds both the WalkSAT search
    // and the insertion sampling, so one knob seeds every solver. (With
    // several constraints the repairer's Fit rejects it.)
    OTCLEAN_RETURN_NOT_OK(CheckStop(options.fairness.cancel_token,
                                    options.fairness.deadline,
                                    "RepairTable: Cap(MS)"));
    fairness::CapMaxSatOptions cms;
    cms.maxsat = options.fairness.maxsat;
    cms.maxsat.seed = options.seed;
    cms.seed = options.seed;
    RepairReport report;
    OTCLEAN_ASSIGN_OR_RETURN(report.initial_cmi,
                             MaxTableCmi(table, constraints));
    OTCLEAN_ASSIGN_OR_RETURN(
        fairness::CapMaxSatReport r,
        fairness::CapMaxSatRepair(table, constraints.front(), cms));
    OTCLEAN_ASSIGN_OR_RETURN(report.final_cmi,
                             MaxTableCmi(r.repaired, constraints));
    // The repaired empirical distribution *is* the target of a tuple-level
    // repair.
    report.target_cmi = report.final_cmi;
    report.converged = r.hard_satisfied;
    report.sinkhorn_domain = "n/a";
    report.precision = "n/a";
    PopulatePlanReport(ot::TransportPlan(), report);  // simd_isa, empty plan
    report.repaired = std::move(r.repaired);
    return report;
  }
  OtCleanRepairer repairer(constraints, options);
  OTCLEAN_RETURN_NOT_OK(repairer.Fit(table, cost));
  Rng rng(options.seed ^ 0xabcdef12345ull);
  OTCLEAN_ASSIGN_OR_RETURN(dataset::Table repaired,
                           repairer.Apply(table, rng));
  RepairReport report = repairer.fit_report();
  OTCLEAN_ASSIGN_OR_RETURN(report.final_cmi,
                           MaxTableCmi(repaired, constraints));
  report.repaired = std::move(repaired);
  return report;
}

}  // namespace

Result<RepairReport> RepairTable(const dataset::Table& table,
                                 const CiConstraint& constraint,
                                 const RepairOptions& options,
                                 const ot::CostFunction* cost) {
  return RepairTableMulti(table, {constraint}, options, cost);
}

Result<double> TableCmi(const dataset::Table& table,
                        const CiConstraint& constraint) {
  OTCLEAN_ASSIGN_OR_RETURN(std::vector<size_t> cols,
                           constraint.ResolveColumns(table.schema()));
  const prob::JointDistribution p = table.Empirical(cols);
  return prob::ConditionalMutualInformation(
      p, constraint.SpecInProjectedDomain());
}

Result<RepairReport> RepairTableMulti(
    const dataset::Table& table, const std::vector<CiConstraint>& constraints,
    const RepairOptions& options, const ot::CostFunction* cost) {
  return RunWithRetries(options, [&](const RepairOptions& opts) {
    return RepairOnce(table, constraints, opts, cost);
  });
}

}  // namespace otclean::core
