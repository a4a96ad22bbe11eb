#ifndef OTCLEAN_CORE_QCLP_CLEANER_H_
#define OTCLEAN_CORE_QCLP_CLEANER_H_

#include <vector>

#include "common/cancellation.h"
#include "common/result.h"
#include "ot/cost.h"
#include "ot/plan.h"
#include "prob/independence.h"
#include "prob/joint.h"

namespace otclean::linalg {
class ThreadPool;
}  // namespace otclean::linalg

namespace otclean::core {

/// Options for the QCLP-based exact cleaner (Section 4.1).
struct QclpOptions {
  size_t max_outer_iterations = 50;
  /// Convergence threshold on the total-variation change of Q.
  double outer_tolerance = 1e-7;
  /// Pivot budget per LP solve.
  size_t lp_max_iterations = 200000;
  /// Restrict plan columns to the active domain (rows always are).
  bool restrict_columns_to_active = false;
  /// Worker threads for the LP pricing scans (the O(m·n)-per-pivot part of
  /// each outer step). 0 = hardware concurrency, 1 = serial; chunk-local
  /// minima merge deterministically, so results are identical across
  /// thread counts.
  size_t num_threads = 0;
  /// Optional externally owned worker pool, shareable across sequential
  /// and concurrent solves alike; must outlive the call. When null and
  /// the resolved `num_threads` exceeds 1, QclpClean creates one pool per
  /// solve and reuses it across all outer iterations.
  linalg::ThreadPool* thread_pool = nullptr;
  /// Cooperative stop signals, polled at every outer alternation and at
  /// every LP pivot inside it.
  const CancellationToken* cancel_token = nullptr;
  Deadline deadline = Deadline::Infinite();
};

struct QclpResult {
  ot::TransportPlan plan;
  prob::JointDistribution target;
  std::vector<double> objective_trace;
  size_t outer_iterations = 0;
  size_t total_lp_pivots = 0;
  bool converged = false;
  double target_cmi = 0.0;
  double transport_cost = 0.0;
  /// Working-set footprint of the largest LP solved (the revised simplex's
  /// basis inverse + scratch), in bytes — the memory-scaling quantity of
  /// Figs. 13/14. With the column-oracle engine this is O((m + Σ_k d_k)²)
  /// instead of the dense tableau's O((m + n)·(m·n)).
  size_t peak_tableau_bytes = 0;
};

/// Solves the QCLP formulation of the optimal data cleaner (Eq. 7–10) with
/// the paper's alternating linearization: the quadratic independence
/// constraints Q(x,y,z)·Q(z) = Q(x,z)·Q(y,z) are linearized by fixing one
/// conditional factor at its previous estimate — alternating between
/// pinning Q(y|z) and Q(x|z) — and each step solves a linear program.
///
/// The LP is never materialized: costs stream through a
/// linalg::CostProvider and a structure-aware column oracle prices each of
/// the m·n plan variables in O(1) for the revised simplex
/// (lp/revised_simplex.h), so the per-solve memory is O((m + rows)²)
/// rather than a dense tableau.
///
/// Requires a *saturated* constraint spec: `ci.x ∪ ci.y ∪ ci.z` must cover
/// every attribute of `p_data`'s domain (use the saturation wrapper in
/// repair.h for unsaturated constraints, or QclpCleanMulti which accepts
/// general specs).
Result<QclpResult> QclpClean(const prob::JointDistribution& p_data,
                             const prob::CiSpec& ci,
                             const ot::CostFunction& cost,
                             const QclpOptions& options);

/// Multi-constraint QCLP: simultaneously enforces every CI spec in `cis`
/// by linearizing each constraint's independence surface per alternation
/// (one block of marginal rows per constraint) and projecting the column
/// marginal onto the intersection with prob::MultiCiProjection. Specs need
/// not be saturated. With a single saturated spec this coincides with
/// QclpClean, which is a thin wrapper over this entry point.
Result<QclpResult> QclpCleanMulti(const prob::JointDistribution& p_data,
                                  const std::vector<prob::CiSpec>& cis,
                                  const ot::CostFunction& cost,
                                  const QclpOptions& options);

}  // namespace otclean::core

#endif  // OTCLEAN_CORE_QCLP_CLEANER_H_
