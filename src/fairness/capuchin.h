#ifndef OTCLEAN_FAIRNESS_CAPUCHIN_H_
#define OTCLEAN_FAIRNESS_CAPUCHIN_H_

#include "common/random.h"
#include "common/result.h"
#include "prob/independence.h"
#include "prob/joint.h"

namespace otclean::fairness {

/// Capuchin-style database-repair baselines (Salimi et al., SIGMOD 2019)
/// for a CI constraint σ : X ⟂ Y | Z. Both methods construct a
/// CI-consistent target distribution Q over the constraint attributes
/// U = X∪Y∪Z; the repair keeps each row's X and Z and resamples its Y
/// attributes from Q(Y | X, Z) (= Q(Y | Z) for CI-consistent Q). That
/// repair runs through core::OtCleanRepairer / core::RepairTable with
/// Solver::kCapuchinIC or kCapuchinMF, which wrap Q in a transport plan so
/// the baselines fit, apply and report exactly like the OT solvers.
enum class CapuchinMethod {
  /// Cap(IC): the target is the product of the *initial* distribution's
  /// conditional marginals, Q(x,y|z) = P(x|z)·P(y|z).
  kIndependentCoupling,
  /// Cap(MF): each z-slice of the joint is replaced by its rank-one
  /// Frobenius-norm non-negative factorization.
  kMatrixFactorization,
};

/// Builds the CI-consistent Capuchin target distribution Q for `p` under
/// `ci` with the selected method: Cap(IC) is the I-projection onto the CI
/// manifold (product of conditional marginals); Cap(MF) replaces each
/// z-slice by its rank-one Frobenius NMF (consuming `rng`, Cap(MF) only).
/// The repair layer (core/repair.h) turns it into the plan it applies.
Result<prob::JointDistribution> CapuchinTarget(
    const prob::JointDistribution& p, const prob::CiSpec& ci,
    CapuchinMethod method, size_t nmf_max_iterations, Rng& rng);

}  // namespace otclean::fairness

#endif  // OTCLEAN_FAIRNESS_CAPUCHIN_H_
