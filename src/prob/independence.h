#ifndef OTCLEAN_PROB_INDEPENDENCE_H_
#define OTCLEAN_PROB_INDEPENDENCE_H_

#include <cstdint>
#include <vector>

#include "linalg/vector.h"
#include "prob/joint.h"

namespace otclean::prob {

/// Attribute-position sets for a CI statement X ⟂ Y | Z over a joint
/// distribution's domain. Z may be empty (marginal independence).
struct CiSpec {
  std::vector<size_t> x;
  std::vector<size_t> y;
  std::vector<size_t> z;
};

/// CI projections and conditional mutual information over one domain and a
/// fixed list of constraints, with every per-cell index precomputed: build
/// it once per (domain, constraints) and reuse it for every projection —
/// after construction, Project, ProjectOnto, Cmi and MaxCmi allocate
/// nothing. The free functions below are thin wrappers that build one per
/// call; all of them share this one implementation.
///
/// Floating-point operations follow the order of the per-call definitions
/// exactly: marginals are accumulated in cell order, the CMI sums over the
/// (X,Y,Z) marginal's cells in its own index order, and distributions are
/// renormalized by Vector::Normalize — so a projector's results are bit
/// for bit those of the wrappers.
///
/// Not thread-safe: the marginal and scratch buffers are mutable state.
class CiProjector {
 public:
  /// Index tables of one constraint over the domain's cells. Marginal
  /// indices follow JointDistribution::Marginal's mixed-radix layout over
  /// [X..., Z...], [Y..., Z...] and [Z...], so xz = x·|Z| + z and
  /// yz = y·|Z| + z.
  struct SpecIndex {
    size_t dx = 1;  ///< |X| (1 for an empty X)
    size_t dy = 1;  ///< |Y|
    size_t dz = 1;  ///< |Z| (1 for an empty Z)
    bool has_z = false;
    /// X, Y and Z together name every attribute exactly once, so each
    /// (x,y,z) slice is a single cell and P(rest|x,y,z) is P's support
    /// indicator.
    bool saturated = false;
    std::vector<uint32_t> xz;  ///< per domain cell
    std::vector<uint32_t> yz;  ///< per domain cell
    std::vector<uint32_t> z;   ///< per domain cell; empty when Z is empty
    std::vector<uint32_t> xyz;  ///< per domain cell; unsaturated specs only
    /// Per (X,Y,Z)-marginal cell, the first domain cell in that slice —
    /// for a saturated spec, the only one.
    std::vector<uint32_t> xyz_cell;

    /// A domain cell's index in the X, Y and Z marginals on their own.
    size_t XIndex(size_t cell) const { return xz[cell] / dz; }
    size_t YIndex(size_t cell) const { return yz[cell] / dz; }
    size_t ZIndex(size_t cell) const { return has_z ? z[cell] : 0; }
  };

  CiProjector(const Domain& domain, const std::vector<CiSpec>& cis);

  const SpecIndex& index(size_t k) const { return specs_[k].index; }

  /// Cyclic I-projections in place: sweeps over the constraints,
  /// projecting onto each in turn, until the largest CMI is ≤ `tol` or
  /// `max_sweeps` sweeps have run. `q` has one entry per domain cell. A
  /// sweep's closing CMI check and the next sweep's first projection read
  /// the same marginals, which are computed once.
  void Project(linalg::Vector& q, size_t max_sweeps = 60, double tol = 1e-10);

  /// One I-projection of `q` onto constraint `k`, in place.
  void ProjectOnto(size_t k, linalg::Vector& q);

  /// I(X;Y|Z) of `p` under constraint `k`, in nats.
  double Cmi(size_t k, const linalg::Vector& p);

  /// Largest CMI of `p` across the constraints (0 for none).
  double MaxCmi(const linalg::Vector& p);

 private:
  struct Spec {
    SpecIndex index;
    /// Marginals of the distribution last accumulated: raw sums for
    /// (X,Y,Z) (unsaturated only), divided by the mass for the rest.
    std::vector<double> xz, yz, z, xyz;
  };

  void Accumulate(Spec& s, const linalg::Vector& p, double mass);
  void ProjectAccumulated(const Spec& s, const linalg::Vector& in,
                          double mass, linalg::Vector& out) const;
  double CmiAccumulated(const Spec& s, const linalg::Vector& p,
                        double mass) const;

  std::vector<Spec> specs_;
  linalg::Vector work_;
};

/// Conditional mutual information I(X;Y|Z) in nats — the paper's degree of
/// inconsistency δ_σ(P). Zero iff P |= (X ⟂ Y | Z). The input need not be
/// normalized.
double ConditionalMutualInformation(const JointDistribution& p,
                                    const CiSpec& ci);

/// Whether P satisfies X ⟂ Y | Z up to `tol` in CMI (nats).
bool SatisfiesCi(const JointDistribution& p, const CiSpec& ci,
                 double tol = 1e-9);

/// One CI projection of P:
/// Q(x,y,z,w) = P(z) · P(x|z) · P(y|z) · P(w|x,y,z), normalized, where W
/// is the attributes outside the constraint (for a saturated constraint
/// there is no W). Cells where P(w|x,y,z) is zero stay zero: for a
/// saturated constraint that factor is P's support indicator, so every
/// zero cell of P is a zero cell of Q.
///
/// On a fully supported P this is, per z-slice, the rank-one
/// (outer-product-of-marginals) factorization — the unique KL-closest
/// CI-consistent distribution with the same Z-marginal, and the closed
/// form of the paper's inner NMF loop. When P has zero cells inside a
/// slice's X×Y support, the kept support is not a product set, so Q need
/// not satisfy the constraint exactly and projecting again moves it.
JointDistribution CiProjection(const JointDistribution& p, const CiSpec& ci);

/// Mutual information I(X;Y) in nats (CMI with empty Z).
double MutualInformation(const JointDistribution& p,
                         const std::vector<size_t>& x,
                         const std::vector<size_t>& y);

/// Approximate projection onto the intersection of several CI constraints
/// by cyclic CI projections (iterative proportional fitting style): sweeps
/// over the constraints, projecting onto each in turn, until the largest
/// CMI falls below `tol` or `max_sweeps` is exhausted. With one
/// constraint and a fully supported P the first sweep already lands on the
/// constraint; when P has zero cells, each sweep is one more CiProjection
/// and the loop runs until the CMI reaches `tol` or stalls at a floor set
/// by the zero pattern, up to `max_sweeps`. The intersection is non-empty
/// (product distributions satisfy every CI), so the iteration is always
/// well-defined; convergence to the exact KL-closest point holds when the
/// constraints' closures form a compatible (e.g. decomposable) set.
JointDistribution MultiCiProjection(const JointDistribution& p,
                                    const std::vector<CiSpec>& cis,
                                    size_t max_sweeps = 60,
                                    double tol = 1e-10);

/// Largest CMI across a set of constraints (0 for an empty set).
double MaxCmi(const JointDistribution& p, const std::vector<CiSpec>& cis);

}  // namespace otclean::prob

#endif  // OTCLEAN_PROB_INDEPENDENCE_H_
