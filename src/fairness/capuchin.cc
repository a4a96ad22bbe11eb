#include "fairness/capuchin.h"

#include "nmf/frobenius_nmf.h"
#include "prob/independence.h"

namespace otclean::fairness {

namespace {

/// Builds the Cap(MF) target: per-z-slice rank-one Frobenius NMF of the
/// joint over (X, Y).
Result<prob::JointDistribution> MatrixFactorizationTarget(
    const prob::JointDistribution& p, const prob::CiSpec& ci,
    size_t nmf_max_iterations, Rng& rng) {
  const prob::Domain& dom = p.domain();
  const size_t dx = dom.Project(ci.x).TotalSize();
  const size_t dy = dom.Project(ci.y).TotalSize();
  const size_t dz = ci.z.empty() ? 1 : dom.Project(ci.z).TotalSize();

  std::vector<linalg::Matrix> slices(dz, linalg::Matrix(dx, dy, 0.0));
  for (size_t cell = 0; cell < p.size(); ++cell) {
    const double v = p[cell];
    if (v <= 0.0) continue;
    const size_t xi = dom.ProjectIndex(cell, ci.x);
    const size_t yi = dom.ProjectIndex(cell, ci.y);
    const size_t zi = ci.z.empty() ? 0 : dom.ProjectIndex(cell, ci.z);
    slices[zi](xi, yi) += v;
  }

  nmf::FrobeniusNmfOptions opts;
  opts.rank = 1;
  opts.max_iterations = nmf_max_iterations;
  std::vector<linalg::Matrix> approx(dz, linalg::Matrix(dx, dy, 0.0));
  for (size_t zi = 0; zi < dz; ++zi) {
    const double slice_mass = slices[zi].Sum();
    if (slice_mass <= 0.0) continue;
    OTCLEAN_ASSIGN_OR_RETURN(nmf::FrobeniusNmfResult r,
                             nmf::FrobeniusNmf(slices[zi], opts, rng));
    linalg::Matrix a = linalg::Matrix::OuterProduct(r.w.Col(0), r.h.Row(0));
    // Rescale so slice masses are preserved (factorization is rank-one and
    // therefore CI-consistent within the slice regardless of scale).
    const double approx_mass = a.Sum();
    if (approx_mass > 0.0) a *= slice_mass / approx_mass;
    approx[zi] = std::move(a);
  }

  prob::JointDistribution q(dom);
  const prob::JointDistribution rest = p.ConditionalOn([&] {
    std::vector<size_t> xyz = ci.x;
    xyz.insert(xyz.end(), ci.y.begin(), ci.y.end());
    xyz.insert(xyz.end(), ci.z.begin(), ci.z.end());
    return xyz;
  }());
  for (size_t cell = 0; cell < q.size(); ++cell) {
    const size_t xi = dom.ProjectIndex(cell, ci.x);
    const size_t yi = dom.ProjectIndex(cell, ci.y);
    const size_t zi = ci.z.empty() ? 0 : dom.ProjectIndex(cell, ci.z);
    q[cell] = approx[zi](xi, yi) * rest[cell];
  }
  q.Normalize();
  return q;
}

}  // namespace

Result<prob::JointDistribution> CapuchinTarget(
    const prob::JointDistribution& p, const prob::CiSpec& ci,
    CapuchinMethod method, size_t nmf_max_iterations, Rng& rng) {
  if (method == CapuchinMethod::kIndependentCoupling) {
    return prob::CiProjection(p, ci);
  }
  return MatrixFactorizationTarget(p, ci, nmf_max_iterations, rng);
}

}  // namespace otclean::fairness
