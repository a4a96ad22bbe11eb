#ifndef OTCLEAN_TESTS_CI_REFERENCE_H_
#define OTCLEAN_TESTS_CI_REFERENCE_H_

// Test-only reference for prob::CiProjector: the per-call CI projection and
// conditional mutual information written directly on
// JointDistribution::Marginal / ConditionalOn and Domain::ProjectIndex, one
// div/mod per attribute per lookup and fresh marginals per call. The
// library's projector precomputes index tables and reuses marginals, and
// promises the same floating-point operations in the same order; tests
// compare its output against these functions bit for bit.

#include <algorithm>
#include <cmath>
#include <vector>

#include "prob/independence.h"
#include "prob/joint.h"

namespace otclean::testing::ci_reference {

inline std::vector<size_t> Concat(const std::vector<size_t>& a,
                                  const std::vector<size_t>& b) {
  std::vector<size_t> out = a;
  out.insert(out.end(), b.begin(), b.end());
  return out;
}

/// I(X;Y|Z) in nats, summed over the (X,Y,Z) marginal's cells.
inline double ConditionalMutualInformation(const prob::JointDistribution& p,
                                           const prob::CiSpec& ci) {
  const double mass = p.Mass();
  if (mass <= 0.0) return 0.0;

  const auto xz = Concat(ci.x, ci.z);
  const auto yz = Concat(ci.y, ci.z);
  const auto xyz = Concat(Concat(ci.x, ci.y), ci.z);

  const prob::JointDistribution p_xyz = p.Marginal(xyz);
  const prob::JointDistribution p_xz = p.Marginal(xz);
  const prob::JointDistribution p_yz = p.Marginal(yz);
  const prob::JointDistribution p_z =
      ci.z.empty() ? prob::JointDistribution() : p.Marginal(ci.z);

  // Within p_xyz's domain, attributes appear in order [X..., Y..., Z...].
  const prob::Domain& dom = p_xyz.domain();
  std::vector<size_t> x_pos(ci.x.size()), y_pos(ci.y.size()),
      z_pos(ci.z.size());
  for (size_t i = 0; i < ci.x.size(); ++i) x_pos[i] = i;
  for (size_t i = 0; i < ci.y.size(); ++i) y_pos[i] = ci.x.size() + i;
  for (size_t i = 0; i < ci.z.size(); ++i) {
    z_pos[i] = ci.x.size() + ci.y.size() + i;
  }
  const auto xz_pos = Concat(x_pos, z_pos);
  const auto yz_pos = Concat(y_pos, z_pos);

  double cmi = 0.0;
  for (size_t cell = 0; cell < p_xyz.size(); ++cell) {
    const double pxyz = p_xyz[cell] / mass;
    if (pxyz <= 0.0) continue;
    const double pxz = p_xz[dom.ProjectIndex(cell, xz_pos)] / mass;
    const double pyz = p_yz[dom.ProjectIndex(cell, yz_pos)] / mass;
    const double pz =
        ci.z.empty() ? 1.0 : p_z[dom.ProjectIndex(cell, z_pos)] / mass;
    cmi += pxyz * std::log((pxyz * pz) / (pxz * pyz));
  }
  return cmi > 0.0 ? cmi : 0.0;
}

/// Q = P(z) · P(x|z) · P(y|z) · P(rest|x,y,z), normalized.
inline prob::JointDistribution CiProjection(const prob::JointDistribution& p,
                                            const prob::CiSpec& ci) {
  const prob::Domain& dom = p.domain();
  const double mass = p.Mass();
  prob::JointDistribution out(dom);
  if (mass <= 0.0) return out;

  const auto xz = Concat(ci.x, ci.z);
  const auto yz = Concat(ci.y, ci.z);
  const auto xyz = Concat(Concat(ci.x, ci.y), ci.z);

  const prob::JointDistribution p_xz = p.Marginal(xz);
  const prob::JointDistribution p_yz = p.Marginal(yz);
  const prob::JointDistribution p_z =
      ci.z.empty() ? prob::JointDistribution() : p.Marginal(ci.z);
  const prob::JointDistribution p_rest_given_xyz = p.ConditionalOn(xyz);

  for (size_t cell = 0; cell < dom.TotalSize(); ++cell) {
    const double pxz = p_xz[dom.ProjectIndex(cell, xz)] / mass;
    const double pyz = p_yz[dom.ProjectIndex(cell, yz)] / mass;
    if (pxz <= 0.0 || pyz <= 0.0) continue;
    const double pz =
        ci.z.empty() ? 1.0 : p_z[dom.ProjectIndex(cell, ci.z)] / mass;
    if (pz <= 0.0) continue;
    out[cell] = (pxz * pyz / pz) * p_rest_given_xyz[cell];
  }
  out.Normalize();
  return out;
}

inline double MaxCmi(const prob::JointDistribution& p,
                     const std::vector<prob::CiSpec>& cis) {
  double mx = 0.0;
  for (const prob::CiSpec& ci : cis) {
    mx = std::max(mx, ci_reference::ConditionalMutualInformation(p, ci));
  }
  return mx;
}

/// Cyclic projections until the largest CMI is ≤ `tol` or `max_sweeps`.
inline prob::JointDistribution MultiCiProjection(
    const prob::JointDistribution& p, const std::vector<prob::CiSpec>& cis,
    size_t max_sweeps = 60, double tol = 1e-10) {
  prob::JointDistribution q = p;
  if (cis.empty()) return q;
  for (size_t sweep = 0; sweep < max_sweeps; ++sweep) {
    for (const prob::CiSpec& ci : cis) q = ci_reference::CiProjection(q, ci);
    if (ci_reference::MaxCmi(q, cis) <= tol) break;
  }
  return q;
}

}  // namespace otclean::testing::ci_reference

#endif  // OTCLEAN_TESTS_CI_REFERENCE_H_
