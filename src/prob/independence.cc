#include "prob/independence.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <string>
#include <utility>

#include "common/status.h"

namespace otclean::prob {

namespace {

/// Marks an (X,Y,Z) marginal cell no domain cell falls in (possible only
/// when a spec names an attribute twice).
constexpr uint32_t kNoCell = std::numeric_limits<uint32_t>::max();

/// Concatenates attribute-position lists.
std::vector<size_t> Concat(const std::vector<size_t>& a,
                           const std::vector<size_t>& b) {
  std::vector<size_t> out = a;
  out.insert(out.end(), b.begin(), b.end());
  return out;
}

/// Number of cells of the marginal over `attrs` (1 for none).
size_t MarginalSize(const Domain& dom, const std::vector<size_t>& attrs) {
  size_t n = 1;
  for (size_t a : attrs) n *= dom.Cardinality(a);
  return n;
}

/// The tables store cell and marginal indices as uint32_t.
Status CheckIndexRange(size_t n) {
  if (n >= kNoCell) {
    return Status::InvalidArgument("CiProjector: " + std::to_string(n) +
                                   " cells exceed the 32-bit index tables");
  }
  return Status::OK();
}

/// Domain::ProjectIndex(cell, attrs) for every cell, by an odometer over
/// the cells instead of a div/mod per attribute. The projected index is
/// Σ_i v_{attrs[i]} · Π_{j>i} |attrs[j]|, linear in each value, so an
/// attribute named twice simply gets the sum of its two weights.
std::vector<uint32_t> ProjectionTable(const Domain& dom,
                                      const std::vector<size_t>& attrs) {
  std::vector<size_t> weight(dom.num_attrs(), 0);
  size_t stride = 1;
  for (size_t i = attrs.size(); i-- > 0;) {
    weight[attrs[i]] += stride;
    stride *= dom.Cardinality(attrs[i]);
  }
  std::vector<size_t> digit(dom.num_attrs(), 0);
  std::vector<uint32_t> table(dom.TotalSize());
  size_t index = 0;
  for (size_t cell = 0; cell < table.size(); ++cell) {
    table[cell] = static_cast<uint32_t>(index);
    // Advance the odometer: the last attribute varies fastest.
    for (size_t a = dom.num_attrs(); a-- > 0;) {
      index += weight[a];
      if (++digit[a] < dom.Cardinality(a)) break;
      index -= weight[a] * dom.Cardinality(a);
      digit[a] = 0;
    }
  }
  return table;
}

/// Whether `attrs` names every attribute of `dom` exactly once.
bool NamesEveryAttrOnce(const Domain& dom, const std::vector<size_t>& attrs) {
  if (attrs.size() != dom.num_attrs()) return false;
  std::vector<bool> seen(dom.num_attrs(), false);
  for (size_t a : attrs) {
    if (seen[a]) return false;
    seen[a] = true;
  }
  return true;
}

}  // namespace

CiProjector::CiProjector(const Domain& domain, const std::vector<CiSpec>& cis)
    : specs_(cis.size()), work_(domain.TotalSize()) {
  const size_t cells = domain.TotalSize();
  OTCLEAN_CHECK_OK(CheckIndexRange(cells));
  for (size_t k = 0; k < cis.size(); ++k) {
    const CiSpec& ci = cis[k];
    Spec& s = specs_[k];
    SpecIndex& ix = s.index;
    const std::vector<size_t> xyz = Concat(Concat(ci.x, ci.y), ci.z);
    const size_t xyz_size = MarginalSize(domain, xyz);
    OTCLEAN_CHECK_OK(CheckIndexRange(xyz_size));
    ix.dx = MarginalSize(domain, ci.x);
    ix.dy = MarginalSize(domain, ci.y);
    ix.dz = MarginalSize(domain, ci.z);
    ix.has_z = !ci.z.empty();
    ix.saturated = NamesEveryAttrOnce(domain, xyz);
    ix.xz = ProjectionTable(domain, Concat(ci.x, ci.z));
    ix.yz = ProjectionTable(domain, Concat(ci.y, ci.z));
    if (ix.has_z) ix.z = ProjectionTable(domain, ci.z);
    std::vector<uint32_t> xyz_of_cell = ProjectionTable(domain, xyz);
    ix.xyz_cell.assign(xyz_size, kNoCell);
    for (size_t cell = 0; cell < cells; ++cell) {
      uint32_t& first = ix.xyz_cell[xyz_of_cell[cell]];
      if (first == kNoCell) first = static_cast<uint32_t>(cell);
    }
    if (!ix.saturated) ix.xyz = std::move(xyz_of_cell);

    s.xz.assign(ix.dx * ix.dz, 0.0);
    s.yz.assign(ix.dy * ix.dz, 0.0);
    s.z.assign(ix.has_z ? ix.dz : 0, 0.0);
    s.xyz.assign(ix.saturated ? 0 : xyz_size, 0.0);
  }
}

void CiProjector::Accumulate(Spec& s, const linalg::Vector& p, double mass) {
  const SpecIndex& ix = s.index;
  std::fill(s.xz.begin(), s.xz.end(), 0.0);
  std::fill(s.yz.begin(), s.yz.end(), 0.0);
  std::fill(s.z.begin(), s.z.end(), 0.0);
  std::fill(s.xyz.begin(), s.xyz.end(), 0.0);
  // One pass in cell order, skipping zeros, as JointDistribution::Marginal
  // accumulates each marginal.
  for (size_t cell = 0; cell < p.size(); ++cell) {
    const double v = p[cell];
    if (v == 0.0) continue;
    s.xz[ix.xz[cell]] += v;
    s.yz[ix.yz[cell]] += v;
    if (ix.has_z) s.z[ix.z[cell]] += v;
    if (!ix.saturated) s.xyz[ix.xyz[cell]] += v;
  }
  // The projection and the CMI bail out on exactly this test.
  if (mass <= 0.0) return;
  for (double& m : s.xz) m /= mass;
  for (double& m : s.yz) m /= mass;
  for (double& m : s.z) m /= mass;
}

namespace {

/// P(rest | x,y,z) at `cell`, given `p`'s raw (X,Y,Z) slice sums. For a
/// saturated spec each slice is the cell itself, so the factor is
/// p/p — exactly 1 for a positive p — or 0.
inline double RestGivenXyz(bool saturated, const std::vector<uint32_t>& xyz,
                           const std::vector<double>& slice_mass,
                           const linalg::Vector& p, size_t cell) {
  if (saturated) return p[cell] > 0.0 ? 1.0 : 0.0;
  const double m = slice_mass[xyz[cell]];
  return m > 0.0 ? p[cell] / m : 0.0;
}

}  // namespace

void CiProjector::ProjectAccumulated(const Spec& s, const linalg::Vector& in,
                                     double mass, linalg::Vector& out) const {
  const SpecIndex& ix = s.index;
  if (mass <= 0.0) {
    std::fill(out.begin(), out.end(), 0.0);
    return;
  }
  for (size_t cell = 0; cell < in.size(); ++cell) {
    const double pxz = s.xz[ix.xz[cell]];
    const double pyz = s.yz[ix.yz[cell]];
    double value = 0.0;
    if (!(pxz <= 0.0 || pyz <= 0.0)) {
      const double pz = ix.has_z ? s.z[ix.z[cell]] : 1.0;
      if (!(pz <= 0.0)) {
        value = (pxz * pyz / pz) *
                RestGivenXyz(ix.saturated, ix.xyz, s.xyz, in, cell);
      }
    }
    out[cell] = value;
  }
  out.Normalize();
}

double CiProjector::CmiAccumulated(const Spec& s, const linalg::Vector& p,
                                   double mass) const {
  if (mass <= 0.0) return 0.0;
  const SpecIndex& ix = s.index;
  double cmi = 0.0;
  // Summed over the (X,Y,Z) marginal's cells in its own index order.
  for (size_t k = 0; k < ix.xyz_cell.size(); ++k) {
    const double pxyz =
        (ix.saturated ? p[ix.xyz_cell[k]] : s.xyz[k]) / mass;
    if (pxyz <= 0.0) continue;
    const uint32_t cell = ix.xyz_cell[k];
    const double pxz = s.xz[ix.xz[cell]];
    const double pyz = s.yz[ix.yz[cell]];
    const double pz = ix.has_z ? s.z[ix.z[cell]] : 1.0;
    // pxz, pyz > 0 whenever pxyz > 0 (they dominate it), but on subnormal
    // cells either product can underflow to 0, leaving the ratio 0, inf or
    // NaN. Only there is the log taken term by term, so every other term
    // keeps its bits.
    const double ratio = (pxyz * pz) / (pxz * pyz);
    cmi += pxyz * (std::isfinite(ratio) && ratio > 0.0
                       ? std::log(ratio)
                       : std::log(pxyz) + std::log(pz) - std::log(pxz) -
                             std::log(pyz));
  }
  // Numerical noise can push an exactly-independent case slightly negative.
  return cmi > 0.0 ? cmi : 0.0;
}

void CiProjector::Project(linalg::Vector& q, size_t max_sweeps, double tol) {
  assert(q.size() == work_.size());
  if (specs_.empty()) return;
  // Whether specs_[0] holds the marginals of the current q, of mass `mass`.
  bool first_fresh = false;
  double mass = 0.0;
  for (size_t sweep = 0; sweep < max_sweeps; ++sweep) {
    for (size_t k = 0; k < specs_.size(); ++k) {
      if (k != 0 || !first_fresh) {
        mass = q.Sum();
        Accumulate(specs_[k], q, mass);
      }
      ProjectAccumulated(specs_[k], q, mass, work_);
      std::swap(q, work_);
    }
    mass = q.Sum();
    double mx = 0.0;
    for (Spec& s : specs_) {
      Accumulate(s, q, mass);
      mx = std::max(mx, CmiAccumulated(s, q, mass));
    }
    first_fresh = true;
    if (mx <= tol) break;
  }
}

void CiProjector::ProjectOnto(size_t k, linalg::Vector& q) {
  assert(q.size() == work_.size());
  const double mass = q.Sum();
  Accumulate(specs_[k], q, mass);
  ProjectAccumulated(specs_[k], q, mass, work_);
  std::swap(q, work_);
}

double CiProjector::Cmi(size_t k, const linalg::Vector& p) {
  const double mass = p.Sum();
  if (mass <= 0.0) return 0.0;
  Accumulate(specs_[k], p, mass);
  return CmiAccumulated(specs_[k], p, mass);
}

double CiProjector::MaxCmi(const linalg::Vector& p) {
  double mx = 0.0;
  if (specs_.empty()) return mx;
  const double mass = p.Sum();
  for (Spec& s : specs_) {
    Accumulate(s, p, mass);
    mx = std::max(mx, CmiAccumulated(s, p, mass));
  }
  return mx;
}

double ConditionalMutualInformation(const JointDistribution& p,
                                    const CiSpec& ci) {
  CiProjector projector(p.domain(), {ci});
  return projector.Cmi(0, p.probs());
}

bool SatisfiesCi(const JointDistribution& p, const CiSpec& ci, double tol) {
  return ConditionalMutualInformation(p, ci) <= tol;
}

JointDistribution CiProjection(const JointDistribution& p, const CiSpec& ci) {
  JointDistribution out = p;
  CiProjector projector(p.domain(), {ci});
  projector.ProjectOnto(0, out.probs());
  return out;
}

double MutualInformation(const JointDistribution& p,
                         const std::vector<size_t>& x,
                         const std::vector<size_t>& y) {
  CiSpec ci;
  ci.x = x;
  ci.y = y;
  return ConditionalMutualInformation(p, ci);
}

JointDistribution MultiCiProjection(const JointDistribution& p,
                                    const std::vector<CiSpec>& cis,
                                    size_t max_sweeps, double tol) {
  JointDistribution q = p;
  if (cis.empty()) return q;
  CiProjector projector(p.domain(), cis);
  projector.Project(q.probs(), max_sweeps, tol);
  return q;
}

double MaxCmi(const JointDistribution& p, const std::vector<CiSpec>& cis) {
  if (cis.empty()) return 0.0;
  CiProjector projector(p.domain(), cis);
  return projector.MaxCmi(p.probs());
}

}  // namespace otclean::prob
