// prob::CiProjector against the per-call reference in ci_reference.h, bit
// for bit: the projector's index tables and shared marginals must not move
// a single bit of any projection or CMI. The inputs carry zero cells, where
// a saturated constraint's P(rest|x,y,z) factor is P's support indicator
// and the cyclic projection runs more than one sweep.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "ci_reference.h"
#include "common/random.h"
#include "prob/domain.h"
#include "prob/independence.h"
#include "prob/joint.h"

namespace otclean::prob {
namespace {

namespace ref = otclean::testing::ci_reference;

uint64_t Bits(double v) {
  uint64_t b;
  std::memcpy(&b, &v, sizeof(b));
  return b;
}

void ExpectBitEqual(const linalg::Vector& got, const linalg::Vector& want,
                    const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(Bits(got[i]), Bits(want[i]))
        << what << ": cell " << i << " got " << got[i] << " want " << want[i];
  }
}

void ExpectBitEqual(double got, double want, const std::string& what) {
  EXPECT_EQ(Bits(got), Bits(want)) << what << ": got " << got << " want "
                                   << want;
}

/// A random distribution over `dom` with about `zero_share` of its cells
/// exactly zero; normalized unless `normalize` is false.
JointDistribution RandomWithZeros(const Domain& dom, uint64_t seed,
                                  double zero_share, bool normalize = true) {
  Rng rng(seed);
  JointDistribution p(dom);
  for (size_t i = 0; i < p.size(); ++i) {
    p[i] = rng.NextDouble() < zero_share ? 0.0 : rng.NextDouble();
  }
  if (normalize) p.Normalize();
  return p;
}

struct Case {
  std::string name;
  std::vector<size_t> cards;
  std::vector<CiSpec> cis;
};

std::vector<Case> Cases() {
  return {
      {"saturated", {3, 4, 3}, {{{0}, {1}, {2}}}},
      // X, Y, Z out of attribute order: the CMI's (X,Y,Z) index order is
      // not the domain's cell order.
      {"saturated_permuted", {3, 2, 4}, {{{2}, {0}, {1}}}},
      {"unsaturated_trailing_w", {2, 3, 2, 3}, {{{0}, {1}, {2}}}},
      {"unsaturated_inner_w", {3, 2, 2, 3}, {{{3}, {0}, {2}}}},
      {"empty_z", {3, 4}, {{{0}, {1}, {}}}},
      {"empty_z_unsaturated", {3, 2, 4}, {{{2}, {0}, {}}}},
      {"multi_attribute", {2, 2, 3, 2, 2, 2}, {{{0, 4}, {5, 1}, {3, 2}}}},
      {"two_specs", {2, 3, 2, 2}, {{{0}, {1}, {2}}, {{0}, {3}, {}}}},
  };
}

class CiProjectorBitTest : public ::testing::TestWithParam<Case> {};

TEST_P(CiProjectorBitTest, ProjectionsAndCmiMatchReference) {
  const Case& c = GetParam();
  const Domain dom = Domain::FromCardinalities(c.cards);
  CiProjector projector(dom, c.cis);
  // The same projector serves every input below, so no state may leak
  // from one call into the next.
  for (uint64_t seed : {1u, 2u, 3u}) {
    for (double zero_share : {0.0, 0.3, 0.6}) {
      for (bool normalize : {true, false}) {
        const JointDistribution p =
            RandomWithZeros(dom, seed, zero_share, normalize);
        const std::string at = c.name + " seed " + std::to_string(seed) +
                               " zeros " + std::to_string(zero_share);

        for (size_t k = 0; k < c.cis.size(); ++k) {
          const std::string spec = at + " spec " + std::to_string(k);
          const JointDistribution want = ref::CiProjection(p, c.cis[k]);
          ExpectBitEqual(CiProjection(p, c.cis[k]).probs(), want.probs(),
                         spec + " CiProjection");
          linalg::Vector q = p.probs();
          projector.ProjectOnto(k, q);
          ExpectBitEqual(q, want.probs(), spec + " ProjectOnto");

          const double cmi = ref::ConditionalMutualInformation(p, c.cis[k]);
          ExpectBitEqual(ConditionalMutualInformation(p, c.cis[k]), cmi,
                         spec + " ConditionalMutualInformation");
          ExpectBitEqual(projector.Cmi(k, p.probs()), cmi, spec + " Cmi");
        }

        const double max_cmi = ref::MaxCmi(p, c.cis);
        ExpectBitEqual(MaxCmi(p, c.cis), max_cmi, at + " MaxCmi wrapper");
        ExpectBitEqual(projector.MaxCmi(p.probs()), max_cmi, at + " MaxCmi");

        for (size_t sweeps : {size_t{1}, size_t{2}, size_t{60}}) {
          const std::string multi = at + " sweeps " + std::to_string(sweeps);
          const JointDistribution want =
              ref::MultiCiProjection(p, c.cis, sweeps);
          ExpectBitEqual(MultiCiProjection(p, c.cis, sweeps).probs(),
                         want.probs(), multi + " MultiCiProjection");
          linalg::Vector q = p.probs();
          projector.Project(q, sweeps);
          ExpectBitEqual(q, want.probs(), multi + " Project");
        }
      }
    }
  }
}

std::string CaseName(const ::testing::TestParamInfo<Case>& param) {
  return param.param.name;
}

INSTANTIATE_TEST_SUITE_P(Shapes, CiProjectorBitTest,
                         ::testing::ValuesIn(Cases()), CaseName);

TEST(CiProjectorTest, ZeroCellsMakeTheSaturatedProjectionIterate) {
  // The cases above would not exercise the sweep loop's shared marginals
  // if one projection always landed on the constraint: with zero cells
  // inside an X×Y slice it does not, and the next sweep moves Q again.
  const Domain dom = Domain::FromCardinalities({3, 4, 3});
  const CiSpec ci{{0}, {1}, {2}};
  const JointDistribution p = RandomWithZeros(dom, 1, 0.3);
  const JointDistribution once = CiProjection(p, ci);
  EXPECT_GT(ConditionalMutualInformation(once, ci), 1e-6);
  const JointDistribution twice = CiProjection(once, ci);
  EXPECT_GT(once.TotalVariation(twice), 0.0);
  for (size_t i = 0; i < p.size(); ++i) {
    if (p[i] == 0.0) {
      EXPECT_EQ(twice[i], 0.0) << "cell " << i;
    }
  }
}

TEST(CiProjectorTest, CmiStaysFiniteWhenTheMarginalProductUnderflows) {
  // 400 draws over 6^4 cells: 60 cyclic projections drive some cells down
  // to subnormals, where P(x,z)·P(y,z) underflows to 0 while P(x,y,z) > 0.
  // The CMI of that result used to be +inf, so Project's CMI stop could
  // never fire on it.
  const Domain dom = Domain::FromCardinalities({6, 6, 6, 6});
  const CiSpec ci{{0}, {1}, {2, 3}};
  JointDistribution p(dom);
  Rng rng(2024);
  for (int draw = 0; draw < 400; ++draw) {
    p[static_cast<size_t>(rng.NextInt(
        0, static_cast<int64_t>(dom.TotalSize()) - 1))] += 1.0;
  }
  p.Normalize();
  const JointDistribution q = MultiCiProjection(p, {ci}, 60, 1e-10);
  double smallest = 1.0;
  for (size_t i = 0; i < q.size(); ++i) {
    if (q[i] > 0.0) smallest = std::min(smallest, q[i]);
  }
  ASSERT_LT(smallest, std::numeric_limits<double>::min());  // subnormal

  const double cmi = ConditionalMutualInformation(q, ci);
  EXPECT_TRUE(std::isfinite(cmi)) << cmi;
  EXPECT_LT(cmi, 1e-3);
  EXPECT_GT(cmi, 0.0);
  EXPECT_EQ(Bits(MaxCmi(q, {ci})), Bits(cmi));
}

TEST(CiProjectorTest, AllZeroInputStaysZero) {
  const Domain dom = Domain::FromCardinalities({2, 3, 2, 2});
  const std::vector<CiSpec> cis = {{{0}, {1}, {2}}, {{0}, {3}, {}}};
  const JointDistribution zero(dom);
  CiProjector projector(dom, cis);

  linalg::Vector q = zero.probs();
  projector.Project(q);
  ExpectBitEqual(q, ref::MultiCiProjection(zero, cis).probs(), "Project");
  ExpectBitEqual(MultiCiProjection(zero, cis).probs(),
                 ref::MultiCiProjection(zero, cis).probs(),
                 "MultiCiProjection");
  for (size_t k = 0; k < cis.size(); ++k) {
    linalg::Vector one = zero.probs();
    projector.ProjectOnto(k, one);
    ExpectBitEqual(one, ref::CiProjection(zero, cis[k]).probs(),
                   "ProjectOnto");
    EXPECT_EQ(projector.Cmi(k, zero.probs()), 0.0);
  }
  EXPECT_EQ(projector.MaxCmi(zero.probs()), 0.0);
  EXPECT_EQ(MaxCmi(zero, cis), 0.0);
}

TEST(CiProjectorTest, IndexTablesMatchProjectIndex) {
  const Domain dom = Domain::FromCardinalities({2, 3, 4, 2});
  const CiSpec ci{{3, 0}, {1}, {2}};
  const CiProjector projector(dom, {ci});
  const CiProjector::SpecIndex& ix = projector.index(0);
  EXPECT_EQ(ix.dx, 4u);
  EXPECT_EQ(ix.dy, 3u);
  EXPECT_EQ(ix.dz, 4u);
  EXPECT_TRUE(ix.has_z);
  EXPECT_TRUE(ix.saturated);
  EXPECT_TRUE(ix.xyz.empty());
  for (size_t cell = 0; cell < dom.TotalSize(); ++cell) {
    const size_t x = dom.ProjectIndex(cell, ci.x);
    const size_t y = dom.ProjectIndex(cell, ci.y);
    const size_t z = dom.ProjectIndex(cell, ci.z);
    EXPECT_EQ(ix.xz[cell], x * ix.dz + z);
    EXPECT_EQ(ix.yz[cell], y * ix.dz + z);
    EXPECT_EQ(ix.z[cell], z);
    EXPECT_EQ(ix.XIndex(cell), x);
    EXPECT_EQ(ix.YIndex(cell), y);
    EXPECT_EQ(ix.ZIndex(cell), z);
    const size_t k = dom.ProjectIndex(cell, {3, 0, 1, 2});
    EXPECT_EQ(ix.xyz_cell[k], cell);
  }
}

}  // namespace
}  // namespace otclean::prob
