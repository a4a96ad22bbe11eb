#include <gtest/gtest.h>

#include <cmath>

#include "linalg/matrix.h"
#include "linalg/vector.h"

namespace otclean::linalg {
namespace {

TEST(VectorTest, ConstructionAndFill) {
  Vector v(4, 2.5);
  EXPECT_EQ(v.size(), 4u);
  for (size_t i = 0; i < 4; ++i) EXPECT_DOUBLE_EQ(v[i], 2.5);
  EXPECT_TRUE(Vector().empty());
}

TEST(VectorTest, OnesZeros) {
  EXPECT_DOUBLE_EQ(Vector::Ones(5).Sum(), 5.0);
  EXPECT_DOUBLE_EQ(Vector::Zeros(5).Sum(), 0.0);
}

TEST(VectorTest, SumDotNorms) {
  Vector a(std::vector<double>{1.0, 2.0, 3.0});
  Vector b(std::vector<double>{4.0, -5.0, 6.0});
  EXPECT_DOUBLE_EQ(a.Sum(), 6.0);
  EXPECT_DOUBLE_EQ(a.Dot(b), 4.0 - 10.0 + 18.0);
  EXPECT_DOUBLE_EQ(a.Norm2(), std::sqrt(14.0));
  EXPECT_DOUBLE_EQ(b.NormInf(), 6.0);
}

TEST(VectorTest, MinMaxArgMax) {
  Vector v(std::vector<double>{3.0, 9.0, -1.0});
  EXPECT_DOUBLE_EQ(v.Max(), 9.0);
  EXPECT_DOUBLE_EQ(v.Min(), -1.0);
  EXPECT_EQ(v.ArgMax(), 1u);
}

TEST(VectorTest, ArithmeticOperators) {
  Vector a(std::vector<double>{1.0, 2.0});
  Vector b(std::vector<double>{3.0, 4.0});
  Vector c = a + b;
  EXPECT_DOUBLE_EQ(c[0], 4.0);
  EXPECT_DOUBLE_EQ(c[1], 6.0);
  Vector d = b - a;
  EXPECT_DOUBLE_EQ(d[0], 2.0);
  Vector e = a * 2.0;
  EXPECT_DOUBLE_EQ(e[1], 4.0);
  e /= 2.0;
  EXPECT_DOUBLE_EQ(e[1], 2.0);
}

TEST(VectorTest, CwiseProduct) {
  Vector a(std::vector<double>{2.0, 0.0, 6.0});
  Vector b(std::vector<double>{4.0, 0.0, 0.0});
  Vector prod = a.CwiseProduct(b);
  EXPECT_DOUBLE_EQ(prod[0], 8.0);
  EXPECT_DOUBLE_EQ(prod[1], 0.0);
  EXPECT_DOUBLE_EQ(prod[2], 0.0);
}

TEST(VectorTest, CwiseExpAndLogSafe) {
  Vector a(std::vector<double>{0.0, 1.0});
  Vector e = a.CwiseExp();
  EXPECT_DOUBLE_EQ(e[0], 1.0);
  EXPECT_NEAR(e[1], M_E, 1e-12);
  Vector l = e.CwiseLogSafe();
  EXPECT_NEAR(l[1], 1.0, 1e-12);
  EXPECT_DOUBLE_EQ(Vector(std::vector<double>{0.0}).CwiseLogSafe()[0], 0.0);
}

TEST(VectorTest, NormalizeMakesProbabilityVector) {
  Vector v(std::vector<double>{1.0, 3.0});
  v.Normalize();
  EXPECT_DOUBLE_EQ(v[0], 0.25);
  EXPECT_DOUBLE_EQ(v[1], 0.75);
  Vector z(std::vector<double>{0.0, 0.0});
  z.Normalize();  // no-op, no NaN
  EXPECT_DOUBLE_EQ(z.Sum(), 0.0);
}

TEST(VectorTest, ApproxEquals) {
  Vector a(std::vector<double>{1.0, 2.0});
  Vector b(std::vector<double>{1.0, 2.0 + 1e-12});
  EXPECT_TRUE(a.ApproxEquals(b, 1e-9));
  EXPECT_FALSE(a.ApproxEquals(b, 1e-15));
  EXPECT_FALSE(a.ApproxEquals(Vector(3), 1.0));
}

TEST(MatrixTest, ConstructionAndIndexing) {
  Matrix m(2, 3, 1.0);
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  m(1, 2) = 7.0;
  EXPECT_DOUBLE_EQ(m(1, 2), 7.0);
  EXPECT_DOUBLE_EQ(m.Sum(), 5.0 + 7.0);
}

TEST(MatrixTest, IdentityAndOuterProduct) {
  Matrix eye = Matrix::Identity(3);
  EXPECT_DOUBLE_EQ(eye(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(eye(0, 1), 0.0);
  EXPECT_DOUBLE_EQ(eye.Sum(), 3.0);

  Vector w(std::vector<double>{1.0, 2.0});
  Vector h(std::vector<double>{3.0, 4.0, 5.0});
  Matrix o = Matrix::OuterProduct(w, h);
  EXPECT_DOUBLE_EQ(o(1, 2), 10.0);
  EXPECT_DOUBLE_EQ(o(0, 0), 3.0);
}

TEST(MatrixTest, RowColExtraction) {
  Matrix m(2, 2);
  m(0, 0) = 1;
  m(0, 1) = 2;
  m(1, 0) = 3;
  m(1, 1) = 4;
  EXPECT_DOUBLE_EQ(m.Row(1)[0], 3.0);
  EXPECT_DOUBLE_EQ(m.Col(1)[0], 2.0);
}

TEST(MatrixTest, MatVecAndTranspose) {
  Matrix m(2, 3);
  // [1 2 3; 4 5 6]
  for (size_t r = 0, k = 1; r < 2; ++r) {
    for (size_t c = 0; c < 3; ++c, ++k) m(r, c) = static_cast<double>(k);
  }
  Vector x(std::vector<double>{1.0, 0.0, -1.0});
  Vector y = m.MatVec(x);
  EXPECT_DOUBLE_EQ(y[0], -2.0);
  EXPECT_DOUBLE_EQ(y[1], -2.0);

  Vector z(std::vector<double>{1.0, 1.0});
  Vector t = m.TransposeMatVec(z);
  EXPECT_DOUBLE_EQ(t[0], 5.0);
  EXPECT_DOUBLE_EQ(t[1], 7.0);
  EXPECT_DOUBLE_EQ(t[2], 9.0);

  Matrix mt = m.Transposed();
  EXPECT_EQ(mt.rows(), 3u);
  EXPECT_DOUBLE_EQ(mt(2, 1), 6.0);
}

TEST(MatrixTest, RowColSums) {
  Matrix m(2, 2);
  m(0, 0) = 1;
  m(0, 1) = 2;
  m(1, 0) = 3;
  m(1, 1) = 4;
  EXPECT_DOUBLE_EQ(m.RowSums()[0], 3.0);
  EXPECT_DOUBLE_EQ(m.RowSums()[1], 7.0);
  EXPECT_DOUBLE_EQ(m.ColSums()[0], 4.0);
  EXPECT_DOUBLE_EQ(m.ColSums()[1], 6.0);
}

TEST(MatrixTest, ScaleRowsColsMatchesDiagonalScaling) {
  Matrix k(2, 2, 1.0);
  Vector u(std::vector<double>{2.0, 3.0});
  Vector v(std::vector<double>{5.0, 7.0});
  Matrix s = k.ScaleRowsCols(u, v);
  EXPECT_DOUBLE_EQ(s(0, 0), 10.0);
  EXPECT_DOUBLE_EQ(s(0, 1), 14.0);
  EXPECT_DOUBLE_EQ(s(1, 0), 15.0);
  EXPECT_DOUBLE_EQ(s(1, 1), 21.0);
}

TEST(MatrixTest, GibbsKernel) {
  Matrix c(1, 2);
  c(0, 0) = 0.0;
  c(0, 1) = 1.0;
  Matrix k = c.GibbsKernel(0.5);
  EXPECT_DOUBLE_EQ(k(0, 0), 1.0);
  EXPECT_NEAR(k(0, 1), std::exp(-2.0), 1e-12);
}

TEST(MatrixTest, FrobeniusDot) {
  Matrix a(2, 2, 1.0);
  Matrix b(2, 2, 3.0);
  EXPECT_DOUBLE_EQ(a.FrobeniusDot(b), 12.0);
}

TEST(MatrixTest, ArithmeticAndApproxEquals) {
  Matrix a(2, 2, 1.0);
  Matrix b(2, 2, 2.0);
  a += b;
  EXPECT_DOUBLE_EQ(a(0, 0), 3.0);
  a -= b;
  EXPECT_DOUBLE_EQ(a(1, 1), 1.0);
  a *= 4.0;
  EXPECT_DOUBLE_EQ(a(0, 1), 4.0);
  EXPECT_TRUE(a.ApproxEquals(a, 0.0));
  EXPECT_FALSE(a.ApproxEquals(b, 0.5));
  EXPECT_FALSE(a.ApproxEquals(Matrix(2, 3), 100.0));
}

TEST(MatrixTest, CwiseProduct) {
  Matrix a(2, 2, 2.0);
  Matrix b(2, 2, 3.0);
  EXPECT_DOUBLE_EQ(a.CwiseProduct(b)(1, 1), 6.0);
}

TEST(MatrixTest, NormInf) {
  Matrix a(2, 2);
  a(0, 1) = -9.0;
  EXPECT_DOUBLE_EQ(a.NormInf(), 9.0);
}

}  // namespace
}  // namespace otclean::linalg
