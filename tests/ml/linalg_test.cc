#include "ml/linalg.h"

#include <gtest/gtest.h>

#include "tests/ml/test_data.h"

namespace fairclean {
namespace {

// Fills `out` with distances from every query to every train row using the
// reference kernel — the oracle the packed kernel must match bit for bit.
std::vector<double> ReferenceDistances(const Matrix& queries,
                                       size_t query_begin, size_t query_end,
                                       const Matrix& train) {
  std::vector<double> out((query_end - query_begin) * train.rows());
  for (size_t q = query_begin; q < query_end; ++q) {
    SquaredDistancesToRow(train, queries.Row(q),
                          out.data() + (q - query_begin) * train.rows());
  }
  return out;
}

// Packs `train` once and runs the production kernel over the query range.
std::vector<double> PackedDistances(const Matrix& queries, size_t query_begin,
                                    size_t query_end, const Matrix& train) {
  PackedPanels packed;
  PackTrainPanels(train, &packed);
  std::vector<double> out((query_end - query_begin) * train.rows());
  BlockedSquaredDistancesPacked(queries, query_begin, query_end, train,
                                packed, out.data());
  return out;
}

TEST(BlockedSquaredDistancesTest, BitEqualsReferenceKernel) {
  test::BlobData train = test::MakeBlobs(97, 5, 1.5, 41);
  test::BlobData queries = test::MakeBlobs(23, 5, 1.5, 42);
  std::vector<double> blocked =
      PackedDistances(queries.x, 0, queries.x.rows(), train.x);
  std::vector<double> reference =
      ReferenceDistances(queries.x, 0, queries.x.rows(), train.x);
  ASSERT_EQ(blocked.size(), reference.size());
  for (size_t i = 0; i < blocked.size(); ++i) {
    EXPECT_EQ(blocked[i], reference[i]) << "entry " << i;
  }
}

TEST(BlockedSquaredDistancesTest, OddSizesAcrossTileBoundary) {
  // 131 train rows leave a ragged tail behind the last full register panel
  // (16 rows on AVX2, 8 on SSE2); full panels and the zero-padded tail
  // must both match the reference exactly.
  test::BlobData train = test::MakeBlobs(131, 3, 2.0, 43);
  test::BlobData queries = test::MakeBlobs(7, 3, 2.0, 44);
  std::vector<double> blocked =
      PackedDistances(queries.x, 0, queries.x.rows(), train.x);
  std::vector<double> reference =
      ReferenceDistances(queries.x, 0, queries.x.rows(), train.x);
  for (size_t i = 0; i < blocked.size(); ++i) {
    EXPECT_EQ(blocked[i], reference[i]) << "entry " << i;
  }
}

TEST(BlockedSquaredDistancesTest, SubRangeOfQueries) {
  test::BlobData train = test::MakeBlobs(50, 4, 1.0, 45);
  test::BlobData queries = test::MakeBlobs(20, 4, 1.0, 46);
  std::vector<double> blocked = PackedDistances(queries.x, 11, 16, train.x);
  std::vector<double> reference = ReferenceDistances(queries.x, 11, 16,
                                                     train.x);
  for (size_t i = 0; i < blocked.size(); ++i) {
    EXPECT_EQ(blocked[i], reference[i]) << "entry " << i;
  }
}

TEST(BlockedSquaredDistancesTest, ZeroDistanceToSelf) {
  test::BlobData train = test::MakeBlobs(10, 3, 1.0, 47);
  std::vector<double> blocked =
      PackedDistances(train.x, 0, train.x.rows(), train.x);
  for (size_t i = 0; i < train.x.rows(); ++i) {
    EXPECT_EQ(blocked[i * train.x.rows() + i], 0.0);
  }
}

TEST(CholeskyTest, SolvesIdentity) {
  std::vector<double> a = {1, 0, 0, 1};
  std::vector<double> b = {3, -4};
  Result<std::vector<double>> x = SolveCholesky(a, b, 2);
  ASSERT_TRUE(x.ok());
  EXPECT_NEAR((*x)[0], 3.0, 1e-12);
  EXPECT_NEAR((*x)[1], -4.0, 1e-12);
}

TEST(CholeskyTest, SolvesKnownSystem) {
  // A = [[4, 2], [2, 3]], b = [10, 8] -> x = [1.75, 1.5].
  std::vector<double> a = {4, 2, 2, 3};
  std::vector<double> b = {10, 8};
  Result<std::vector<double>> x = SolveCholesky(a, b, 2);
  ASSERT_TRUE(x.ok());
  EXPECT_NEAR((*x)[0], 1.75, 1e-12);
  EXPECT_NEAR((*x)[1], 1.5, 1e-12);
}

TEST(CholeskyTest, Solves3x3) {
  // A = [[6,2,1],[2,5,2],[1,2,4]]: SPD. Verify A*x == b.
  std::vector<double> a = {6, 2, 1, 2, 5, 2, 1, 2, 4};
  std::vector<double> b = {1, 2, 3};
  Result<std::vector<double>> x = SolveCholesky(a, b, 3);
  ASSERT_TRUE(x.ok());
  for (size_t i = 0; i < 3; ++i) {
    double acc = 0.0;
    for (size_t j = 0; j < 3; ++j) acc += a[i * 3 + j] * (*x)[j];
    EXPECT_NEAR(acc, b[i], 1e-10);
  }
}

TEST(CholeskyTest, RejectsIndefinite) {
  std::vector<double> a = {1, 2, 2, 1};  // eigenvalues 3, -1
  std::vector<double> b = {1, 1};
  EXPECT_FALSE(SolveCholesky(a, b, 2).ok());
}

TEST(CholeskyTest, RejectsSingular) {
  std::vector<double> a = {1, 1, 1, 1};
  std::vector<double> b = {1, 1};
  EXPECT_FALSE(SolveCholesky(a, b, 2).ok());
}

TEST(CholeskyJitterTest, RecoversSingularWithJitter) {
  std::vector<double> a = {1, 1, 1, 1};
  std::vector<double> b = {2, 2};
  Result<std::vector<double>> x = SolveCholeskyWithJitter(a, b, 2);
  ASSERT_TRUE(x.ok());
  // Jittered solution approximately solves the system.
  EXPECT_NEAR((*x)[0] + (*x)[1], 2.0, 1e-4);
}

TEST(CholeskyJitterTest, PassthroughWhenAlreadySpd) {
  std::vector<double> a = {4, 2, 2, 3};
  std::vector<double> b = {10, 8};
  Result<std::vector<double>> x = SolveCholeskyWithJitter(a, b, 2);
  ASSERT_TRUE(x.ok());
  EXPECT_NEAR((*x)[0], 1.75, 1e-12);
}

}  // namespace
}  // namespace fairclean
