// Golden byte-identity tests for the kernel layer (DESIGN.md §8).
//
// These tests pin the exact bit patterns of TuneAndFit / GBDT / KNN /
// MislabelDetector outputs for fixed seeds. The values were captured from
// the sequential reference implementation and must never drift: any kernel change that reorders floating-point accumulation, a
// random draw, or a tie-break will flip at least one bit here.
//
// The binary is registered three times in tests/CMakeLists.txt with
// FAIRCLEAN_THREADS ∈ {1, 2, 8} so the same goldens are enforced at every
// thread width — parallel schedules must be byte-identical to sequential.
#include <algorithm>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "data/dataframe.h"
#include "datasets/generator.h"
#include "detect/mislabel_detector.h"
#include "ml/encoder.h"
#include "ml/gbdt.h"
#include "ml/isolation_forest.h"
#include "ml/knn.h"
#include "ml/linalg.h"
#include "ml/tuning.h"
#include "tests/ml/test_data.h"

namespace fairclean {
namespace {

// EXPECT_EQ on double compares exact bit patterns for these finite values;
// golden constants are hexfloat literals so no decimal rounding intervenes.
void ExpectBitEqual(const std::vector<double>& actual,
                    const std::vector<double>& golden_prefix) {
  ASSERT_GE(actual.size(), golden_prefix.size());
  for (size_t i = 0; i < golden_prefix.size(); ++i) {
    EXPECT_EQ(actual[i], golden_prefix[i]) << "index " << i;
  }
}

struct TuneGolden {
  std::string family;
  double param;
  double cv_accuracy;
  std::vector<double> proba;
};

TEST(KernelIdentityTest, TuneAndFitGolden) {
  const std::vector<TuneGolden> goldens = {
      {"log-reg",
       0x1.999999999999ap-4,
       0x1.8eeeeeeeeeeefp-1,
       {0x1.a24a8b8f20baep-2, 0x1.85f1354893ef5p-2, 0x1.585605f53877bp-1,
        0x1.dd93f049f17eap-1, 0x1.af7d1e1e1e459p-4, 0x1.479143c72cf09p-3,
        0x1.c696eb62034a3p-1, 0x1.5025ebf7a89f8p-1}},
      {"knn",
       0x1.fp+4,
       0x1.8888888888888p-1,
       {0x1.8c6318c6318c6p-2, 0x1.ef7bdef7bdef8p-2, 0x1.39ce739ce739dp-1,
        0x1.ce739ce739ce7p-1, 0x1.8c6318c6318c6p-4, 0x1.4a5294a5294a5p-3,
        0x1.6b5ad6b5ad6b6p-1, 0x1.39ce739ce739dp-1}},
      {"xgboost",
       0x1p+1,
       0x1.7333333333333p-1,
       {0x1.1dbf09ebe997ep-1, 0x1.fbb85ad50db12p-3, 0x1.c04a84d417a32p-1,
        0x1.ef22bddecb955p-1, 0x1.b60a7ab897053p-5, 0x1.fa0fef665cef2p-5,
        0x1.d967b1363d606p-1, 0x1.0d452886d712cp-1}},
  };
  for (const TuneGolden& golden : goldens) {
    SCOPED_TRACE(golden.family);
    test::BlobData data = test::MakeBlobs(240, 4, 2.0, 21);
    Result<TunedModelFamily> family = ModelFamilyByName(golden.family);
    ASSERT_TRUE(family.ok());
    Rng rng(7);
    Result<TuneOutcome> outcome = TuneAndFit(*family, data.x, data.y, 3, &rng);
    ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
    EXPECT_EQ(outcome->best_param, golden.param);
    EXPECT_EQ(outcome->best_cv_accuracy, golden.cv_accuracy);
    ExpectBitEqual(outcome->model->PredictProba(data.x), golden.proba);
  }
}

// The suite's feature matrix: an adult frame's complete rows, numeric
// columns standardized and categorical columns one-hot encoded. Most of
// its columns hold only 0 and 1, so it reaches the two-valued split search
// and the zero-skipping IRLS, which the continuous blobs above never do.
struct EncodedAdult {
  DataFrame frame;
  std::vector<std::string> features;
  std::string label;
  Matrix x;
  std::vector<int> y;
};

EncodedAdult MakeEncodedAdult(size_t rows) {
  Rng rng(1234);
  GeneratedDataset dataset = MakeDataset("adult", rows, &rng).ValueOrDie();
  EncodedAdult data;
  std::vector<bool> keep(dataset.frame.num_rows(), true);
  for (size_t row : dataset.frame.RowsWithMissing()) keep[row] = false;
  data.frame = dataset.frame.FilterRows(keep);
  data.features = dataset.spec.FeatureColumns(data.frame);
  data.label = dataset.spec.label;
  FeatureEncoder encoder;
  EXPECT_TRUE(encoder.Fit(data.frame, data.features).ok());
  data.x = encoder.Transform(data.frame).ValueOrDie();
  data.y = ExtractBinaryLabels(data.frame, data.label).ValueOrDie();
  return data;
}

TEST(KernelIdentityTest, OneHotTuneAndFitGolden) {
  const std::vector<TuneGolden> goldens = {
      {"log-reg",
       0x1.999999999999ap-4,
       0x1.6234bf6295443p-1,
       {0x1.4d745f5abd5c2p-2, 0x1.1a52cfc215248p-1, 0x1.e66ffbd44d614p-3,
        0x1.e73ab6f168048p-2, 0x1.a6fbb8ab11927p-2, 0x1.e5903755667fap-1,
        0x1.2e7d9857dab01p-2, 0x1.834c6b6f03eaap-2, 0x1.c959420f93285p-4,
        0x1.f0f45961f4dfcp-2}},
      {"xgboost",
       0x1p+1,
       0x1.60648a3e155d5p-1,
       {0x1.7bb18b97bf231p-3, 0x1.43bb342044324p-1, 0x1.63f8d1454d501p-2,
        0x1.28e73f1b93f5cp-1, 0x1.fd512113da9b3p-2, 0x1.52e6ad45a2982p-1,
        0x1.9f1f0f8c5e3ccp-3, 0x1.4098f1f090bb6p-1, 0x1.1cf6854b791d7p-4,
        0x1.252c0b2d171b2p-1}},
  };
  EncodedAdult data = MakeEncodedAdult(500);
  for (const TuneGolden& golden : goldens) {
    SCOPED_TRACE(golden.family);
    Result<TunedModelFamily> family = ModelFamilyByName(golden.family);
    ASSERT_TRUE(family.ok());
    Rng rng(8);
    Result<TuneOutcome> outcome = TuneAndFit(*family, data.x, data.y, 3, &rng);
    ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
    EXPECT_EQ(outcome->best_param, golden.param);
    EXPECT_EQ(outcome->best_cv_accuracy, golden.cv_accuracy);
    ExpectBitEqual(outcome->model->PredictProba(data.x), golden.proba);
  }
}

TEST(KernelIdentityTest, OneHotMislabelDetectGolden) {
  EncodedAdult data = MakeEncodedAdult(500);
  DetectionContext context;
  context.inspect_columns = data.features;
  context.label_column = data.label;
  MislabelDetector detector;
  Rng rng(20);
  Result<ErrorMask> mask = detector.Detect(data.frame, context, &rng);
  ASSERT_TRUE(mask.ok()) << mask.status().ToString();
  std::vector<size_t> flagged;
  for (size_t i = 0; i < mask->num_rows(); ++i) {
    if (mask->RowFlagged(i)) flagged.push_back(i);
  }
  EXPECT_EQ(flagged,
            (std::vector<size_t>{
                1,   2,   15,  23,  24,  25,  29,  31,  33,  37,  39,  41,
                48,  54,  57,  58,  59,  62,  64,  65,  68,  75,  81,  82,
                83,  85,  86,  92,  95,  96,  97,  98,  101, 104, 111, 112,
                113, 116, 120, 121, 126, 130, 134, 139, 141, 142, 146, 147,
                148, 149, 158, 162, 177, 178, 181, 183, 184, 190, 191, 195,
                197, 203, 207, 217, 219, 223, 225, 229, 230, 242, 243, 250,
                253, 259, 263, 266, 267, 269, 271, 272, 273, 278, 280, 281,
                283, 284, 285, 289}));
}

TEST(KernelIdentityTest, GbdtFitGolden) {
  test::BlobData data = test::MakeBlobs(300, 3, 2.5, 5);
  GradientBoostedTrees model;
  Rng rng(11);
  ASSERT_TRUE(model.Fit(data.x, data.y, &rng).ok());
  EXPECT_EQ(model.num_trees(), 50u);
  EXPECT_EQ(model.TrainingLossCurve(data.x, data.y).back(),
            0x1.cd99c9d488b77p-4);
  ExpectBitEqual(model.PredictProba(data.x),
                 {0x1.19c1128a900cp-6, 0x1.dba9768a358b1p-7,
                  0x1.97ddf2271573bp-1, 0x1.709bf93f7f44cp-8,
                  0x1.f643e4a637c14p-1, 0x1.8b878defd1fb9p-1,
                  0x1.70a4361f3372ep-8, 0x1.3007802da7d5ap-3});
}

TEST(KernelIdentityTest, IsolationForestScoreGolden) {
  test::BlobData data = test::MakeBlobs(300, 3, 2.0, 27);
  IsolationForest forest;
  Rng rng(31);
  ASSERT_TRUE(forest.Fit(data.x, &rng).ok());
  EXPECT_EQ(forest.threshold(), 0x1.4382d27f36442p-1);
  ExpectBitEqual(forest.Score(data.x),
                 {0x1.9e60e1f446a78p-2, 0x1.e49ad6113c77ep-2,
                  0x1.a1889688f2a39p-2, 0x1.2f66eb4e29132p-1,
                  0x1.97d5b84341cd5p-2, 0x1.9d898d5fd7a89p-2,
                  0x1.a97c1304cb13fp-2, 0x1.209efc9833258p-1});
  test::BlobData queries = test::MakeBlobs(13, 3, 8.0, 28);
  ExpectBitEqual(forest.Score(queries.x),
                 {0x1.21ec54e4a198bp-1, 0x1.25bc3ae2fcc26p-1,
                  0x1.1ca1b8c57355ep-1, 0x1.2755fde599dcdp-1,
                  0x1.49895ec5cffb3p-1, 0x1.2e0e726c47658p-1,
                  0x1.476b929cbba27p-1, 0x1.123035fd95a59p-1,
                  0x1.428a1d7d61757p-1, 0x1.2a5a20121664ap-1,
                  0x1.1bdae7d2d6391p-1, 0x1.49c531853a1e5p-1,
                  0x1.23f7abf1998c2p-1});
}

TEST(KernelIdentityTest, KnnPredictGolden) {
  test::BlobData data = test::MakeBlobs(400, 6, 1.5, 9);
  KnnClassifier model;
  Rng rng(23);
  ASSERT_TRUE(model.Fit(data.x, data.y, &rng).ok());
  test::BlobData queries = test::MakeBlobs(37, 6, 1.5, 10);
  ExpectBitEqual(model.PredictProba(queries.x),
                 {0x1.ddddddddddddep-2, 0x1.5555555555555p-1,
                  0x1.999999999999ap-2, 0x1.1111111111111p-3,
                  0x1.999999999999ap-2, 0x1.999999999999ap-1,
                  0x1.1111111111111p-2, 0x0p+0, 0x1.1111111111111p-1,
                  0x1.999999999999ap-2, 0x1.7777777777777p-1,
                  0x1.3333333333333p-1});
}

// Per-query brute force written out here: reference distance row, full
// (distance, row index) sort, first k labels. PredictProba's packed
// blocked kernel and bounded selection must match it bit for bit.
std::vector<double> BruteForceKnnProba(const Matrix& train,
                                       const std::vector<int>& train_y,
                                       const Matrix& queries, size_t k) {
  size_t n_train = train.rows();
  k = std::min(k, n_train);
  std::vector<double> sq(n_train);
  std::vector<std::pair<double, size_t>> order(n_train);
  std::vector<double> out(queries.rows());
  for (size_t q = 0; q < queries.rows(); ++q) {
    SquaredDistancesToRow(train, queries.Row(q), sq.data());
    for (size_t t = 0; t < n_train; ++t) order[t] = {sq[t], t};
    std::sort(order.begin(), order.end());
    int positives = 0;
    for (size_t j = 0; j < k; ++j) positives += train_y[order[j].second];
    out[q] = static_cast<double>(positives) / static_cast<double>(k);
  }
  return out;
}

// Gaussian blobs plus a small integer lattice: the lattice makes many
// distances tie exactly, and its rows are appended twice with opposite
// labels, so duplicate train rows compete for the same neighbor slots and
// only the row-index tie-break decides which labels are counted.
TEST(KernelIdentityTest, KnnPredictMatchesBruteForce) {
  test::BlobData blobs = test::MakeBlobs(200, 3, 1.5, 9);
  const size_t lattice = 27;  // {0,1,2}^3
  Matrix train(blobs.x.rows() + 2 * lattice, 3);
  std::vector<int> train_y(train.rows());
  for (size_t i = 0; i < blobs.x.rows(); ++i) {
    for (size_t d = 0; d < 3; ++d) train(i, d) = blobs.x(i, d);
    train_y[i] = blobs.y[i];
  }
  for (size_t copy = 0; copy < 2; ++copy) {
    for (size_t p = 0; p < lattice; ++p) {
      size_t row = blobs.x.rows() + copy * lattice + p;
      train(row, 0) = static_cast<double>(p % 3);
      train(row, 1) = static_cast<double>((p / 3) % 3);
      train(row, 2) = static_cast<double>(p / 9);
      train_y[row] = static_cast<int>((p + copy) % 2);
    }
  }
  // 131 queries span three 64-query blocks: lattice points (exact ties,
  // zero distances to both duplicates), half-lattice points (ties at
  // equal nonzero distance), and blob rows.
  test::BlobData blob_queries = test::MakeBlobs(77, 3, 1.5, 10);
  Matrix queries(131, 3);
  for (size_t q = 0; q < queries.rows(); ++q) {
    for (size_t d = 0; d < 3; ++d) {
      if (q < lattice) {
        queries(q, d) = train(blobs.x.rows() + q, d);
      } else if (q < 2 * lattice) {
        queries(q, d) = train(blobs.x.rows() + q - lattice, d) + 0.5;
      } else {
        queries(q, d) = blob_queries.x(q - 2 * lattice, d);
      }
    }
  }
  for (int k : {1, 2, 7, 31, 400}) {
    KnnOptions options;
    options.k = k;
    KnnClassifier model(options);
    Rng rng(23);
    ASSERT_TRUE(model.Fit(train, train_y, &rng).ok());
    std::vector<double> proba = model.PredictProba(queries);
    std::vector<double> oracle =
        BruteForceKnnProba(train, train_y, queries, static_cast<size_t>(k));
    ASSERT_EQ(proba.size(), oracle.size());
    for (size_t q = 0; q < proba.size(); ++q) {
      EXPECT_EQ(proba[q], oracle[q]) << "k=" << k << " query " << q;
    }
  }
}

// The batched grid kernel answers the whole k grid from one top-max(k) sweep;
// its accuracies must equal fitting one classifier per k and scoring its
// 0.5-thresholded predictions — exactly, not approximately.
TEST(KernelIdentityTest, KnnGridMatchesPerKOracle) {
  test::BlobData train = test::MakeBlobs(300, 5, 1.2, 29);
  test::BlobData valid = test::MakeBlobs(83, 5, 1.2, 30);
  const std::vector<int> ks = {5, 15, 31};
  std::vector<double> grid =
      KnnGridAccuracies(train.x, train.y, valid.x, valid.y, ks);
  ASSERT_EQ(grid.size(), ks.size());
  for (size_t i = 0; i < ks.size(); ++i) {
    KnnOptions options;
    options.k = ks[i];
    KnnClassifier model(options);
    Rng rng(23);
    ASSERT_TRUE(model.Fit(train.x, train.y, &rng).ok());
    std::vector<double> proba = model.PredictProba(valid.x);
    size_t correct = 0;
    for (size_t q = 0; q < proba.size(); ++q) {
      int pred = proba[q] >= 0.5 ? 1 : 0;
      if (pred == valid.y[q]) ++correct;
    }
    double oracle =
        static_cast<double>(correct) / static_cast<double>(proba.size());
    EXPECT_EQ(grid[i], oracle) << "k=" << ks[i];
  }
}

// GBDT prediction runs trees-outer over 64-row blocks. A single-row call is
// the rows-outer order (one row, every tree), so a whole-matrix call with
// a ragged final block must match row-by-row calls bit for bit.
TEST(KernelIdentityTest, GbdtBlockPredictMatchesSingleRows) {
  test::BlobData data = test::MakeBlobs(250, 4, 1.0, 21);
  test::BlobData queries = test::MakeBlobs(97, 4, 1.0, 22);
  GradientBoostedTrees model;
  Rng rng(19);
  ASSERT_TRUE(model.Fit(data.x, data.y, &rng).ok());
  std::vector<double> proba = model.PredictProba(queries.x);
  ASSERT_EQ(proba.size(), queries.x.rows());
  for (size_t i = 0; i < queries.x.rows(); ++i) {
    std::vector<double> single = model.PredictProba(queries.x.TakeRows({i}));
    ASSERT_EQ(single.size(), 1u);
    EXPECT_EQ(proba[i], single[0]) << "row " << i;
  }
}

// Batched grid evaluation against the per-grid-point loop: for every model
// family, TuneAndFit with `fused_grid_eval` cleared selects the same
// hyperparameter, reports the same CV accuracy, and trains a bit-identical
// final model as with it set. The suite-level half of this identity is
// pinned by the suite_golden registrations.
TEST(KernelIdentityTest, TuneAndFitBatchedGridMatchesPerPointLoop) {
  test::BlobData data = test::MakeBlobs(180, 4, 1.3, 41);
  test::BlobData queries = test::MakeBlobs(23, 4, 1.3, 42);
  for (const std::string& name : AllModelNames()) {
    Result<TunedModelFamily> batched = ModelFamilyByName(name);
    ASSERT_TRUE(batched.ok()) << name;
    TunedModelFamily per_point = *batched;
    per_point.fused_grid_eval = nullptr;
    struct Outcome {
      double param;
      double cv_accuracy;
      std::vector<double> proba;
    };
    std::vector<Outcome> outcomes;
    for (const TunedModelFamily* family : {&per_point, &*batched}) {
      Rng rng(77);
      Result<TuneOutcome> outcome =
          TuneAndFit(*family, data.x, data.y, 3, &rng);
      ASSERT_TRUE(outcome.ok()) << name << ": "
                                << outcome.status().ToString();
      outcomes.push_back({outcome->best_param, outcome->best_cv_accuracy,
                          outcome->model->PredictProba(queries.x)});
    }
    EXPECT_EQ(outcomes[1].param, outcomes[0].param) << name;
    EXPECT_EQ(outcomes[1].cv_accuracy, outcomes[0].cv_accuracy) << name;
    EXPECT_EQ(outcomes[1].proba, outcomes[0].proba) << name;
  }
}

TEST(KernelIdentityTest, MislabelDetectGolden) {
  test::BlobData data = test::MakeBlobs(150, 3, 2.0, 17);
  DataFrame frame;
  for (size_t d = 0; d < 3; ++d) {
    std::vector<double> col(data.x.rows());
    for (size_t i = 0; i < col.size(); ++i) col[i] = data.x(i, d);
    frame.AddColumn(Column::Numeric("f" + std::to_string(d), col));
  }
  std::vector<double> label_col(data.y.begin(), data.y.end());
  frame.AddColumn(Column::Numeric("label", label_col));
  DetectionContext context;
  context.inspect_columns = {"f0", "f1", "f2"};
  context.label_column = "label";
  MislabelDetector detector;
  Rng rng(19);
  Result<ErrorMask> mask = detector.Detect(frame, context, &rng);
  ASSERT_TRUE(mask.ok()) << mask.status().ToString();
  std::vector<size_t> flagged;
  for (size_t i = 0; i < mask->num_rows(); ++i) {
    if (mask->RowFlagged(i)) flagged.push_back(i);
  }
  EXPECT_EQ(flagged, (std::vector<size_t>{62, 81, 84, 105, 113, 138}));
}

}  // namespace
}  // namespace fairclean
