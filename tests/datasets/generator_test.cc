#include "datasets/generator.h"

#include <algorithm>
#include <cstring>
#include <set>

#include <gtest/gtest.h>

#include "ml/encoder.h"

namespace fairclean {
namespace {

// True when row `r` holds the same cell in both columns: the same double
// bits (NaN included) or the same category code.
bool SameCell(const Column& a, const Column& b, size_t r) {
  if (a.type() != b.type()) return false;
  if (a.is_categorical()) return a.Code(r) == b.Code(r);
  double x = a.Value(r);
  double y = b.Value(r);
  return std::memcmp(&x, &y, sizeof(double)) == 0;
}

class GeneratorTest : public testing::TestWithParam<std::string> {
 protected:
  GeneratedDataset Generate(size_t rows = 3000, uint64_t seed = 1) {
    Rng rng(seed);
    Result<GeneratedDataset> dataset = MakeDataset(GetParam(), rows, &rng);
    EXPECT_TRUE(dataset.ok()) << dataset.status().ToString();
    return std::move(dataset).ValueOrDie();
  }
};

TEST_P(GeneratorTest, ProducesRequestedRowCount) {
  GeneratedDataset dataset = Generate(1234);
  EXPECT_EQ(dataset.frame.num_rows(), 1234u);
  EXPECT_EQ(dataset.spec.name, GetParam());
}

TEST_P(GeneratorTest, SpecByNameDescribesTheGeneratedFrame) {
  // The spec is known without generating a row, and the generator attaches
  // exactly it: label and hidden columns are columns of the frame.
  Result<DatasetSpec> spec = DatasetSpecByName(GetParam());
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  GeneratedDataset dataset = Generate(200);
  EXPECT_EQ(spec->name, GetParam());
  EXPECT_EQ(dataset.spec.label, spec->label);
  EXPECT_EQ(dataset.spec.drop_variables, spec->drop_variables);
  EXPECT_EQ(dataset.spec.error_types, spec->error_types);
  EXPECT_EQ(dataset.spec.intersectional, spec->intersectional);
  EXPECT_TRUE(dataset.frame.HasColumn(spec->label));
  for (const std::string& column : spec->drop_variables) {
    EXPECT_TRUE(dataset.frame.HasColumn(column)) << column;
  }
}

TEST(DatasetSpecByNameTest, UnknownNameIsNotFound) {
  Result<DatasetSpec> spec = DatasetSpecByName("nope");
  ASSERT_FALSE(spec.ok());
  EXPECT_EQ(spec.status().code(), StatusCode::kNotFound);
}

TEST_P(GeneratorTest, ZeroRowsUsesDefaultSize) {
  Rng rng(2);
  Result<GeneratedDataset> dataset = MakeDataset(GetParam(), 0, &rng);
  ASSERT_TRUE(dataset.ok());
  EXPECT_EQ(dataset->frame.num_rows(), DefaultRowCount(GetParam()));
}

TEST_P(GeneratorTest, DeterministicGivenSeed) {
  GeneratedDataset a = Generate(500, 7);
  GeneratedDataset b = Generate(500, 7);
  ASSERT_EQ(a.frame.column_names(), b.frame.column_names());
  for (size_t c = 0; c < a.frame.num_columns(); ++c) {
    const Column& x = a.frame.column(c);
    const Column& y = b.frame.column(c);
    if (x.is_categorical() && y.is_categorical()) {
      EXPECT_EQ(x.dictionary(), y.dictionary()) << x.name();
    }
    for (size_t r = 0; r < a.frame.num_rows(); ++r) {
      EXPECT_TRUE(SameCell(x, y, r)) << x.name() << " row " << r;
    }
  }
}

TEST_P(GeneratorTest, DifferentSeedsDiffer) {
  GeneratedDataset a = Generate(500, 7);
  GeneratedDataset b = Generate(500, 8);
  bool any_difference = false;
  for (size_t c = 0; c < a.frame.num_columns() && !any_difference; ++c) {
    for (size_t r = 0; r < a.frame.num_rows(); ++r) {
      if (!SameCell(a.frame.column(c), b.frame.column(c), r)) {
        any_difference = true;
        break;
      }
    }
  }
  EXPECT_TRUE(any_difference);
}

TEST_P(GeneratorTest, LabelIsBinaryAndNonDegenerate) {
  GeneratedDataset dataset = Generate();
  Result<std::vector<int>> labels =
      ExtractBinaryLabels(dataset.frame, dataset.spec.label);
  ASSERT_TRUE(labels.ok()) << labels.status().ToString();
  double positive = 0.0;
  for (int y : *labels) positive += y;
  double rate = positive / static_cast<double>(labels->size());
  EXPECT_GT(rate, 0.05);
  EXPECT_LT(rate, 0.95);
}

TEST_P(GeneratorTest, SensitiveAttributesResolve) {
  GeneratedDataset dataset = Generate();
  ASSERT_FALSE(dataset.spec.sensitive_attributes.empty());
  for (const SensitiveAttribute& attribute :
       dataset.spec.sensitive_attributes) {
    Result<std::vector<bool>> membership =
        attribute.privileged.Evaluate(dataset.frame);
    ASSERT_TRUE(membership.ok()) << attribute.name;
    size_t privileged = static_cast<size_t>(
        std::count(membership->begin(), membership->end(), true));
    // Both groups are non-empty.
    EXPECT_GT(privileged, 0u);
    EXPECT_LT(privileged, dataset.frame.num_rows());
  }
}

TEST_P(GeneratorTest, FeatureColumnsExcludeLabelAndDropVariables) {
  GeneratedDataset dataset = Generate();
  std::vector<std::string> features =
      dataset.spec.FeatureColumns(dataset.frame);
  ASSERT_FALSE(features.empty());
  std::set<std::string> feature_set(features.begin(), features.end());
  EXPECT_EQ(feature_set.count(dataset.spec.label), 0u);
  for (const std::string& dropped : dataset.spec.drop_variables) {
    EXPECT_EQ(feature_set.count(dropped), 0u) << dropped;
  }
  for (const std::string& name : features) {
    EXPECT_TRUE(dataset.frame.HasColumn(name));
  }
}

TEST_P(GeneratorTest, SensitiveAttributesNeverMissing) {
  GeneratedDataset dataset = Generate();
  for (const SensitiveAttribute& attribute :
       dataset.spec.sensitive_attributes) {
    const Column& column = dataset.frame.column(attribute.privileged.attribute);
    EXPECT_EQ(column.MissingCount(), 0u) << attribute.name;
  }
}

TEST_P(GeneratorTest, MissingValuesMatchDeclaredErrorTypes) {
  GeneratedDataset dataset = Generate(6000);
  size_t missing_rows = dataset.frame.RowsWithMissing().size();
  if (dataset.spec.HasErrorType("missing_values")) {
    EXPECT_GT(missing_rows, 0u);
  } else {
    // credit and heart have no missing values at all (paper footnote 8).
    EXPECT_EQ(missing_rows, 0u);
  }
}

TEST_P(GeneratorTest, LabelsNeverMissing) {
  GeneratedDataset dataset = Generate();
  EXPECT_EQ(dataset.frame.column(dataset.spec.label).MissingCount(), 0u);
}

TEST_P(GeneratorTest, IntersectionalSpecHasTwoAttributes) {
  GeneratedDataset dataset = Generate();
  if (dataset.spec.intersectional) {
    EXPECT_GE(dataset.spec.sensitive_attributes.size(), 2u);
  }
}

INSTANTIATE_TEST_SUITE_P(AllDatasets, GeneratorTest,
                         testing::ValuesIn(AllDatasetNames()),
                         [](const testing::TestParamInfo<std::string>& info) {
                           return info.param;
                         });

TEST(DatasetRegistryTest, UnknownNameFails) {
  Rng rng(1);
  EXPECT_FALSE(MakeDataset("mnist", 100, &rng).ok());
}

TEST(DatasetRegistryTest, TableOneOrder) {
  std::vector<std::string> names = AllDatasetNames();
  ASSERT_EQ(names.size(), 5u);
  EXPECT_EQ(names[0], "adult");
  EXPECT_EQ(names[1], "folk");
  EXPECT_EQ(names[2], "credit");
  EXPECT_EQ(names[3], "german");
  EXPECT_EQ(names[4], "heart");
}

TEST(DatasetSpecTest, ErrorTypeLookup) {
  Rng rng(1);
  GeneratedDataset heart = MakeDataset("heart", 100, &rng).ValueOrDie();
  EXPECT_TRUE(heart.spec.HasErrorType("outliers"));
  EXPECT_TRUE(heart.spec.HasErrorType("mislabels"));
  EXPECT_FALSE(heart.spec.HasErrorType("missing_values"));
}

TEST(DatasetSpecTest, SensitiveAttributeByName) {
  Rng rng(1);
  GeneratedDataset german = MakeDataset("german", 100, &rng).ValueOrDie();
  Result<SensitiveAttribute> age = german.spec.SensitiveAttributeByName("age");
  ASSERT_TRUE(age.ok());
  EXPECT_EQ(age->privileged.Description(), "age > 25");
  EXPECT_FALSE(german.spec.SensitiveAttributeByName("race").ok());
}

}  // namespace
}  // namespace fairclean
