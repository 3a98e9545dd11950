#ifndef FAIRCLEAN_TESTS_ML_TEST_DATA_H_
#define FAIRCLEAN_TESTS_ML_TEST_DATA_H_

#include <cstdint>
#include <vector>

#include "common/random.h"
#include "ml/matrix.h"
#include "ml/regression_tree.h"

namespace fairclean {
namespace test {

/// A linearly separable-ish binary problem: two Gaussian blobs in `dims`
/// dimensions separated along the first axis.
struct BlobData {
  Matrix x;
  std::vector<int> y;
};

inline BlobData MakeBlobs(size_t n, size_t dims, double separation,
                          uint64_t seed) {
  Rng rng(seed);
  BlobData data;
  data.x = Matrix(n, dims);
  data.y.resize(n);
  for (size_t i = 0; i < n; ++i) {
    int label = rng.Bernoulli(0.5) ? 1 : 0;
    data.y[i] = label;
    double center = label == 1 ? separation / 2.0 : -separation / 2.0;
    data.x(i, 0) = rng.Normal(center, 1.0);
    for (size_t d = 1; d < dims; ++d) {
      data.x(i, d) = rng.Normal(0.0, 1.0);
    }
  }
  return data;
}

/// `full` restricted to the rows with member[row] != 0, in the same
/// relative order and with values in lockstep: a presort that lists only
/// the sample rows.
inline PresortedFeatures SampleOnlyPresort(const PresortedFeatures& full,
                                           const std::vector<char>& member) {
  PresortedFeatures out;
  out.order.resize(full.order.size());
  out.values.resize(full.values.size());
  for (size_t f = 0; f < full.order.size(); ++f) {
    for (size_t i = 0; i < full.order[f].size(); ++i) {
      uint32_t row = full.order[f][i];
      if (member[row] == 0) continue;
      out.order[f].push_back(row);
      if (!full.values.empty()) out.values[f].push_back(full.values[f][i]);
    }
  }
  return out;
}

}  // namespace test
}  // namespace fairclean

#endif  // FAIRCLEAN_TESTS_ML_TEST_DATA_H_
