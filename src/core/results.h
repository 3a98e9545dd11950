#ifndef FAIRCLEAN_CORE_RESULTS_H_
#define FAIRCLEAN_CORE_RESULTS_H_

#include <map>
#include <string>
#include <vector>

#include "common/status.h"

namespace fairclean {

/// Flat, deterministic key -> value store for experiment outputs, mirroring
/// the paper's JSON result records (e.g.
/// "German/missing_values/impute_mean_dummy/logreg/6130" ->
/// {"impute_mean_dummy__sex_priv__age_priv__fp": 13, ...}).
///
/// Keys are kept in sorted order everywhere (storage and serialization):
/// the paper reports a severe reproducibility bug in CleanML caused by a
/// randomly reshuffled key-value mapping between cleaning-technique names
/// and metric values, so this store makes the mapping explicit and stable
/// by construction.
class ResultStore {
 public:
  /// Sets (or overwrites) a metric value.
  void Put(const std::string& key, double value);

  /// True if the key exists.
  bool Contains(const std::string& key) const;

  /// The stored value.
  Result<double> Get(const std::string& key) const;

  size_t size() const { return values_.size(); }

  /// All keys with the given prefix, in sorted order.
  std::vector<std::string> KeysWithPrefix(const std::string& prefix) const;

  /// Serializes to a flat JSON object with keys in sorted order.
  std::string ToJson() const;

  /// Parses a store previously produced by ToJson. Only whitespace may
  /// follow the closing brace.
  static Result<ResultStore> FromJson(const std::string& json);

  /// Verifies the checksum footer of a stored record (Section 6 of
  /// DESIGN.md) and parses its body. Every record must carry a footer that
  /// vouches for the whole content: a missing footer (a record cut off
  /// before it), a footer that is not the final line, or a checksum or
  /// length mismatch is InvalidArgument, as is a body FromJson rejects.
  /// `origin` (the record's store location) prefixes footer errors.
  static Result<ResultStore> LoadFromString(const std::string& content,
                                            const std::string& origin);

  /// Merges another store into this one (other wins on key conflicts).
  void MergeFrom(const ResultStore& other);

 private:
  std::map<std::string, double> values_;
};

/// Builds the flat metric key used in result records, joining non-empty
/// parts with "__": e.g. MetricKey({"impute_mean_dummy", "sex_priv", "fp"})
/// -> "impute_mean_dummy__sex_priv__fp".
std::string MetricKey(const std::vector<std::string>& parts);

}  // namespace fairclean

#endif  // FAIRCLEAN_CORE_RESULTS_H_
