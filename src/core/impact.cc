#include "core/impact.h"

#include "common/check.h"
#include "common/strings.h"
#include "stats/descriptive.h"
#include "stats/tests.h"

namespace fairclean {

const char* ImpactName(Impact impact) {
  switch (impact) {
    case Impact::kWorse:
      return "worse";
    case Impact::kInsignificant:
      return "insignificant";
    case Impact::kBetter:
      return "better";
  }
  return "?";
}

Result<Impact> ClassifyImpact(const std::vector<double>& dirty_scores,
                              const std::vector<double>& repaired_scores,
                              double alpha, bool higher_is_better) {
  FC_ASSIGN_OR_RETURN(TestResult test,
                      PairedTTest(repaired_scores, dirty_scores));
  if (!test.SignificantAt(alpha)) return Impact::kInsignificant;
  FC_ASSIGN_OR_RETURN(double mean_repaired, Mean(repaired_scores));
  FC_ASSIGN_OR_RETURN(double mean_dirty, Mean(dirty_scores));
  double delta = mean_repaired - mean_dirty;
  if (delta == 0.0) return Impact::kInsignificant;
  bool improved = higher_is_better ? delta > 0.0 : delta < 0.0;
  return improved ? Impact::kBetter : Impact::kWorse;
}

size_t ImpactTable::Index(Impact impact) {
  switch (impact) {
    case Impact::kWorse:
      return 0;
    case Impact::kInsignificant:
      return 1;
    case Impact::kBetter:
      return 2;
  }
  return 1;
}

void ImpactTable::Add(Impact fairness, Impact accuracy) {
  ++cells_[Index(fairness)][Index(accuracy)];
}

int64_t ImpactTable::cell(Impact fairness, Impact accuracy) const {
  return cells_[Index(fairness)][Index(accuracy)];
}

int64_t ImpactTable::RowTotal(Impact fairness) const {
  size_t r = Index(fairness);
  return cells_[r][0] + cells_[r][1] + cells_[r][2];
}

int64_t ImpactTable::ColumnTotal(Impact accuracy) const {
  size_t c = Index(accuracy);
  return cells_[0][c] + cells_[1][c] + cells_[2][c];
}

int64_t ImpactTable::Total() const {
  int64_t total = 0;
  for (const auto& row : cells_) {
    for (int64_t cell : row) total += cell;
  }
  return total;
}

ImpactTable& ImpactTable::operator+=(const ImpactTable& other) {
  for (size_t r = 0; r < 3; ++r) {
    for (size_t c = 0; c < 3; ++c) {
      cells_[r][c] += other.cells_[r][c];
    }
  }
  return *this;
}

std::string ImpactTable::Format(const std::string& title) const {
  const Impact kOrder[3] = {Impact::kWorse, Impact::kInsignificant,
                            Impact::kBetter};
  int64_t total = Total();
  auto pct = [total](int64_t count) {
    if (total == 0) return std::string("  0.0%");
    return StrFormat("%5.1f%%",
                     100.0 * static_cast<double>(count) /
                         static_cast<double>(total));
  };

  std::string out;
  out += title + "\n";
  out += StrFormat("%-22s | %-14s %-14s %-14s | %s\n", "", "acc. worse",
                   "acc. insign.", "acc. better", "total");
  out += std::string(86, '-') + "\n";
  const char* row_labels[3] = {"fairness worse", "fairness insign.",
                               "fairness better"};
  for (size_t r = 0; r < 3; ++r) {
    Impact fr = kOrder[r];
    out += StrFormat("%-22s |", row_labels[r]);
    for (size_t c = 0; c < 3; ++c) {
      int64_t count = cell(fr, kOrder[c]);
      out += StrFormat(" %s (%3lld)  ", pct(count).c_str(),
                       static_cast<long long>(count));
    }
    out += StrFormat("| %s (%lld)\n", pct(RowTotal(fr)).c_str(),
                     static_cast<long long>(RowTotal(fr)));
  }
  out += std::string(86, '-') + "\n";
  out += StrFormat("%-22s |", "total");
  for (size_t c = 0; c < 3; ++c) {
    int64_t count = ColumnTotal(kOrder[c]);
    out += StrFormat(" %s (%3lld)  ", pct(count).c_str(),
                     static_cast<long long>(count));
  }
  out += StrFormat("| %lld\n", static_cast<long long>(total));
  return out;
}

}  // namespace fairclean
