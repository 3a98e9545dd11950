#include "sched/shard.h"

#include <cstdio>

#include "common/strings.h"

namespace fairclean {
namespace sched {

const char* ShardModeName(ShardMode mode) {
  switch (mode) {
    case ShardMode::kNone:
      return "none";
    case ShardMode::kClaim:
      return "claim";
  }
  return "unknown";
}

std::string ShardSpec::Label() const {
  return StrFormat("shard-%zu/%zu", index + 1, count);
}

Result<ShardSpec> ParseShardSpec(ShardMode mode, const std::string& text) {
  // Digits and one '/' only: sscanf's %llu would silently wrap a negative
  // component instead of rejecting it.
  for (char c : text) {
    if (c != '/' && (c < '0' || c > '9')) {
      return Status::InvalidArgument(
          "shard spec must be \"i/N\" with 1 <= i <= N, got \"" + text +
          "\"");
    }
  }
  unsigned long long i = 0;
  unsigned long long n = 0;
  char trailing = '\0';
  int fields = std::sscanf(text.c_str(), "%llu/%llu%c", &i, &n, &trailing);
  if (fields != 2 || i < 1 || n < 1 || i > n) {
    return Status::InvalidArgument(
        "shard spec must be \"i/N\" with 1 <= i <= N, got \"" + text + "\"");
  }
  ShardSpec spec;
  spec.mode = mode;
  spec.index = static_cast<size_t>(i - 1);
  spec.count = static_cast<size_t>(n);
  return spec;
}

std::string ClaimKeyFor(const CellKey& cell) { return "claim:" + cell.Id(); }

std::string ClassKeyFor(const std::string& cache_key) {
  return "class:" + cache_key;
}

const char* CellClassName(CellClass cls) {
  switch (cls) {
    case CellClass::kStolen:
      return "stolen";
    case CellClass::kBudgetExceeded:
      return "budget_exceeded";
    case CellClass::kSkipped:
      return "skipped";
    case CellClass::kDegenerateRetry:
      return "degenerate_retry";
    case CellClass::kPass:
      return "pass";
  }
  return "unknown";
}

Result<CellClass> CellClassFromName(const std::string& name) {
  for (CellClass cls :
       {CellClass::kStolen, CellClass::kBudgetExceeded, CellClass::kSkipped,
        CellClass::kDegenerateRetry, CellClass::kPass}) {
    if (name == CellClassName(cls)) return cls;
  }
  return Status::InvalidArgument("unknown cell class \"" + name + "\"");
}

void ClassifierCounts::Add(CellClass cls) {
  switch (cls) {
    case CellClass::kStolen:
      ++stolen;
      return;
    case CellClass::kBudgetExceeded:
      ++budget_exceeded;
      return;
    case CellClass::kSkipped:
      ++skipped;
      return;
    case CellClass::kDegenerateRetry:
      ++degenerate_retry;
      return;
    case CellClass::kPass:
      ++pass;
      return;
  }
}

std::string ClassifierCounts::ToJson() const {
  return StrFormat(
      "{\"pass\":%llu,\"degenerate_retry\":%llu,\"skipped\":%llu,"
      "\"budget_exceeded\":%llu,\"stolen\":%llu}",
      static_cast<unsigned long long>(pass),
      static_cast<unsigned long long>(degenerate_retry),
      static_cast<unsigned long long>(skipped),
      static_cast<unsigned long long>(budget_exceeded),
      static_cast<unsigned long long>(stolen));
}

}  // namespace sched
}  // namespace fairclean
