#include "sched/shard.h"

#include "common/strings.h"

namespace fairclean {
namespace sched {

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
