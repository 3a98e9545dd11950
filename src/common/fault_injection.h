#ifndef FAIRCLEAN_COMMON_FAULT_INJECTION_H_
#define FAIRCLEAN_COMMON_FAULT_INJECTION_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "common/random.h"
#include "common/status.h"

namespace fairclean {

/// Deterministic, seeded fault-injection harness.
///
/// Production code declares named injection *sites* — the driver's storage
/// and compute boundaries ("cache_write", "cache_read", "csv_parse",
/// "numeric", "interrupt") and the serving layer's request lifecycle
/// ("socket_read", "socket_write", "request_parse", "worker_stall"); each
/// site is a no-op unless a fault was armed for it, so the instrumentation
/// is free on the happy path.
/// Faults are armed from a spec string (usually the FAIRCLEAN_FAULTS
/// environment variable):
///
///   site:probability[:max_fires][,site:probability[:max_fires]...]
///
/// e.g. "cache_write:0.5,csv_parse:1:1" — cache writes fail with
/// probability 0.5, and exactly the first CSV parse fails. Every site draws
/// from its own Rng seeded with `seed ^ fnv1a(site)`, so firing decisions
/// are reproducible and independent of how sites interleave. max_fires
/// bounds how often a site triggers (default: unlimited), which lets tests
/// model transient faults that succeed on retry.
///
/// The injector is process-global and thread-safe: the study driver fans
/// repeat slices out across a thread pool and every slice may probe its
/// sites concurrently. Firing decisions stay reproducible per site because
/// each site draws from its own RNG; under concurrency the *order* in which
/// different call sites consume a shared site's draws is scheduling-
/// dependent, so deterministic tests arm probabilities 0 or 1 (exact
/// never/always semantics) when running multi-threaded. Tests must Reset()
/// the injector when done.
class FaultInjector {
 public:
  static FaultInjector& Global();

  /// Every site name production code probes, sorted. A spec naming any
  /// other site is rejected by Configure: a typo'd site ("cache_wirte")
  /// would arm nothing and silently turn a chaos test into a false green.
  static const std::vector<std::string>& KnownSites();

  /// Arms faults from a spec string (see class comment). An empty spec
  /// disarms everything. InvalidArgument on a malformed spec, a probability
  /// outside [0, 1], an empty site name, or a site not in KnownSites().
  Status Configure(const std::string& spec, uint64_t seed);

  /// Arms from FAIRCLEAN_FAULTS / FAIRCLEAN_FAULT_SEED (default seed 42; a
  /// non-negative integer, parsed strictly by GetEnvCount). Aborts
  /// start-up by returning the parse error when the spec or seed is bad,
  /// naming the one knob at fault ("FAIRCLEAN_FAULTS: ..." for a spec
  /// error, the seed reader's own message for a seed error) —
  /// silently ignoring a typo'd fault plan would invalidate a robustness
  /// test without anyone noticing.
  Status ConfigureFromEnv();

  /// Disarms all sites and clears counters.
  void Reset();

  /// True when any site is armed.
  bool enabled() const;

  /// Draws the site's Bernoulli; true when the fault fires. Unarmed sites
  /// never fire and consume no randomness.
  bool ShouldFire(const std::string& site);

  /// IoError("injected fault at <site>") when the site fires, OK otherwise.
  Status Inject(const std::string& site);

  /// Returns NaN when the site fires, `value` untouched otherwise. Used at
  /// numeric boundaries to model corrupted scores.
  double CorruptScore(const std::string& site, double value);

  /// Times the site has fired since Configure/Reset.
  uint64_t fires(const std::string& site) const;

 private:
  struct Site {
    double probability = 0.0;
    uint64_t max_fires = UINT64_MAX;
    uint64_t fires = 0;
    Rng rng{0};
  };

  mutable std::mutex mutex_;
  std::map<std::string, Site> sites_;
};

}  // namespace fairclean

#endif  // FAIRCLEAN_COMMON_FAULT_INJECTION_H_
