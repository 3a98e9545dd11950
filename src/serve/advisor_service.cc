#include "serve/advisor_service.h"

#include <filesystem>
#include <utility>

#include "common/safe_io.h"
#include "common/hash.h"
#include "core/cleaning.h"
#include "core/fair_selector.h"
#include "exec/study_driver.h"
#include "fairness/fairness_metrics.h"
#include "obs/trace.h"
#include "stats/tests.h"

namespace fairclean {
namespace serve {

AdvisorService::AdvisorService(sched::SuiteOptions options)
    : options_(std::move(options)),
      metrics_(&obs::MetricsRegistry::Global()),
      artifacts_(&metrics_),
      store_(options_.cache_dir) {}

Result<std::shared_ptr<const GeneratedDataset>> AdvisorService::Dataset(
    const std::string& name,
    const sched::ArtifactStore::Deadline& deadline) {
  return artifacts_.GetOrCreateAs<GeneratedDataset>(
      sched::DatasetArtifactKey(name, options_.study.seed),
      [&]() -> Result<GeneratedDataset> {
        obs::TraceSpan span("serve", [&] { return "dataset " + name; });
        return sched::MakeSuiteDataset(name, options_.study.seed);
      },
      deadline);
}

Result<sched::CellArtifact> AdvisorService::ProduceCell(
    const sched::CellKey& cell, const sched::ArtifactStore::Deadline& deadline,
    bool* cache_hit) {
  obs::TraceSpan span("serve", [&] { return "cell " + cell.Id(); });
  FC_ASSIGN_OR_RETURN(std::shared_ptr<const GeneratedDataset> dataset,
                      Dataset(cell.dataset, deadline));
  exec::StudyDriverOptions driver_options;
  driver_options.study = options_.study;
  driver_options.cache_dir = options_.cache_dir;
  driver_options.max_retries = options_.max_retries;
  if (!options_.cache_dir.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(options_.cache_dir, ec);
  }
  driver_options.deadline = deadline;
  exec::StudyDriver driver(driver_options);
  Result<CleaningExperimentResult> result =
      driver.RunOrLoad(*dataset, cell.error_type, cell.model);
  exec::RunDiagnostics diagnostics = driver.diagnostics();
  // cache_hits > 0 means RunOrLoad served the whole experiment from the
  // on-disk record without computing a repeat in this process.
  *cache_hit = diagnostics.cache_hits > 0;
  if (diagnostics.cache_hits > 0) {
    metrics_.GetCounter("serve.cell_cache_hits")->Increment();
  }
  if (diagnostics.slices_reused > 0) {
    metrics_.GetCounter("serve.slice_resumes")->Increment();
  }
  if (!result.ok()) return result.status();
  metrics_.GetCounter("serve.cells_served")->Increment();

  sched::CellArtifact artifact;
  artifact.result = std::move(*result);
  std::string bytes;
  if (!options_.cache_dir.empty()) {
    std::string key = exec::StudyDriver::CacheKey(
        driver_options, cell.dataset, cell.error_type, cell.model);
    FC_ASSIGN_OR_RETURN(bytes, store_.Read(key));
    artifact.cache_file = key;
  } else {
    bytes = AppendChecksumFooter(artifact.result.records.ToJson());
  }
  artifact.sha256 = Sha256Hex(bytes);
  return artifact;
}

Result<std::shared_ptr<const sched::CellArtifact>> AdvisorService::Cell(
    const sched::CellKey& cell,
    const sched::ArtifactStore::Deadline& deadline, bool* cache_hit) {
  // The flag starts true (an in-memory store reuse counts as a hit) and
  // the producer — which only the first requester runs — overwrites it
  // with the driver's own verdict (on-disk cache load vs computed).
  *cache_hit = true;
  return artifacts_.GetOrCreateAs<sched::CellArtifact>(
      sched::CellArtifactKey(cell, options_.study),
      [&]() -> Result<sched::CellArtifact> {
        return ProduceCell(cell, deadline, cache_hit);
      },
      deadline);
}

Result<AdvisorAnalysis> AdvisorService::Analyze(
    const AdvisorRequest& request,
    const sched::ArtifactStore::Deadline& deadline) {
  sched::CellKey cell{request.dataset, request.error_type, request.model};

  bool cache_hit = false;
  FC_ASSIGN_OR_RETURN(std::shared_ptr<const sched::CellArtifact> artifact,
                      Cell(cell, deadline, &cache_hit));
  const CleaningExperimentResult& result = artifact->result;

  // Group: default to the dataset's first single-attribute definition;
  // otherwise require one of the evaluated group keys ("sex", "sex*race").
  std::string group = request.group;
  if (group.empty() && !result.groups.empty()) {
    group = result.groups.front().key;
  }
  bool group_known = false;
  std::string known_groups;
  for (const GroupDefinition& definition : result.groups) {
    if (definition.key == group) group_known = true;
    if (!known_groups.empty()) known_groups += ", ";
    known_groups += definition.key;
  }
  if (!group_known) {
    return Status::InvalidArgument("unknown group \"" + group + "\" for " +
                                   request.dataset +
                                   " (known: " + known_groups + ")");
  }

  FC_ASSIGN_OR_RETURN(
      FairnessMetric metric,
      FairnessMetricByName(request.metric.empty() ? "PP" : request.metric));

  FC_ASSIGN_OR_RETURN(std::vector<CleaningMethod> methods,
                      CleaningMethodsFor(request.error_type));
  double alpha = BonferroniAlpha(options_.study.alpha, methods.size());

  AdvisorAnalysis analysis;
  analysis.cell_id = cell.Id();
  analysis.cache_file = artifact->cache_file;
  analysis.sha256 = artifact->sha256;
  analysis.repeats = result.dirty.accuracy.size();
  analysis.cache_hit = cache_hit;
  analysis.group = group;
  analysis.metric = FairnessMetricName(metric);
  analysis.alpha = alpha;

  FC_ASSIGN_OR_RETURN(std::vector<CleaningRecommendation> ranked,
                      SelectFairCleaning(result, group, metric, alpha));
  for (const CleaningRecommendation& rec : ranked) {
    MethodImpact method;
    method.method = rec.method;
    method.impact = rec.impact;
    method.admissible = rec.admissible;
    analysis.methods.push_back(std::move(method));
  }
  if (!ranked.empty() && ranked.front().admissible) {
    analysis.recommendation = ranked.front().method;
  }
  return analysis;
}

}  // namespace serve
}  // namespace fairclean
