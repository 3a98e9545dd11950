// Shard execution layer of the suite scheduler (DESIGN.md Section 16):
// RunSuiteShard produces this process's share of the cell grid through
// lease-based work stealing, and RunSuiteMerge
// assembles the merged report without stitching: it validates the
// per-shard partials against the shared cache, then executes the full
// graph over the warm cache, which by the fresh==warm identity contract
// yields bytes identical to a single-process run.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <thread>
#include <utility>

#include "common/hash.h"
#include "common/safe_io.h"
#include "common/strings.h"
#include "obs/json_lite.h"
#include "obs/log.h"
#include "obs/trace.h"
#include "sched/suite_runner.h"

namespace fairclean {
namespace sched {

namespace {

constexpr char kMergeClaimKey[] = "__merge__";

/// Backoff between claim scans when every remaining cell of a wave is held
/// by a live sibling: short enough to notice a freed or expired lease
/// quickly, long enough not to hammer the claims directory.
constexpr std::chrono::milliseconds kClaimScanBackoff(25);

}  // namespace

std::string SuiteScheduler::PartialReportPath(const std::string& report_path,
                                              const ShardSpec& shard) {
  return StrFormat("%s.shard%zuof%zu", report_path.c_str(), shard.index + 1,
                   shard.count);
}

std::string SuiteScheduler::CellCacheKey(const CellKey& cell) const {
  exec::StudyDriverOptions driver_options;
  driver_options.study = options_.study;
  return exec::StudyDriver::CacheKey(driver_options, cell.dataset,
                                     cell.error_type, cell.model);
}

bool SuiteScheduler::IsStolenCell(const CellKey& cell) const {
  std::lock_guard<std::mutex> lock(shard_mutex_);
  return stolen_cells_.count(cell.Id()) != 0;
}

void SuiteScheduler::RefreshCellLease(const CellKey& cell) {
  if (lease_store_ == nullptr) return;
  LeaseToken token;
  {
    std::lock_guard<std::mutex> lock(shard_mutex_);
    auto it = claim_tokens_.find(cell.Id());
    if (it == claim_tokens_.end()) return;
    token = it->second;
  }
  Status refreshed = lease_store_->Refresh(token, options_.shard_lease_s);
  std::lock_guard<std::mutex> lock(shard_mutex_);
  if (refreshed.ok()) {
    ++shard_counters_.lease_refreshes;
    metrics_.GetCounter("sched.shard.lease_refreshes")->Increment();
  } else {
    // The claim was stolen (our lease lapsed) or the file vanished. The
    // computation stays byte-valid either way — finish it; worst case the
    // thief duplicates work it would have cache-hit a moment later.
    ++shard_counters_.lease_lost;
    metrics_.GetCounter("sched.shard.lease_lost")->Increment();
    FC_LOG_WARN("sched", "lease refresh lost for %s: %s",
                cell.Id().c_str(), refreshed.ToString().c_str());
  }
}

Status SuiteScheduler::RunClaimWave(const SuiteSpec& spec,
                                    const ExperimentGraph& graph,
                                    size_t wave_index,
                                    const std::vector<size_t>& cell_ids,
                                    std::vector<size_t>* produced_ids) {
  const store::FlatFileStore& blob = Store();
  const std::string owner = options_.shard.Label();
  std::vector<size_t> pending = cell_ids;
  while (!pending.empty()) {
    // Claim exactly one pool-width of cells per scan, then produce and
    // rescan. Greedy one-batch-at-a-time claiming is what makes skewed
    // grids scale: cell costs vary by an order of magnitude (xgboost vs
    // log-reg), so any coarser chunk risks one process batching several
    // expensive cells back to back while its siblings drain the cheap
    // remainder and idle. Claims are one flock'd file each — microseconds
    // against cells that take seconds — so the extra scans are free.
    const size_t chunk = width_;
    std::vector<size_t> batch;
    std::vector<size_t> next_pending;
    bool saw_conflict = false;
    for (size_t id : pending) {
      const CellKey& cell = graph.nodes()[id].cell;
      if (batch.size() >= chunk) {
        next_pending.push_back(id);
        continue;
      }
      // Done marker = the cell's cache record exists. A sibling (or a
      // previous incarnation of this shard) finished it; the merge pass
      // will cache-hit it, so it belongs in nobody's new partial.
      FC_ASSIGN_OR_RETURN(bool cached, blob.Contains(CellCacheKey(cell)));
      if (cached) {
        std::lock_guard<std::mutex> lock(shard_mutex_);
        ++shard_counters_.cache_skips;
        metrics_.GetCounter("sched.shard.cache_skips")->Increment();
        continue;
      }
      Result<LeaseToken> token = lease_store_->Acquire(
          ClaimKeyFor(cell), owner, options_.shard_lease_s);
      if (!token.ok()) {
        if (token.status().code() == StatusCode::kUnavailable) {
          // A live sibling inside its lease holds this cell.
          {
            std::lock_guard<std::mutex> lock(shard_mutex_);
            ++shard_counters_.claim_conflicts;
            metrics_.GetCounter("sched.shard.claim_conflicts")->Increment();
          }
          saw_conflict = true;
          next_pending.push_back(id);
          continue;
        }
        return token.status();
      }
      // Re-check the done marker now that the claim is held: a sibling
      // may have produced the cell and released its claim in the window
      // between the Contains probe above and this Acquire. Producers
      // write the cache record strictly before releasing, so under the
      // claim this check is authoritative and closes the race.
      FC_ASSIGN_OR_RETURN(bool now_cached, blob.Contains(CellCacheKey(cell)));
      if (now_cached) {
        Status released = lease_store_->Release(*token);
        if (!released.ok()) {
          FC_LOG_WARN("sched", "claim release failed for %s: %s",
                      cell.Id().c_str(), released.ToString().c_str());
        }
        std::lock_guard<std::mutex> lock(shard_mutex_);
        ++shard_counters_.cache_skips;
        metrics_.GetCounter("sched.shard.cache_skips")->Increment();
        continue;
      }
      {
        std::lock_guard<std::mutex> lock(shard_mutex_);
        claim_tokens_[cell.Id()] = *token;
        if (token->stolen) {
          // Dead or expired owner: we take over. Its slice records live
          // in the shared cache dir, so ProduceCell reuses the repeats it
          // finished instead of recomputing them.
          stolen_cells_.insert(cell.Id());
          ++shard_counters_.steals;
          metrics_.GetCounter("sched.shard.steals")->Increment();
          FC_LOG_INFO("sched", "%s stole claim for %s", owner.c_str(),
                      cell.Id().c_str());
        }
      }
      batch.push_back(id);
    }
    if (!batch.empty()) {
      Status produced = FanOut(spec, graph, wave_index, batch);
      for (size_t id : batch) {
        const CellKey& cell = graph.nodes()[id].cell;
        LeaseToken token;
        bool have_token = false;
        {
          std::lock_guard<std::mutex> lock(shard_mutex_);
          auto it = claim_tokens_.find(cell.Id());
          if (it != claim_tokens_.end()) {
            token = it->second;
            claim_tokens_.erase(it);
            have_token = true;
          }
        }
        if (have_token) {
          Status released = lease_store_->Release(token);
          if (!released.ok()) {
            FC_LOG_WARN("sched", "claim release failed for %s: %s",
                        cell.Id().c_str(), released.ToString().c_str());
          }
        }
      }
      FC_RETURN_IF_ERROR(produced);
      {
        std::lock_guard<std::mutex> lock(shard_mutex_);
        shard_counters_.produced += batch.size();
        metrics_.GetCounter("sched.shard.cells_produced")
            ->Increment(batch.size());
      }
      produced_ids->insert(produced_ids->end(), batch.begin(), batch.end());
    } else if (saw_conflict) {
      // Every remaining cell is held by a live sibling: wait for it to
      // finish (its cache record appears) or for its lease to expire
      // (then we steal).
      std::this_thread::sleep_for(kClaimScanBackoff);
    }
    pending = std::move(next_pending);
  }
  return Status::OK();
}

Status SuiteScheduler::WritePartialReport(
    const SuiteSpec& spec, const ExperimentGraph& graph,
    const SuiteFilter& filter, const std::vector<size_t>& produced_ids)
    const {
  std::vector<size_t> ids = produced_ids;
  std::sort(ids.begin(), ids.end());
  ShardCounters counters;
  {
    std::lock_guard<std::mutex> lock(shard_mutex_);
    counters = shard_counters_;
  }
  ClassifierCounts classifier;
  std::string cells = "[";
  bool first = true;
  for (size_t id : ids) {
    auto artifact =
        std::static_pointer_cast<const CellArtifact>(node_values_[id]);
    if (artifact == nullptr) continue;
    classifier.Add(artifact->cell_class);
    cells += StrFormat(
        "%s{\"id\":%s,\"cache_file\":%s,\"sha256\":%s,\"class\":%s,"
        "\"repeats\":%zu}",
        first ? "" : ",", obs::JsonQuote(graph.nodes()[id].label).c_str(),
        obs::JsonQuote(artifact->cache_file).c_str(),
        obs::JsonQuote(artifact->sha256).c_str(),
        obs::JsonQuote(CellClassName(artifact->cell_class)).c_str(),
        artifact->result.dirty.accuracy.size());
    first = false;
  }
  cells += "]";

  std::string filter_text;
  for (size_t i = 0; i < filter.tokens.size(); ++i) {
    if (i) filter_text += ",";
    filter_text += filter.tokens[i];
  }

  std::string out = "{";
  out += StrFormat(
      "\"shard\":{\"mode\":%s,\"index\":%zu,\"count\":%zu,\"label\":%s}",
      obs::JsonQuote(ShardModeName(options_.shard.mode)).c_str(),
      options_.shard.index + 1, options_.shard.count,
      obs::JsonQuote(options_.shard.Label()).c_str());
  out += ",\"suite\":" + obs::JsonQuote(spec.name);
  out += ",\"filter\":" + obs::JsonQuote(filter_text);
  out += StrFormat(
      ",\"counters\":{\"produced\":%llu,\"steals\":%llu,"
      "\"claim_conflicts\":%llu,\"cache_skips\":%llu,"
      "\"lease_refreshes\":%llu,\"lease_lost\":%llu}",
      static_cast<unsigned long long>(counters.produced),
      static_cast<unsigned long long>(counters.steals),
      static_cast<unsigned long long>(counters.claim_conflicts),
      static_cast<unsigned long long>(counters.cache_skips),
      static_cast<unsigned long long>(counters.lease_refreshes),
      static_cast<unsigned long long>(counters.lease_lost));
  out += ",\"classifier\":" + classifier.ToJson();
  out += ",\"cells\":" + cells;
  out += "}\n";

  const std::string path =
      PartialReportPath(options_.report_path, options_.shard);
  FC_RETURN_IF_ERROR(WriteFileAtomic(path, out));
  FC_LOG_INFO("sched", "%s: partial report written to %s (%llu cells)",
              options_.shard.Label().c_str(), path.c_str(),
              static_cast<unsigned long long>(counters.produced));
  return Status::OK();
}

Status SuiteScheduler::RunSuiteShard(const SuiteSpec& spec,
                                     const SuiteFilter& filter) {
  const ShardSpec& shard = options_.shard;
  if (!shard.active()) {
    return Status::InvalidArgument(
        "RunSuiteShard requires an active shard spec (--shard-claim)");
  }
  if (options_.cache_dir.empty()) {
    return Status::InvalidArgument(
        "sharded runs need a cache dir: the shared cache is the "
        "coordination plane");
  }
  if (options_.report_path.empty()) {
    return Status::InvalidArgument(
        "sharded runs need a report path for the per-shard partial report");
  }
  obs::Tracer::SetProcessLabel(shard.Label());
  obs::TraceSpan span("sched", [&] {
    return "suite-shard " + spec.name + " " + shard.Label();
  });
  if (lease_store_ == nullptr) {
    lease_store_ = std::make_unique<LeaseStore>(options_.cache_dir + "/claims");
  }

  ExperimentGraph graph = ExperimentGraph::Build(spec, filter);
  FC_LOG_INFO("sched", "%s %s: %zu cells across the graph, width %zu",
              shard.Label().c_str(), ShardModeName(shard.mode),
              graph.CountKind(NodeKind::kCell), width_);
  node_values_.assign(graph.nodes().size(), nullptr);

  std::vector<size_t> produced_ids;
  const std::vector<std::vector<size_t>> waves = graph.Waves();
  for (size_t w = 0; w < waves.size(); ++w) {
    std::vector<size_t> cell_ids;
    for (size_t id : waves[w]) {
      if (graph.nodes()[id].kind == NodeKind::kCell) cell_ids.push_back(id);
    }
    if (cell_ids.empty()) continue;
    FC_RETURN_IF_ERROR(RunClaimWave(spec, graph, w, cell_ids, &produced_ids));
  }

  FC_RETURN_IF_ERROR(WritePartialReport(spec, graph, filter, produced_ids));

  // Merge election: a shard only reaches this point once every cell of
  // every wave has a cache record (its scan loop cannot finish otherwise),
  // so any finisher could merge — the __merge__ lease picks one.
  // Re-merging after a release would be harmless (the merged report is
  // byte-identical by construction), just wasted work.
  Result<LeaseToken> merge = lease_store_->Acquire(
      kMergeClaimKey, shard.Label(), options_.shard_lease_s);
  if (merge.ok()) {
    Status merged = RunSuiteMerge(spec, filter);
    Status released = lease_store_->Release(*merge);
    if (!released.ok()) {
      FC_LOG_WARN("sched", "merge claim release failed: %s",
                  released.ToString().c_str());
    }
    FC_RETURN_IF_ERROR(merged);
  } else if (merge.status().code() == StatusCode::kUnavailable) {
    FC_LOG_INFO("sched", "%s: merge already claimed by a sibling shard",
                shard.Label().c_str());
  } else {
    return merge.status();
  }
  return Status::OK();
}

Status SuiteScheduler::RunSuiteMerge(const SuiteSpec& spec,
                                     const SuiteFilter& filter) {
  obs::TraceSpan span("sched", "suite-merge");
  if (!options_.cache_dir.empty() && !options_.report_path.empty()) {
    // Cross-check every partial report against the shared cache before
    // trusting it: a cell whose recorded sha256 no longer matches the
    // cache bytes means two shards ran inconsistent configurations (or
    // the cache was tampered with) — merging would silently bless it.
    const store::FlatFileStore& blob = Store();
    namespace fs = std::filesystem;
    fs::path report(options_.report_path);
    fs::path dir = report.parent_path();
    if (dir.empty()) dir = ".";
    const std::string prefix = report.filename().string() + ".shard";
    std::vector<fs::path> partials;
    std::error_code ec;
    for (const fs::directory_entry& entry : fs::directory_iterator(dir, ec)) {
      if (!entry.is_regular_file()) continue;
      const std::string name = entry.path().filename().string();
      // A sibling's partial still being written atomically sits at
      // "<partial>.tmp" and may be renamed away mid-read: not a partial.
      if (name.rfind(prefix, 0) == 0 && entry.path().extension() != ".tmp") {
        partials.push_back(entry.path());
      }
    }
    std::sort(partials.begin(), partials.end());
    size_t validated = 0;
    for (const fs::path& path : partials) {
      FC_ASSIGN_OR_RETURN(std::string text, ReadFileToString(path.string()));
      obs::JsonValue parsed;
      std::string error;
      if (!obs::JsonValue::Parse(text, &parsed, &error)) {
        return Status::InvalidArgument("malformed partial report " +
                                       path.string() + ": " + error);
      }
      const obs::JsonValue* cells = parsed.Find("cells");
      if (cells == nullptr || cells->type != obs::JsonValue::Type::kArray) {
        return Status::InvalidArgument("partial report " + path.string() +
                                       " has no cells array");
      }
      for (const obs::JsonValue& cell : cells->array_items) {
        const std::string cache_file = cell.StringOr("cache_file", "");
        const std::string claimed = cell.StringOr("sha256", "");
        if (cache_file.empty() || claimed.empty()) {
          return Status::InvalidArgument("partial report " + path.string() +
                                         " lists a cell without "
                                         "cache_file/sha256");
        }
        FC_ASSIGN_OR_RETURN(std::string bytes, blob.Read(cache_file));
        const std::string actual = Sha256Hex(bytes);
        if (actual != claimed) {
          return Status::Internal(
              StrFormat("merge validation failed: %s claims sha256 %s for "
                        "%s but the shared cache holds %s",
                        path.string().c_str(), claimed.c_str(),
                        cache_file.c_str(), actual.c_str()));
        }
        ++validated;
      }
    }
    FC_LOG_INFO("sched",
                "merge: %zu partial reports validated (%zu cell records)",
                partials.size(), validated);
  }
  // The merge itself is a full-graph run over the warm cache: every cell
  // is a cache hit, and fresh==warm byte identity makes the merged report
  // identical to a single-process run. No stitching, no partial-order
  // reasoning — the cache is the merge.
  return RunSuite(spec, filter);
}

}  // namespace sched
}  // namespace fairclean
