// Cross-request inference batching.
//
// The flow's predict phase scores every candidate of one layout in one
// call. Under concurrent serving, many dispatchers hit that phase at
// overlapping times with small candidate lists; scoring each list solo
// leaves the CNN's fixed-size inference batches mostly empty. The
// InferenceBatcher coalesces: concurrent score() calls append their items
// to an open batch, the first joiner (the leader) flushes the concatenated
// items through one backend score() call once the batch holds enough items
// or a flush timeout expires, and every joiner wakes with exactly its own
// slice of the scores.
//
// Determinism: a backend's score for an item must not depend on the batch
// the item arrived in (predictor.h), so coalescing never changes a
// response — only its latency. The batcher serializes backend entry (one
// flush at a time), so backends need not be thread-safe.
#pragma once

#include <atomic>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <vector>

#include "common/flow_error.h"
#include "core/predictor.h"
#include "obs/metrics.h"
#include "serve/cache_key.h"
#include "serve/result_cache.h"

namespace ldmo::serve {

struct BatcherConfig {
  /// Flush as soon as the open batch holds this many items.
  int flush_candidates = 16;
  /// Flush a non-full batch this long after its first joiner arrived.
  double flush_timeout_ms = 2.0;
};

class InferenceBatcher {
 public:
  /// `backend` must outlive the batcher. All backend entry happens under
  /// the batcher's serialization.
  InferenceBatcher(core::PrintabilityPredictor& backend,
                   BatcherConfig config);

  /// Scores `items`, possibly coalesced with concurrent callers. Blocks
  /// until this caller's scores are ready; rethrows any backend exception
  /// in every joined caller. The layouts and assignments the items point
  /// at must stay alive for the duration of the call.
  std::vector<double> score(const std::vector<core::ScoringItem>& items);

  /// Repoints the batcher at a new backend (the server's in-process
  /// blue/green swap). Waits out any in-flight flush under the batcher
  /// lock; the caller (Server::swap_backend) additionally quiesces the
  /// dispatchers, so no score() can be mid-join. The new backend must
  /// outlive the batcher or the next set_backend.
  void set_backend(core::PrintabilityPredictor& backend);

  const BatcherConfig& config() const { return config_; }
  core::PrintabilityPredictor& backend() { return *backend_; }

 private:
  /// One coalescing generation: the items of every joiner that arrived
  /// before its flush started, concatenated in arrival order; a joiner
  /// remembers its offset and count. A backend failure is captured as a
  /// FlowError VALUE, not an exception_ptr: rethrowing one shared
  /// exception_ptr would hand every joiner thread the same underlying
  /// exception object, racing one thread's catch-cleanup against another's
  /// reads. Each joiner throws its own fresh exception built from the value
  /// instead.
  struct Batch {
    std::vector<core::ScoringItem> items;
    std::vector<double> scores;  ///< aligned with items once flushed
    std::size_t joiners = 0;
    bool flushed = false;
    bool failed = false;
    bool stage_tagged = false;  ///< original exception was a FlowException
    FlowError error;
  };

  void flush(std::shared_ptr<Batch> batch,
             std::unique_lock<std::mutex>& lock);

  core::PrintabilityPredictor* backend_;  ///< never null; swaps under mu_
  const BatcherConfig config_;

  std::mutex mu_;
  std::condition_variable cv_;
  std::shared_ptr<Batch> open_;     ///< batch accepting joiners (may be null)
  bool flush_in_progress_ = false;  ///< serializes backend entry

  obs::Counter& flush_counter_;
  obs::Counter& job_counter_;
  obs::Counter& candidate_counter_;
  obs::Counter& coalesced_flush_counter_;
};

/// Per-dispatcher predictor adapter: routes the flow's predict phase
/// through the score cache and the shared batcher. Each dispatcher's
/// FlowEngine owns one; they all reference the server's shared batcher and
/// cache, so inference coalesces and scores dedupe across dispatchers.
class BatchingPredictor : public core::PrintabilityPredictor {
 public:
  /// `batcher` (and its backend) must outlive this predictor;
  /// `score_cache` may be null to disable the score tier. `config_fp`
  /// namespaces cached scores by flow configuration; it is read on every
  /// call, so a backend swap that stores a new fingerprint makes scores
  /// from the old model unreachable.
  BatchingPredictor(InferenceBatcher& batcher,
                    ShardedLruCache<double>* score_cache,
                    const std::atomic<std::uint64_t>& config_fp);

  std::vector<double> score(
      const std::vector<core::ScoringItem>& items) override;
  /// Backend's name: the adapter must not change the config fingerprint.
  std::string name() const override { return batcher_.backend().name(); }

 private:
  InferenceBatcher& batcher_;
  ShardedLruCache<double>* score_cache_;
  const std::atomic<std::uint64_t>& config_fp_;
};

}  // namespace ldmo::serve
