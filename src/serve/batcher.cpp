#include "serve/batcher.h"

#include <chrono>
#include <utility>

#include "common/error.h"
#include "layout/fingerprint.h"

namespace ldmo::serve {

namespace {
using Clock = std::chrono::steady_clock;
}  // namespace

InferenceBatcher::InferenceBatcher(core::PrintabilityPredictor& backend,
                                   BatcherConfig config)
    : backend_(&backend),
      config_(config),
      flush_counter_(obs::counter("serve.batch.flushes")),
      job_counter_(obs::counter("serve.batch.jobs")),
      candidate_counter_(obs::counter("serve.batch.candidates")),
      coalesced_flush_counter_(
          obs::counter("serve.batch.coalesced_flushes")) {
  require(config_.flush_candidates >= 1,
          "InferenceBatcher: flush_candidates must be >= 1");
  require(config_.flush_timeout_ms >= 0.0,
          "InferenceBatcher: negative flush timeout");
}

void InferenceBatcher::set_backend(core::PrintabilityPredictor& backend) {
  std::unique_lock<std::mutex> lock(mu_);
  // A straggling flush still holds the old backend outside the lock; wait
  // it out so the swap never yanks a model mid-inference.
  cv_.wait(lock, [&] { return !flush_in_progress_; });
  backend_ = &backend;
}

std::vector<double> InferenceBatcher::score(
    const std::vector<core::ScoringItem>& items) {
  if (items.empty()) return {};

  // Join (or open) the coalescing batch.
  std::unique_lock<std::mutex> lock(mu_);
  if (!open_) open_ = std::make_shared<Batch>();
  std::shared_ptr<Batch> batch = open_;
  const std::size_t offset = batch->items.size();
  batch->items.insert(batch->items.end(), items.begin(), items.end());
  ++batch->joiners;
  const bool leader = offset == 0;
  const auto full = [&] {
    return batch->items.size() >=
           static_cast<std::size_t>(config_.flush_candidates);
  };
  if (full()) cv_.notify_all();  // wake the leader: batch is full

  if (leader) {
    // The leader parks until the batch is full or its timeout lapses, then
    // flushes — but never while another flush holds the backend.
    const Clock::time_point deadline =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(
                               config_.flush_timeout_ms / 1000.0));
    for (;;) {
      if (!flush_in_progress_ && (full() || Clock::now() >= deadline)) break;
      if (flush_in_progress_)
        cv_.wait(lock);
      else
        cv_.wait_until(lock, deadline);
    }
    flush(batch, lock);
  } else {
    cv_.wait(lock, [&] { return batch->flushed; });
  }

  if (batch->failed) {
    // Fresh exception per joiner; see the Batch comment in batcher.h.
    if (batch->stage_tagged)
      throw FlowException(batch->error.stage, batch->error.message);
    throw Error(batch->error.message);
  }
  const auto first =
      batch->scores.begin() + static_cast<std::ptrdiff_t>(offset);
  return std::vector<double>(
      first, first + static_cast<std::ptrdiff_t>(items.size()));
}

void InferenceBatcher::flush(std::shared_ptr<Batch> batch,
                             std::unique_lock<std::mutex>& lock) {
  // Close the generation: late arrivals open a fresh batch and their
  // leader queues behind flush_in_progress_. Nobody appends to a closed
  // batch, so its items can be read outside the lock.
  if (open_ == batch) open_.reset();
  flush_in_progress_ = true;
  flush_counter_.inc();
  job_counter_.inc(static_cast<long long>(batch->joiners));
  candidate_counter_.inc(static_cast<long long>(batch->items.size()));
  if (batch->joiners > 1) coalesced_flush_counter_.inc();

  lock.unlock();
  std::vector<double> scores;
  bool failed = false, tagged = false;
  FlowError error;
  try {
    scores = backend_->score(batch->items);
    require(scores.size() == batch->items.size(),
            "scoring backend returned a misaligned result");
  } catch (const FlowException& e) {
    failed = true;
    tagged = true;
    error = e.error();
  } catch (const std::exception& e) {
    failed = true;
    error = {FlowStage::kUnknown, e.what()};
  } catch (...) {
    failed = true;
    error = {FlowStage::kUnknown, "unknown scoring backend exception"};
  }
  lock.lock();
  batch->scores = std::move(scores);
  batch->failed = failed;
  batch->stage_tagged = tagged;
  batch->error = std::move(error);
  batch->flushed = true;
  flush_in_progress_ = false;
  cv_.notify_all();
}

BatchingPredictor::BatchingPredictor(
    InferenceBatcher& batcher, ShardedLruCache<double>* score_cache,
    const std::atomic<std::uint64_t>& config_fp)
    : batcher_(batcher), score_cache_(score_cache), config_fp_(config_fp) {}

std::vector<double> BatchingPredictor::score(
    const std::vector<core::ScoringItem>& items) {
  if (score_cache_ == nullptr || !score_cache_->enabled())
    return batcher_.score(items);

  // Score tier: cached doubles are the exact values a cold run computed,
  // so mixing hits with fresh inference preserves bit-identity.
  const std::uint64_t config_fp = config_fp_.load(std::memory_order_relaxed);
  std::vector<double> scores(items.size());
  std::vector<std::uint64_t> keys(items.size());
  std::vector<std::size_t> missing;
  std::vector<core::ScoringItem> fresh;
  // Items arrive grouped by layout (score_batch builds them from one), so
  // each layout is fingerprinted once.
  const layout::Layout* fingerprinted = nullptr;
  std::uint64_t layout_fp = 0;
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (items[i].layout != fingerprinted) {
      fingerprinted = items[i].layout;
      layout_fp = layout::fingerprint(*fingerprinted);
    }
    keys[i] = score_cache_key(config_fp, layout_fp, *items[i].assignment);
    if (std::optional<double> hit = score_cache_->get(keys[i])) {
      scores[i] = *hit;
    } else {
      missing.push_back(i);
      fresh.push_back(items[i]);
    }
  }
  if (!fresh.empty()) {
    const std::vector<double> fresh_scores = batcher_.score(fresh);
    for (std::size_t j = 0; j < missing.size(); ++j) {
      scores[missing[j]] = fresh_scores[j];
      score_cache_->put(keys[missing[j]], fresh_scores[j]);
    }
  }
  return scores;
}

}  // namespace ldmo::serve
