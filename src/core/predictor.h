// Printability predictors: the learned CNN scorer and reference oracles.
//
// A predictor answers one question: "how printable will this decomposition
// be after mask optimization?" — lower score is better. The paper's
// contribution is answering it with a CNN in milliseconds instead of a
// lithography-simulation loop in seconds. Every predictor answers through
// one virtual, score(items), for any number of (layout, candidate) items.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "layout/layout.h"
#include "litho/simulator.h"
#include "nn/resnet.h"
#include "opc/ilt.h"

namespace ldmo::core {

/// One (layout, candidate) pair to score. Non-owning: both must outlive
/// the score() call that receives the item.
struct ScoringItem {
  const layout::Layout* layout = nullptr;
  const layout::Assignment* assignment = nullptr;
};

/// Interface: score decomposition candidates (lower = better).
///
/// score() is the one scoring entry point: the flow reaches it through
/// score_batch, and the serve batcher hands it the concatenated items of
/// every request it coalesced. Each item's score must depend on that item
/// alone — not on the batch it arrived in — so a coalesced score is
/// bit-identical to a solo one (the serving determinism contract).
/// Implementations need not be thread-safe: the serve batcher serializes
/// entry.
class PrintabilityPredictor {
 public:
  virtual ~PrintabilityPredictor() = default;

  /// Scores every item; the result is index-aligned with `items`.
  /// Implementations may batch (CNN) or parallelize (oracles) across items.
  virtual std::vector<double> score(const std::vector<ScoringItem>& items) = 0;

  /// Scores every candidate of one layout through score().
  std::vector<double> score_batch(
      const layout::Layout& layout,
      const std::vector<layout::Assignment>& candidates);

  virtual std::string name() const = 0;
};

/// The paper's predictor: the trained ResNet regressor on the grayscale
/// decomposition image. Scores are in z-normalized units — fine for
/// ranking, which is all the flow needs.
class CnnPredictor : public PrintabilityPredictor {
 public:
  /// Takes ownership of a (typically trained) regressor.
  explicit CnnPredictor(std::unique_ptr<nn::ResNetRegressor> network);

  /// Batched inference: items are rasterized in parallel and pushed
  /// through the network in fixed-size batches. BatchNorm runs in eval
  /// mode, so inference is sample-independent and each score is
  /// bit-identical however the items were grouped.
  std::vector<double> score(const std::vector<ScoringItem>& items) override;
  std::string name() const override { return "cnn"; }

  nn::ResNetRegressor& network() { return *network_; }

  /// Weight (de)serialization for reuse across runs.
  void save(const std::string& path);
  void load(const std::string& path);

 private:
  std::unique_ptr<nn::ResNetRegressor> network_;
};

/// Decorator that folds a weight version into the predictor identity:
/// "cnn" becomes "cnn@v3". serve::config_fingerprint hashes the predictor
/// name, so every weight promotion — the daemon's wire swap and the
/// flywheel's in-process swap — changes every cache key and stale results
/// become unreachable rather than wrong.
class VersionedPredictor : public PrintabilityPredictor {
 public:
  VersionedPredictor(std::unique_ptr<PrintabilityPredictor> inner,
                     std::uint64_t version)
      : inner_(std::move(inner)),
        version_(version),
        name_(inner_->name() + "@v" + std::to_string(version)) {}

  std::vector<double> score(const std::vector<ScoringItem>& items) override {
    return inner_->score(items);
  }
  std::string name() const override { return name_; }
  std::uint64_t version() const { return version_; }

 private:
  std::unique_ptr<PrintabilityPredictor> inner_;
  std::uint64_t version_ = 0;
  std::string name_;
};

/// Oracle predictor: runs the full ILT optimization and returns the true
/// Eq. 9 score. Exact but as expensive as the thing the CNN replaces —
/// used for tests and the sampling-quality experiments.
class IltOraclePredictor : public PrintabilityPredictor {
 public:
  IltOraclePredictor(const opc::IltEngine& engine,
                     litho::ScoreWeights weights = {});

  /// Parallelizes the (expensive, independent) per-item ILT runs.
  std::vector<double> score(const std::vector<ScoringItem>& items) override;
  std::string name() const override { return "ilt-oracle"; }

 private:
  const opc::IltEngine& engine_;
  litho::ScoreWeights weights_;
};

/// Cheap analytic predictor: prints the *unoptimized* decomposition once
/// and scores it. No learning, one lithography forward pass — a sanity
/// baseline between the CNN and the oracle.
class RawPrintPredictor : public PrintabilityPredictor {
 public:
  explicit RawPrintPredictor(const litho::LithoSimulator& simulator,
                             litho::ScoreWeights weights = {});

  /// Parallelizes the per-item print+evaluate passes.
  std::vector<double> score(const std::vector<ScoringItem>& items) override;
  std::string name() const override { return "raw-print"; }

 private:
  const litho::LithoSimulator& simulator_;
  litho::ScoreWeights weights_;
};

}  // namespace ldmo::core
