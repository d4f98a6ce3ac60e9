// Span-based tracing: RAII, nestable, thread-aware. A full run_ldmo_flow()
// produces a tree (generate -> predict -> per-candidate ILT attempt ->
// per-violation-check); finished root spans accumulate in the global
// Tracer until snapshot()/clear().
//
// Collection is off by default: a Span constructed while tracing is
// disabled still measures wall time (so PhaseTimer keeps working) but
// allocates nothing and records nothing. Spans nest per thread; a span
// opened on a worker thread roots its own tree.
#pragma once

#include <chrono>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace ldmo::obs {

/// One named, timed node in a finished span tree. Value-semantic so
/// snapshots are plain copies.
struct SpanNode {
  /// One sparse sample row inside a named series (e.g. an ILT iteration:
  /// {"iter": 7, "loss": 123.4, "print_violations": 0}).
  struct SeriesRow {
    std::vector<std::pair<std::string, double>> cells;
    const double* find(const std::string& key) const;
  };

  std::string name;
  double seconds = 0.0;
  std::vector<std::pair<std::string, double>> num_attrs;
  std::vector<std::pair<std::string, std::string>> str_attrs;
  /// Named per-span sample series (ILT iteration traces, trainer epochs).
  std::vector<std::pair<std::string, std::vector<SeriesRow>>> series;
  std::vector<SpanNode> children;

  /// First direct child named `child_name`; nullptr when absent.
  const SpanNode* find(const std::string& child_name) const;
  /// Direct children named `child_name`.
  std::vector<const SpanNode*> find_all(const std::string& child_name) const;
  const double* find_num_attr(const std::string& key) const;
  const std::vector<SeriesRow>* find_series(const std::string& key) const;
  /// Nodes in this subtree (including this one).
  int tree_size() const;
};

/// Globally enables/disables span collection. Cheap relaxed-atomic read on
/// every Span construction.
void set_tracing_enabled(bool enabled);
bool tracing_enabled();

/// RAII span. Nesting follows scope: a Span constructed while another is
/// live on the same thread becomes its child.
class Span {
 public:
  explicit Span(std::string name);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Wall seconds since construction (live) or total duration (finished).
  double seconds() const;

  /// Attributes and series rows are dropped when tracing is disabled.
  void attr(const std::string& key, double value);
  void attr(const std::string& key, const std::string& value);
  void row(const std::string& series_name,
           std::initializer_list<std::pair<const char*, double>> cells);

  /// Ends the span early (idempotent; the destructor calls it too).
  void finish();

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
  double finished_seconds_ = -1.0;
  SpanNode* node_ = nullptr;  ///< null when tracing was off at construction
};

/// While alive on a thread, span collection on that thread is isolated:
/// previously live spans are hidden (new spans root fresh) and finished
/// root trees land in `roots` instead of the global Tracer. The runtime
/// wraps every task body in one of these so a task's spans can be shipped
/// back to the submitting thread and grafted under the caller's live span
/// in deterministic (submission) order — direct child attachment from
/// worker threads would race on the parent's children vector.
///
/// No-op (nothing hidden, nothing captured) while tracing is disabled.
class SpanCapture {
 public:
  SpanCapture();
  ~SpanCapture();
  SpanCapture(const SpanCapture&) = delete;
  SpanCapture& operator=(const SpanCapture&) = delete;

  /// Finished root trees, in finish order. Take with std::move after the
  /// captured work is done.
  std::vector<SpanNode> roots;

 private:
  struct Impl;
  Impl* impl_ = nullptr;  ///< null when tracing was off at construction
};

/// Grafts finished span trees as children of the calling thread's innermost
/// live span, preserving order. With no live span they become top-level
/// roots in the global Tracer (the data is never dropped).
void adopt_spans(std::vector<SpanNode>&& spans);

/// Owns finished root span trees (process-wide). Retention is capped:
/// once `max_roots()` trees are held, adding another drops the oldest and
/// increments the "obs.trace.dropped_roots" counter — a long-running
/// server with tracing on keeps the most recent trees instead of growing
/// without bound.
class Tracer {
 public:
  /// Default retention cap (finished root trees kept).
  static constexpr std::size_t kDefaultMaxRoots = 512;

  /// Copies the finished roots accumulated so far (oldest first).
  std::vector<SpanNode> snapshot() const;
  void clear();

  /// Sets the retention cap (>= 1); excess oldest roots drop immediately.
  void set_max_roots(std::size_t cap);
  std::size_t max_roots() const;
  /// Roots dropped to the cap since construction (also mirrored in the
  /// "obs.trace.dropped_roots" counter, which registry().reset() zeroes).
  std::uint64_t dropped_roots() const;

  // Internal: called by ~Span for root spans.
  void add_finished_root(SpanNode&& root);

 private:
  void drop_to_cap_locked();

  mutable std::mutex mu_;
  std::deque<SpanNode> finished_roots_;
  std::size_t max_roots_ = kDefaultMaxRoots;
  std::uint64_t dropped_roots_ = 0;
};

Tracer& tracer();

}  // namespace ldmo::obs
