// Thread-aware scratch-buffer pools: the memory engine behind the
// zero-allocation steady state of the litho/ILT/NN hot paths.
//
// Every thread owns one Workspace (reached via Workspace::this_thread());
// checkout returns an RAII handle whose destructor puts the buffer back on
// the owning thread's free list, so the second time a path runs on a
// thread, every checkout is a pool hit and the heap is never touched.
//
// Rules the rest of the codebase relies on (DESIGN.md §9):
//
//  * Bit-identity of recycled buffers: the zeroed checkouts (grid_f,
//    vec_f64, ...) hand back contents identical to a freshly constructed
//    Grid/vector; the *_uninit variants carry stale data and every call
//    site using them must fully overwrite before any read. This is what
//    keeps pooled runs bit-identical to allocation-per-call runs and the
//    DeterminismTest contract intact.
//  * Thread affinity: acquire and release happen on the owning thread.
//    Inside a fork-join region (parallel_for / TaskGroup) worker threads
//    may read/write the checked-out buffer — the join provides the
//    happens-before edge — but workers draw their own scratch from their
//    own Workspace::this_thread().
//  * Stats are atomics: cross-thread aggregation (workspace_stats(),
//    publish_workspace_metrics()) only reads the relaxed counters, never
//    the free lists.
#pragma once

#include <atomic>
#include <complex>
#include <cstddef>
#include <map>
#include <utility>
#include <vector>

#include "common/grid.h"

namespace ldmo::runtime {

class Workspace;

/// Point-in-time counters of one pool (or a sum over pools/threads).
struct PoolStats {
  long long hits = 0;          ///< checkouts served from a free list
  long long misses = 0;        ///< checkouts that had to allocate
  long long outstanding = 0;   ///< checked out, not yet returned
  long long pooled = 0;        ///< buffers parked in free lists
  std::size_t pooled_bytes = 0;  ///< bytes held by free lists

  PoolStats& operator+=(const PoolStats& o) {
    hits += o.hits;
    misses += o.misses;
    outstanding += o.outstanding;
    pooled += o.pooled;
    pooled_bytes += o.pooled_bytes;
    return *this;
  }
};

namespace detail {

/// Bumps the process-wide "workspace.hits"/"workspace.misses" counters.
void note_checkout(bool hit);

/// Shape-keyed free lists of Grid<T>. Mutation is owner-thread-only; the
/// stat fields are relaxed atomics readable from any thread.
template <typename T>
class GridPool {
 public:
  /// Pops a same-shape grid (zeroing it when `zero`) or allocates fresh.
  Grid<T> acquire(int height, int width, bool zero) {
    const auto it = free_.find({height, width});
    if (it != free_.end() && !it->second.empty()) {
      Grid<T> g = std::move(it->second.back());
      it->second.pop_back();
      pooled_bytes_.fetch_sub(g.size() * sizeof(T),
                              std::memory_order_relaxed);
      pooled_.fetch_sub(1, std::memory_order_relaxed);
      hits_.fetch_add(1, std::memory_order_relaxed);
      outstanding_.fetch_add(1, std::memory_order_relaxed);
      note_checkout(true);
      if (zero) g.fill(T{});
      return g;
    }
    misses_.fetch_add(1, std::memory_order_relaxed);
    outstanding_.fetch_add(1, std::memory_order_relaxed);
    note_checkout(false);
    return Grid<T>(height, width);  // value-initialized == zeroed
  }

  void release(Grid<T>&& g) {
    outstanding_.fetch_sub(1, std::memory_order_relaxed);
    // Reject grids whose storage was moved out from under the handle —
    // pooling one would poison the shape key.
    const std::size_t expect = static_cast<std::size_t>(g.height()) *
                               static_cast<std::size_t>(g.width());
    if (expect == 0 || g.size() != expect) return;
    std::vector<Grid<T>>& list = free_[{g.height(), g.width()}];
    if (list.size() >= kMaxPerShape) return;  // bounded: drop to the heap
    pooled_bytes_.fetch_add(g.size() * sizeof(T), std::memory_order_relaxed);
    pooled_.fetch_add(1, std::memory_order_relaxed);
    list.push_back(std::move(g));
  }

  PoolStats stats() const {
    PoolStats s;
    s.hits = hits_.load(std::memory_order_relaxed);
    s.misses = misses_.load(std::memory_order_relaxed);
    s.outstanding = outstanding_.load(std::memory_order_relaxed);
    s.pooled = pooled_.load(std::memory_order_relaxed);
    s.pooled_bytes = static_cast<std::size_t>(
        pooled_bytes_.load(std::memory_order_relaxed));
    return s;
  }

  /// Drops every parked buffer (owner thread only).
  void clear() {
    free_.clear();
    pooled_.store(0, std::memory_order_relaxed);
    pooled_bytes_.store(0, std::memory_order_relaxed);
  }

 private:
  static constexpr std::size_t kMaxPerShape = 64;

  std::map<std::pair<int, int>, std::vector<Grid<T>>> free_;
  std::atomic<long long> hits_{0};
  std::atomic<long long> misses_{0};
  std::atomic<long long> outstanding_{0};
  std::atomic<long long> pooled_{0};
  std::atomic<long long> pooled_bytes_{0};
};

/// Free list of raw std::vector<T> scratch, best-fit by capacity. A
/// checkout counts as a hit only when the recycled capacity already covers
/// the request (no hidden reallocation).
template <typename T>
class VectorPool {
 public:
  std::vector<T> acquire(std::size_t n, bool zero) {
    if (!free_.empty()) {
      // Best fit: smallest parked capacity that covers n; else the largest
      // (it grows once and then serves future requests of this size).
      std::size_t best = free_.size();
      std::size_t largest = 0;
      for (std::size_t i = 0; i < free_.size(); ++i) {
        const std::size_t cap = free_[i].capacity();
        if (cap >= n && (best == free_.size() ||
                         cap < free_[best].capacity()))
          best = i;
        if (free_[i].capacity() >= free_[largest].capacity()) largest = i;
      }
      const std::size_t pick = best != free_.size() ? best : largest;
      std::vector<T> v = std::move(free_[pick]);
      free_.erase(free_.begin() + static_cast<std::ptrdiff_t>(pick));
      pooled_bytes_.fetch_sub(v.capacity() * sizeof(T),
                              std::memory_order_relaxed);
      pooled_.fetch_sub(1, std::memory_order_relaxed);
      const bool hit = v.capacity() >= n;
      (hit ? hits_ : misses_).fetch_add(1, std::memory_order_relaxed);
      outstanding_.fetch_add(1, std::memory_order_relaxed);
      note_checkout(hit);
      if (zero) v.clear();     // size 0, capacity kept
      v.resize(n);             // value-initializes all (zero) or the tail
      return v;
    }
    misses_.fetch_add(1, std::memory_order_relaxed);
    outstanding_.fetch_add(1, std::memory_order_relaxed);
    note_checkout(false);
    return std::vector<T>(n);
  }

  void release(std::vector<T>&& v) {
    outstanding_.fetch_sub(1, std::memory_order_relaxed);
    if (v.capacity() == 0 || free_.size() >= kMaxVectors) return;
    pooled_bytes_.fetch_add(v.capacity() * sizeof(T),
                            std::memory_order_relaxed);
    pooled_.fetch_add(1, std::memory_order_relaxed);
    free_.push_back(std::move(v));
  }

  PoolStats stats() const {
    PoolStats s;
    s.hits = hits_.load(std::memory_order_relaxed);
    s.misses = misses_.load(std::memory_order_relaxed);
    s.outstanding = outstanding_.load(std::memory_order_relaxed);
    s.pooled = pooled_.load(std::memory_order_relaxed);
    s.pooled_bytes = static_cast<std::size_t>(
        pooled_bytes_.load(std::memory_order_relaxed));
    return s;
  }

  void clear() {
    free_.clear();
    pooled_.store(0, std::memory_order_relaxed);
    pooled_bytes_.store(0, std::memory_order_relaxed);
  }

 private:
  static constexpr std::size_t kMaxVectors = 64;

  std::vector<std::vector<T>> free_;
  std::atomic<long long> hits_{0};
  std::atomic<long long> misses_{0};
  std::atomic<long long> outstanding_{0};
  std::atomic<long long> pooled_{0};
  std::atomic<long long> pooled_bytes_{0};
};

}  // namespace detail

/// RAII grid checkout: destructor (or reset()) returns the grid to its
/// pool. Destroy on the thread that checked it out.
template <typename T>
class PooledGrid {
 public:
  PooledGrid() = default;
  PooledGrid(PooledGrid&& o) noexcept
      : pool_(o.pool_), grid_(std::move(o.grid_)) {
    o.pool_ = nullptr;
  }
  PooledGrid& operator=(PooledGrid&& o) noexcept {
    if (this != &o) {
      reset();
      pool_ = o.pool_;
      grid_ = std::move(o.grid_);
      o.pool_ = nullptr;
    }
    return *this;
  }
  PooledGrid(const PooledGrid&) = delete;
  PooledGrid& operator=(const PooledGrid&) = delete;
  ~PooledGrid() { reset(); }

  Grid<T>& operator*() { return grid_; }
  const Grid<T>& operator*() const { return grid_; }
  Grid<T>* operator->() { return &grid_; }
  const Grid<T>* operator->() const { return &grid_; }
  Grid<T>& get() { return grid_; }
  const Grid<T>& get() const { return grid_; }

  void reset() {
    if (pool_ == nullptr) return;
    pool_->release(std::move(grid_));
    pool_ = nullptr;
    grid_ = Grid<T>();
  }

 private:
  friend class Workspace;
  PooledGrid(detail::GridPool<T>* pool, Grid<T>&& grid)
      : pool_(pool), grid_(std::move(grid)) {}

  detail::GridPool<T>* pool_ = nullptr;
  Grid<T> grid_;
};

/// RAII vector checkout; same lifecycle rules as PooledGrid.
template <typename T>
class PooledVector {
 public:
  PooledVector() = default;
  PooledVector(PooledVector&& o) noexcept
      : pool_(o.pool_), vec_(std::move(o.vec_)) {
    o.pool_ = nullptr;
  }
  PooledVector& operator=(PooledVector&& o) noexcept {
    if (this != &o) {
      reset();
      pool_ = o.pool_;
      vec_ = std::move(o.vec_);
      o.pool_ = nullptr;
    }
    return *this;
  }
  PooledVector(const PooledVector&) = delete;
  PooledVector& operator=(const PooledVector&) = delete;
  ~PooledVector() { reset(); }

  std::vector<T>& operator*() { return vec_; }
  std::vector<T>* operator->() { return &vec_; }
  std::vector<T>& vec() { return vec_; }
  const std::vector<T>& vec() const { return vec_; }
  T* data() { return vec_.data(); }
  const T* data() const { return vec_.data(); }
  std::size_t size() const { return vec_.size(); }

  void reset() {
    if (pool_ == nullptr) return;
    pool_->release(std::move(vec_));
    pool_ = nullptr;
    vec_.clear();
  }

 private:
  friend class Workspace;
  PooledVector(detail::VectorPool<T>* pool, std::vector<T>&& vec)
      : pool_(pool), vec_(std::move(vec)) {}

  detail::VectorPool<T>* pool_ = nullptr;
  std::vector<T> vec_;
};

/// Per-pool stats of one workspace (or aggregated across threads).
struct WorkspaceStats {
  PoolStats grid_f;   ///< Grid<double>
  PoolStats grid_c;   ///< Grid<complex<double>>
  PoolStats vec_f32;  ///< vector<float>
  PoolStats vec_f64;  ///< vector<double>
  PoolStats vec_c128; ///< vector<complex<double>>

  PoolStats total() const {
    PoolStats t;
    t += grid_f;
    t += grid_c;
    t += vec_f32;
    t += vec_f64;
    t += vec_c128;
    return t;
  }
};

/// One thread's buffer pools. Checkout/return on the owning thread only;
/// see the file comment for the full contract.
class Workspace {
 public:
  using Complex = std::complex<double>;

  /// Zeroed checkouts: contents bit-identical to a fresh Grid/vector.
  PooledGrid<double> grid_f(int height, int width) {
    return {&grid_f_, grid_f_.acquire(height, width, /*zero=*/true)};
  }
  PooledGrid<Complex> grid_c(int height, int width) {
    return {&grid_c_, grid_c_.acquire(height, width, /*zero=*/true)};
  }
  PooledVector<float> vec_f32(std::size_t n) {
    return {&vec_f32_, vec_f32_.acquire(n, /*zero=*/true)};
  }
  PooledVector<double> vec_f64(std::size_t n) {
    return {&vec_f64_, vec_f64_.acquire(n, /*zero=*/true)};
  }
  PooledVector<Complex> vec_c128(std::size_t n) {
    return {&vec_c128_, vec_c128_.acquire(n, /*zero=*/true)};
  }

  /// Uninitialized checkouts: stale contents — the caller MUST fully
  /// overwrite before any read (the bit-identity rule depends on it).
  PooledGrid<double> grid_f_uninit(int height, int width) {
    return {&grid_f_, grid_f_.acquire(height, width, /*zero=*/false)};
  }
  PooledGrid<Complex> grid_c_uninit(int height, int width) {
    return {&grid_c_, grid_c_.acquire(height, width, /*zero=*/false)};
  }
  PooledVector<float> vec_f32_uninit(std::size_t n) {
    return {&vec_f32_, vec_f32_.acquire(n, /*zero=*/false)};
  }
  PooledVector<double> vec_f64_uninit(std::size_t n) {
    return {&vec_f64_, vec_f64_.acquire(n, /*zero=*/false)};
  }
  PooledVector<Complex> vec_c128_uninit(std::size_t n) {
    return {&vec_c128_, vec_c128_.acquire(n, /*zero=*/false)};
  }

  WorkspaceStats stats() const {
    WorkspaceStats s;
    s.grid_f = grid_f_.stats();
    s.grid_c = grid_c_.stats();
    s.vec_f32 = vec_f32_.stats();
    s.vec_f64 = vec_f64_.stats();
    s.vec_c128 = vec_c128_.stats();
    return s;
  }

  /// Drops every parked buffer (owner thread only); counters survive.
  void clear() {
    grid_f_.clear();
    grid_c_.clear();
    vec_f32_.clear();
    vec_f64_.clear();
    vec_c128_.clear();
  }

  /// The calling thread's workspace. Created on first use and kept alive
  /// (for stats aggregation) past thread exit; its parked buffers are
  /// dropped when the thread exits.
  static Workspace& this_thread();

 private:
  detail::GridPool<double> grid_f_;
  detail::GridPool<Complex> grid_c_;
  detail::VectorPool<float> vec_f32_;
  detail::VectorPool<double> vec_f64_;
  detail::VectorPool<Complex> vec_c128_;
};

/// Per-pool stats aggregated over every workspace any thread ever created.
WorkspaceStats workspace_stats();

/// Writes the aggregate to the obs registry: "workspace.pooled_bytes",
/// "workspace.outstanding", "workspace.threads" and per-pool
/// "workspace.<pool>.pooled_bytes" gauges ("workspace.hits"/".misses"
/// counters are maintained live on every checkout).
void publish_workspace_metrics();

}  // namespace ldmo::runtime
