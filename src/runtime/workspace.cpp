#include "runtime/workspace.h"

#include <memory>
#include <mutex>

#include "obs/metrics.h"

namespace ldmo::runtime {
namespace {

// Keeps every thread's workspace alive (and its counters readable) after
// the thread exits; entries are never removed. An exited thread's parked
// buffers are dropped (see Workspace::this_thread), only counters remain.
struct WorkspaceRegistry {
  std::mutex mu;
  std::vector<std::shared_ptr<Workspace>> all;
};

WorkspaceRegistry& ws_registry() {
  static WorkspaceRegistry* r = new WorkspaceRegistry();  // leaked on exit
  return *r;
}

}  // namespace

namespace detail {

void note_checkout(bool hit) {
  static obs::Counter& hits = obs::counter("workspace.hits");
  static obs::Counter& misses = obs::counter("workspace.misses");
  (hit ? hits : misses).inc();
}

}  // namespace detail

Workspace& Workspace::this_thread() {
  // The holder's destructor runs on this thread as it exits, the one
  // thread allowed to touch the free lists: a finished thread (a stopped
  // server's dispatcher, say) pins no pooled memory.
  struct Holder {
    std::shared_ptr<Workspace> ws;
    ~Holder() { ws->clear(); }
  };
  thread_local Holder holder{[] {
    auto w = std::make_shared<Workspace>();
    WorkspaceRegistry& r = ws_registry();
    std::lock_guard<std::mutex> lock(r.mu);
    r.all.push_back(w);
    return w;
  }()};
  return *holder.ws;
}

WorkspaceStats workspace_stats() {
  WorkspaceStats total;
  WorkspaceRegistry& r = ws_registry();
  std::lock_guard<std::mutex> lock(r.mu);
  for (const std::shared_ptr<Workspace>& w : r.all) {
    const WorkspaceStats s = w->stats();
    total.grid_f += s.grid_f;
    total.grid_c += s.grid_c;
    total.vec_f32 += s.vec_f32;
    total.vec_f64 += s.vec_f64;
    total.vec_c128 += s.vec_c128;
  }
  return total;
}

void publish_workspace_metrics() {
  const WorkspaceStats s = workspace_stats();
  const PoolStats total = s.total();
  obs::gauge("workspace.pooled_bytes")
      .set(static_cast<double>(total.pooled_bytes));
  obs::gauge("workspace.pooled_buffers").set(static_cast<double>(total.pooled));
  obs::gauge("workspace.outstanding")
      .set(static_cast<double>(total.outstanding));
  obs::gauge("workspace.grid_f.pooled_bytes")
      .set(static_cast<double>(s.grid_f.pooled_bytes));
  obs::gauge("workspace.grid_c.pooled_bytes")
      .set(static_cast<double>(s.grid_c.pooled_bytes));
  obs::gauge("workspace.vec_f32.pooled_bytes")
      .set(static_cast<double>(s.vec_f32.pooled_bytes));
  obs::gauge("workspace.vec_f64.pooled_bytes")
      .set(static_cast<double>(s.vec_f64.pooled_bytes));
  obs::gauge("workspace.vec_c128.pooled_bytes")
      .set(static_cast<double>(s.vec_c128.pooled_bytes));
  {
    WorkspaceRegistry& r = ws_registry();
    std::lock_guard<std::mutex> lock(r.mu);
    obs::gauge("workspace.threads").set(static_cast<double>(r.all.size()));
  }
}

}  // namespace ldmo::runtime
