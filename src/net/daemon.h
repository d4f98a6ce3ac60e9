// The serve daemon: a TCP front end that drains wire-protocol frames into
// an in-process serve::Server.
//
// Threading: one accept loop (poll-gated, admin-listener pattern) plus one
// thread per connection. A connection handles its frames serially —
// concurrency comes from multiple connections, and the server's inference
// batcher still coalesces scoring work across all of them. All threads are
// joined on stop(), so a daemon is TSan-clean to construct and destroy in
// a test.
//
// Weight hot-swap (kSwapWeights) is blue/green: the daemon builds a brand
// new serve::Server around the new weights, moves the public shared_ptr to
// it, then drains and destroys the old one. In-flight requests finish on
// the server that admitted them; new connections land on the new one. The
// predictor is wrapped so its name carries the weight version ("cnn@v3") —
// serve::config_fingerprint hashes the predictor name, so new weights
// change every cache key and stale results become unreachable rather than
// wrong. An empty blob keeps the current weights (a rolling restart): the
// fingerprint is unchanged, and the warm result cache is carried across
// the swap via export/import.
//
// Cache persistence: when configured with a snapshot path the daemon
// restores the result cache from it at startup (if the fingerprint
// matches) and writes it back on stop() — net/snapshot.h holds the file
// format.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "net/socket.h"
#include "serve/server.h"
#include "warmstart/masknet.h"

namespace ldmo::net {

struct DaemonConfig {
  /// TCP port on 127.0.0.1; 0 picks an ephemeral port (read via port()).
  int listen_port = 0;
  serve::ServeConfig serve;
  /// Optional CNN weights to serve with (nn::encode_parameters format);
  /// empty serves the raw-print fallback predictor.
  std::string weights_path;
  /// Optional result-cache snapshot file: restored at startup, written at
  /// stop(). Empty disables persistence.
  std::string snapshot_path;
  /// Architecture for warm-start MaskNet weights arriving over the wire
  /// (the swap verb's optional warm section); must match what the weights
  /// were trained with. grid_size should equal serve.engine.litho.grid_size.
  warmstart::MaskNetConfig warm_net;
};

class ServeDaemon {
 public:
  /// Builds the server (restoring the cache snapshot when one matches) and
  /// starts listening. Throws on bind failure or unreadable weights.
  explicit ServeDaemon(DaemonConfig config);
  ~ServeDaemon();

  ServeDaemon(const ServeDaemon&) = delete;
  ServeDaemon& operator=(const ServeDaemon&) = delete;

  int port() const { return listener_.port(); }

  /// Currently active server (swaps under kSwapWeights; grab a copy).
  std::shared_ptr<serve::Server> server() {
    std::lock_guard<std::mutex> lock(swap_mu_);
    return server_;
  }

  std::uint64_t weights_version() const { return weights_version_.load(); }

  /// Blue/green weight promotion — the wire verb (kSwapWeights) delegates
  /// here, and in-process callers (the flywheel's serve --flywheel loop)
  /// call it directly. `blob` carries new predictor CNN weights (empty =
  /// rolling restart on current weights); `warm_blob` optionally carries
  /// new warm-start MaskNet weights, loaded into a fresh MaskWarmStart
  /// whose weight-fingerprint version feeds the config fingerprint — so a
  /// warm-start push retires every warm-start-dependent cache key instead
  /// of leaving workers on the old MaskNet. Returns the active version.
  std::uint64_t swap_weights(std::uint64_t requested_version,
                             const std::vector<std::uint8_t>& blob,
                             const std::vector<std::uint8_t>& warm_blob = {});

  /// Cache entries restored from the snapshot at startup.
  std::size_t restored_entries() const { return restored_entries_; }

  /// Stops accepting, joins every connection thread, drains the server and
  /// writes the cache snapshot. Idempotent; the destructor calls it.
  void stop();

 private:
  void accept_loop();
  void handle_connection(Socket sock, const std::string& peer);
  /// One frame in, one frame out. Returns false when the connection should
  /// close (clean EOF).
  bool handle_frame(int fd, const std::string& peer);
  void handle_submit(int fd, const std::string& peer,
                     const std::vector<std::uint8_t>& payload);
  void handle_stats(int fd, const std::string& peer);
  void handle_swap(int fd, const std::string& peer,
                   const std::vector<std::uint8_t>& payload);

  /// Builds a Server around the given weight blob (empty = current
  /// fallback/weights identity) with the version folded into the predictor
  /// name.
  std::shared_ptr<serve::Server> build_server(std::uint64_t version);

  DaemonConfig config_;
  /// Current CNN weight blob (decoded in memory on every server build);
  /// empty = raw-print fallback.
  std::vector<std::uint8_t> weights_blob_;
  std::atomic<std::uint64_t> weights_version_{0};
  std::size_t restored_entries_ = 0;

  std::mutex swap_mu_;  ///< guards server_ swaps and weights_blob_
  std::shared_ptr<serve::Server> server_;

  TcpListener listener_;
  std::atomic<bool> stopping_{false};
  std::thread accept_thread_;
  std::mutex conn_mu_;
  std::vector<std::thread> connections_;
  bool stopped_ = false;
};

}  // namespace ldmo::net
