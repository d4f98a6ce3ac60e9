#include "net/daemon.h"

#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>

#include <utility>

#include "common/file.h"
#include "common/flow_error.h"
#include "common/log.h"
#include "core/predictor.h"
#include "net/frame.h"
#include "net/snapshot.h"
#include "net/wire.h"
#include "nn/resnet.h"
#include "nn/serialize.h"
#include "obs/metrics.h"
#include "warmstart/warm_start.h"

namespace ldmo::net {

namespace {

constexpr int kPollMillis = 100;        ///< stop-flag latency per connection
constexpr double kFrameTimeout = 30.0;  ///< mid-frame stall guard

std::string peer_of(int fd) {
  sockaddr_in addr{};
  socklen_t len = sizeof addr;
  if (getpeername(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0)
    return "peer";
  return "127.0.0.1:" + std::to_string(ntohs(addr.sin_port));
}

void send_error(int fd, const std::string& peer, FlowStage stage,
                const std::string& message) {
  send_error_frame(fd, peer, static_cast<int>(stage), message);
}

}  // namespace

ServeDaemon::ServeDaemon(DaemonConfig config)
    : config_(std::move(config)), listener_(config_.listen_port) {
  if (!config_.weights_path.empty()) {
    try {
      weights_blob_ = common::read_file(config_.weights_path);
    } catch (const Error& e) {
      throw FlowException(FlowStage::kNet, std::string("daemon: ") + e.what());
    }
  }
  server_ = build_server(0);

  if (!config_.snapshot_path.empty()) {
    if (std::optional<CacheSnapshot> snapshot =
            load_cache_snapshot(config_.snapshot_path)) {
      if (snapshot->config_fingerprint == server_->config_fingerprint()) {
        restored_entries_ =
            server_->import_result_cache(std::move(snapshot->entries));
        obs::counter("net.daemon.snapshot.restored")
            .inc(static_cast<long long>(restored_entries_));
        log_info("daemon: restored ", restored_entries_,
                 " cache entries from ", config_.snapshot_path);
      } else {
        log_warn("daemon: snapshot ", config_.snapshot_path,
                 " was taken under a different configuration; ignoring");
      }
    }
  }

  accept_thread_ = std::thread([this] { accept_loop(); });
  log_info("daemon: listening on ", endpoint_name(port()), " (predictor ",
           server_->predictor_name(), ")");
}

ServeDaemon::~ServeDaemon() { stop(); }

std::shared_ptr<serve::Server> ServeDaemon::build_server(
    std::uint64_t version) {
  std::unique_ptr<core::PrintabilityPredictor> backend;
  if (!weights_blob_.empty()) {
    // Reconstitute the CNN from the blob in memory (decoding validates the
    // parameter layout, so an architecture mismatch fails loudly here
    // instead of scoring garbage).
    auto net = std::make_unique<nn::ResNetRegressor>();
    nn::decode_parameters(net->parameters(), weights_blob_,
                          "weights v" + std::to_string(version));
    backend = std::make_unique<core::VersionedPredictor>(
        std::make_unique<core::CnnPredictor>(std::move(net)), version);
  }
  // Null backend -> the server's raw-print fallback. Its name is version-
  // independent, so an empty-blob swap (rolling restart) keeps the same
  // config fingerprint and the cache handoff applies.
  return std::make_shared<serve::Server>(config_.serve, std::move(backend));
}

void ServeDaemon::stop() {
  {
    std::lock_guard<std::mutex> lock(conn_mu_);
    if (stopped_) return;
    stopped_ = true;
  }
  stopping_.store(true);
  if (accept_thread_.joinable()) accept_thread_.join();
  std::vector<std::thread> connections;
  {
    std::lock_guard<std::mutex> lock(conn_mu_);
    connections.swap(connections_);
  }
  for (std::thread& thread : connections) thread.join();

  std::shared_ptr<serve::Server> server;
  {
    std::lock_guard<std::mutex> lock(swap_mu_);
    server = server_;
  }
  server->shutdown(true);

  if (!config_.snapshot_path.empty()) {
    CacheSnapshot snapshot;
    snapshot.config_fingerprint = server->config_fingerprint();
    snapshot.entries = server->export_result_cache();
    save_cache_snapshot(config_.snapshot_path, snapshot);
    obs::counter("net.daemon.snapshot.saved")
        .inc(static_cast<long long>(snapshot.entries.size()));
    log_info("daemon: saved ", snapshot.entries.size(),
             " cache entries to ", config_.snapshot_path);
  }
}

void ServeDaemon::accept_loop() {
  while (!stopping_.load()) {
    Socket sock = listener_.accept(stopping_);
    if (!sock.valid()) break;
    sock.set_timeout(kFrameTimeout);
    const std::string peer = peer_of(sock.fd());
    std::lock_guard<std::mutex> lock(conn_mu_);
    if (stopping_.load()) break;  // raced with stop(); drop the connection
    connections_.emplace_back(
        [this, s = std::move(sock), peer]() mutable {
          handle_connection(std::move(s), peer);
        });
  }
}

void ServeDaemon::handle_connection(Socket sock, const std::string& peer) {
  obs::counter("net.daemon.connections").inc();
  while (!stopping_.load()) {
    pollfd pfd{};
    pfd.fd = sock.fd();
    pfd.events = POLLIN;
    const int ready = ::poll(&pfd, 1, kPollMillis);
    if (ready <= 0) continue;  // stop-flag poll tick
    if (!handle_frame(sock.fd(), peer)) break;
  }
}

bool ServeDaemon::handle_frame(int fd, const std::string& peer) {
  std::optional<Frame> frame;
  try {
    frame = read_frame(fd, peer);
    if (!frame) return false;  // orderly close
    switch (frame->type) {
      case MessageType::kSubmitRequest:
        handle_submit(fd, peer, frame->payload);
        return true;
      case MessageType::kPing:
        write_frame(fd, MessageType::kPong, {}, peer);
        return true;
      case MessageType::kStats:
        handle_stats(fd, peer);
        return true;
      case MessageType::kSwapWeights:
        handle_swap(fd, peer, frame->payload);
        return true;
      default:
        send_error(fd, peer, FlowStage::kNet,
                   std::string("unexpected ") +
                       message_type_name(frame->type) +
                       " frame on a worker connection");
        return true;
    }
  } catch (const FlowException& e) {
    if (e.stage() == FlowStage::kNet) {
      // Transport fault: the stream framing is unsynchronized; drop the
      // connection (the client's retry resubmits — requests are
      // idempotent, so nothing is lost).
      log_warn("daemon: dropping ", peer, ": ", e.what());
      return false;
    }
    send_error(fd, peer, e.stage(), e.what());
    return true;
  } catch (const std::exception& e) {
    send_error(fd, peer, FlowStage::kUnknown, e.what());
    return true;
  }
}

void ServeDaemon::handle_submit(int fd, const std::string& peer,
                                const std::vector<std::uint8_t>& payload) {
  WireReader r(payload, peer);
  serve::ServeRequest request = read_request(r);
  r.expect_end();
  obs::counter("net.daemon.requests").inc();

  std::shared_ptr<serve::Server> server = this->server();
  serve::RequestTicket ticket = server->submit(std::move(request));
  serve::ServeResponse response = ticket.response.get();
  if (response.status == serve::ServeStatus::kRejected &&
      this->server() != server) {
    // The submit raced a blue/green swap into a draining server; one
    // retry lands it on the replacement.
    WireReader replay_reader(payload, peer);
    serve::ServeRequest replay = read_request(replay_reader);
    ticket = this->server()->submit(std::move(replay));
    response = ticket.response.get();
  }

  WireWriter w;
  write_response(w, response);
  write_frame(fd, MessageType::kSubmitResponse, w.bytes(), peer);
}

void ServeDaemon::handle_stats(int fd, const std::string& peer) {
  std::shared_ptr<serve::Server> server = this->server();
  WorkerStats stats;
  stats.config_fingerprint = server->config_fingerprint();
  stats.weights_version = weights_version_.load();
  stats.predictor = server->predictor_name();
  for (int i = 0; i < serve::kServeStatusCount; ++i)
    stats.status_counts[i] =
        server->status_count(static_cast<serve::ServeStatus>(i));
  stats.cache_hits = server->result_cache_hits();
  stats.cache_misses = server->result_cache_misses();
  stats.cache_entries = server->result_cache_entries();
  stats.queue_depth = server->queue_depth();

  WireWriter w;
  write_stats(w, stats);
  write_frame(fd, MessageType::kStatsResponse, w.bytes(), peer);
}

std::uint64_t ServeDaemon::swap_weights(
    std::uint64_t requested_version, const std::vector<std::uint8_t>& blob,
    const std::vector<std::uint8_t>& warm_blob) {
  std::shared_ptr<serve::Server> old_server;
  std::uint64_t version;
  {
    // Swap critical section: building a Server is seconds of kernel setup,
    // and holding swap_mu_ for it parks concurrent server() readers — an
    // accepted cost; swaps are rare operator actions, not hot path.
    std::lock_guard<std::mutex> lock(swap_mu_);
    if (!blob.empty()) {
      weights_blob_ = blob;
      version = requested_version != 0 ? requested_version
                                       : weights_version_.load() + 1;
    } else {
      version = weights_version_.load();  // rolling restart, same weights
    }
    if (!warm_blob.empty()) {
      // Fresh warm-start model from the pushed weights. Its version is the
      // weight fingerprint, which serve::config_fingerprint folds in — so
      // even a warm-only push (empty predictor blob) changes the
      // fingerprint, skips the cache handoff below, and retires every
      // cached result the old MaskNet contributed to. Before this path
      // existed a weight push left workers serving with the boot-time
      // MaskNet forever.
      auto warm = std::make_shared<warmstart::MaskWarmStart>(config_.warm_net);
      nn::decode_parameters(warm->net().parameters(), warm_blob,
                            "warm-start weights");
      warm->refresh_version();
      config_.serve.warm_start = std::move(warm);
      config_.serve.engine.flow.warm_start.enabled = true;
    }
    std::shared_ptr<serve::Server> fresh = build_server(version);
    if (fresh->config_fingerprint() == server_->config_fingerprint()) {
      const std::size_t moved =
          fresh->import_result_cache(server_->export_result_cache());
      obs::counter("net.daemon.swap.cache_handoff")
          .inc(static_cast<long long>(moved));
    }
    old_server = server_;
    server_ = std::move(fresh);
    weights_version_.store(version);
  }
  // Drain outside the lock: in-flight requests finish on the old server
  // while new submits already land on the replacement.
  old_server->shutdown(true);
  obs::counter("net.daemon.swaps").inc();
  log_info("daemon: weights swapped to version ", version, " (predictor ",
           this->server()->predictor_name(), ")");
  return version;
}

void ServeDaemon::handle_swap(int fd, const std::string& peer,
                              const std::vector<std::uint8_t>& payload) {
  WireReader r(payload, peer);
  const std::uint64_t requested_version = r.u64();
  const std::vector<std::uint8_t> blob = r.blob();
  // The warm-start section is optional: its absence is byte-identical to
  // the pre-warm payload format, so old clients keep working.
  std::vector<std::uint8_t> warm_blob;
  if (r.remaining() > 0) warm_blob = r.blob();
  r.expect_end();

  const std::uint64_t version =
      swap_weights(requested_version, blob, warm_blob);

  WireWriter w;
  w.u64(version);
  write_frame(fd, MessageType::kSwapAck, w.bytes(), peer);
}

}  // namespace ldmo::net
