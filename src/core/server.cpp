#include "core/server.h"

#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <tuple>

#include "core/durable.h"
#include "core/observe.h"

namespace acbm::core::serve {

namespace {

using Clock = std::chrono::steady_clock;

/// Requests a worker drains from the queue per tick; identical predict
/// requests within one tick share a single forecast.
constexpr std::size_t kMaxBatch = 64;

template <typename T>
void put_scalar(std::string& out, T value) {
  static_assert(std::is_trivially_copyable_v<T>);
  char bytes[sizeof(T)];
  std::memcpy(bytes, &value, sizeof(T));
  out.append(bytes, sizeof(T));
}

/// Little-endian scalar reader with bounds checking; `off` advances.
template <typename T>
[[nodiscard]] bool get_scalar(std::string_view data, std::size_t& off,
                              T& out) {
  if (data.size() - off < sizeof(T)) return false;
  std::memcpy(&out, data.data() + off, sizeof(T));
  off += sizeof(T);
  return true;
}

struct ParsedRequest {
  Opcode opcode = Opcode::kPing;
  Precision precision = Precision::kF64;
  std::string model;
  std::string payload;
};

[[nodiscard]] bool parse_request_body(std::string_view body,
                                      ParsedRequest& out) {
  std::size_t off = 0;
  std::uint32_t magic = 0;
  std::uint8_t opcode = 0;
  std::uint8_t precision = 0;
  std::uint16_t name_len = 0;
  if (!get_scalar(body, off, magic) || magic != kRequestMagic) return false;
  if (!get_scalar(body, off, opcode) ||
      opcode > static_cast<std::uint8_t>(Opcode::kStats)) {
    return false;
  }
  if (!get_scalar(body, off, precision) || precision > 1) return false;
  if (!get_scalar(body, off, name_len)) return false;
  if (body.size() - off < name_len) return false;
  out.opcode = static_cast<Opcode>(opcode);
  out.precision = precision == 1 ? Precision::kF32 : Precision::kF64;
  out.model.assign(body.data() + off, name_len);
  off += name_len;
  out.payload.assign(body.data() + off, body.size() - off);
  return true;
}

[[nodiscard]] std::string frame(std::string body) {
  std::string out;
  out.reserve(4 + body.size());
  put_scalar(out, static_cast<std::uint32_t>(body.size()));
  out += body;
  return out;
}

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

struct FileSig {
  std::int64_t mtime_ns = -1;
  std::uint64_t size = 0;
  std::uint64_t ino = 0;
  bool operator==(const FileSig&) const = default;
};

[[nodiscard]] std::optional<FileSig> stat_sig(
    const std::filesystem::path& path) {
  struct stat st{};
  if (::stat(path.c_str(), &st) != 0) return std::nullopt;
  FileSig sig;
  sig.mtime_ns = static_cast<std::int64_t>(st.st_mtim.tv_sec) * 1000000000 +
                 st.st_mtim.tv_nsec;
  sig.size = static_cast<std::uint64_t>(st.st_size);
  sig.ino = static_cast<std::uint64_t>(st.st_ino);
  return sig;
}

}  // namespace

std::string_view status_name(Status status) noexcept {
  switch (status) {
    case Status::kOk: return "ok";
    case Status::kNoPrediction: return "no-prediction";
    case Status::kUnknownModel: return "unknown-model";
    case Status::kBadRequest: return "bad-request";
    case Status::kTooLarge: return "too-large";
    case Status::kInternal: return "internal";
  }
  return "unknown";
}

std::string encode_request(Opcode opcode, Precision precision,
                           std::string_view model, std::string_view payload) {
  std::string body;
  body.reserve(10 + model.size() + payload.size());
  put_scalar(body, kRequestMagic);
  put_scalar(body, static_cast<std::uint8_t>(opcode));
  put_scalar(body,
             static_cast<std::uint8_t>(precision == Precision::kF32 ? 1 : 0));
  put_scalar(body, static_cast<std::uint16_t>(model.size()));
  body += model;
  body += payload;
  return frame(std::move(body));
}

std::string encode_response(Status status, Opcode opcode,
                            std::string_view payload) {
  std::string body;
  body.reserve(8 + payload.size());
  put_scalar(body, kResponseMagic);
  put_scalar(body, static_cast<std::uint8_t>(status));
  put_scalar(body, static_cast<std::uint8_t>(opcode));
  put_scalar(body, static_cast<std::uint16_t>(0));
  body += payload;
  return frame(std::move(body));
}

std::string encode_prediction(const AttackPrediction& pred,
                              std::string_view family_name) {
  std::string out;
  put_scalar(out, pred.magnitude);
  put_scalar(out, pred.magnitude_sd);
  put_scalar(out, pred.duration_s);
  put_scalar(out, pred.hour);
  put_scalar(out, pred.day);
  put_scalar(out, static_cast<std::int64_t>(pred.start));
  put_scalar(out, pred.assumed_family);
  put_scalar(out, static_cast<std::uint16_t>(family_name.size()));
  out += family_name;
  std::vector<std::pair<net::Asn, double>> sources(
      pred.source_distribution.begin(), pred.source_distribution.end());
  std::sort(sources.begin(), sources.end());
  put_scalar(out, static_cast<std::uint32_t>(sources.size()));
  for (const auto& [asn, share] : sources) {
    put_scalar(out, asn);
    put_scalar(out, share);
  }
  return out;
}

PredictResult decode_prediction(std::string_view payload) {
  PredictResult result;
  std::size_t off = 0;
  std::int64_t start = 0;
  std::uint16_t name_len = 0;
  std::uint32_t n_sources = 0;
  AttackPrediction& p = result.prediction;
  if (!get_scalar(payload, off, p.magnitude) ||
      !get_scalar(payload, off, p.magnitude_sd) ||
      !get_scalar(payload, off, p.duration_s) ||
      !get_scalar(payload, off, p.hour) || !get_scalar(payload, off, p.day) ||
      !get_scalar(payload, off, start) ||
      !get_scalar(payload, off, p.assumed_family) ||
      !get_scalar(payload, off, name_len) ||
      payload.size() - off < name_len) {
    throw std::invalid_argument("decode_prediction: truncated payload");
  }
  p.start = static_cast<trace::EpochSeconds>(start);
  result.family_name.assign(payload.data() + off, name_len);
  off += name_len;
  if (!get_scalar(payload, off, n_sources) ||
      payload.size() - off != static_cast<std::size_t>(n_sources) * 12) {
    throw std::invalid_argument("decode_prediction: bad source table");
  }
  result.sources.reserve(n_sources);
  for (std::uint32_t i = 0; i < n_sources; ++i) {
    net::Asn asn = 0;
    double share = 0.0;
    (void)get_scalar(payload, off, asn);
    (void)get_scalar(payload, off, share);
    result.sources.emplace_back(asn, share);
    p.source_distribution[asn] = share;
  }
  return result;
}

// --- Server -----------------------------------------------------------------

struct Server::Impl {
  explicit Impl(ServerOptions o) : opts(std::move(o)) {}

  ServerOptions opts;

  struct PendingRequest {
    int fd = -1;
    std::uint64_t conn_gen = 0;
    ParsedRequest req;
    Clock::time_point t0;
  };

  struct ModelEntry {
    std::filesystem::path path;
    std::shared_ptr<const ServingModel> model;  ///< Null when not resident.
    std::uint64_t generation = 0;
    FileSig sig;             ///< Stat signature of the loaded artifact.
    std::uint64_t last_used = 0;
  };

  struct Conn {
    int fd = -1;
    std::uint64_t gen = 0;
    std::string rbuf;
    std::deque<std::string> wq;
    std::size_t woff = 0;
    Clock::time_point last_activity;
    bool close_after_flush = false;
  };

  // Registry (workers + watcher).
  mutable std::mutex reg_mu;
  std::unordered_map<std::string, ModelEntry> registry;
  std::uint64_t lru_tick = 0;

  // Request queue (IO thread -> workers).
  std::mutex q_mu;
  std::condition_variable q_cv;
  std::deque<PendingRequest> queue;
  bool stopping = false;

  // Response queue (workers -> IO thread).
  std::mutex resp_mu;
  std::vector<std::tuple<int, std::uint64_t, std::string>> responses;

  int wake_pipe[2] = {-1, -1};
  int listen_unix = -1;
  int listen_tcp = -1;
  std::filesystem::path socket_path;

  std::thread io_thread;
  std::vector<std::thread> workers;
  std::thread watcher;
  std::mutex watch_mu;
  std::condition_variable watch_cv;

  std::atomic<std::uint64_t> requests{0}, batches{0}, coalesced{0}, errors{0},
      lru_hits{0}, lru_misses{0}, lru_evictions{0}, swaps{0};
  std::uint64_t conn_gen_counter = 0;  ///< IO thread only.

  void wake() {
    const char byte = 'w';
    [[maybe_unused]] ssize_t rc = ::write(wake_pipe[1], &byte, 1);
  }

  void post_response(int fd, std::uint64_t conn_gen, std::string frame) {
    {
      std::lock_guard lock(resp_mu);
      responses.emplace_back(fd, conn_gen, std::move(frame));
    }
    wake();
  }

  /// Loads `entry`'s artifact from disk and returns the model, or null on
  /// a load failure (corrupt / mid-swap artifact; the caller retries
  /// later). Called with reg_mu HELD for demand loads (cold-start path,
  /// contention acceptable) and WITHOUT it from the watcher.
  static std::shared_ptr<const ServingModel> load_model(
      const std::filesystem::path& path) {
    try {
      return std::make_shared<const ServingModel>(
          ServingModel::load_any(path));
    } catch (const durable::LoadFailure&) {
      return nullptr;
    } catch (const std::exception&) {
      return nullptr;
    }
  }

  void evict_lru_locked(const std::string& keep) {
    std::size_t resident = 0;
    for (const auto& [name, entry] : registry) {
      if (entry.model != nullptr) ++resident;
    }
    while (resident > opts.max_resident) {
      std::string victim;
      std::uint64_t oldest = ~0ull;
      for (const auto& [name, entry] : registry) {
        if (entry.model == nullptr || name == keep) continue;
        if (entry.last_used < oldest) {
          oldest = entry.last_used;
          victim = name;
        }
      }
      if (victim.empty()) break;
      registry[victim].model.reset();
      --resident;
      lru_evictions.fetch_add(1, std::memory_order_relaxed);
      ACBM_COUNT("serve.lru.evict", 1);
    }
  }

  /// Registry lookup with demand-load + LRU bookkeeping. Returns a
  /// snapshot the caller owns across the forecast (hot swaps and evictions
  /// never invalidate it).
  [[nodiscard]] std::pair<Status, std::shared_ptr<const ServingModel>>
  resolve(const std::string& name) {
    std::lock_guard lock(reg_mu);
    const auto it = registry.find(name);
    if (it == registry.end()) return {Status::kUnknownModel, nullptr};
    ModelEntry& entry = it->second;
    if (entry.model != nullptr) {
      lru_hits.fetch_add(1, std::memory_order_relaxed);
      ACBM_COUNT("serve.lru.hit", 1);
    } else {
      lru_misses.fetch_add(1, std::memory_order_relaxed);
      ACBM_COUNT("serve.lru.miss", 1);
      const auto sig = stat_sig(entry.path);
      entry.model = load_model(entry.path);
      if (entry.model == nullptr) return {Status::kInternal, nullptr};
      entry.sig = sig.value_or(FileSig{});
      ++entry.generation;
      evict_lru_locked(name);
    }
    entry.last_used = ++lru_tick;
    return {Status::kOk, entry.model};
  }

  [[nodiscard]] std::string handle_predict(const ParsedRequest& req) {
    if (req.payload.size() != 4) {
      errors.fetch_add(1, std::memory_order_relaxed);
      return encode_response(Status::kBadRequest, req.opcode,
                             "predict payload must be a u32 asn");
    }
    std::uint32_t asn = 0;
    std::memcpy(&asn, req.payload.data(), 4);
    auto [status, model] = resolve(req.model);
    if (status != Status::kOk) {
      errors.fetch_add(1, std::memory_order_relaxed);
      return encode_response(status, req.opcode, "");
    }
    try {
      const std::optional<AttackPrediction> pred =
          model->predict(asn, req.precision);
      if (!pred) {
        errors.fetch_add(1, std::memory_order_relaxed);
        return encode_response(Status::kNoPrediction, req.opcode, "");
      }
      return encode_response(
          Status::kOk, req.opcode,
          encode_prediction(*pred, model->family_name(pred->assumed_family)));
    } catch (const std::exception& e) {
      errors.fetch_add(1, std::memory_order_relaxed);
      return encode_response(Status::kInternal, req.opcode, e.what());
    }
  }

  [[nodiscard]] std::string handle_list() {
    std::string payload;
    std::lock_guard lock(reg_mu);
    put_scalar(payload, static_cast<std::uint32_t>(registry.size()));
    for (const auto& [name, entry] : registry) {
      put_scalar(payload, static_cast<std::uint16_t>(name.size()));
      payload += name;
      put_scalar(payload, entry.generation);
      put_scalar(payload,
                 static_cast<std::uint8_t>(entry.model != nullptr ? 1 : 0));
    }
    return encode_response(Status::kOk, Opcode::kList, payload);
  }

  [[nodiscard]] std::string handle_stats() {
    const ServerStats s = snapshot_stats();
    std::string text;
    text += "requests=" + std::to_string(s.requests) + "\n";
    text += "batches=" + std::to_string(s.batches) + "\n";
    text += "coalesced=" + std::to_string(s.coalesced) + "\n";
    text += "errors=" + std::to_string(s.errors) + "\n";
    text += "lru_hits=" + std::to_string(s.lru_hits) + "\n";
    text += "lru_misses=" + std::to_string(s.lru_misses) + "\n";
    text += "lru_evictions=" + std::to_string(s.lru_evictions) + "\n";
    text += "swaps=" + std::to_string(s.swaps) + "\n";
    return encode_response(Status::kOk, Opcode::kStats, text);
  }

  [[nodiscard]] ServerStats snapshot_stats() const {
    ServerStats s;
    s.requests = requests.load(std::memory_order_relaxed);
    s.batches = batches.load(std::memory_order_relaxed);
    s.coalesced = coalesced.load(std::memory_order_relaxed);
    s.errors = errors.load(std::memory_order_relaxed);
    s.lru_hits = lru_hits.load(std::memory_order_relaxed);
    s.lru_misses = lru_misses.load(std::memory_order_relaxed);
    s.lru_evictions = lru_evictions.load(std::memory_order_relaxed);
    s.swaps = swaps.load(std::memory_order_relaxed);
    return s;
  }

  void worker_loop() {
    std::vector<PendingRequest> batch;
    while (true) {
      batch.clear();
      {
        std::unique_lock lock(q_mu);
        q_cv.wait(lock, [&] { return stopping || !queue.empty(); });
        if (stopping && queue.empty()) return;
        const std::size_t take = std::min(kMaxBatch, queue.size());
        for (std::size_t i = 0; i < take; ++i) {
          batch.push_back(std::move(queue.front()));
          queue.pop_front();
        }
      }
      batches.fetch_add(1, std::memory_order_relaxed);
      ACBM_HISTOGRAM("serve.batch.size", static_cast<double>(batch.size()));

      // Coalesce identical predict requests within the tick: one forecast,
      // one encoded frame, fanned out to every requester.
      std::unordered_map<std::string, std::string> shared_frames;
      for (const PendingRequest& pr : batch) {
        requests.fetch_add(1, std::memory_order_relaxed);
        ACBM_COUNT("serve.requests", 1);
        std::string response_frame;
        switch (pr.req.opcode) {
          case Opcode::kPing:
            response_frame = encode_response(Status::kOk, Opcode::kPing, "");
            break;
          case Opcode::kPredict: {
            std::string key = pr.req.model;
            key += '\0';
            key += pr.req.payload;
            key += pr.req.precision == Precision::kF32 ? '1' : '0';
            const auto it = shared_frames.find(key);
            if (it != shared_frames.end()) {
              coalesced.fetch_add(1, std::memory_order_relaxed);
              response_frame = it->second;
            } else {
              response_frame = handle_predict(pr.req);
              shared_frames.emplace(std::move(key), response_frame);
            }
            break;
          }
          case Opcode::kList:
            response_frame = handle_list();
            break;
          case Opcode::kStats:
            response_frame = handle_stats();
            break;
        }
        const double ms =
            std::chrono::duration<double, std::milli>(Clock::now() - pr.t0)
                .count();
        ACBM_HISTOGRAM("serve.latency_ms", ms);
        post_response(pr.fd, pr.conn_gen, std::move(response_frame));
      }
    }
  }

  void watcher_loop() {
    while (true) {
      {
        std::unique_lock lock(watch_mu);
        const bool stopped = watch_cv.wait_for(
            lock, std::chrono::milliseconds(opts.watch_interval_ms),
            [&] { return stop_requested.load(); });
        if (stopped) return;
      }
      std::vector<std::string> names;
      {
        std::lock_guard lock(reg_mu);
        names.reserve(registry.size());
        for (const auto& [name, entry] : registry) {
          if (entry.model != nullptr) names.push_back(name);
        }
      }
      for (const std::string& name : names) {
        std::filesystem::path path;
        FileSig loaded_sig;
        {
          std::lock_guard lock(reg_mu);
          const auto it = registry.find(name);
          if (it == registry.end() || it->second.model == nullptr) continue;
          path = it->second.path;
          loaded_sig = it->second.sig;
        }
        const auto sig = stat_sig(path);
        if (!sig || *sig == loaded_sig) continue;
        // Artifact rotated (ingest refit renames over it): load the new
        // generation OUTSIDE the registry lock, then swap atomically.
        // In-flight requests keep their shared_ptr snapshot. A failed load
        // (caught mid-rename or corrupt) is retried next tick.
        std::shared_ptr<const ServingModel> fresh = load_model(path);
        if (fresh == nullptr) continue;
        {
          std::lock_guard lock(reg_mu);
          const auto it = registry.find(name);
          if (it == registry.end()) continue;
          it->second.model = std::move(fresh);
          it->second.sig = *sig;
          ++it->second.generation;
        }
        swaps.fetch_add(1, std::memory_order_relaxed);
        ACBM_COUNT("serve.swap.generations", 1);
      }
    }
  }

  std::atomic<bool> stop_requested{false};

  // --- IO thread ------------------------------------------------------------

  std::unordered_map<int, Conn> conns;  ///< IO thread only.

  void close_conn(int fd) {
    ::close(fd);
    conns.erase(fd);
  }

  void queue_error_and_close(Conn& conn, Status status,
                             std::string_view detail) {
    conn.wq.push_back(encode_response(status, Opcode::kPing, detail));
    conn.close_after_flush = true;
    conn.rbuf.clear();
    errors.fetch_add(1, std::memory_order_relaxed);
  }

  /// Extracts complete frames from a connection's read buffer; returns
  /// false when the connection must stop reading (protocol error queued).
  bool drain_frames(Conn& conn) {
    while (conn.rbuf.size() >= 4) {
      std::uint32_t len = 0;
      std::memcpy(&len, conn.rbuf.data(), 4);
      if (len > kMaxBody) {
        queue_error_and_close(conn, Status::kTooLarge,
                              "request exceeds 1 MiB");
        return false;
      }
      if (conn.rbuf.size() - 4 < len) return true;  // Partial frame.
      ParsedRequest req;
      if (!parse_request_body({conn.rbuf.data() + 4, len}, req)) {
        queue_error_and_close(conn, Status::kBadRequest,
                              "malformed request body");
        return false;
      }
      conn.rbuf.erase(0, 4 + static_cast<std::size_t>(len));
      {
        std::lock_guard lock(q_mu);
        queue.push_back(PendingRequest{conn.fd, conn.gen, std::move(req),
                                       Clock::now()});
      }
      q_cv.notify_one();
    }
    return true;
  }

  void accept_all(int listen_fd) {
    while (true) {
      const int fd = ::accept(listen_fd, nullptr, nullptr);
      if (fd < 0) return;
      set_nonblocking(fd);
      Conn conn;
      conn.fd = fd;
      conn.gen = ++conn_gen_counter;
      conn.last_activity = Clock::now();
      conns.emplace(fd, std::move(conn));
    }
  }

  void flush_writes(Conn& conn, bool& closed) {
    closed = false;
    while (!conn.wq.empty()) {
      const std::string& buf = conn.wq.front();
      const ssize_t n = ::send(conn.fd, buf.data() + conn.woff,
                               buf.size() - conn.woff, MSG_NOSIGNAL);
      if (n < 0) {
        if (errno == EAGAIN || errno == EWOULDBLOCK) return;
        close_conn(conn.fd);  // EPIPE / ECONNRESET: client went away.
        closed = true;
        return;
      }
      conn.woff += static_cast<std::size_t>(n);
      conn.last_activity = Clock::now();
      if (conn.woff == buf.size()) {
        conn.wq.pop_front();
        conn.woff = 0;
      }
    }
    if (conn.close_after_flush) {
      close_conn(conn.fd);
      closed = true;
    }
  }

  /// Opens the wake pipe and the configured listeners; returns the bound
  /// TCP port (0 when TCP is disabled). Throws std::runtime_error on
  /// failure, leaving whatever it opened for release_fds().
  int open_listeners() {
    if (::pipe2(wake_pipe, O_NONBLOCK | O_CLOEXEC) != 0) {
      throw std::runtime_error("serve: pipe2 failed");
    }
    if (!opts.socket_path.empty()) {
      const std::string path_str = opts.socket_path.string();
      sockaddr_un addr{};
      if (path_str.size() >= sizeof(addr.sun_path)) {
        throw std::runtime_error("serve: socket path too long");
      }
      socket_path = opts.socket_path;  // Ours to unlink from here on.
      ::unlink(path_str.c_str());  // Stale socket from a killed daemon.
      listen_unix = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
      addr.sun_family = AF_UNIX;
      std::strncpy(addr.sun_path, path_str.c_str(), sizeof(addr.sun_path) - 1);
      if (listen_unix < 0 ||
          ::bind(listen_unix, reinterpret_cast<sockaddr*>(&addr),
                 sizeof(addr)) != 0 ||
          ::listen(listen_unix, 128) != 0) {
        throw std::runtime_error("serve: cannot bind unix socket " + path_str);
      }
      set_nonblocking(listen_unix);
    }
    if (opts.tcp_port == 0) return 0;
    listen_tcp = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    const int one = 1;
    ::setsockopt(listen_tcp, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(
        opts.tcp_port > 0 ? static_cast<std::uint16_t>(opts.tcp_port) : 0);
    if (listen_tcp < 0 ||
        ::bind(listen_tcp, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
            0 ||
        ::listen(listen_tcp, 128) != 0) {
      throw std::runtime_error("serve: cannot bind tcp port");
    }
    socklen_t len = sizeof(addr);
    ::getsockname(listen_tcp, reinterpret_cast<sockaddr*>(&addr), &len);
    set_nonblocking(listen_tcp);
    return ntohs(addr.sin_port);
  }

  /// Closes the listeners and the wake pipe and removes the bound socket
  /// file. Safe on a partially opened set (unopened fds are -1).
  void release_fds() {
    for (int* fd : {&listen_unix, &listen_tcp, &wake_pipe[0], &wake_pipe[1]}) {
      if (*fd >= 0) ::close(*fd);
      *fd = -1;
    }
    if (!socket_path.empty()) ::unlink(socket_path.c_str());
  }

  void io_loop() {
    std::vector<pollfd> pfds;
    char scratch[65536];
    while (!stop_requested.load()) {
      pfds.clear();
      pfds.push_back({wake_pipe[0], POLLIN, 0});
      if (listen_unix >= 0) pfds.push_back({listen_unix, POLLIN, 0});
      if (listen_tcp >= 0) pfds.push_back({listen_tcp, POLLIN, 0});
      const std::size_t fixed = pfds.size();
      for (const auto& [fd, conn] : conns) {
        short events = POLLIN;
        if (!conn.wq.empty()) events |= POLLOUT;
        pfds.push_back({fd, events, 0});
      }
      if (::poll(pfds.data(), pfds.size(), 50) < 0 && errno != EINTR) break;
      if (stop_requested.load()) break;

      if ((pfds[0].revents & POLLIN) != 0) {
        while (::read(wake_pipe[0], scratch, sizeof(scratch)) > 0) {
        }
        std::vector<std::tuple<int, std::uint64_t, std::string>> out;
        {
          std::lock_guard lock(resp_mu);
          out.swap(responses);
        }
        for (auto& [fd, gen, frame_bytes] : out) {
          const auto it = conns.find(fd);
          // A stale (fd, gen) means the connection died mid-request and
          // the fd was reused; drop the response.
          if (it == conns.end() || it->second.gen != gen) continue;
          it->second.wq.push_back(std::move(frame_bytes));
        }
      }
      std::size_t pi = 1;
      if (listen_unix >= 0) {
        if ((pfds[pi].revents & POLLIN) != 0) accept_all(listen_unix);
        ++pi;
      }
      if (listen_tcp >= 0) {
        if ((pfds[pi].revents & POLLIN) != 0) accept_all(listen_tcp);
        ++pi;
      }
      for (std::size_t i = fixed; i < pfds.size(); ++i) {
        const int fd = pfds[i].fd;
        const auto it = conns.find(fd);
        if (it == conns.end()) continue;
        Conn& conn = it->second;
        if ((pfds[i].revents & (POLLERR | POLLNVAL)) != 0) {
          close_conn(fd);
          continue;
        }
        if ((pfds[i].revents & POLLIN) != 0) {
          bool closed = false;
          while (true) {
            const ssize_t n = ::read(fd, scratch, sizeof(scratch));
            if (n > 0) {
              // After a protocol error the connection only drains its
              // error frame; discard further input instead of parsing it
              // (and re-queueing duplicate error frames).
              if (conn.close_after_flush) continue;
              conn.rbuf.append(scratch, static_cast<std::size_t>(n));
              conn.last_activity = Clock::now();
              if (!drain_frames(conn)) continue;
              continue;
            }
            if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
            if (n == 0 && !conn.rbuf.empty() && !conn.close_after_flush) {
              // EOF mid-frame (a half-closed client still reads): answer
              // the garbage prefix with a typed error before closing.
              queue_error_and_close(conn, Status::kBadRequest,
                                    "truncated request");
              break;
            }
            // Clean EOF or hard error with nothing pending.
            if (conn.wq.empty()) {
              close_conn(fd);
              closed = true;
            } else {
              conn.close_after_flush = true;
            }
            break;
          }
          if (closed) continue;
        }
        bool closed = false;
        if (!conn.wq.empty()) flush_writes(conn, closed);
        if (closed) continue;
        // Slow-loris timeout: a partial frame or blocked write that makes
        // no progress. Fully idle connections stay open.
        const auto idle_for = std::chrono::duration_cast<
            std::chrono::milliseconds>(Clock::now() - conn.last_activity);
        const bool mid_io = !conn.rbuf.empty() || !conn.wq.empty();
        if (mid_io && opts.io_timeout_ms > 0 &&
            idle_for.count() >= 0 &&
            static_cast<std::size_t>(idle_for.count()) >= opts.io_timeout_ms) {
          close_conn(fd);
        }
      }
    }
    for (auto& [fd, conn] : conns) ::close(fd);
    conns.clear();
  }
};

Server::Server(ServerOptions opts)
    : impl_(std::make_unique<Impl>(std::move(opts))) {}

Server::~Server() { stop(); }

const std::filesystem::path& Server::socket_path() const noexcept {
  return impl_->socket_path;
}

void Server::start() {
  if (running_.load()) return;
  Impl& s = *impl_;
  if (s.opts.socket_path.empty() && s.opts.tcp_port == 0) {
    throw std::runtime_error("serve: no listener configured");
  }
  try {
    bound_port_ = s.open_listeners();
  } catch (...) {
    s.release_fds();
    throw;
  }

  for (const auto& [name, path] : s.opts.models) {
    Impl::ModelEntry entry;
    entry.path = path;
    s.registry.emplace(name, std::move(entry));
  }
  if (s.opts.preload) {
    for (const auto& [name, path] : s.opts.models) (void)s.resolve(name);
  }

  s.stop_requested.store(false);
  s.stopping = false;
  s.io_thread = std::thread([&s] { s.io_loop(); });
  const std::size_t n_workers = std::max<std::size_t>(1, s.opts.threads);
  s.workers.reserve(n_workers);
  for (std::size_t i = 0; i < n_workers; ++i) {
    s.workers.emplace_back([&s] { s.worker_loop(); });
  }
  if (s.opts.watch_interval_ms > 0) {
    s.watcher = std::thread([&s] { s.watcher_loop(); });
  }
  running_.store(true);
}

void Server::stop() {
  if (!running_.load()) return;
  Impl& s = *impl_;
  s.stop_requested.store(true);
  {
    std::lock_guard lock(s.q_mu);
    s.stopping = true;
  }
  s.q_cv.notify_all();
  s.watch_cv.notify_all();
  s.wake();
  for (std::thread& t : s.workers) t.join();
  s.workers.clear();
  if (s.io_thread.joinable()) s.io_thread.join();
  if (s.watcher.joinable()) s.watcher.join();
  s.release_fds();
  running_.store(false);
}

ServerStats Server::stats() const { return impl_->snapshot_stats(); }

std::uint64_t Server::generation(std::string_view model) const {
  std::lock_guard lock(impl_->reg_mu);
  const auto it = impl_->registry.find(std::string(model));
  return it == impl_->registry.end() ? 0 : it->second.generation;
}

bool Server::wait_for_generation(std::string_view model, std::uint64_t gen,
                                 std::size_t timeout_ms) const {
  const auto deadline =
      Clock::now() + std::chrono::milliseconds(timeout_ms);
  while (Clock::now() < deadline) {
    if (generation(model) >= gen) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return generation(model) >= gen;
}

// --- Client -----------------------------------------------------------------

namespace {

void send_all(int fd, std::string_view bytes) {
  std::size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t n =
        ::send(fd, bytes.data() + off, bytes.size() - off, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw std::runtime_error("client: send failed");
    }
    off += static_cast<std::size_t>(n);
  }
}

[[nodiscard]] bool recv_exact(int fd, char* dst, std::size_t len) {
  std::size_t off = 0;
  while (off < len) {
    const ssize_t n = ::recv(fd, dst + off, len - off, 0);
    if (n == 0) return false;
    if (n < 0) {
      if (errno == EINTR) continue;
      throw std::runtime_error("client: recv failed");
    }
    off += static_cast<std::size_t>(n);
  }
  return true;
}

}  // namespace

Client Client::connect_unix(const std::filesystem::path& path) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  const std::string path_str = path.string();
  if (fd < 0 || path_str.size() >= sizeof(addr.sun_path)) {
    throw std::runtime_error("client: bad unix socket path");
  }
  std::strncpy(addr.sun_path, path_str.c_str(), sizeof(addr.sun_path) - 1);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    throw std::runtime_error("client: cannot connect to " + path_str);
  }
  return Client(fd);
}

Client Client::connect_tcp(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (fd < 0 ||
      ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    if (fd >= 0) ::close(fd);
    throw std::runtime_error("client: cannot connect to 127.0.0.1:" +
                             std::to_string(port));
  }
  return Client(fd);
}

Client::Client(Client&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }

Client& Client::operator=(Client&& other) noexcept {
  if (this != &other) {
    if (fd_ >= 0) ::close(fd_);
    fd_ = other.fd_;
    other.fd_ = -1;
  }
  return *this;
}

Client::~Client() {
  if (fd_ >= 0) ::close(fd_);
}

void Client::send_raw(std::string_view bytes) { send_all(fd_, bytes); }

Client::Response Client::read_response() {
  char header[4];
  if (!recv_exact(fd_, header, 4)) {
    throw std::runtime_error("client: connection closed");
  }
  std::uint32_t len = 0;
  std::memcpy(&len, header, 4);
  if (len < 8 || len > kMaxBody) {
    throw std::runtime_error("client: bad response length");
  }
  std::string body(len, '\0');
  if (!recv_exact(fd_, body.data(), len)) {
    throw std::runtime_error("client: truncated response");
  }
  std::uint32_t magic = 0;
  std::memcpy(&magic, body.data(), 4);
  if (magic != kResponseMagic) {
    throw std::runtime_error("client: bad response magic");
  }
  Response resp;
  resp.status = static_cast<Status>(static_cast<std::uint8_t>(body[4]));
  resp.opcode = static_cast<Opcode>(static_cast<std::uint8_t>(body[5]));
  resp.payload = body.substr(8);
  return resp;
}

Client::Response Client::request(Opcode opcode, Precision precision,
                                 std::string_view model,
                                 std::string_view payload) {
  send_raw(encode_request(opcode, precision, model, payload));
  return read_response();
}

std::pair<Status, std::optional<PredictResult>> Client::predict(
    std::string_view model, net::Asn asn, Precision precision) {
  std::string payload;
  put_scalar(payload, asn);
  const Response resp = request(Opcode::kPredict, precision, model, payload);
  if (resp.status != Status::kOk) return {resp.status, std::nullopt};
  return {resp.status, decode_prediction(resp.payload)};
}

Client::Response Client::ping() {
  return request(Opcode::kPing, Precision::kF64, "", "");
}

std::string Client::drain() {
  std::string out;
  char buf[4096];
  while (true) {
    const ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
    if (n <= 0) return out;
    out.append(buf, static_cast<std::size_t>(n));
  }
}

}  // namespace acbm::core::serve
