// serve: connectit_server in its own process over a Unix socket at
// n = 2^16, where the labels (256 KiB) fit in one core's L2. The graph (an
// RMAT graph, m = 8n) is preloaded over the wire. One load-generator
// process sends open-loop reads (90% SameComponent, 5% Component, 4%
// ComponentSizes, 1% NumComponents; keys from the seed) at a ladder of
// fixed rates, while one paced writer connection sends InsertBatch and
// then erases a quarter of each batch with EraseBatch. The transport and
// the dynamic forest do their work here and nowhere else.
//
// Budget: the load generator runs two threads (reader, writer; its own
// worker pool is shrunk to the calling thread) over two connections, four
// in total, at most nproc on the four-core machines the benchmark is sized
// for. The server's worker and pool counts are fixed.

#include <fcntl.h>
#include <pthread.h>
#include <sched.h>
#include <signal.h>
#include <spawn.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstring>
#include <thread>
#include <unordered_set>

#include "perfbench/common.h"
#include "src/algo/verify.h"
#include "src/core/connectivity_index.h"
#include "src/graph/generators.h"
#include "src/parallel/random.h"
#include "src/parallel/thread_pool.h"
#include "src/serve/client.h"
#include "src/serve/protocol.h"

extern char** environ;

namespace perfbench {

using connectit::Edge;
using connectit::NodeId;
namespace serve = connectit::serve;

namespace {

constexpr size_t kServerWorkers = 1;
constexpr size_t kServerPoolThreads = 2;
constexpr size_t kLoadgenThreads = 2;
constexpr size_t kLoadgenConnections = 2;
constexpr size_t kPreloadChunk = 16384;
constexpr size_t kWriteEdges = 256;
constexpr size_t kWriteQueries = 32;
constexpr size_t kEraseEdges = kWriteEdges / 4;
constexpr size_t kEraseQueries = 16;
constexpr double kWriterBatchesPerSecond = 10;
// read_rate_at_slo: the highest ladder rate whose read tail stays at or
// under this limit with no backlog growth.
constexpr double kReadSloUs = 5000;
// The read ladder (requests/s); the middle rung is the nominal rate.
constexpr double kLadder[] = {2500, 5000, 10000, 20000, 40000};
constexpr size_t kNominalRung = 2;

// ---- the server process ----

class ServerProcess {
 public:
  ServerProcess() = default;
  ~ServerProcess() { Stop(); }
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  bool Start(const std::string& binary, const std::string& socket_path,
             NodeId nodes, std::string* error) {
    socket_path_ = socket_path;
    std::vector<std::string> argv_s = {
        binary, "--unix=" + socket_path, "--nodes=" + std::to_string(nodes),
        "--workers=" + std::to_string(kServerWorkers), "--queue-capacity=128"};
    std::vector<std::string> env_s = {"CONNECTIT_THREADS=" +
                                      std::to_string(kServerPoolThreads)};
    for (char** e = environ; *e != nullptr; ++e) {
      if (std::strncmp(*e, "CONNECTIT_THREADS=", 18) != 0) env_s.push_back(*e);
    }
    std::vector<char*> argv, envp;
    for (std::string& s : argv_s) argv.push_back(s.data());
    for (std::string& s : env_s) envp.push_back(s.data());
    argv.push_back(nullptr);
    envp.push_back(nullptr);
    // The server's own log lines go to stderr: stdout carries the result.
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_adddup2(&actions, STDERR_FILENO, STDOUT_FILENO);
    const int rc = posix_spawn(&pid_, binary.c_str(), &actions, nullptr,
                               argv.data(), envp.data());
    posix_spawn_file_actions_destroy(&actions);
    if (rc != 0) {
      pid_ = -1;
      *error = "cannot spawn " + binary + ": " + std::strerror(rc);
      return false;
    }
    return true;
  }

  // SIGTERM, then wait (SIGKILL after 10 s), then remove the socket
  // file. Returns the exit status.
  int Stop() {
    if (pid_ <= 0) return 0;
    kill(pid_, SIGTERM);
    int status = 0;
    bool exited = false;
    for (int i = 0; i < 1000 && !exited; ++i) {
      exited = waitpid(pid_, &status, WNOHANG) == pid_;
      if (!exited) usleep(10000);
    }
    if (!exited) {
      kill(pid_, SIGKILL);
      waitpid(pid_, &status, 0);
    }
    pid_ = -1;
    unlink(socket_path_.c_str());
    return status;
  }

  pid_t pid() const { return pid_; }

 private:
  pid_t pid_ = -1;
  std::string socket_path_;
};

// Where the calling thread may run. The busy-polling reader owns cpu 0;
// the server (which inherits the mask it was spawned under) and the writer
// share the rest; the in-process extras of the traced run use them all.
enum class Cpus { kReader, kRest, kAll };

void PinCurrentThread(Cpus cpus) {
  const unsigned nproc = std::thread::hardware_concurrency();
  if (nproc < 2) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  for (unsigned c = 0; c < nproc; ++c) {
    if (cpus == Cpus::kAll || (cpus == Cpus::kReader) == (c == 0)) {
      CPU_SET(c, &set);
    }
  }
  pthread_setaffinity_np(pthread_self(), sizeof(set), &set);
}

// ---- operation accounting ----

struct OpCounts {
  uint64_t attempted = 0;
  uint64_t succeeded = 0;
  uint64_t failed = 0;
  uint64_t timed_out = 0;
  uint64_t refused = 0;

  void Print(Report& report, const char* op) const {
    report.Note(std::string("ops ") + op +
                ": attempted=" + std::to_string(attempted) +
                " succeeded=" + std::to_string(succeeded) +
                " failed=" + std::to_string(failed) +
                " timed_out=" + std::to_string(timed_out) +
                " refused=" + std::to_string(refused));
  }
};

bool Refusal(serve::Status status) {
  return status == serve::Status::kBackpressure ||
         status == serve::Status::kShuttingDown;
}

// ---- the open-loop reader: one raw pipelined connection ----

// One rate of the ladder, possibly run as several slices.
struct RungResult {
  double rate = 0;
  size_t scheduled = 0;
  double elapsed_s = 0;            // first scheduled send -> last answer
  std::vector<double> latency_us;  // scheduled send -> response read
  std::vector<double> lag_us;      // actual send - scheduled send
  size_t backlog_at_end = 0;  // most requests in flight at a slice's end
  // Set by FinishRung.
  double achieved_per_s = 0;
  bool meets_slo = false;
  Tail tail;
};

void FinishRung(RungResult& rung) {
  rung.achieved_per_s =
      rung.elapsed_s > 0 ? rung.latency_us.size() / rung.elapsed_s : 0;
  rung.tail = TailOf(rung.latency_us);
  rung.meets_slo =
      rung.tail.value <= kReadSloUs &&
      rung.backlog_at_end <= std::max<size_t>(10, rung.scheduled / 100) &&
      rung.latency_us.size() == rung.scheduled;
}

class Reader {
 public:
  Reader(NodeId n, uint64_t seed) : n_(n), rng_(SubSeed(seed, 6)) {}
  ~Reader() {
    if (fd_ >= 0) close(fd_);
  }
  Reader(const Reader&) = delete;
  Reader& operator=(const Reader&) = delete;

  bool Connect(const std::string& path, std::string* error) {
    fd_ = socket(AF_UNIX, SOCK_STREAM, 0);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
    if (fd_ < 0 || connect(fd_, reinterpret_cast<sockaddr*>(&addr),
                           sizeof(addr)) != 0) {
      *error = std::string("reader connect: ") + std::strerror(errno);
      return false;
    }
    return true;
  }

  // Runs one slice of a rung: `count` requests at `rate`/s from a fixed
  // schedule, timing each from its scheduled send to the moment its answer
  // is read. Appends to *out; FinishRung derives the rung's figures.
  bool RunRung(double rate, size_t count, Tracer* tracer, RungResult* out,
               std::string* error) {
    out->rate = rate;
    const uint64_t interval_ns = static_cast<uint64_t>(1e9 / rate);
    const uint64_t start_ns = NowNs() + 1'000'000;
    const uint64_t first_id = next_id_;
    due_.resize(next_id_ + count - base_id_);
    size_t sent = 0;
    uint64_t last_response_ns = start_ns;
    bool schedule_done_noted = false;
    uint64_t drain_deadline = 0;
    while (sent < count || inflight_ > 0) {
      uint64_t now = NowNs();
      if (sent < count && now >= start_ns + sent * interval_ns) {
        out_.clear();
        while (sent < count && now >= start_ns + sent * interval_ns) {
          const uint64_t due = start_ns + sent * interval_ns;
          out->lag_us.push_back(static_cast<double>(now - due) * 1e-3);
          EncodeRead(next_id_, due);
          ++next_id_;
          ++sent;
        }
        if (!WriteAll(error)) return false;
        continue;
      }
      if (sent == count && !schedule_done_noted) {
        schedule_done_noted = true;
        out->backlog_at_end = std::max(out->backlog_at_end, inflight_);
        drain_deadline = now + 5'000'000'000ULL;
      }
      if (sent == count && now >= drain_deadline) break;
      // Busy-poll instead of sleeping until the next send: the reader
      // owns one core, so an answer is stamped as soon as it can be read
      // and no send is late by a wake-up.
      size_t received = 0;
      if (!ReadAvailable(&received, error)) return false;
      if (received == 0) continue;
      const uint64_t arrived = NowNs();
      if (!ParseResponses(arrived, tracer, out, error)) return false;
      last_response_ns = arrived;
    }
    // Unanswered at the drain deadline: timed out. A late answer to one
    // of them is dropped when it arrives.
    reads.timed_out += inflight_;
    inflight_ = 0;
    for (uint64_t id = first_id; id < next_id_; ++id) {
      if (due_[id - base_id_] != 0) due_[id - base_id_] = kTimedOut;
    }
    out->scheduled += count;
    out->elapsed_s +=
        static_cast<double>(std::max(last_response_ns, start_ns + 1) -
                            start_ns) *
        1e-9;
    return true;
  }

  OpCounts reads;

 private:
  void EncodeRead(uint64_t id, uint64_t due) {
    const uint64_t kind = rng_.Get(4 * id) % 100;
    const NodeId u = static_cast<NodeId>(rng_.GetBounded(4 * id + 1, n_));
    const NodeId v = static_cast<NodeId>(rng_.GetBounded(4 * id + 2, n_));
    if (kind < 90) {
      serve::AppendSameComponentRequest(id, u, v, &out_);
    } else if (kind < 95) {
      serve::AppendComponentRequest(id, u, &out_);
    } else if (kind < 99) {
      serve::AppendComponentSizesRequest(id, 16, &out_);
    } else {
      serve::AppendNumComponentsRequest(id, &out_);
    }
    due_[id - base_id_] = due;
    ++inflight_;
    ++reads.attempted;
  }

  bool WriteAll(std::string* error) {
    size_t done = 0;
    while (done < out_.size()) {
      const ssize_t w = send(fd_, out_.data() + done, out_.size() - done,
                             MSG_NOSIGNAL);
      if (w < 0) {
        if (errno == EINTR) continue;
        *error = std::string("reader send: ") + std::strerror(errno);
        return false;
      }
      done += static_cast<size_t>(w);
    }
    return true;
  }

  bool ReadAvailable(size_t* received, std::string* error) {
    uint8_t buf[65536];
    while (true) {
      const ssize_t r = recv(fd_, buf, sizeof(buf), MSG_DONTWAIT);
      if (r > 0) {
        in_.insert(in_.end(), buf, buf + r);
        *received += static_cast<size_t>(r);
        if (static_cast<size_t>(r) < sizeof(buf)) return true;
        continue;
      }
      if (r == 0) {
        *error = "reader: server closed the connection";
        return false;
      }
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) return true;
      *error = std::string("reader recv: ") + std::strerror(errno);
      return false;
    }
  }

  bool ParseResponses(uint64_t arrived, Tracer* tracer, RungResult* out,
                      std::string* error) {
    size_t pos = 0;
    while (in_.size() - pos >= serve::kFrameHeaderBytes) {
      serve::FrameHeader header;
      if (!serve::DecodeFrameHeader(in_.data() + pos, in_.size() - pos,
                                    &header, error)) {
        return false;
      }
      const size_t frame = serve::kFrameHeaderBytes + header.payload_length;
      if (in_.size() - pos < frame) break;
      const uint8_t* payload = in_.data() + pos + serve::kFrameHeaderBytes;
      if (!serve::ValidatePayload(header, payload, error)) return false;
      pos += frame;
      const uint64_t id = header.request_id;
      if (id < base_id_ || id >= next_id_ || due_[id - base_id_] == 0) {
        *error = "reader: response for an unknown request id";
        return false;
      }
      const uint64_t due = due_[id - base_id_];
      if (due == kTimedOut) {
        due_[id - base_id_] = 0;
        continue;
      }
      due_[id - base_id_] = 0;
      --inflight_;
      serve::Status status = serve::Status::kOk;
      const bool ok = DecodeRead(header, payload, &status);
      if (!ok) {
        ++reads.failed;
      } else if (Refusal(status)) {
        ++reads.refused;
      } else if (status != serve::Status::kOk) {
        ++reads.failed;
      } else {
        ++reads.succeeded;
        out->latency_us.push_back(static_cast<double>(arrived - due) * 1e-3);
        if (tracer != nullptr) tracer->Record("serve.read", due, arrived, id);
      }
    }
    in_.erase(in_.begin(), in_.begin() + static_cast<ptrdiff_t>(pos));
    return true;
  }

  // Decodes a read response and sanity-checks its answer (the labeling
  // moves under the writer, so exact answers are checked by the sweep).
  bool DecodeRead(const serve::FrameHeader& header, const uint8_t* payload,
                  serve::Status* status) {
    std::string error;
    const auto opcode =
        static_cast<serve::Opcode>(header.opcode & ~serve::kResponseBit);
    const size_t len = header.payload_length;
    switch (opcode) {
      case serve::Opcode::kSameComponent: {
        bool connected = false;
        return serve::DecodeSameComponentResponse(payload, len, status,
                                                  &connected, &error);
      }
      case serve::Opcode::kComponent: {
        NodeId label = 0;
        return serve::DecodeComponentResponse(payload, len, status, &label,
                                              &error) &&
               (*status != serve::Status::kOk || label < n_);
      }
      case serve::Opcode::kComponentSizes: {
        NodeId count = 0;
        return serve::DecodeComponentSizesResponse(payload, len, status,
                                                   &count, &sizes_, &error) &&
               (*status != serve::Status::kOk || (count >= 1 && count <= n_));
      }
      case serve::Opcode::kNumComponents: {
        NodeId count = 0;
        uint64_t version = 0;
        return serve::DecodeNumComponentsResponse(payload, len, status,
                                                  &count, &version, &error) &&
               (*status != serve::Status::kOk || (count >= 1 && count <= n_));
      }
      default:
        return false;
    }
  }

  static constexpr uint64_t kTimedOut = UINT64_MAX;

  NodeId n_;
  connectit::Rng rng_;
  int fd_ = -1;
  uint64_t base_id_ = 1;
  uint64_t next_id_ = 1;
  // Scheduled send time by request id - base_id_; 0 = answered.
  std::vector<uint64_t> due_;
  size_t inflight_ = 0;
  std::vector<uint8_t> out_;
  std::vector<uint8_t> in_;
  std::vector<serve::ComponentSizesEntry> sizes_;
};

// ---- the paced writer ----

struct WriteOp {
  serve::Opcode opcode;
  serve::MutateRequest request;
  serve::MutateResponse response;
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
};

struct WriterResult {
  std::vector<WriteOp> ops;
  OpCounts inserts, erases;
  std::string error;
};

// Sends one mutation, retrying a backpressure refusal (each refusal is a
// failed attempt); the commit time runs from the first send to the
// accepted response.
bool SendMutation(serve::Client& client, WriteOp& op, OpCounts& counts,
                  std::string* error) {
  op.start_ns = NowNs();
  while (true) {
    ++counts.attempted;
    if (!client.Mutate(op.opcode, op.request, &op.response, error)) {
      ++counts.failed;
      return false;
    }
    if (op.response.status == serve::Status::kOk) break;
    if (Refusal(op.response.status)) {
      ++counts.refused;
      usleep(1000);
      continue;
    }
    ++counts.failed;
    *error = std::string("mutation status ") +
             serve::ToString(op.response.status);
    return false;
  }
  op.end_ns = NowNs();
  ++counts.succeeded;
  return true;
}

void RunWriter(serve::Client& client, NodeId n, uint64_t seed,
               const std::atomic<bool>& stop, WriterResult* result) {
  // Timer slack (50 us by default) would otherwise delay every paced
  // batch.
  prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
  PinCurrentThread(Cpus::kRest);
  const connectit::Rng rng(SubSeed(seed, 7));
  const uint64_t interval_ns =
      static_cast<uint64_t>(1e9 / kWriterBatchesPerSecond);
  const uint64_t start = NowNs();
  uint64_t draw = 0;
  auto random_edge = [&] {
    const NodeId u = static_cast<NodeId>(rng.GetBounded(draw++, n));
    const NodeId v = static_cast<NodeId>(rng.GetBounded(draw++, n));
    return Edge{u, v};
  };
  for (uint64_t b = 0;; ++b) {
    const uint64_t due = start + b * interval_ns;
    for (uint64_t now = NowNs();
         now < due && !stop.load(std::memory_order_relaxed); now = NowNs()) {
      usleep(static_cast<useconds_t>(std::min<uint64_t>(due - now, 10'000'000) /
                                     1000));
    }
    if (stop.load(std::memory_order_relaxed)) break;
    WriteOp insert{serve::Opcode::kInsertBatch, {}, {}, 0, 0};
    for (size_t i = 0; i < kWriteEdges; ++i) {
      insert.request.edges.push_back(random_edge());
    }
    for (size_t i = 0; i < kWriteQueries; ++i) {
      insert.request.queries.push_back(random_edge());
    }
    WriteOp erase{serve::Opcode::kEraseBatch, {}, {}, 0, 0};
    erase.request.edges.assign(insert.request.edges.begin(),
                               insert.request.edges.begin() + kEraseEdges);
    for (size_t i = 0; i < kEraseQueries; ++i) {
      erase.request.queries.push_back(random_edge());
    }
    if (!SendMutation(client, insert, result->inserts, &result->error)) return;
    result->ops.push_back(std::move(insert));
    if (!SendMutation(client, erase, result->erases, &result->error)) return;
    result->ops.push_back(std::move(erase));
  }
}

// ---- the oracle over the surviving edge set ----

class EdgeSetOracle {
 public:
  explicit EdgeSetOracle(NodeId n) : n_(n), dsu_(n) {}

  void Insert(const std::vector<Edge>& edges) {
    for (const Edge& e : edges) {
      if (e.u == e.v) continue;
      keys_.insert(EdgeKey(e.u, e.v));
      if (!dirty_) dsu_.Unite(e.u, e.v);
    }
  }
  void Erase(const std::vector<Edge>& edges) {
    for (const Edge& e : edges) keys_.erase(EdgeKey(e.u, e.v));
    dirty_ = true;
  }
  bool Same(NodeId u, NodeId v) {
    Refresh();
    return dsu_.Same(u, v);
  }
  std::vector<NodeId> Labels() {
    Refresh();
    return dsu_.Labels();
  }

 private:
  void Refresh() {
    if (!dirty_) return;
    dsu_ = OracleDsu(n_);
    for (uint64_t key : keys_) {
      dsu_.Unite(static_cast<NodeId>(key >> 32),
                 static_cast<NodeId>(key & 0xffffffffu));
    }
    dirty_ = false;
  }

  NodeId n_;
  std::unordered_set<uint64_t> keys_;
  OracleDsu dsu_;
  bool dirty_ = false;
};

std::vector<Edge> MakePreload(NodeId n, uint64_t seed) {
  return connectit::GenerateRmatEdges(n, 8 * static_cast<uint64_t>(n),
                                      SubSeed(seed, 5), 0.5, 0.1, 0.1)
      .edges;
}

bool Preload(serve::Client& client, const std::vector<Edge>& edges,
             OpCounts& counts, std::string* error) {
  for (size_t begin = 0; begin < edges.size(); begin += kPreloadChunk) {
    WriteOp op{serve::Opcode::kInsertBatch, {}, {}, 0, 0};
    op.request.edges.assign(
        edges.begin() + begin,
        edges.begin() + std::min(edges.size(), begin + kPreloadChunk));
    if (!SendMutation(client, op, counts, error)) return false;
  }
  return true;
}

bool ProbeStats(serve::Client& client, serve::StatsProbe* probe,
                std::string* error) {
  return client.Stats(probe, error) && probe->status == serve::Status::kOk;
}

double Micros(uint64_t a, uint64_t b) {
  return static_cast<double>(b - a) * 1e-3;
}

}  // namespace

double ReportInProcessReads(const connectit::Connectivity& index,
                            uint64_t seed, Report& report);

int RunServe(const Args& args, Report& report) {
  const NodeId n = args.tiny ? NodeId{1} << 12 : NodeId{1} << 16;
  const std::string socket_path =
      args.out_dir + "/serve_" + std::to_string(getpid()) + ".sock";
  const unsigned nproc = std::max(1u, std::thread::hardware_concurrency());
  report.Note("budget: nproc=" + std::to_string(nproc) +
              " loadgen_threads=" + std::to_string(kLoadgenThreads) +
              " loadgen_connections=" + std::to_string(kLoadgenConnections) +
              " server_workers=" + std::to_string(kServerWorkers) +
              " server_pool_threads=" + std::to_string(kServerPoolThreads));
  if (kLoadgenThreads + kLoadgenConnections > nproc) {
    report.Note("warning: load generator exceeds nproc on this machine");
  }
  connectit::ThreadPool::Get().Resize(1);
  PinCurrentThread(Cpus::kRest);

  // ---- set-up: spawn + preload, repeated so setup_s is a median ----
  constexpr int kSetupReps = 5;
  std::vector<double> setup_s;
  std::vector<Edge> preload;
  ServerProcess server;
  std::unique_ptr<serve::Client> writer;
  OpCounts preload_counts;
  std::string error;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    writer.reset();
    server.Stop();
    const double t0 = NowSeconds();
    preload = MakePreload(n, args.seed);
    serve::ClientConfig config;
    config.unix_path = socket_path;
    config.max_connect_retries = 200;
    config.retry_backoff_ms = 5;
    writer = std::make_unique<serve::Client>(config);
    if (!server.Start(args.server_path, socket_path, n, &error) ||
        !writer->Connect(&error) ||
        !Preload(*writer, preload, preload_counts, &error)) {
      std::fprintf(stderr, "serve set-up: %s\n", error.c_str());
      return 1;
    }
    setup_s.push_back(NowSeconds() - t0);
  }
  PinCurrentThread(Cpus::kReader);
  Reader reader(n, args.seed);
  if (!reader.Connect(socket_path, &error)) {
    std::fprintf(stderr, "%s\n", error.c_str());
    return 1;
  }
  serve::StatsProbe before, after;
  if (!ProbeStats(*writer, &before, &error)) {
    std::fprintf(stderr, "stats probe: %s\n", error.c_str());
    return 1;
  }

  // ---- the ladder, with the paced writer beside it ----
  std::atomic<bool> stop{false};
  WriterResult written;
  Tracer tracer(args.trace);
  std::vector<RungResult> rungs(std::size(kLadder));
  for (size_t r = 0; r < rungs.size(); ++r) rungs[r].rate = kLadder[r];
  RungResult traced;
  traced.rate = kLadder[kNominalRung];
  // Half of the ladder goes to the nominal rate, in five slices between
  // the other rungs, so its figures average over the whole run. The
  // traced run halves the ladder and follows every nominal slice with a
  // traced one.
  const double ladder_seconds = args.trace ? args.seconds / 2 : args.seconds;
  const double nominal_slice_s = ladder_seconds * 0.5 / 5;
  const double other_rung_s = ladder_seconds * 0.5 / (rungs.size() - 1);
  auto slice = [&](size_t r, double seconds, bool trace_it) {
    const size_t count =
        std::max<size_t>(20, static_cast<size_t>(kLadder[r] * seconds));
    return reader.RunRung(kLadder[r], count, trace_it ? &tracer : nullptr,
                          trace_it ? &traced : &rungs[r], &error);
  };
  auto nominal_slice = [&] {
    return slice(kNominalRung, nominal_slice_s, false) &&
           (!args.trace || slice(kNominalRung, nominal_slice_s, true));
  };
  {
    std::thread writer_thread(RunWriter, std::ref(*writer), n, args.seed,
                              std::cref(stop), &written);
    // Warm-up: a short slice at the lowest rate, not reported.
    RungResult warmup;
    bool ok = reader.RunRung(kLadder[0], static_cast<size_t>(kLadder[0] / 4),
                             nullptr, &warmup, &error);
    for (size_t r = 0; ok && r < rungs.size(); ++r) {
      if (r != kNominalRung) ok = nominal_slice() && slice(r, other_rung_s, false);
    }
    ok = ok && nominal_slice();
    stop.store(true);
    writer_thread.join();
    if (!ok) {
      std::fprintf(stderr, "reader: %s\n", error.c_str());
      return 1;
    }
    if (!written.error.empty()) {
      std::fprintf(stderr, "writer: %s\n", written.error.c_str());
      return 1;
    }
  }
  for (RungResult& r : rungs) FinishRung(r);
  if (args.trace) {
    report.Add("trace.overhead_share",
               Median(traced.latency_us) /
                       Median(rungs[kNominalRung].latency_us) -
                   1,
               "share");
  }
  if (!ProbeStats(*writer, &after, &error)) {
    std::fprintf(stderr, "stats probe: %s\n", error.c_str());
    return 1;
  }

  // ---- correctness: writer answers and a full Component sweep ----
  EdgeSetOracle oracle(n);
  oracle.Insert(preload);
  std::vector<double> insert_us, erase_us;
  if (args.inject_fault && !written.ops.empty() &&
      !written.ops[0].response.answers.empty()) {
    written.ops[0].response.answers[0] ^= 1;
  }
  for (size_t k = 0; k < written.ops.size(); ++k) {
    WriteOp& op = written.ops[k];
    const bool is_insert = op.opcode == serve::Opcode::kInsertBatch;
    (is_insert ? insert_us : erase_us).push_back(Micros(op.start_ns,
                                                        op.end_ns));
    if (tracer.enabled()) {
      tracer.Record(is_insert ? "serve.InsertBatch" : "serve.EraseBatch",
                    op.start_ns, op.end_ns, k);
    }
    if (is_insert) {
      oracle.Insert(op.request.edges);
    } else {
      oracle.Erase(op.request.edges);
    }
    const auto& queries = op.request.queries;
    for (size_t q = 0; q < queries.size(); ++q) {
      if (q >= op.response.answers.size() ||
          (op.response.answers[q] != 0) !=
              oracle.Same(queries[q].u, queries[q].v)) {
        report.Mismatch("serve: mutation " + std::to_string(k) + " query " +
                        std::to_string(q) + " answered wrong");
        break;
      }
    }
  }
  std::vector<NodeId> sweep(n);
  serve::Client::Response response;
  for (NodeId begin = 0; begin < n; begin += 4096) {
    const NodeId end = std::min<NodeId>(n, begin + 4096);
    const uint64_t first_id = writer->SendComponent(begin);
    for (NodeId v = begin + 1; v < end; ++v) writer->SendComponent(v);
    if (!writer->Flush(&error)) {
      std::fprintf(stderr, "sweep: %s\n", error.c_str());
      return 1;
    }
    for (NodeId v = begin; v < end; ++v) {
      serve::Status status;
      NodeId label = 0;
      if (!writer->Poll(&response, 10000, &error) ||
          !serve::DecodeComponentResponse(response.payload.data(),
                                          response.payload.size(), &status,
                                          &label, &error) ||
          status != serve::Status::kOk ||
          response.request_id - first_id >= end - begin) {
        std::fprintf(stderr, "sweep: %s\n", error.c_str());
        return 1;
      }
      // Request ids of one connection are handed out sequentially.
      sweep[begin + (response.request_id - first_id)] = label;
    }
  }
  if (args.inject_fault) {
    const std::vector<NodeId> expected = oracle.Labels();
    for (NodeId v = 0; v < n; ++v) {
      if (expected[v] != v) {
        sweep[v] = n;
        break;
      }
    }
  }
  if (!connectit::SamePartition(sweep, oracle.Labels())) {
    report.Mismatch("serve: Component sweep differs from the oracle on the "
                    "surviving edge set");
  }
  if (after.protocol_errors != 0 || after.connections_dropped != 0) {
    report.Mismatch("serve: protocol_errors=" +
                    std::to_string(after.protocol_errors) +
                    " connections_dropped=" +
                    std::to_string(after.connections_dropped));
  }
  const double server_rss_mb = PeakRssMb(server.pid());
  writer.reset();
  const int exit_status = server.Stop();
  if (!WIFEXITED(exit_status) || WEXITSTATUS(exit_status) != 0) {
    report.Mismatch("serve: connectit_server did not shut down cleanly");
  }

  // ---- accounting ----
  reader.reads.Print(report, "read");
  written.inserts.Print(report, "insert");
  written.erases.Print(report, "erase");
  preload_counts.Print(report, "preload");
  const OpCounts* all[] = {&reader.reads, &written.inserts, &written.erases};
  uint64_t attempted = 0, failed = 0;
  for (const OpCounts* c : all) {
    attempted += c->attempted;
    failed += c->failed + c->timed_out + c->refused;
  }
  report.attempted = attempted;
  report.failed = failed;

  const RungResult& nominal = rungs[kNominalRung];
  double rate_at_slo = 0;
  for (const RungResult& r : rungs) {
    char line[256];
    std::snprintf(line, sizeof(line),
                  "rung %.0f/s: p50 %.2f us, p%g %.2f us (%zu beyond), "
                  "achieved %.1f/s, backlog at end %zu: %s the %.0f us SLO",
                  r.rate, Median(r.latency_us), r.tail.pct, r.tail.value,
                  r.tail.beyond, r.achieved_per_s, r.backlog_at_end,
                  r.meets_slo ? "meets" : "misses", kReadSloUs);
    report.Note(line);
    if (r.meets_slo) rate_at_slo = std::max(rate_at_slo, r.rate);
  }
  std::vector<double> lag;
  for (const RungResult& r : rungs) {
    lag.insert(lag.end(), r.lag_us.begin(), r.lag_us.end());
  }
  const double read_p50 = Median(nominal.latency_us);
  const Tail insert_tail = TailOf(insert_us);
  const Tail erase_tail = TailOf(erase_us);

  report.Note(Samples("setup_s samples", setup_s));
  report.Add("setup_s", Median(setup_s), "s");
  report.Add("peak_rss_mb", server_rss_mb, "MB");
  report.Add("op_p50_us", read_p50, "us");
  report.Add("read_p50_us", read_p50, "us");
  report.Add("read_tail_us", nominal.tail.value, "us");
  report.Note(Describe("read_tail", nominal.tail, "us", "reads"));
  report.Add("read_ops_per_s", nominal.achieved_per_s, "1/s");
  report.Add("read_rate_at_slo", rate_at_slo, "1/s");
  report.Add("insert_commit_p50_us", Median(insert_us), "us");
  report.Add("insert_commit_tail_us", insert_tail.value, "us");
  report.Add("erase_commit_p50_us", Median(erase_us), "us");
  report.Add("erase_commit_tail_us", erase_tail.value, "us");
  report.Note(Describe("insert_commit_tail", insert_tail, "us", "batches"));
  report.Note(Describe("erase_commit_tail", erase_tail, "us", "batches"));
  report.Add("failed_share",
             attempted == 0 ? 0 : static_cast<double>(failed) / attempted,
             "share");
  report.Add("loadgen.send_lag_p50_us", Median(lag), "us");
  report.Add("loadgen.send_lag_max_us",
             lag.empty() ? 0 : *std::max_element(lag.begin(), lag.end()),
             "us");
  report.Add("loadgen.threads", kLoadgenThreads, "count");
  report.Add("loadgen.connections", kLoadgenConnections, "count");
  report.Add("pool.workers", kServerPoolThreads, "count");
  const double ops = static_cast<double>(reader.reads.attempted +
                                         written.inserts.attempted +
                                         written.erases.attempted);
  report.Add("serve.frames_in",
             static_cast<double>(after.frames_in - before.frames_in), "count");
  report.Add("serve.frames_out",
             static_cast<double>(after.frames_out - before.frames_out),
             "count");
  report.Add("serve.bytes_per_op",
             static_cast<double>(after.bytes_in - before.bytes_in +
                                 after.bytes_out - before.bytes_out) /
                 ops,
             "bytes");
  report.Add("serve.queue_depth_hwm",
             static_cast<double>(after.queue_depth_hwm), "count");
  report.Add("serve.backpressure_rejections",
             static_cast<double>(after.backpressure_rejections -
                                 before.backpressure_rejections),
             "count");
  report.Add("serve.protocol_errors",
             static_cast<double>(after.protocol_errors), "count");
  report.Add("serve.connections_dropped",
             static_cast<double>(after.connections_dropped), "count");
  if (!args.trace) return 0;

  // ---- traced-run extras: the same work in-process ----
  // A local index with the same preload gives the in-process read cost
  // (for serve.transport_us) and the in-process insert commit (for
  // serve.mutation_wait_us). erase counters come from the first Erase.
  PinCurrentThread(Cpus::kAll);
  connectit::ThreadPool::Get().Resize(kServerPoolThreads);
  connectit::Connectivity local;
  local.Stream(n);
  for (size_t begin = 0; begin < preload.size(); begin += kPreloadChunk) {
    local.Insert({preload.begin() + begin,
                  preload.begin() + std::min(preload.size(),
                                             begin + kPreloadChunk)});
  }
  std::vector<double> local_insert_us, local_erase_us;
  const connectit::stats::ServingSnapshot s0 =
      connectit::stats::ReadServing();
  double arm_ms = 0;
  for (size_t k = 0; k + 1 < written.ops.size() && k < 40; k += 2) {
    const WriteOp& ins = written.ops[k];
    const WriteOp& era = written.ops[k + 1];
    local_insert_us.push_back(1e6 * TimedSpan(tracer, "connectivity.Insert",
                                              k, [&] {
                                                local.Insert(
                                                    ins.request.edges,
                                                    ins.request.queries);
                                              }));
    const double erase_s = TimedSpan(tracer, "connectivity.Erase", k + 1, [&] {
      local.Erase(era.request.edges, era.request.queries);
    });
    if (k == 0) {
      arm_ms = erase_s * 1e3;
    } else {
      local_erase_us.push_back(erase_s * 1e6);
    }
  }
  const connectit::stats::ServingSnapshot s1 =
      connectit::stats::ReadServing();
  const double erased = static_cast<double>(s1.edges_erased - s0.edges_erased);
  const double searches =
      static_cast<double>(s1.replacement_searches - s0.replacement_searches);
  report.Add("forest.arm_ms", arm_ms, "ms");
  report.Add("forest.erase_batch_us", Median(local_erase_us), "us");
  report.Add("forest.edge_hit_share",
             erased == 0 ? 0
                         : static_cast<double>(s1.forest_edge_hits -
                                               s0.forest_edge_hits) /
                               erased,
             "share");
  report.Add("forest.split_share",
             searches == 0 ? 0
                           : static_cast<double>(s1.components_split -
                                                 s0.components_split) /
                                 searches,
             "share");
  report.Add("forest.replacement_searches", searches, "count");
  report.Add("forest.erase_batches",
             static_cast<double>(s1.erase_batches - s0.erase_batches),
             "count");
  const double read_ns = ReportInProcessReads(local, args.seed, report);
  report.Add("serve.transport_us", read_p50 - read_ns * 1e-3, "us");
  report.Add("serve.mutation_wait_us",
             Median(insert_us) - Median(local_insert_us), "us");
  report.Add("trace.spans", static_cast<double>(tracer.size()), "count");
  if (!tracer.Write(args.out_dir + "/spans_serve.jsonl")) {
    report.Note("warning: could not write the span file");
  }
  return 0;
}

}  // namespace perfbench
