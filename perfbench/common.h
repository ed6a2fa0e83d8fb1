// Shared plumbing for the repository benchmark runner: arguments, the
// metric report (human-readable lines plus the final JSON line), the
// in-memory span tracer, order statistics, and the sequential oracles the
// correctness checks compare against.

#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <sys/types.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "src/graph/types.h"

namespace perfbench {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  // Shrinks every input so the whole workload runs in about a second
  // (the self-test mode); the measured numbers are then meaningless.
  bool tiny = false;
  // Corrupts one output before its correctness check, so the self-test
  // can confirm the check fires and the run exits non-zero.
  bool inject_fault = false;
  std::string server_path;  // connectit_server binary (serve workload)
  std::string out_dir;      // where the traced run writes its spans
};

inline double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// Median of `values` (0 when empty).
double Median(std::vector<double> values);

// The tail as the benchmark defines it: the highest of p99.9, p99, p90 and
// p50 that leaves at least ten samples beyond it. With fewer than 20
// samples no percentile qualifies and the maximum is reported (pct = 100).
struct Tail {
  double value = 0;
  double pct = 100;
  size_t beyond = 0;
  size_t samples = 0;
};
Tail TailOf(std::vector<double> values);
// "<name>: p99.9 = <value> <unit> over <n> <samples>, <k> beyond".
std::string Describe(const char* name, const Tail& tail, const char* unit,
                     const char* samples);

// "<name>: v1 v2 ..." with the samples of a repeated step, in run order.
std::string Samples(const char* name, const std::vector<double>& values);

// Peak resident set (VmHWM) of a process in MiB; pid 0 = this process.
double PeakRssMb(pid_t pid = 0);

// Collects the run's metrics. Every metric is printed as a readable line
// when added; Finish prints them all as one "PERFBENCH_RESULT {...}" line,
// from which run.py selects the metrics BENCHMARK.json names.
class Report {
 public:
  void Add(const std::string& name, double value, const std::string& unit);
  void Note(const std::string& line);
  void Mismatch(const std::string& what);

  bool correct() const { return mismatches_ == 0; }
  uint64_t attempted = 0;
  uint64_t failed = 0;

  // Prints the result line; returns the process exit code (non-zero on
  // any correctness mismatch, in which case no result line is printed).
  int Finish();

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics_;
  int mismatches_ = 0;
};

// In-memory spans recorded from the benchmark's own code around each call
// into a layer. Spans nest through an explicit parent index; Write dumps
// them as JSON lines when the run ends.
class Tracer {
 public:
  static constexpr uint32_t kNoParent = UINT32_MAX;

  struct Span {
    const char* name;
    uint64_t start_ns;
    uint64_t end_ns;
    uint32_t parent;
    uint64_t id;  // batch or request id
  };

  explicit Tracer(bool enabled) : enabled_(enabled) {}

  uint32_t Begin(const char* name, uint64_t id, uint32_t parent = kNoParent);
  void End(uint32_t span);
  // A span whose interval the caller measured itself; returns its index.
  uint32_t Record(const char* name, uint64_t start_ns, uint64_t end_ns,
              uint64_t id, uint32_t parent = kNoParent);

  bool enabled() const { return enabled_; }
  size_t size() const { return spans_.size(); }
  bool Write(const std::string& path) const;

 private:
  bool enabled_;
  std::vector<Span> spans_;
};

// Times `fn` as one span named `name` (when tracing) and returns seconds.
template <typename F>
double TimedSpan(Tracer& tracer, const char* name, uint64_t id, F&& fn,
                 uint32_t parent = Tracer::kNoParent) {
  const uint64_t start = NowNs();
  fn();
  const uint64_t end = NowNs();
  if (tracer.enabled()) tracer.Record(name, start, end, id, parent);
  return static_cast<double>(end - start) * 1e-9;
}

// Sequential union-find over [0, n): the oracle the ingest and serve
// checks replay batches into, outside every timed region.
class OracleDsu {
 public:
  explicit OracleDsu(connectit::NodeId n);
  connectit::NodeId Find(connectit::NodeId v);
  void Unite(connectit::NodeId u, connectit::NodeId v);
  bool Same(connectit::NodeId u, connectit::NodeId v) {
    return Find(u) == Find(v);
  }
  std::vector<connectit::NodeId> Labels();

 private:
  std::vector<connectit::NodeId> parent_;
};

// Canonical key of an undirected edge (smaller endpoint first).
inline uint64_t EdgeKey(connectit::NodeId u, connectit::NodeId v) {
  if (u > v) std::swap(u, v);
  return (static_cast<uint64_t>(u) << 32) | v;
}

// Independent input streams of one --seed.
uint64_t SubSeed(uint64_t seed, uint64_t stream);

int RunStatic(const Args& args, Report& report);
int RunIngest(const Args& args, Report& report);
int RunServe(const Args& args, Report& report);

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
