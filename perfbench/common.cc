#include "perfbench/common.h"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <numeric>
#include <sstream>

#include "src/parallel/random.h"

namespace perfbench {

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  const size_t mid = values.size() / 2;
  std::nth_element(values.begin(), values.begin() + mid, values.end());
  if (values.size() % 2 == 1) return values[mid];
  const double upper = values[mid];
  return (upper + *std::max_element(values.begin(), values.begin() + mid)) /
         2;
}

Tail TailOf(std::vector<double> values) {
  Tail tail;
  tail.samples = values.size();
  if (values.empty()) return tail;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  for (double pct : {99.9, 99.0, 90.0, 50.0}) {
    // Nearest-rank percentile: the ceil(p * n)-th smallest sample (the
    // epsilon keeps 0.999 * 10000 from rounding up past 9990).
    const size_t rank =
        static_cast<size_t>(std::ceil(pct / 100.0 * n - 1e-9));
    if (rank >= 1 && n - rank >= 10) {
      tail.value = values[rank - 1];
      tail.pct = pct;
      tail.beyond = n - rank;
      return tail;
    }
  }
  tail.value = values.back();
  return tail;
}

std::string Describe(const char* name, const Tail& tail, const char* unit,
                     const char* samples) {
  char buf[256];
  std::snprintf(buf, sizeof(buf), "%s: p%g = %.3f %s over %zu %s, %zu beyond",
                name, tail.pct, tail.value, unit, tail.samples, samples,
                tail.beyond);
  return buf;
}

std::string Samples(const char* name, const std::vector<double>& values) {
  std::string out = name;
  out += ":";
  for (double v : values) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), " %.4f", v);
    out += buf;
  }
  return out;
}

double PeakRssMb(pid_t pid) {
  const std::string path = pid == 0
                                ? std::string("/proc/self/status")
                                : "/proc/" + std::to_string(pid) + "/status";
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // reported in kB
    }
  }
  return 0;
}

void Report::Add(const std::string& name, double value,
                 const std::string& unit) {
  std::printf("metric %-34s %16.6f %s\n", name.c_str(), value, unit.c_str());
  std::fflush(stdout);
  metrics_.push_back({name, value, unit});
}

void Report::Note(const std::string& line) {
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
}

void Report::Mismatch(const std::string& what) {
  std::fprintf(stderr, "MISMATCH: %s\n", what.c_str());
  ++mismatches_;
}

int Report::Finish() {
  if (mismatches_ != 0) {
    std::fprintf(stderr, "%d correctness mismatch(es); no result\n",
                 mismatches_);
    return 1;
  }
  std::ostringstream out;
  out.precision(17);
  out << "PERFBENCH_RESULT {\"correct\": true, \"attempted\": " << attempted
      << ", \"failed\": " << failed << ", \"metrics\": {";
  for (size_t i = 0; i < metrics_.size(); ++i) {
    const double value = std::isfinite(metrics_[i].value) ? metrics_[i].value
                                                          : 0.0;
    out << (i == 0 ? "" : ", ") << '"' << metrics_[i].name
        << "\": {\"value\": " << value << ", \"unit\": \"" << metrics_[i].unit
        << "\"}";
  }
  out << "}}";
  std::printf("%s\n", out.str().c_str());
  std::fflush(stdout);
  return 0;
}

uint32_t Tracer::Begin(const char* name, uint64_t id, uint32_t parent) {
  const uint64_t now = NowNs();
  spans_.push_back({name, now, now, parent, id});
  return static_cast<uint32_t>(spans_.size() - 1);
}

void Tracer::End(uint32_t span) { spans_[span].end_ns = NowNs(); }

uint32_t Tracer::Record(const char* name, uint64_t start_ns, uint64_t end_ns,
                        uint64_t id, uint32_t parent) {
  spans_.push_back({name, start_ns, end_ns, parent, id});
  return static_cast<uint32_t>(spans_.size() - 1);
}

bool Tracer::Write(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const uint64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  for (uint32_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "{\"span\": %u, \"name\": \"%s\", \"start_ns\": %llu, "
                 "\"end_ns\": %llu, \"parent\": %lld, \"id\": %llu}\n",
                 i, s.name,
                 static_cast<unsigned long long>(s.start_ns - origin),
                 static_cast<unsigned long long>(s.end_ns - origin),
                 s.parent == kNoParent ? -1LL : static_cast<long long>(s.parent),
                 static_cast<unsigned long long>(s.id));
  }
  return std::fclose(f) == 0;
}

OracleDsu::OracleDsu(connectit::NodeId n) : parent_(n) {
  std::iota(parent_.begin(), parent_.end(), connectit::NodeId{0});
}

connectit::NodeId OracleDsu::Find(connectit::NodeId v) {
  while (parent_[v] != v) {
    parent_[v] = parent_[parent_[v]];
    v = parent_[v];
  }
  return v;
}

void OracleDsu::Unite(connectit::NodeId u, connectit::NodeId v) {
  u = Find(u);
  v = Find(v);
  if (u == v) return;
  if (u < v) std::swap(u, v);
  parent_[u] = v;
}

std::vector<connectit::NodeId> OracleDsu::Labels() {
  std::vector<connectit::NodeId> labels(parent_.size());
  for (connectit::NodeId v = 0; v < parent_.size(); ++v) labels[v] = Find(v);
  return labels;
}

uint64_t SubSeed(uint64_t seed, uint64_t stream) {
  return connectit::Rng(seed).Get(stream);
}

}  // namespace perfbench
