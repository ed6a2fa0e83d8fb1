// static_social and static_road: repeated Connectivity::Build under
// Spec::Auto on a resident CSR graph.
//
// static_social is an RMAT graph (n = 2^21, m = 8n, (a,b,c) = (.5,.1,.1)):
// the skewed low-diameter regime where Auto picks k-out sampling and the
// sharded representation, so sampling and the conversion do most of the
// work. static_road is a 2048 x 2048 grid with 1% of its edges dropped at
// random (the seed picks which): the high-diameter regime where Auto runs
// unsampled union-find on the CSR, so the finish does all the work.

#include <algorithm>
#include <memory>
#include <numeric>

#include "perfbench/common.h"
#include "src/algo/verify.h"
#include "src/core/connectivity_index.h"
#include "src/core/sampling.h"
#include "src/graph/builder.h"
#include "src/graph/generators.h"
#include "src/parallel/random.h"
#include "src/parallel/thread_pool.h"
#include "src/stats/counters.h"

namespace perfbench {

using connectit::Connectivity;
using connectit::EdgeList;
using connectit::Graph;
using connectit::GraphHandle;
using connectit::GraphRepresentation;
using connectit::NodeId;

namespace {

struct Input {
  Graph graph;
  double generate_s = 0;
  double csr_build_s = 0;
};

Input MakeInput(const Args& args, bool social) {
  Input input;
  const double t0 = NowSeconds();
  EdgeList edges;
  if (social) {
    const NodeId n = args.tiny ? NodeId{1} << 14 : NodeId{1} << 21;
    edges = connectit::GenerateRmatEdges(n, 8 * static_cast<uint64_t>(n),
                                         SubSeed(args.seed, 1), 0.5, 0.1,
                                         0.1);
  } else {
    const NodeId side = args.tiny ? 128 : 2048;
    edges = connectit::ExtractEdges(connectit::GenerateGrid(side, side));
    const connectit::Rng rng(SubSeed(args.seed, 2));
    size_t kept = 0;
    for (size_t i = 0; i < edges.edges.size(); ++i) {
      if (rng.GetBounded(i, 100) != 0) edges.edges[kept++] = edges.edges[i];
    }
    edges.edges.resize(kept);
  }
  const double t1 = NowSeconds();
  input.graph = connectit::BuildGraph(edges);
  input.csr_build_s = NowSeconds() - t1;
  input.generate_s = t1 - t0;
  return input;
}

// Share of vertices carrying the most frequent label.
double GiantShare(const std::vector<NodeId>& labels) {
  if (labels.empty()) return 0;
  std::vector<NodeId> count(labels.size(), 0);
  NodeId best = 0;
  for (NodeId label : labels) best = std::max(best, ++count[label]);
  return static_cast<double>(best) / static_cast<double>(labels.size());
}

}  // namespace

double ReportInProcessReads(const Connectivity& index, uint64_t seed,
                            Report& report);

int RunStatic(const Args& args, Report& report) {
  const bool social = args.workload == "static_social";
  Tracer tracer(args.trace);

  // ---- set-up, repeated so setup_s is a median ----
  constexpr int kSetupReps = 3;
  std::vector<double> setup_s, generate_s, csr_build_s;
  Input input;
  std::unique_ptr<Connectivity> index;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    // Free the previous repetition first, so peak RSS counts one input.
    index.reset();
    input = Input();
    const double t0 = NowSeconds();
    input = MakeInput(args, social);
    index = std::make_unique<Connectivity>(
        Connectivity::Spec::Auto(GraphHandle(input.graph)));
    index->Build(input.graph);
    setup_s.push_back(NowSeconds() - t0);
    generate_s.push_back(input.generate_s);
    csr_build_s.push_back(input.csr_build_s);
  }
  const Graph& graph = input.graph;
  const Connectivity::Spec& spec = index->spec();
  const bool sharded =
      spec.representation() == GraphRepresentation::kSharded;
  report.Note("graph: n=" + std::to_string(graph.num_nodes()) +
              " m=" + std::to_string(graph.num_edges()) + " spec: variant=" +
              index->variant().name + " sampled=" +
              (spec.sampling().option == connectit::SamplingOption::kNone
                   ? "no"
                   : "yes") +
              " representation=" + connectit::ToString(index->representation()));

  // ---- measured Build repetitions (tracing off) ----
  const double untraced_seconds = args.trace ? args.seconds / 2 : args.seconds;
  std::vector<double> builds;
  const double measure_start = NowSeconds();
  while (builds.size() < 3 || NowSeconds() - measure_start < untraced_seconds) {
    const double t0 = NowSeconds();
    index->Build(graph);
    builds.push_back(NowSeconds() - t0);
  }
  const double build_s = Median(builds);
  const Tail build_tail = TailOf(builds);
  report.attempted = builds.size();
  report.Note("ops build: attempted=" + std::to_string(builds.size()) +
              " succeeded=" + std::to_string(builds.size()) +
              " failed=0 timed_out=0 refused=0");

  // ---- correctness: Build labels vs the sequential oracle ----
  const double seq_start = NowSeconds();
  const std::vector<NodeId> expected = connectit::SequentialComponents(graph);
  const double sequential_s = NowSeconds() - seq_start;
  std::vector<NodeId> labels = index->Labels();
  if (args.inject_fault) {
    // Split one non-singleton component: a vertex that is not its
    // component's minimum gets a label of its own.
    for (NodeId v = 0; v < expected.size(); ++v) {
      if (expected[v] != v) {
        labels[v] = static_cast<NodeId>(labels.size());
        break;
      }
    }
  }
  if (!connectit::SamePartition(labels, expected)) {
    report.Mismatch(args.workload +
                    ": Build labels differ from SequentialComponents");
  }

  // ---- end-to-end ----
  report.Note(Samples("setup_s samples", setup_s));
  report.Add("setup_s", Median(setup_s), "s");
  report.Add("peak_rss_mb", PeakRssMb(), "MB");
  report.Add("op_p50_us", build_s * 1e6, "us");
  report.Add("build_s", build_s, "s");
  report.Add("build_tail_s", build_tail.value, "s");
  report.Note(Describe("build_tail", build_tail, "s", "Builds"));
  report.Add("verify.sequential_s", sequential_s, "s");
  report.Add("verify.parallel_speedup", sequential_s / build_s, "x");
  report.Add("pool.workers", connectit::ThreadPool::Get().num_workers(),
             "count");
  if (!args.trace) return 0;

  // ---- traced run: spans around each layer call ----
  const connectit::stats::ServingSnapshot serving0 =
      connectit::stats::ReadServing();
  std::vector<double> traced_builds, shard_s, sampling_s;
  double giant_share = 0;
  uint64_t backlog_max = 0;
  const double traced_start = NowSeconds();
  for (uint64_t rep = 0;
       traced_builds.size() < 3 ||
       NowSeconds() - traced_start < args.seconds / 2;
       ++rep) {
    const uint32_t rep_span = tracer.Begin("static.rep", rep);
    GraphHandle handle(graph);
    if (sharded) {
      shard_s.push_back(TimedSpan(
          tracer, "graph.shard", rep,
          [&] { handle = GraphHandle::Shard(graph, spec.shards()); },
          rep_span));
    }
    std::vector<NodeId> sample(graph.num_nodes());
    std::iota(sample.begin(), sample.end(), NodeId{0});
    sampling_s.push_back(TimedSpan(
        tracer, "sampling", rep,
        [&] {
          if (handle.sharded() != nullptr) {
            connectit::RunSamplingT(*handle.sharded(), spec.sampling(),
                                    sample);
          } else {
            connectit::RunSamplingT(graph, spec.sampling(), sample);
          }
        },
        rep_span));
    giant_share = GiantShare(sample);
    traced_builds.push_back(TimedSpan(tracer, "connectivity.Build", rep,
                                      [&] { index->Build(graph); },
                                      rep_span));
    tracer.End(rep_span);
    backlog_max = std::max(backlog_max,
                           connectit::stats::ReadServing().reclaim_backlog());
  }
  const connectit::stats::ServingSnapshot serving1 =
      connectit::stats::ReadServing();
  connectit::stats::Snapshot uf;
  {
    connectit::stats::ScopedEnable counters;
    index->Build(graph);
    uf = connectit::stats::Read();
  }
  const double traced_build_s = Median(traced_builds);

  report.Add("trace.overhead_share", traced_build_s / build_s - 1, "share");
  report.Add("trace.spans", static_cast<double>(tracer.size()), "count");
  report.Add("graph.generate_s", Median(generate_s), "s");
  report.Add("graph.csr_build_s", Median(csr_build_s), "s");
  report.Add("graph.shard_s", Median(shard_s), "s");
  report.Add("graph.csr_bytes",
             static_cast<double>(graph.offsets().size() *
                                     sizeof(connectit::EdgeId) +
                                 graph.neighbor_array().size() *
                                     sizeof(NodeId)),
             "bytes");
  report.Add("sampling.s", Median(sampling_s), "s");
  report.Add("sampling.giant_share", giant_share, "share");
  report.Add("finish.self_s",
             std::max(0.0, traced_build_s - Median(sampling_s) -
                               Median(shard_s)),
             "s");
  report.Add("unionfind.total_path_length",
             static_cast<double>(uf.total_path_length), "count");
  report.Add("unionfind.max_path_length",
             static_cast<double>(uf.max_path_length), "count");
  report.Add("unionfind.parent_reads", static_cast<double>(uf.parent_reads),
             "count");
  report.Add("unionfind.parent_writes",
             static_cast<double>(uf.parent_writes), "count");
  report.Add("index.publications",
             static_cast<double>(serving1.snapshot_publications -
                                 serving0.snapshot_publications),
             "count");
  report.Add("epoch.advances",
             static_cast<double>(serving1.epoch_advances -
                                 serving0.epoch_advances),
             "count");
  report.Add("epoch.reclaim_backlog_max", static_cast<double>(backlog_max),
             "count");
  ReportInProcessReads(*index, args.seed, report);
  if (!tracer.Write(args.out_dir + "/spans_" + args.workload + ".jsonl")) {
    report.Note("warning: could not write the span file");
  }
  return 0;
}

}  // namespace perfbench
