// ingest: an n = 2^20 RMAT edge stream (m = 8n). The first half goes
// through Build + Stream(); the rest arrives as fixed-size Insert batches
// (1024 edges, 64 inline queries; paper §3.5) from one closed-loop writer
// with no readers. Snapshot publication dominates each Insert, and no
// Erase ever runs, so this is the workload that bypasses the dynamic
// forest.

#include <algorithm>
#include <memory>

#include "perfbench/common.h"
#include "src/core/connectivity_index.h"
#include "src/graph/builder.h"
#include "src/graph/generators.h"
#include "src/parallel/random.h"
#include "src/parallel/thread_pool.h"
#include "src/stats/counters.h"

namespace perfbench {

using connectit::Connectivity;
using connectit::Edge;
using connectit::EdgeList;
using connectit::NodeId;

// In-process read costs on the index's current labeling: index.read_ns
// (one SameComponent) and index.acquire_ns (one Acquire + release).
// Returns index.read_ns.
double ReportInProcessReads(const Connectivity& index, uint64_t seed,
                            Report& report) {
  const NodeId n = index.num_nodes();
  const connectit::Rng rng(SubSeed(seed, 9));
  constexpr size_t kReads = size_t{1} << 21;
  constexpr size_t kAcquires = size_t{1} << 18;
  size_t sink = 0;
  uint64_t t0 = NowNs();
  for (size_t i = 0; i < kReads; ++i) {
    sink += index.SameComponent(static_cast<NodeId>(rng.GetBounded(2 * i, n)),
                                static_cast<NodeId>(
                                    rng.GetBounded(2 * i + 1, n)));
  }
  const double read_ns = static_cast<double>(NowNs() - t0) / kReads;
  t0 = NowNs();
  for (size_t i = 0; i < kAcquires; ++i) sink += index.Acquire().num_nodes();
  const double acquire_ns = static_cast<double>(NowNs() - t0) / kAcquires;
  report.Note("in-process read checksum " + std::to_string(sink));
  report.Add("index.read_ns", read_ns, "ns");
  report.Add("index.acquire_ns", acquire_ns, "ns");
  return read_ns;
}

namespace {

constexpr size_t kBatchEdges = 1024;
constexpr size_t kBatchQueries = 64;

struct Stream {
  NodeId n = 0;
  EdgeList built;          // the first half: Build + Stream()
  std::vector<Edge> tail;  // the second half: Insert batches
};

Stream MakeStream(const Args& args, double* generate_s, double* csr_s,
                  connectit::Graph* graph) {
  Stream stream;
  stream.n = args.tiny ? NodeId{1} << 14 : NodeId{1} << 20;
  const double t0 = NowSeconds();
  EdgeList all = connectit::GenerateRmatEdges(
      stream.n, 8 * static_cast<uint64_t>(stream.n), SubSeed(args.seed, 3),
      0.5, 0.1, 0.1);
  const size_t half = all.edges.size() / 2;
  stream.tail.assign(all.edges.begin() + half, all.edges.end());
  all.edges.resize(half);
  stream.built = std::move(all);
  const double t1 = NowSeconds();
  *graph = connectit::BuildGraph(stream.built);
  *csr_s = NowSeconds() - t1;
  *generate_s = t1 - t0;
  return stream;
}

std::vector<Edge> BatchUpdates(const Stream& stream, size_t b) {
  const size_t begin = std::min(stream.tail.size(), b * kBatchEdges);
  const size_t end = std::min(stream.tail.size(), begin + kBatchEdges);
  return {stream.tail.begin() + begin, stream.tail.begin() + end};
}

std::vector<Edge> BatchQueries(const Stream& stream, uint64_t seed,
                               size_t b) {
  const connectit::Rng rng(SubSeed(seed, 4));
  std::vector<Edge> queries(kBatchQueries);
  for (size_t q = 0; q < kBatchQueries; ++q) {
    const uint64_t i = (b * kBatchQueries + q) * 2;
    queries[q] = {static_cast<NodeId>(rng.GetBounded(i, stream.n)),
                  static_cast<NodeId>(rng.GetBounded(i + 1, stream.n))};
  }
  return queries;
}

}  // namespace

int RunIngest(const Args& args, Report& report) {
  Tracer tracer(args.trace);

  // ---- set-up: generate, CSR-build the first half, Build + Stream ----
  constexpr int kSetupReps = 3;
  std::vector<double> setup_s, generate_s, csr_build_s;
  Stream stream;
  connectit::Graph graph;  // viewed by the index: outlives it
  std::unique_ptr<Connectivity> index;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    // Free the previous repetition first, so peak RSS counts one input.
    index.reset();
    stream = Stream();
    graph = connectit::Graph();
    const double t0 = NowSeconds();
    double gen = 0, csr = 0;
    stream = MakeStream(args, &gen, &csr, &graph);
    index = std::make_unique<Connectivity>(
        Connectivity::Spec::Auto(connectit::GraphHandle(graph),
                                 /*streaming=*/true));
    index->Build(graph);
    index->Stream();
    setup_s.push_back(NowSeconds() - t0);
    generate_s.push_back(gen);
    csr_build_s.push_back(csr);
  }
  const size_t num_batches =
      (stream.tail.size() + kBatchEdges - 1) / kBatchEdges;

  // ---- measured Insert batches (tracing off) ----
  std::vector<std::vector<uint8_t>> answers;
  std::vector<double> commit_us;
  size_t edges_inserted = 0;
  double insert_wall = 0;
  const double untraced_seconds = args.trace ? args.seconds / 2 : args.seconds;
  // The traced phase needs batches of its own.
  const size_t untraced_limit = args.trace ? num_batches / 2 : num_batches;
  const double loop_start = NowSeconds();
  while (answers.size() < untraced_limit &&
         (answers.size() < 3 || NowSeconds() - loop_start < untraced_seconds)) {
    const size_t b = answers.size();
    const std::vector<Edge> updates = BatchUpdates(stream, b);
    const std::vector<Edge> queries = BatchQueries(stream, args.seed, b);
    const uint64_t t0 = NowNs();
    answers.push_back(index->Insert(updates, queries));
    const uint64_t t1 = NowNs();
    commit_us.push_back(static_cast<double>(t1 - t0) * 1e-3);
    insert_wall += static_cast<double>(t1 - t0) * 1e-9;
    edges_inserted += updates.size();
  }
  const size_t untraced_batches = answers.size();
  const double insert_p50_us = Median(commit_us);
  const Tail insert_tail = TailOf(commit_us);
  const double edges_per_s = static_cast<double>(edges_inserted) / insert_wall;

  // ---- traced phase: the same loop with spans, then the layers alone ----
  std::vector<double> traced_commit_us, batch_us;
  uint64_t backlog_max = 0;
  connectit::stats::ServingSnapshot serving0, serving1;
  if (args.trace) {
    std::vector<NodeId> labels_before = index->Labels();
    serving0 = connectit::stats::ReadServing();
    double traced_insert_s = 0;
    const double traced_start = NowSeconds();
    while (answers.size() < num_batches &&
           (traced_commit_us.size() < 3 ||
            NowSeconds() - traced_start < args.seconds / 2)) {
      const size_t b = answers.size();
      const std::vector<Edge> updates = BatchUpdates(stream, b);
      const std::vector<Edge> queries = BatchQueries(stream, args.seed, b);
      const double s = TimedSpan(tracer, "connectivity.Insert", b, [&] {
        answers.push_back(index->Insert(updates, queries));
      });
      traced_commit_us.push_back(s * 1e6);
      traced_insert_s += s;
      backlog_max = std::max(
          backlog_max, connectit::stats::ReadServing().reclaim_backlog());
    }
    serving1 = connectit::stats::ReadServing();

    // streaming layer alone: the same batches on a standalone structure
    // seeded from the labeling the traced phase started from.
    std::unique_ptr<connectit::StreamingConnectivity> standalone =
        index->variant().make_streaming(
            connectit::StreamingSeed::FromLabels(std::move(labels_before)));
    for (size_t b = untraced_batches; b < answers.size(); ++b) {
      const std::vector<Edge> updates = BatchUpdates(stream, b);
      const std::vector<Edge> queries = BatchQueries(stream, args.seed, b);
      std::vector<uint8_t> got;
      batch_us.push_back(1e6 * TimedSpan(tracer, "streaming.ProcessBatch", b,
                                         [&] {
                                           got = standalone->ProcessBatch(
                                               updates, queries);
                                         }));
      if (got != answers[b]) {
        report.Mismatch("ingest: standalone ProcessBatch answers differ "
                        "from Insert in batch " + std::to_string(b));
      }
    }
    const double pub_us = static_cast<double>(
        serving1.publication_cost_us - serving0.publication_cost_us);
    const double pubs = static_cast<double>(
        serving1.snapshot_publications - serving0.snapshot_publications);
    report.Add("trace.overhead_share",
               Median(traced_commit_us) / insert_p50_us - 1, "share");
    report.Add("index.publish_us", pubs == 0 ? 0 : pub_us / pubs, "us");
    report.Add("index.publish_share", pub_us / (traced_insert_s * 1e6),
               "share");
    report.Add("index.publications", pubs, "count");
    report.Add("streaming.batch_us", Median(batch_us), "us");
    report.Add("forest.erase_batches",
               static_cast<double>(serving1.erase_batches -
                                   serving0.erase_batches),
               "count");
    report.Add("epoch.advances",
               static_cast<double>(serving1.epoch_advances -
                                   serving0.epoch_advances),
               "count");
    report.Add("epoch.reclaim_backlog_max", static_cast<double>(backlog_max),
               "count");
  }

  // ---- correctness: every inline answer vs a sequential replay ----
  OracleDsu oracle(stream.n);
  for (const Edge& e : stream.built.edges) oracle.Unite(e.u, e.v);
  if (args.inject_fault && !answers.empty() && !answers[0].empty()) {
    answers[0][0] ^= 1;
  }
  for (size_t b = 0; b < answers.size(); ++b) {
    for (const Edge& e : BatchUpdates(stream, b)) oracle.Unite(e.u, e.v);
    const std::vector<Edge> queries = BatchQueries(stream, args.seed, b);
    for (size_t q = 0; q < queries.size(); ++q) {
      const bool expected = oracle.Same(queries[q].u, queries[q].v);
      if (q >= answers[b].size() || (answers[b][q] != 0) != expected) {
        report.Mismatch("ingest: batch " + std::to_string(b) + " query " +
                        std::to_string(q) + " answered wrong");
        break;
      }
    }
  }
  report.attempted = answers.size();
  report.Note("ops insert: attempted=" + std::to_string(answers.size()) +
              " succeeded=" + std::to_string(answers.size()) +
              " failed=0 timed_out=0 refused=0");

  report.Note(Samples("setup_s samples", setup_s));
  report.Add("setup_s", Median(setup_s), "s");
  report.Add("peak_rss_mb", PeakRssMb(), "MB");
  report.Add("op_p50_us", insert_p50_us, "us");
  report.Add("insert_commit_p50_us", insert_p50_us, "us");
  report.Add("insert_commit_tail_us", insert_tail.value, "us");
  report.Note(Describe("insert_commit_tail", insert_tail, "us", "batches"));
  report.Add("ingest_edges_per_s", edges_per_s, "1/s");
  report.Add("pool.workers", connectit::ThreadPool::Get().num_workers(),
             "count");
  if (!args.trace) return 0;
  report.Add("trace.spans", static_cast<double>(tracer.size()), "count");
  report.Add("graph.generate_s", Median(generate_s), "s");
  report.Add("graph.csr_build_s", Median(csr_build_s), "s");
  ReportInProcessReads(*index, args.seed, report);
  if (!tracer.Write(args.out_dir + "/spans_ingest.jsonl")) {
    report.Note("warning: could not write the span file");
  }
  return 0;
}

}  // namespace perfbench
