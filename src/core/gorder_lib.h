#ifndef GORDER_CORE_GORDER_LIB_H_
#define GORDER_CORE_GORDER_LIB_H_

/// Single-include facade for the Gorder library.
///
/// Typical use:
///
///   #include "core/gorder_lib.h"
///
///   gorder::Graph g;
///   gorder::ReadEdgeList("graph.txt", &g);
///   auto perm = gorder::order::ComputeOrdering(
///       g, gorder::order::Method::kGorder);
///   gorder::Graph fast = g.Relabel(perm);
///   auto pr = gorder::algo::PageRank(fast);
///
/// Sub-APIs:
///   graph/     CSR graphs, IO, permutations, locality metrics
///   gen/       synthetic dataset generators + the paper's dataset registry
///   order/     the ten ordering methods (Gorder and all baselines)
///   algo/      the nine benchmark workloads (+ cache-traced variants)
///   cachesim/  the software cache hierarchy used for miss-rate studies
///   harness/   experiment grids, timing, rank aggregation
///   store/     binary graph packs (gpack), mmap zero-copy loading, and
///              the ordering artifact cache
///   extmem/    out-of-core pipeline: chunked edge streams, external
///              sort, external CSR -> gpack build
///   serve/     gorderd: the ordering-as-a-service daemon (wire
///              protocol, server loop, blocking client)
///   obs/       telemetry: sharded metrics, phase spans, run reports

#include "algo/algorithms.h"
#include "algo/extra.h"
#include "algo/traced.h"
#include "cachesim/cache.h"
#include "cachesim/hw_counters.h"
#include "compress/compressed_graph.h"
#include "compress/varint.h"
#include "extmem/edge_stream.h"
#include "extmem/ext_csr.h"
#include "gen/crawl_order.h"
#include "gen/datasets.h"
#include "gen/generators.h"
#include "graph/dynamic_graph.h"
#include "graph/edgelist_io.h"
#include "graph/graph.h"
#include "graph/locality_profile.h"
#include "graph/stats.h"
#include "graph/subgraph.h"
#include "harness/experiment.h"
#include "harness/ranking.h"
#include "obs/expo.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/report.h"
#include "obs/reqtrace.h"
#include "obs/trace.h"
#include "order/annealing.h"
#include "order/exact.h"
#include "order/degree_grouping.h"
#include "order/gorder.h"
#include "order/incremental_gorder.h"
#include "order/metis_like.h"
#include "order/ordering.h"
#include "order/parallel_gorder.h"
#include "order/unit_heap.h"
#include "serve/admin.h"
#include "serve/client.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "serve/stats.h"
#include "store/fingerprint.h"
#include "store/gpack.h"
#include "store/mapped_file.h"
#include "store/store.h"
#include "util/array_ref.h"
#include "util/crc32.h"
#include "util/flags.h"
#include "util/net.h"
#include "util/parallel.h"
#include "util/rng.h"
#include "util/table.h"
#include "util/timer.h"
#include "util/types.h"

#endif  // GORDER_CORE_GORDER_LIB_H_
