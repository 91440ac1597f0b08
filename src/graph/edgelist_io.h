#ifndef GORDER_GRAPH_EDGELIST_IO_H_
#define GORDER_GRAPH_EDGELIST_IO_H_

#include <cstddef>
#include <functional>
#include <string>

#include "graph/graph.h"
#include "util/io_result.h"  // IoResult (shared by every IO layer)

namespace gorder {

/// Receives edges batch by batch, in stream order. The pointer is only
/// valid for the duration of the call. Returning an error stops the
/// stream; no further batches are delivered. Shared by the text reader
/// below and the chunked generators (gen/chunked.h).
using EdgeSink = std::function<IoResult(const Edge*, std::size_t)>;

/// An edge-producing stream: invoked once with a sink, pushes every
/// edge batch through it, propagating the first sink error. The chunked
/// generators curry into this shape:
///   [&](const EdgeSink& sink) { return gen::StreamRmat(p, seed, opt, sink); }
using EdgeStreamFn = std::function<IoResult(const EdgeSink&)>;

/// The edge-list grammar — the one every text ingest path uses:
///
///   * Lines end at '\n'; the last line may lack it.
///   * Leading spaces and tabs are skipped. A line is skipped when what
///     follows them is '#' or '%' (SNAP / Konect comments), '\r', '\0',
///     or the end of the line or file — so blank lines, blank CRLF lines
///     and trailing blanks at EOF are all accepted.
///   * Any other line starts with two decimal ids separated by spaces or
///     tabs. The rest of the line is ignored (a '\r' of a CRLF ending,
///     further columns, junk). Ids are non-negative and at most
///     2^32 - 2; larger ids fail with "node id out of 32-bit range",
///     anything else with "malformed edge line". Errors read
///     "path:LINE: <kind>" with 1-based LINE.
///   * A line, '\n' included, must fit in 64 MiB; a longer one fails
///     with "path:LINE: line exceeds 67108864 bytes".
///
/// Ids are used verbatim, so the file's own numbering is the "Original"
/// ordering, as in the paper.
///
/// StreamEdgeList reads `path` through a bounded buffer, never holding
/// the whole file. Each buffer's complete lines are parsed in parallel,
/// line-aligned chunks on the shared pool (util/parallel.h) and handed
/// to `sink` in file order, so the delivered stream is identical at any
/// thread count. `max_node` / `saw_node` (optional) receive the largest
/// id seen and whether any edge was seen.
IoResult StreamEdgeList(const std::string& path, const EdgeSink& sink,
                        NodeId* max_node = nullptr, bool* saw_node = nullptr);

/// StreamEdgeList into Graph::FromEdges, with n = largest id + 1.
IoResult ReadEdgeList(const std::string& path, Graph* graph);

/// Writes "src dst" lines with a SNAP-style header comment, through a
/// ~1MB formatting buffer (one fwrite per buffer, not per edge). Writes
/// stage to a temp file and rename into place (util/atomic_file), so a
/// failure never leaves a truncated file at `path`.
IoResult WriteEdgeList(const std::string& path, const Graph& graph);

/// Binary format: magic, counts, then raw out-CSR arrays. Round-trips
/// exactly (self-loops and duplicates kept). ReadBinary validates the
/// header counts against the file size before sizing any allocation,
/// checks the offsets and neighbour ids, then rebuilds the graph through
/// Graph::FromEdges. The `.bin` format of gorder_cli --in/--out; the
/// dataset store caches `.gpack` files instead (store/gpack.h). Writes
/// are staged + renamed like WriteEdgeList.
IoResult ReadBinary(const std::string& path, Graph* graph);
IoResult WriteBinary(const std::string& path, const Graph& graph);

}  // namespace gorder

#endif  // GORDER_GRAPH_EDGELIST_IO_H_
