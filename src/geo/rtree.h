// R-tree spatial index over (Box, id) entries.
//
// Supports incremental insertion (quadratic split, R*-style least-
// enlargement descent), STR bulk loading for static datasets, rectangle
// queries, and nearest-neighbour search. This is the index Strabon-style
// spatial selection pushdown (E1/E2) and spatial link discovery (E10) sit
// on.
//
// Two representations coexist:
//   - the *incremental* tree: pointer-per-node, supports Insert;
//   - the *frozen* tree: after Freeze() (BulkLoad freezes automatically)
//     the nodes are packed into one contiguous arena of fixed-width
//     FlatNodes with children addressed by index, and all leaf entries
//     into a second contiguous array. Queries over the frozen form are
//     allocation-free and touch cache lines sequentially; the templated
//     VisitWith avoids the std::function indirection per node, and
//     VisitLeavesMulti answers up to 64 boxes in one walk that prunes
//     members per node (cross-request batching).
// Insert invalidates the frozen form; Freeze() rebuilds it.

#ifndef EXEARTH_GEO_RTREE_H_
#define EXEARTH_GEO_RTREE_H_

#include <bit>
#include <cassert>
#include <cstdint>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "geo/geometry.h"
#include "geo/simd.h"
#include "storage/buffer_pool.h"

namespace exearth::geo {

/// An R-tree mapping bounding boxes to opaque int64 ids.
class RTree {
 public:
  static constexpr int kMaxEntries = 16;
  static constexpr int kMinEntries = 6;

  struct Entry {
    Box box;
    int64_t id = 0;
  };

  /// Fixed-width node of the frozen representation. Children of an
  /// internal node (and entries of a leaf) are contiguous, so `first` +
  /// `count` fully address them.
  struct FlatNode {
    Box box;
    uint32_t first = 0;  // index of first child (internal) / entry (leaf)
    uint16_t count = 0;
    uint16_t leaf = 0;
  };

  /// Per-traversal statistics, returned to the caller so concurrent
  /// queries never share mutable state.
  struct TraversalStats {
    size_t nodes_visited = 0;
  };

  // Tree node; defined in rtree.cc (opaque to users).
  struct Node;

  RTree();
  ~RTree();

  RTree(const RTree&) = delete;
  RTree& operator=(const RTree&) = delete;
  RTree(RTree&&) noexcept;
  RTree& operator=(RTree&&) noexcept;

  /// Builds a tree from scratch with Sort-Tile-Recursive packing. Much
  /// faster and better-packed than repeated Insert for static data. The
  /// result is frozen.
  static RTree BulkLoad(std::vector<Entry> entries);

  /// Inserts one entry. Invalidates the frozen form (Freeze() rebuilds).
  void Insert(const Box& box, int64_t id);

  /// Packs the incremental tree into the contiguous frozen arena. Idempotent;
  /// queries fall back to the pointer tree while unfrozen.
  void Freeze();

  /// True when the frozen arena is current (queries run allocation-free).
  bool frozen() const { return frozen_; }

  /// Serializes the frozen arena (FlatNodes + entries) into a page chain
  /// allocated from `pool`, returning the head page id in `*head`. The
  /// tree must be frozen. Pages are written through the buffer pool;
  /// callers persist `*head` (and FlushAll/Sync) themselves.
  common::Status FreezeTo(storage::BufferPool* pool,
                          storage::PageId* head) const;

  /// Loads a tree serialized by FreezeTo. Reads go through the buffer
  /// pool (cold cache = storage reads, warm = pool hits). The result is
  /// frozen with flat arenas identical to the source tree's, so spatial
  /// query results are byte-identical by construction; the pointer tree
  /// is rebuilt too, keeping Insert/Nearest/Height functional.
  static common::Result<RTree> OpenFrozen(storage::BufferPool* pool,
                                          storage::PageId head);

  size_t size() const { return size_; }
  /// Height of the tree (1 for a single leaf).
  int Height() const;

  /// Ids of all entries whose box intersects `query`.
  std::vector<int64_t> Query(const Box& query) const;

  /// Visits entries intersecting `query`; return false from the visitor to
  /// stop early.
  void Visit(const Box& query,
             const std::function<bool(const Entry&)>& visitor) const;

  /// Like Visit but templated on the visitor (no std::function indirection)
  /// and with traversal statistics returned through `stats` instead of a
  /// mutable member — safe for concurrent queries. Runs over the frozen
  /// arena when available, else the pointer tree.
  template <typename Visitor>
  void VisitWith(const Box& query, Visitor&& visitor,
                 TraversalStats* stats = nullptr) const {
    if (!frozen_) {
      VisitPointerTree(query, std::forward<Visitor>(visitor), stats);
      return;
    }
    if (flat_nodes_.empty()) return;
    // Batched child pruning: a node's children (and a leaf's entries) are
    // contiguous in the arena, so their envelopes form a contiguous SoA
    // slice and one geo::simd kernel call tests all <= kMaxEntries of them,
    // returning a bitmask. Set bits are consumed ascending, which pushes
    // children — and invokes the visitor — in exactly the order of the
    // unbatched per-box loop, so traversal order, early-exit points, and
    // nodes_visited counts stay identical across kernel variants.
    const simd::KernelTable& kern = simd::Kernels();
    // Depth is bounded by log_kMinEntries(size); 32 levels of kMaxEntries
    // children each covers any tree that fits in memory.
    uint32_t stack[32 * kMaxEntries];
    size_t top = 0;
    stack[top++] = 0;
    size_t visited = 0;
    while (top > 0) {
      const FlatNode& node = flat_nodes_[stack[--top]];
      ++visited;
      if (!node.box.Intersects(query)) continue;
      if (node.leaf != 0) {
        const Entry* entries = flat_entries_.data() + node.first;
        uint64_t mask = kern.envelope_intersects(
            query, entry_env_.Slice(node.first, node.count));
        while (mask != 0) {
          const int i = std::countr_zero(mask);
          mask &= mask - 1;
          if (!visitor(entries[i])) {
            if (stats != nullptr) stats->nodes_visited += visited;
            return;
          }
        }
      } else {
        uint64_t mask = kern.envelope_intersects(
            query, node_env_.Slice(node.first, node.count));
        while (mask != 0) {
          const int c = std::countr_zero(mask);
          mask &= mask - 1;
          stack[top++] = node.first + static_cast<uint32_t>(c);
        }
      }
    }
    if (stats != nullptr) stats->nodes_visited += visited;
  }

  /// Leaf-granular variant of VisitWith for batch consumers: the visitor
  /// is called once per intersecting *leaf* with that leaf's contiguous
  /// entry range and the bitmask of entries whose envelope intersects
  /// `query` (bit i addresses entries[i]; bits at or above `count` are
  /// zero; leaves with an all-zero mask are skipped). Because a leaf's
  /// entries occupy the contiguous [first, first+count) slice of
  /// entry_envelopes(), the caller can evaluate further batched envelope
  /// predicates on the same slice with zero gathering — this is the hook
  /// the GeoStore/link probes use to settle their envelope fast paths
  /// while the slice is still in cache. Consuming set bits ascending
  /// reproduces VisitWith's per-entry order exactly. Return false from
  /// the visitor to stop the traversal. Frozen trees only (BulkLoad
  /// freezes; call Freeze() after Insert).
  template <typename LeafVisitor>
  void VisitLeavesWith(const Box& query, LeafVisitor&& visitor,
                       TraversalStats* stats = nullptr) const {
    assert(frozen_ && "VisitLeavesWith requires a frozen tree");
    if (flat_nodes_.empty()) return;
    const simd::KernelTable& kern = simd::Kernels();
    uint32_t stack[32 * kMaxEntries];
    size_t top = 0;
    stack[top++] = 0;
    size_t visited = 0;
    while (top > 0) {
      const FlatNode& node = flat_nodes_[stack[--top]];
      ++visited;
      if (!node.box.Intersects(query)) continue;
      if (node.leaf != 0) {
        const uint64_t mask = kern.envelope_intersects(
            query, entry_env_.Slice(node.first, node.count));
        if (mask != 0 && !visitor(flat_entries_.data() + node.first,
                                  node.first, node.count, mask)) {
          if (stats != nullptr) stats->nodes_visited += visited;
          return;
        }
      } else {
        uint64_t mask = kern.envelope_intersects(
            query, node_env_.Slice(node.first, node.count));
        while (mask != 0) {
          const int c = std::countr_zero(mask);
          mask &= mask - 1;
          stack[top++] = node.first + static_cast<uint32_t>(c);
        }
      }
    }
    if (stats != nullptr) stats->nodes_visited += visited;
  }

  /// Most boxes one VisitLeavesMulti walk carries: one bit each in the
  /// active-member masks.
  static constexpr size_t kMaxQueries = 64;

  /// Multi-query form of VisitLeavesWith: ONE walk answers up to
  /// kMaxQueries boxes `queries[0, n)`. The walk pushes (node, active-
  /// member bitmask) pairs; at an internal node the SoA envelope kernel
  /// runs once per *active* member over the children's slice, and a child
  /// is pushed only with the members whose box reaches it. So each member
  /// touches exactly its own subtree, while nodes shared by several
  /// members are fetched once per walk instead of once per member. At a
  /// leaf the visitor is called once per active member with a non-zero
  /// entry mask, members ascending:
  ///   visitor(member, entries, first, count, mask) -> bool
  /// with the same (entries, first, count, mask) meaning as in
  /// VisitLeavesWith. Restricted to one member, the calls arrive in the
  /// order VisitLeavesWith(queries[member]) makes them, with equal masks.
  /// `stats` counts the nodes this walk popped (each at most once), which
  /// never exceeds the sum over members of their single-query counts.
  /// Return false from the visitor to stop the whole walk. Frozen trees
  /// only.
  template <typename LeafVisitor>
  void VisitLeavesMulti(const Box* queries, size_t n, LeafVisitor&& visitor,
                        TraversalStats* stats = nullptr) const {
    assert(frozen_ && "VisitLeavesMulti requires a frozen tree");
    assert(n <= kMaxQueries);
    if (flat_nodes_.empty() || n == 0) return;
    const simd::KernelTable& kern = simd::Kernels();
    uint32_t node_stack[32 * kMaxEntries];
    uint64_t member_stack[32 * kMaxEntries];
    size_t top = 0;
    uint64_t root_members = 0;
    for (size_t j = 0; j < n; ++j) {
      if (flat_nodes_[0].box.Intersects(queries[j])) {
        root_members |= uint64_t{1} << j;
      }
    }
    node_stack[top] = 0;
    member_stack[top++] = root_members;
    size_t visited = 0;
    while (top > 0) {
      --top;
      const FlatNode& node = flat_nodes_[node_stack[top]];
      uint64_t active = member_stack[top];
      ++visited;
      if (node.leaf != 0) {
        const simd::EnvelopeSpan slice =
            entry_env_.Slice(node.first, node.count);
        const Entry* entries = flat_entries_.data() + node.first;
        while (active != 0) {
          const int j = std::countr_zero(active);
          active &= active - 1;
          const uint64_t mask = kern.envelope_intersects(queries[j], slice);
          if (mask != 0 && !visitor(static_cast<size_t>(j), entries,
                                    node.first, node.count, mask)) {
            if (stats != nullptr) stats->nodes_visited += visited;
            return;
          }
        }
      } else if (active != 0) {
        // Transpose the per-member child masks into per-child member
        // masks, then push children ascending as the single-query walk
        // does.
        const simd::EnvelopeSpan slice =
            node_env_.Slice(node.first, node.count);
        uint64_t reach[kMaxEntries] = {};
        while (active != 0) {
          const int j = std::countr_zero(active);
          active &= active - 1;
          uint64_t m = kern.envelope_intersects(queries[j], slice);
          while (m != 0) {
            const int c = std::countr_zero(m);
            m &= m - 1;
            reach[c] |= uint64_t{1} << j;
          }
        }
        for (uint16_t c = 0; c < node.count; ++c) {
          if (reach[c] == 0) continue;
          node_stack[top] = node.first + c;
          member_stack[top++] = reach[c];
        }
      }
    }
    if (stats != nullptr) stats->nodes_visited += visited;
  }

  /// SoA envelope columns of the frozen leaf entries; the `first`/`count`
  /// pair of a VisitLeavesWith callback addresses a contiguous slice.
  const simd::EnvelopeColumns& entry_envelopes() const { return entry_env_; }

  /// The `k` entries nearest to `p` by box distance, closest first.
  std::vector<Entry> Nearest(const Point& p, size_t k) const;

  /// Number of tree nodes touched by the last Query/Visit call (statistics
  /// for the benchmarks; not thread-safe across concurrent queries —
  /// concurrent callers should use VisitWith with a TraversalStats).
  size_t last_nodes_visited() const { return last_nodes_visited_; }

 private:
  void VisitPointerTree(const Box& query,
                        const std::function<bool(const Entry&)>& visitor,
                        TraversalStats* stats) const;

  std::unique_ptr<Node> root_;
  size_t size_ = 0;
  bool frozen_ = false;
  std::vector<FlatNode> flat_nodes_;   // breadth-first; children contiguous
  std::vector<Entry> flat_entries_;    // leaf entries, leaf-by-leaf
  // SoA mirrors of the flat_nodes_ / flat_entries_ envelopes, built by
  // Freeze() for the batched kernels (a node's (first, count) range is a
  // contiguous slice of these columns).
  simd::EnvelopeColumns node_env_;
  simd::EnvelopeColumns entry_env_;
  mutable size_t last_nodes_visited_ = 0;
};

}  // namespace exearth::geo

#endif  // EXEARTH_GEO_RTREE_H_
