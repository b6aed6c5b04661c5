// R-tree spatial index over (Box, id) entries, the index Strabon-style
// spatial selection pushdown (E1/E2), spatial joins and spatial link
// discovery (E10) sit on.
//
// The tree is static: BulkLoad packs it with Sort-Tile-Recursive straight
// into one contiguous arena of fixed-width FlatNodes laid out breadth-
// first (a node's children, and a leaf's entries, are contiguous, so one
// (first, count) pair addresses them), plus a second contiguous array of
// leaf entries and SoA envelope columns mirroring both. FreezeTo/
// OpenFrozen page that arena through a buffer pool unchanged.
//
// There is one traversal, VisitLeaves: one walk answers up to kMaxQueries
// boxes, pruning members per node with the geo::simd envelope kernels, and
// hands each member its intersecting entries leaf by leaf as bitmasks over
// the leaf's contiguous slice. It allocates nothing and keeps its
// statistics in the caller's TraversalStats, so concurrent walks share no
// mutable state.

#ifndef EXEARTH_GEO_RTREE_H_
#define EXEARTH_GEO_RTREE_H_

#include <bit>
#include <cassert>
#include <cstdint>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "geo/geometry.h"
#include "geo/simd.h"
#include "storage/buffer_pool.h"

namespace exearth::geo {

/// A static R-tree mapping bounding boxes to opaque int64 ids.
class RTree {
 public:
  static constexpr int kMaxEntries = 16;
  /// Deepest tree a walk's fixed stack holds (root depth 1). STR trees of
  /// any size that fits in memory stay far below it; OpenFrozen rejects
  /// deeper ones.
  static constexpr int kMaxDepth = 32;
  /// Most boxes one VisitLeaves walk carries: one bit each in the
  /// active-member masks.
  static constexpr size_t kMaxQueries = 64;

  struct Entry {
    Box box;
    int64_t id = 0;
  };

  /// Fixed-width arena node. Children of an internal node (and entries of
  /// a leaf) are contiguous, so `first` + `count` fully address them.
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

  /// Builds a tree with Sort-Tile-Recursive packing: entries sorted by
  /// centre x, cut into vertical strips, each strip sorted by centre y and
  /// packed kMaxEntries to a leaf; then the same one level up until one
  /// root remains.
  static RTree BulkLoad(std::vector<Entry> entries);

  /// Serializes the arena (FlatNodes + entries) into a page chain
  /// allocated from `pool`, returning the head page id in `*head`. Pages
  /// are written through the buffer pool; callers persist `*head` (and
  /// FlushAll/Sync) themselves.
  common::Status FreezeTo(storage::BufferPool* pool,
                          storage::PageId* head) const;

  /// Loads a tree serialized by FreezeTo. Reads go through the buffer
  /// pool (cold cache = storage reads, warm = pool hits). The arena is
  /// identical to the source tree's, so spatial query results are byte-
  /// identical by construction. A chain that is not exactly the breadth-
  /// first layout FreezeTo writes (ranges out of order or out of bounds,
  /// nodes wider than kMaxEntries or deeper than kMaxDepth, a size that
  /// disagrees with the entry count) is rejected with IOError, so no
  /// stored bytes can send a walk out of bounds or into a cycle.
  static common::Result<RTree> OpenFrozen(storage::BufferPool* pool,
                                          storage::PageId head);

  size_t size() const { return flat_entries_.size(); }

  /// ONE walk answers up to kMaxQueries boxes `queries[0, n)`. The walk
  /// pushes (node, active-member bitmask) pairs; at an internal node the
  /// SoA envelope kernel runs once per *active* member over the children's
  /// slice, and a child is pushed only with the members whose box reaches
  /// it. So each member touches exactly its own subtree, while nodes
  /// shared by several members are fetched once per walk instead of once
  /// per member. At a leaf the visitor is called once per active member
  /// whose entry mask is non-zero, members ascending:
  ///   visitor(member, entries, first, count, mask) -> bool
  /// `entries` is the leaf's contiguous entry range [first, first+count)
  /// and bit i of `mask` says entries[i]'s envelope intersects
  /// queries[member] (bits at or above `count` are zero). The same range
  /// is a contiguous slice of entry_envelopes(), so callers evaluate
  /// further batched envelope predicates on it with zero gathering.
  /// Children are pushed ascending, so one member's calls arrive in the
  /// same order, with the same masks, whether it walks alone or with
  /// others. `stats` counts the nodes this walk popped (each at most
  /// once), which never exceeds the sum over members of their one-member
  /// counts. Return false from the visitor to stop the whole walk.
  template <typename LeafVisitor>
  void VisitLeaves(const Box* queries, size_t n, LeafVisitor&& visitor,
                   TraversalStats* stats = nullptr) const {
    assert(n <= kMaxQueries);
    if (flat_nodes_.empty() || n == 0) return;
    const simd::KernelTable& kern = simd::Kernels();
    // A popped node leaves at most kMaxEntries - 1 siblings pending per
    // level above it, so kMaxDepth levels fit.
    uint32_t node_stack[kMaxDepth * kMaxEntries];
    uint64_t member_stack[kMaxDepth * kMaxEntries];
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
        const simd::EnvelopeSpan slice =
            node_env_.Slice(node.first, node.count);
        if ((active & (active - 1)) == 0) {
          // One active member (every node of a one-box walk): its child
          // mask already says which children to push, with this member.
          uint64_t m = kern.envelope_intersects(
              queries[std::countr_zero(active)], slice);
          for (; m != 0; m &= m - 1) {
            node_stack[top] = node.first + std::countr_zero(m);
            member_stack[top++] = active;
          }
          continue;
        }
        // Transpose the per-member child masks into per-child member
        // masks, then push children ascending.
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

  /// SoA envelope columns of the leaf entries; the `first`/`count` pair of
  /// a VisitLeaves callback addresses a contiguous slice.
  const simd::EnvelopeColumns& entry_envelopes() const { return entry_env_; }

 private:
  std::vector<FlatNode> flat_nodes_;  // breadth-first; children contiguous
  std::vector<Entry> flat_entries_;   // leaf entries, leaf-by-leaf
  // SoA mirrors of the flat_nodes_ / flat_entries_ envelopes for the
  // batched kernels (a node's (first, count) range is a contiguous slice
  // of these columns).
  simd::EnvelopeColumns node_env_;
  simd::EnvelopeColumns entry_env_;
};

}  // namespace exearth::geo

#endif  // EXEARTH_GEO_RTREE_H_
