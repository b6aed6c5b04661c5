#include "geo/rtree.h"

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include "common/string_util.h"
#include "storage/page_chain.h"

namespace exearth::geo {

namespace {

using FlatNode = RTree::FlatNode;

// One STR level: sorts `items` (the level below) by centre x, cuts them
// into ceil(sqrt(parents)) vertical strips, sorts each strip by centre y
// and returns one node per run of kMaxEntries consecutive items. A node's
// (first, count) addresses its run in the sorted `items`; its box covers
// them.
template <typename Item, typename BoxOf>
std::vector<FlatNode> PackLevel(std::vector<Item>* items, BoxOf box_of) {
  constexpr size_t cap = RTree::kMaxEntries;
  std::sort(items->begin(), items->end(), [&](const Item& a, const Item& b) {
    return box_of(a).Center().x < box_of(b).Center().x;
  });
  const size_t m = items->size();
  const size_t parents = (m + cap - 1) / cap;
  const size_t strips =
      static_cast<size_t>(std::ceil(std::sqrt(static_cast<double>(parents))));
  const size_t strip_size = (m + strips - 1) / strips;
  std::vector<FlatNode> out;
  out.reserve(parents + strips);
  for (size_t begin = 0; begin < m; begin += strip_size) {
    const size_t end = std::min(begin + strip_size, m);
    std::sort(items->begin() + begin, items->begin() + end,
              [&](const Item& a, const Item& b) {
                return box_of(a).Center().y < box_of(b).Center().y;
              });
    for (size_t i = begin; i < end; i += cap) {
      FlatNode node;
      node.first = static_cast<uint32_t>(i);
      node.count = static_cast<uint16_t>(std::min(i + cap, end) - i);
      for (size_t j = i; j < i + node.count; ++j) {
        node.box.ExpandToInclude(box_of((*items)[j]));
      }
      out.push_back(node);
    }
  }
  return out;
}

}  // namespace

RTree RTree::BulkLoad(std::vector<Entry> entries) {
  RTree tree;
  if (entries.empty()) return tree;

  // levels[0] are the leaves; each level's (first, count) ranges address
  // the level below in the order it was left by the sort that built the
  // level above (for leaves: the sorted `entries`).
  std::vector<std::vector<FlatNode>> levels;
  levels.push_back(
      PackLevel(&entries, [](const Entry& e) -> const Box& { return e.box; }));
  for (FlatNode& leaf : levels[0]) leaf.leaf = 1;
  while (levels.back().size() > 1) {
    std::vector<FlatNode> parents = PackLevel(
        &levels.back(), [](const FlatNode& n) -> const Box& { return n.box; });
    levels.push_back(std::move(parents));
  }

  // Breadth-first layout from the root: a node's children are appended
  // consecutively when it is laid out, so one (first, count) pair
  // addresses them in the arena and sibling subtrees stay adjacent.
  const size_t n = entries.size();
  tree.flat_entries_.reserve(n);
  tree.entry_env_.Reserve(n);
  std::vector<std::pair<size_t, uint32_t>> bfs = {{levels.size() - 1, 0}};
  for (size_t i = 0; i < bfs.size(); ++i) {
    const auto [level, index] = bfs[i];
    FlatNode fn = levels[level][index];
    const uint32_t src = fn.first;
    if (level == 0) {
      fn.first = static_cast<uint32_t>(tree.flat_entries_.size());
      for (uint32_t e = src; e < src + fn.count; ++e) {
        tree.flat_entries_.push_back(entries[e]);
        tree.entry_env_.PushBack(entries[e].box);
      }
    } else {
      fn.first = static_cast<uint32_t>(bfs.size());
      for (uint32_t c = src; c < src + fn.count; ++c) {
        bfs.emplace_back(level - 1, c);
      }
    }
    tree.flat_nodes_.push_back(fn);
    tree.node_env_.PushBack(fn.box);
  }
  return tree;
}

namespace {

// On-disk frozen-tree stream (through a PageChain). Little-endian,
// pinned by the golden fixture alongside the page/WAL formats.
constexpr uint64_t kFrozenMagic = 0x3145525452414545ull;  // "EEARTRE1"
constexpr uint32_t kFrozenVersion = 1;

common::Status WriteBox(storage::PageChainWriter* w, const Box& b) {
  EEA_RETURN_NOT_OK(w->WriteF64(b.min_x));
  EEA_RETURN_NOT_OK(w->WriteF64(b.min_y));
  EEA_RETURN_NOT_OK(w->WriteF64(b.max_x));
  return w->WriteF64(b.max_y);
}

common::Status ReadBox(storage::PageChainReader* r, Box* b) {
  EEA_ASSIGN_OR_RETURN(b->min_x, r->ReadF64());
  EEA_ASSIGN_OR_RETURN(b->min_y, r->ReadF64());
  EEA_ASSIGN_OR_RETURN(b->max_x, r->ReadF64());
  EEA_ASSIGN_OR_RETURN(b->max_y, r->ReadF64());
  return common::Status::OK();
}

common::Status Corrupt(const char* what) {
  return common::Status::IOError(
      common::StrFormat("OpenFrozen: corrupt frozen r-tree (%s)", what));
}

}  // namespace

common::Status RTree::FreezeTo(storage::BufferPool* pool,
                               storage::PageId* head) const {
  storage::PageChainWriter w(pool, /*lsn=*/0);
  EEA_RETURN_NOT_OK(w.WriteU64(kFrozenMagic));
  EEA_RETURN_NOT_OK(w.WriteU32(kFrozenVersion));
  EEA_RETURN_NOT_OK(w.WriteU64(size()));
  EEA_RETURN_NOT_OK(w.WriteU64(flat_nodes_.size()));
  EEA_RETURN_NOT_OK(w.WriteU64(flat_entries_.size()));
  for (const FlatNode& fn : flat_nodes_) {
    EEA_RETURN_NOT_OK(WriteBox(&w, fn.box));
    EEA_RETURN_NOT_OK(w.WriteU32(fn.first));
    EEA_RETURN_NOT_OK(w.WriteU32(static_cast<uint32_t>(fn.count) |
                                 (static_cast<uint32_t>(fn.leaf) << 16)));
  }
  for (const Entry& e : flat_entries_) {
    EEA_RETURN_NOT_OK(WriteBox(&w, e.box));
    EEA_RETURN_NOT_OK(w.WriteU64(std::bit_cast<uint64_t>(e.id)));
  }
  EEA_ASSIGN_OR_RETURN(*head, w.Finish());
  return common::Status::OK();
}

common::Result<RTree> RTree::OpenFrozen(storage::BufferPool* pool,
                                        storage::PageId head) {
  storage::PageChainReader r(pool, head);
  EEA_ASSIGN_OR_RETURN(uint64_t magic, r.ReadU64());
  if (magic != kFrozenMagic) {
    return common::Status::IOError(
        "OpenFrozen: page chain is not a frozen r-tree");
  }
  EEA_ASSIGN_OR_RETURN(uint32_t version, r.ReadU32());
  if (version != kFrozenVersion) {
    return common::Status::IOError(common::StrFormat(
        "OpenFrozen: frozen r-tree format version mismatch: file has v%u, "
        "this reader supports v%u",
        version, kFrozenVersion));
  }
  EEA_ASSIGN_OR_RETURN(uint64_t size, r.ReadU64());
  EEA_ASSIGN_OR_RETURN(uint64_t node_count, r.ReadU64());
  EEA_ASSIGN_OR_RETURN(uint64_t entry_count, r.ReadU64());
  if (size != entry_count) return Corrupt("size differs from entry count");
  // Counts come from storage: no reservation on their say-so. A chain
  // shorter than they claim fails the reads below.
  RTree tree;
  for (uint64_t i = 0; i < node_count; ++i) {
    FlatNode fn;
    EEA_RETURN_NOT_OK(ReadBox(&r, &fn.box));
    EEA_ASSIGN_OR_RETURN(fn.first, r.ReadU32());
    EEA_ASSIGN_OR_RETURN(uint32_t packed, r.ReadU32());
    fn.count = static_cast<uint16_t>(packed & 0xffffu);
    fn.leaf = static_cast<uint16_t>(packed >> 16);
    tree.flat_nodes_.push_back(fn);
    tree.node_env_.PushBack(fn.box);
  }
  for (uint64_t i = 0; i < entry_count; ++i) {
    Entry e;
    EEA_RETURN_NOT_OK(ReadBox(&r, &e.box));
    EEA_ASSIGN_OR_RETURN(uint64_t id, r.ReadU64());
    e.id = std::bit_cast<int64_t>(id);
    tree.flat_entries_.push_back(e);
    tree.entry_env_.PushBack(e.box);
  }
  // The arena must be exactly the breadth-first layout BulkLoad builds:
  // each internal node's children are the next unclaimed nodes after it,
  // each leaf's entries the next unclaimed entries, and nothing is left
  // over. So every node has one parent that precedes it (the walk ends),
  // every range is in bounds, and the depth check bounds the walk stack.
  uint64_t next_child = 1;
  uint64_t next_entry = 0;
  std::vector<uint8_t> depth(tree.flat_nodes_.size(), 1);
  for (size_t i = 0; i < tree.flat_nodes_.size(); ++i) {
    const FlatNode& fn = tree.flat_nodes_[i];
    if (fn.count > kMaxEntries) return Corrupt("node wider than kMaxEntries");
    if (depth[i] > kMaxDepth) return Corrupt("tree deeper than kMaxDepth");
    uint64_t& next = fn.leaf != 0 ? next_entry : next_child;
    const uint64_t limit = fn.leaf != 0 ? entry_count : node_count;
    if (fn.first != next || next + fn.count > limit ||
        (fn.leaf == 0 && fn.first <= i)) {
      return Corrupt("node range out of breadth-first order");
    }
    if (fn.leaf == 0) {
      for (uint32_t c = fn.first; c < fn.first + fn.count; ++c) {
        depth[c] = static_cast<uint8_t>(depth[i] + 1);
      }
    }
    next += fn.count;
  }
  if (next_entry != entry_count ||
      (node_count > 0 && next_child != node_count)) {
    return Corrupt("unreachable nodes or entries");
  }
  return tree;
}

}  // namespace exearth::geo
