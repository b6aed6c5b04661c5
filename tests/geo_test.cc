#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/string_util.h"
#include "geo/geometry.h"
#include "geo/rtree.h"
#include "geo/wkt.h"
#include "storage/buffer_pool.h"
#include "storage/page_chain.h"
#include "storage/storage_manager.h"

namespace exearth::geo {
namespace {

Polygon MakeSquare(double x0, double y0, double size) {
  Polygon p;
  p.outer.points = {Point{x0, y0}, Point{x0 + size, y0},
                    Point{x0 + size, y0 + size}, Point{x0, y0 + size}};
  return p;
}

// --- Box -----------------------------------------------------------------

TEST(BoxTest, EmptyByDefault) {
  Box b;
  EXPECT_TRUE(b.empty());
  EXPECT_EQ(b.Area(), 0.0);
}

TEST(BoxTest, ExpandToInclude) {
  Box b;
  b.ExpandToInclude(Point{1, 2});
  EXPECT_FALSE(b.empty());
  EXPECT_EQ(b.Area(), 0.0);
  b.ExpandToInclude(Point{3, 5});
  EXPECT_DOUBLE_EQ(b.Area(), 2.0 * 3.0);
}

TEST(BoxTest, ContainsAndIntersects) {
  Box a = Box::Of(0, 0, 10, 10);
  Box b = Box::Of(2, 2, 4, 4);
  Box c = Box::Of(9, 9, 12, 12);
  Box d = Box::Of(11, 11, 12, 12);
  EXPECT_TRUE(a.Contains(b));
  EXPECT_FALSE(b.Contains(a));
  EXPECT_TRUE(a.Intersects(c));
  EXPECT_FALSE(a.Intersects(d));
  EXPECT_TRUE(a.Contains(Point{10, 10}));  // boundary inclusive
  EXPECT_FALSE(a.Contains(Point{10.001, 10}));
}

TEST(BoxTest, TouchingBoxesIntersect) {
  Box a = Box::Of(0, 0, 1, 1);
  Box b = Box::Of(1, 0, 2, 1);
  EXPECT_TRUE(a.Intersects(b));
}

TEST(BoxTest, Distance) {
  Box a = Box::Of(0, 0, 1, 1);
  EXPECT_DOUBLE_EQ(a.Distance(Point{0.5, 0.5}), 0.0);
  EXPECT_DOUBLE_EQ(a.Distance(Point{3, 1}), 2.0);
  EXPECT_DOUBLE_EQ(a.Distance(Box::Of(4, 1, 5, 2)), 3.0);
  EXPECT_DOUBLE_EQ(a.Distance(Box::Of(4, 5, 6, 7)), 5.0);  // 3-4-5 triangle
  EXPECT_DOUBLE_EQ(a.Distance(Box::Of(0.5, 0.5, 2, 2)), 0.0);
}

TEST(BoxTest, EnlargementToInclude) {
  Box a = Box::Of(0, 0, 2, 2);
  EXPECT_DOUBLE_EQ(a.EnlargementToInclude(Box::Of(0, 0, 1, 1)), 0.0);
  EXPECT_DOUBLE_EQ(a.EnlargementToInclude(Box::Of(0, 0, 4, 2)), 4.0);
}

TEST(BoxTest, Buffered) {
  Box a = Box::Of(1, 1, 2, 2).Buffered(0.5);
  EXPECT_DOUBLE_EQ(a.min_x, 0.5);
  EXPECT_DOUBLE_EQ(a.max_y, 2.5);
}

// --- Ring / Polygon --------------------------------------------------------

TEST(RingTest, SignedArea) {
  Ring ccw;
  ccw.points = {Point{0, 0}, Point{2, 0}, Point{2, 2}, Point{0, 2}};
  EXPECT_DOUBLE_EQ(ccw.SignedArea(), 4.0);
  Ring cw;
  cw.points = {Point{0, 0}, Point{0, 2}, Point{2, 2}, Point{2, 0}};
  EXPECT_DOUBLE_EQ(cw.SignedArea(), -4.0);
  EXPECT_DOUBLE_EQ(cw.Area(), 4.0);
}

TEST(RingTest, ContainsInteriorBoundaryExterior) {
  Ring r;
  r.points = {Point{0, 0}, Point{4, 0}, Point{4, 4}, Point{0, 4}};
  EXPECT_TRUE(r.Contains(Point{2, 2}));
  EXPECT_TRUE(r.Contains(Point{0, 2}));   // on edge
  EXPECT_TRUE(r.Contains(Point{4, 4}));   // on vertex
  EXPECT_FALSE(r.Contains(Point{5, 2}));
  EXPECT_FALSE(r.Contains(Point{-0.001, 2}));
}

TEST(RingTest, ContainsConcave) {
  // L-shaped ring.
  Ring r;
  r.points = {Point{0, 0}, Point{4, 0}, Point{4, 2}, Point{2, 2},
              Point{2, 4}, Point{0, 4}};
  EXPECT_TRUE(r.Contains(Point{1, 3}));
  EXPECT_TRUE(r.Contains(Point{3, 1}));
  EXPECT_FALSE(r.Contains(Point{3, 3}));  // in the notch
}

TEST(PolygonTest, AreaWithHole) {
  Polygon p = MakeSquare(0, 0, 10);
  Ring hole;
  hole.points = {Point{2, 2}, Point{4, 2}, Point{4, 4}, Point{2, 4}};
  p.holes.push_back(hole);
  EXPECT_DOUBLE_EQ(p.Area(), 100.0 - 4.0);
  EXPECT_EQ(p.NumVertices(), 8u);
}

TEST(PolygonTest, ContainsRespectsHoles) {
  Polygon p = MakeSquare(0, 0, 10);
  Ring hole;
  hole.points = {Point{2, 2}, Point{4, 2}, Point{4, 4}, Point{2, 4}};
  p.holes.push_back(hole);
  EXPECT_TRUE(p.Contains(Point{1, 1}));
  EXPECT_FALSE(p.Contains(Point{3, 3}));  // inside hole
  EXPECT_TRUE(p.Contains(Point{2, 3}));   // on hole boundary
}

TEST(MultiPolygonTest, AreaAndContains) {
  MultiPolygon mp;
  mp.polygons.push_back(MakeSquare(0, 0, 1));
  mp.polygons.push_back(MakeSquare(10, 10, 2));
  EXPECT_DOUBLE_EQ(mp.Area(), 1.0 + 4.0);
  EXPECT_TRUE(mp.Contains(Point{11, 11}));
  EXPECT_FALSE(mp.Contains(Point{5, 5}));
  EXPECT_EQ(mp.NumVertices(), 8u);
  Box env = mp.Envelope();
  EXPECT_DOUBLE_EQ(env.min_x, 0);
  EXPECT_DOUBLE_EQ(env.max_x, 12);
}

// --- Primitives -------------------------------------------------------------

TEST(PrimitivesTest, PointDistance) {
  EXPECT_DOUBLE_EQ(Distance(Point{0, 0}, Point{3, 4}), 5.0);
}

TEST(PrimitivesTest, PointSegmentDistance) {
  EXPECT_DOUBLE_EQ(PointSegmentDistance(Point{0, 1}, Point{-1, 0}, Point{1, 0}),
                   1.0);
  // Beyond the endpoint: distance to the endpoint.
  EXPECT_DOUBLE_EQ(PointSegmentDistance(Point{5, 0}, Point{-1, 0}, Point{1, 0}),
                   4.0);
  // Degenerate segment.
  EXPECT_DOUBLE_EQ(PointSegmentDistance(Point{3, 4}, Point{0, 0}, Point{0, 0}),
                   5.0);
}

TEST(PrimitivesTest, SegmentsIntersect) {
  EXPECT_TRUE(SegmentsIntersect(Point{0, 0}, Point{2, 2}, Point{0, 2},
                                Point{2, 0}));
  EXPECT_FALSE(SegmentsIntersect(Point{0, 0}, Point{1, 1}, Point{2, 2},
                                 Point{3, 3}));
  // Collinear overlapping.
  EXPECT_TRUE(SegmentsIntersect(Point{0, 0}, Point{2, 0}, Point{1, 0},
                                Point{3, 0}));
  // Touching at an endpoint.
  EXPECT_TRUE(SegmentsIntersect(Point{0, 0}, Point{1, 0}, Point{1, 0},
                                Point{2, 5}));
}

// --- Geometry predicates ----------------------------------------------------

TEST(GeometryPredicates, PointInPolygon) {
  Geometry poly(MakeSquare(0, 0, 4));
  Geometry inside(Point{1, 1});
  Geometry outside(Point{9, 9});
  EXPECT_TRUE(Intersects(poly, inside));
  EXPECT_TRUE(Intersects(inside, poly));  // symmetric
  EXPECT_FALSE(Intersects(poly, outside));
  EXPECT_TRUE(Contains(poly, inside));
  EXPECT_TRUE(Within(inside, poly));
  EXPECT_TRUE(Disjoint(poly, outside));
}

TEST(GeometryPredicates, PolygonPolygon) {
  Geometry a(MakeSquare(0, 0, 4));
  Geometry b(MakeSquare(2, 2, 4));   // overlaps a
  Geometry c(MakeSquare(10, 10, 2)); // disjoint
  Geometry d(MakeSquare(1, 1, 1));   // inside a
  EXPECT_TRUE(Intersects(a, b));
  EXPECT_FALSE(Intersects(a, c));
  EXPECT_TRUE(Contains(a, d));
  EXPECT_FALSE(Contains(a, b));
  EXPECT_TRUE(Within(d, a));
}

TEST(GeometryPredicates, NestedPolygonIntersects) {
  // One polygon fully inside another: no edge crossings, still intersects.
  Geometry outer(MakeSquare(0, 0, 10));
  Geometry inner(MakeSquare(4, 4, 1));
  EXPECT_TRUE(Intersects(outer, inner));
  EXPECT_TRUE(Intersects(inner, outer));
}

TEST(GeometryPredicates, HolePreventsContainment) {
  Polygon donut = MakeSquare(0, 0, 10);
  Ring hole;
  hole.points = {Point{3, 3}, Point{7, 3}, Point{7, 7}, Point{3, 7}};
  donut.holes.push_back(hole);
  Geometry a(donut);
  Geometry in_hole(MakeSquare(4, 4, 1));
  EXPECT_FALSE(Contains(a, in_hole));
  Geometry solid_part(MakeSquare(0.5, 0.5, 1));
  EXPECT_TRUE(Contains(a, solid_part));
}

TEST(GeometryPredicates, LineStringPolygon) {
  LineString crossing;
  crossing.points = {Point{-1, 2}, Point{5, 2}};
  LineString outside;
  outside.points = {Point{-5, -5}, Point{-4, -4}};
  Geometry poly(MakeSquare(0, 0, 4));
  EXPECT_TRUE(Intersects(Geometry(crossing), poly));
  EXPECT_FALSE(Intersects(Geometry(outside), poly));
  LineString inside;
  inside.points = {Point{1, 1}, Point{2, 2}};
  EXPECT_TRUE(Contains(poly, Geometry(inside)));
}

TEST(GeometryPredicates, LineStringLineString) {
  LineString a;
  a.points = {Point{0, 0}, Point{4, 4}};
  LineString b;
  b.points = {Point{0, 4}, Point{4, 0}};
  LineString c;
  c.points = {Point{10, 10}, Point{11, 11}};
  EXPECT_TRUE(Intersects(Geometry(a), Geometry(b)));
  EXPECT_FALSE(Intersects(Geometry(a), Geometry(c)));
  EXPECT_DOUBLE_EQ(Distance(Geometry(a), Geometry(b)), 0.0);
}

TEST(GeometryPredicates, MultiPolygonIntersects) {
  MultiPolygon mp;
  mp.polygons.push_back(MakeSquare(0, 0, 1));
  mp.polygons.push_back(MakeSquare(10, 0, 1));
  Geometry gmp(mp);
  EXPECT_TRUE(Intersects(gmp, Geometry(Point{10.5, 0.5})));
  EXPECT_FALSE(Intersects(gmp, Geometry(Point{5, 0.5})));
  EXPECT_TRUE(Intersects(gmp, Geometry(MakeSquare(0.5, 0.5, 10))));
}

TEST(GeometryPredicates, IntersectsBox) {
  Geometry poly(MakeSquare(0, 0, 4));
  EXPECT_TRUE(Intersects(poly, Box::Of(3, 3, 5, 5)));
  EXPECT_FALSE(Intersects(poly, Box::Of(5, 5, 6, 6)));
  // Box fully inside polygon.
  EXPECT_TRUE(Intersects(poly, Box::Of(1, 1, 2, 2)));
  // Polygon fully inside box.
  EXPECT_TRUE(Intersects(poly, Box::Of(-10, -10, 10, 10)));
  Geometry pt(Point{1, 1});
  EXPECT_TRUE(Intersects(pt, Box::Of(0, 0, 2, 2)));
  EXPECT_FALSE(Intersects(pt, Box::Of(2, 2, 3, 3)));
}

TEST(GeometryPredicates, DistancePolygonPolygon) {
  Geometry a(MakeSquare(0, 0, 1));
  Geometry b(MakeSquare(4, 0, 1));
  EXPECT_DOUBLE_EQ(Distance(a, b), 3.0);
  EXPECT_TRUE(WithinDistance(a, b, 3.0));
  EXPECT_FALSE(WithinDistance(a, b, 2.9));
  Geometry c(MakeSquare(0.5, 0.5, 1));
  EXPECT_DOUBLE_EQ(Distance(a, c), 0.0);
}

TEST(GeometryPredicates, DistancePointGeometry) {
  Geometry poly(MakeSquare(0, 0, 2));
  EXPECT_DOUBLE_EQ(Distance(Geometry(Point{5, 0}), poly), 3.0);
  EXPECT_DOUBLE_EQ(Distance(Geometry(Point{1, 1}), poly), 0.0);
  LineString ls;
  ls.points = {Point{0, 10}, Point{10, 10}};
  EXPECT_DOUBLE_EQ(Distance(Geometry(Point{5, 13}), Geometry(ls)), 3.0);
}

TEST(GeometryTest, EnvelopeAndVertices) {
  Geometry p(Point{3, 4});
  EXPECT_TRUE(p.Envelope().Contains(Point{3, 4}));
  EXPECT_EQ(p.NumVertices(), 1u);
  MultiPolygon mp;
  mp.polygons.push_back(MakeSquare(0, 0, 1));
  mp.polygons.push_back(MakeSquare(2, 2, 1));
  Geometry g(mp);
  EXPECT_EQ(g.NumVertices(), 8u);
  EXPECT_DOUBLE_EQ(g.Area(), 2.0);
}

// --- WKT ---------------------------------------------------------------------

TEST(WktTest, ParsePoint) {
  auto r = ParseWkt("POINT (3.5 -2)");
  ASSERT_TRUE(r.ok()) << r.status();
  ASSERT_TRUE(r->IsPoint());
  EXPECT_DOUBLE_EQ(r->AsPoint().x, 3.5);
  EXPECT_DOUBLE_EQ(r->AsPoint().y, -2.0);
}

TEST(WktTest, ParseLineString) {
  auto r = ParseWkt("LINESTRING (0 0, 1 1, 2 0)");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->AsLineString().points.size(), 3u);
}

TEST(WktTest, ParsePolygonWithHole) {
  auto r = ParseWkt(
      "POLYGON ((0 0, 10 0, 10 10, 0 10, 0 0), (2 2, 4 2, 4 4, 2 4, 2 2))");
  ASSERT_TRUE(r.ok()) << r.status();
  const Polygon& p = r->AsPolygon();
  EXPECT_EQ(p.outer.points.size(), 4u);  // closing vertex dropped
  ASSERT_EQ(p.holes.size(), 1u);
  EXPECT_DOUBLE_EQ(p.Area(), 96.0);
}

TEST(WktTest, ParseMultiPolygon) {
  auto r = ParseWkt(
      "MULTIPOLYGON (((0 0, 1 0, 1 1, 0 1, 0 0)), ((5 5, 6 5, 6 6, 5 6, 5 "
      "5)))");
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(r->AsMultiPolygon().polygons.size(), 2u);
  EXPECT_DOUBLE_EQ(r->Area(), 2.0);
}

TEST(WktTest, CaseInsensitiveTag) {
  EXPECT_TRUE(ParseWkt("point(1 2)").ok());
  EXPECT_TRUE(ParseWkt("Polygon((0 0,1 0,1 1,0 1,0 0))").ok());
}

TEST(WktTest, RejectsMalformed) {
  EXPECT_FALSE(ParseWkt("").ok());
  EXPECT_FALSE(ParseWkt("CIRCLE (0 0, 5)").ok());
  EXPECT_FALSE(ParseWkt("POINT (1)").ok());
  EXPECT_FALSE(ParseWkt("POINT (1 2").ok());
  EXPECT_FALSE(ParseWkt("POINT (1 2) garbage").ok());
  EXPECT_FALSE(ParseWkt("LINESTRING (0 0)").ok());
  // Unclosed ring.
  EXPECT_FALSE(ParseWkt("POLYGON ((0 0, 1 0, 1 1, 0 1))").ok());
  // Too few vertices.
  EXPECT_FALSE(ParseWkt("POLYGON ((0 0, 1 0, 0 0))").ok());
}

TEST(WktTest, RoundTripPolygon) {
  const char* wkt = "POLYGON ((0 0, 10 0, 10 10, 0 10, 0 0))";
  auto g = ParseWkt(wkt);
  ASSERT_TRUE(g.ok());
  auto g2 = ParseWkt(ToWkt(*g));
  ASSERT_TRUE(g2.ok());
  EXPECT_DOUBLE_EQ(g2->Area(), 100.0);
  EXPECT_EQ(g2->NumVertices(), g->NumVertices());
}

TEST(WktTest, RoundTripMultiPolygon) {
  MultiPolygon mp;
  mp.polygons.push_back(MakeSquare(0, 0, 2));
  mp.polygons.push_back(MakeSquare(5, 5, 3));
  Geometry g(mp);
  auto parsed = ParseWkt(ToWkt(g));
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_DOUBLE_EQ(parsed->Area(), g.Area());
}

TEST(WktTest, ToWktBox) {
  auto g = ParseWkt(ToWkt(Box::Of(0, 0, 2, 3)));
  ASSERT_TRUE(g.ok());
  EXPECT_DOUBLE_EQ(g->Area(), 6.0);
}

// --- RTree ---------------------------------------------------------------

// Ids of the entries intersecting `query`, in walk order, from a
// one-member VisitLeaves walk.
std::vector<int64_t> QueryIds(const RTree& tree, const Box& query,
                              RTree::TraversalStats* stats = nullptr) {
  std::vector<int64_t> out;
  tree.VisitLeaves(
      &query, 1,
      [&](size_t, const RTree::Entry* es, uint32_t, uint16_t, uint64_t hits) {
        for (; hits != 0; hits &= hits - 1) {
          out.push_back(es[std::countr_zero(hits)].id);
        }
        return true;
      },
      stats);
  return out;
}

// Ids of `entries` whose box intersects `query`: the reference every
// R-tree walk is checked against.
std::set<int64_t> BruteForceIds(const std::vector<RTree::Entry>& entries,
                                const Box& query) {
  std::set<int64_t> out;
  for (const auto& e : entries) {
    if (e.box.Intersects(query)) out.insert(e.id);
  }
  return out;
}

// Random boxes of side up to `max_side` in [0, 1000)^2.
std::vector<RTree::Entry> RandomEntries(common::Rng* rng, int n,
                                        double max_side) {
  std::vector<RTree::Entry> entries;
  for (int i = 0; i < n; ++i) {
    double x = rng->UniformDouble(0, 1000);
    double y = rng->UniformDouble(0, 1000);
    double w = rng->UniformDouble(0, max_side);
    double h = rng->UniformDouble(0, max_side);
    entries.push_back({Box::Of(x, y, x + w, y + h), i});
  }
  return entries;
}

TEST(RTreeTest, EmptyTreeQueries) {
  RTree tree;
  EXPECT_EQ(tree.size(), 0u);
  RTree::TraversalStats stats;
  EXPECT_TRUE(QueryIds(tree, Box::Of(0, 0, 1, 1), &stats).empty());
  EXPECT_EQ(stats.nodes_visited, 0u);
}

TEST(RTreeTest, QueryMatchesBruteForce) {
  common::Rng rng(42);
  const std::vector<RTree::Entry> entries = RandomEntries(&rng, 2000, 5);
  RTree tree = RTree::BulkLoad(entries);
  for (int q = 0; q < 50; ++q) {
    double x = rng.UniformDouble(0, 950);
    double y = rng.UniformDouble(0, 950);
    Box query = Box::Of(x, y, x + 50, y + 50);
    auto hits = QueryIds(tree, query);
    std::set<int64_t> actual(hits.begin(), hits.end());
    EXPECT_EQ(actual.size(), hits.size()) << "an entry reported twice";
    EXPECT_EQ(actual, BruteForceIds(entries, query)) << "query " << q;
  }
}

TEST(RTreeTest, BulkLoadMatchesBruteForce) {
  common::Rng rng(43);
  std::vector<RTree::Entry> entries;
  for (int i = 0; i < 5000; ++i) {
    double x = rng.UniformDouble(0, 1000);
    double y = rng.UniformDouble(0, 1000);
    entries.push_back({Box::Of(x, y, x + 1, y + 1), i});
  }
  RTree tree = RTree::BulkLoad(entries);
  EXPECT_EQ(tree.size(), 5000u);
  for (int q = 0; q < 30; ++q) {
    double x = rng.UniformDouble(0, 900);
    double y = rng.UniformDouble(0, 900);
    Box query = Box::Of(x, y, x + 100, y + 100);
    auto hits = QueryIds(tree, query);
    std::set<int64_t> actual(hits.begin(), hits.end());
    EXPECT_EQ(actual, BruteForceIds(entries, query));
  }
}

TEST(RTreeTest, BulkLoadEmptyAndSingle) {
  RTree empty = RTree::BulkLoad({});
  EXPECT_EQ(empty.size(), 0u);
  EXPECT_TRUE(QueryIds(empty, Box::Of(0, 0, 1, 1)).empty());
  RTree single = RTree::BulkLoad({{Box::Of(0, 0, 1, 1), 7}});
  EXPECT_EQ(single.size(), 1u);
  RTree::TraversalStats stats;
  auto hits = QueryIds(single, Box::Of(0.5, 0.5, 2, 2), &stats);
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0], 7);
  EXPECT_EQ(stats.nodes_visited, 1u);  // the root is the only leaf
  EXPECT_TRUE(QueryIds(single, Box::Of(2, 2, 3, 3)).empty());
}

TEST(RTreeTest, VisitEarlyStop) {
  std::vector<RTree::Entry> entries;
  for (int i = 0; i < 100; ++i) entries.push_back({Box::Of(0, 0, 1, 1), i});
  RTree tree = RTree::BulkLoad(entries);
  // Stopping mid-leaf ends the whole walk: no further leaf is visited.
  int leaves = 0;
  const Box query = Box::Of(0, 0, 1, 1);
  tree.VisitLeaves(&query, 1,
                   [&](size_t, const RTree::Entry*, uint32_t, uint16_t,
                       uint64_t) { return ++leaves < 5; });
  EXPECT_EQ(leaves, 5);
}

TEST(RTreeTest, QueryTouchesFewNodesOnPointQuery) {
  common::Rng rng(45);
  std::vector<RTree::Entry> entries;
  for (int i = 0; i < 20000; ++i) {
    double x = rng.UniformDouble(0, 1000);
    double y = rng.UniformDouble(0, 1000);
    entries.push_back({Box::Of(x, y, x + 0.1, y + 0.1), i});
  }
  RTree tree = RTree::BulkLoad(entries);
  RTree::TraversalStats stats;
  QueryIds(tree, Box::Of(500, 500, 500.5, 500.5), &stats);
  // A point-ish query should touch a tiny fraction of ~1400 nodes.
  EXPECT_GT(stats.nodes_visited, 0u);
  EXPECT_LT(stats.nodes_visited, 60u);
}

TEST(RTreeTest, MoveSemantics) {
  RTree a = RTree::BulkLoad({{Box::Of(0, 0, 1, 1), 1}});
  RTree b = std::move(a);
  EXPECT_EQ(b.size(), 1u);
  EXPECT_EQ(QueryIds(b, Box::Of(0, 0, 2, 2)), std::vector<int64_t>{1});
  RTree c;
  c = std::move(b);
  EXPECT_EQ(QueryIds(c, Box::Of(0, 0, 2, 2)), std::vector<int64_t>{1});
  EXPECT_EQ(c.entry_envelopes().size(), 1u);
}

// Boxes of varied size (up to 8 wide, so leaves overlap) against a
// brute-force scan, with every query's walk cross-checked against the
// arena's SoA envelope columns.
TEST(RTreeTest, FrozenMatchesIncrementalRandomized) {
  common::Rng rng(46);
  const std::vector<RTree::Entry> entries = RandomEntries(&rng, 3000, 8);
  RTree tree = RTree::BulkLoad(entries);
  ASSERT_EQ(tree.entry_envelopes().size(), entries.size());
  for (int q = 0; q < 80; ++q) {
    double x = rng.UniformDouble(0, 950);
    double y = rng.UniformDouble(0, 950);
    Box query = Box::Of(x, y, x + 60, y + 60);
    std::set<int64_t> actual;
    tree.VisitLeaves(
        &query, 1,
        [&](size_t, const RTree::Entry* es, uint32_t first, uint16_t count,
            uint64_t hits) {
          EXPECT_LE(count, RTree::kMaxEntries);
          EXPECT_EQ(hits >> count, 0u) << "bits beyond the leaf";
          for (uint16_t i = 0; i < count; ++i) {
            EXPECT_EQ(tree.entry_envelopes().At(first + i).min_x,
                      es[i].box.min_x);
            if (((hits >> i) & 1) != 0) actual.insert(es[i].id);
          }
          return true;
        });
    EXPECT_EQ(actual, BruteForceIds(entries, query)) << "query " << q;
  }
}

TEST(RTreeTest, VisitWithReportsStatsAndStopsEarly) {
  std::vector<RTree::Entry> entries;
  for (int i = 0; i < 1000; ++i) {
    entries.push_back({Box::Of(i, 0, i + 0.5, 1), i});
  }
  RTree tree = RTree::BulkLoad(entries);
  const Box query = Box::Of(0, 0, 1000, 1);
  RTree::TraversalStats stats;
  size_t leaves = 0;
  tree.VisitLeaves(
      &query, 1,
      [&](size_t, const RTree::Entry*, uint32_t, uint16_t, uint64_t) {
        return ++leaves < 7;
      },
      &stats);
  EXPECT_EQ(leaves, 7u);
  EXPECT_GT(stats.nodes_visited, 0u);
  // A full traversal visits more nodes than the early-stopped one, and
  // stats accumulate across walks.
  RTree::TraversalStats full;
  QueryIds(tree, query, &full);
  EXPECT_GT(full.nodes_visited, stats.nodes_visited);
  const size_t once = full.nodes_visited;
  QueryIds(tree, query, &full);
  EXPECT_EQ(full.nodes_visited, 2 * once);
}

// The FreezeTo stream of `tree`, read back byte by byte.
std::string ArenaBytes(const RTree& tree) {
  storage::MemoryStorageManager mem;
  storage::BufferPool pool(&mem, 16);
  storage::PageId head = storage::kInvalidPageId;
  EXPECT_TRUE(tree.FreezeTo(&pool, &head).ok());
  storage::PageChainReader reader(&pool, head);
  std::string bytes;
  char c = 0;
  while (!reader.AtEnd() && reader.Read(&c, 1).ok()) bytes.push_back(c);
  return bytes;
}

// Pins the arena BulkLoad lays out: the FreezeTo stream of seeded inputs,
// spanning a lone leaf, a full leaf, the first two-level tree and a
// three-level one, with entries of equal centres (ties the STR sorts
// break by their own element order). The digests were taken from the
// pointer-tree build this direct build replaced, so the two produce
// byte-identical arenas — and therefore identical walks.
TEST(RTreeTest, BulkLoadArenaLayoutIsGolden) {
  const std::vector<std::pair<int, uint64_t>> golden = {
      {1, 0x6743763992c81e34ull},
      {16, 0x81699d7c0ad4fc34ull},
      {17, 0x7b384f6d708ab002ull},
      {5000, 0xb99e31d24c35b2c5ull}};
  for (const auto& [n, digest] : golden) {
    common::Rng rng(1000 + static_cast<uint64_t>(n));
    std::vector<RTree::Entry> entries;
    for (int i = 0; i < n; ++i) {
      // Every third entry is centred on a shared lattice point, with
      // differing extents, so sorts see equal centres at every level.
      double x = rng.UniformDouble(0, 1000);
      double y = rng.UniformDouble(0, 1000);
      if (i % 3 == 0) {
        x = std::floor(x / 250) * 250;
        y = std::floor(y / 250) * 250;
      }
      const double r = rng.UniformDouble(0, 4);
      entries.push_back({Box::Of(x - r, y - r, x + r, y + r), i});
    }
    const std::string bytes = ArenaBytes(RTree::BulkLoad(entries));
    EXPECT_EQ(common::Fnv1a(bytes), digest)
        << n << " entries: 0x" << std::hex << common::Fnv1a(bytes);
  }
}

// The empty tree has an arena too: a header with zero nodes and entries,
// which OpenFrozen reads back as an empty tree.
TEST(RTreeTest, EmptyTreeRoundTripsThroughFreezeTo) {
  storage::MemoryStorageManager mem;
  storage::BufferPool pool(&mem, 4);
  storage::PageId head = storage::kInvalidPageId;
  ASSERT_TRUE(RTree::BulkLoad({}).FreezeTo(&pool, &head).ok());
  auto opened = RTree::OpenFrozen(&pool, head);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  EXPECT_EQ(opened->size(), 0u);
  EXPECT_TRUE(QueryIds(*opened, Box::Of(0, 0, 1, 1)).empty());
}

}  // namespace
}  // namespace exearth::geo
