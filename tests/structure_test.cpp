// Unit + property tests for lowering, CFG loop analysis, and structure
// recovery (validated against the ground-truth oracle).
#include <gtest/gtest.h>

#include "pathview/structure/cfg.hpp"
#include "pathview/structure/lower.hpp"
#include "pathview/structure/recovery.hpp"
#include "pathview/workloads/mesh.hpp"
#include "pathview/workloads/paper_example.hpp"
#include "pathview/workloads/random_program.hpp"

namespace pathview::structure {
namespace {

model::Program nested_loops_program() {
  model::ProgramBuilder b;
  const auto file = b.file("x.c", b.module("a.out"));
  const auto p = b.proc("p", file, 1);
  const auto l1 = b.in(p).loop(2, 3);
  const auto l2 = b.in(p, l1).loop(3, 3);
  b.in(p, l2).compute(4, model::make_cost(1));
  b.in(p, l1).compute(5, model::make_cost(1));
  const auto l3 = b.in(p).loop(7, 2);
  b.in(p, l3).compute(8, model::make_cost(1));
  b.set_entry(p);
  return b.finish();
}

TEST(Lowering, AssignsDistinctAddresses) {
  const model::Program prog = nested_loops_program();
  const Lowering lw(prog);
  std::vector<Addr> addrs;
  for (model::StmtId s = 0; s < prog.stmts().size(); ++s)
    addrs.push_back(lw.addr(model::kTopLevelFrame, s));
  std::sort(addrs.begin(), addrs.end());
  EXPECT_EQ(std::adjacent_find(addrs.begin(), addrs.end()), addrs.end());
}

TEST(Lowering, LineMapCoversEveryAddress) {
  const model::Program prog = nested_loops_program();
  const Lowering lw(prog);
  for (model::StmtId s = 0; s < prog.stmts().size(); ++s) {
    const LineEntry* le = lw.image().find_line(lw.addr(model::kTopLevelFrame, s));
    ASSERT_NE(le, nullptr);
    EXPECT_EQ(le->line, prog.stmt(s).line);
  }
}

TEST(Lowering, ProcRangesDisjointAndResolvable) {
  const model::Program prog = nested_loops_program();
  const Lowering lw(prog);
  const BinProc* bp = lw.image().find_proc(lw.proc_entry(0));
  ASSERT_NE(bp, nullptr);
  EXPECT_EQ(bp->entry, lw.proc_entry(0));
  EXPECT_EQ(lw.image().find_proc(0x10), nullptr);
}

TEST(Lowering, InlineRegionsNestAndMap) {
  workloads::MeshWorkload w = workloads::make_mesh();
  const BinaryImage& img = w.lowering->image();
  ASSERT_FALSE(img.inline_regions().empty());
  // compare is inlined into find which is inlined into get_coords: there
  // must be a region whose parent is another region.
  bool nested = false;
  for (const InlineRegion& r : img.inline_regions())
    if (r.parent != kNoParent) nested = true;
  EXPECT_TRUE(nested);
  // Addresses inside a nested region report the full chain.
  for (std::uint32_t i = 0; i < img.inline_regions().size(); ++i) {
    const InlineRegion& r = img.inline_regions()[i];
    if (r.parent == kNoParent || r.begin == r.end) continue;
    const auto chain = img.inline_chain(r.begin);
    ASSERT_GE(chain.size(), 2u);
    EXPECT_EQ(chain.back(), i);
    EXPECT_EQ(chain[chain.size() - 2], r.parent);
  }
}

TEST(Lowering, RecursiveInlinableIsNotInlinedIntoItself) {
  model::ProgramBuilder b;
  const auto file = b.file("x.c", b.module("a.out"));
  const auto p = b.proc("p", file, 1);
  const auto q = b.proc("q", file, 10, {.inlinable = true});
  b.in(p).call(2, q);
  b.in(q).compute(11, model::make_cost(1)).call(12, q, {.max_rec_depth = 2});
  b.set_entry(p);
  const model::Program prog = b.finish();
  const Lowering lw(prog);
  // q inlined into p once; q's self-call inside the expansion must be a
  // dynamic call (no expansion registered).
  const model::StmtId self_call = prog.proc(q).body[1];
  const model::InlineFrameId exp =
      lw.inline_expansion(model::kTopLevelFrame, prog.proc(p).body[0]) !=
              model::kNotInlined
          ? lw.inline_expansion(model::kTopLevelFrame, prog.proc(p).body[0])
          : model::kNotInlined;
  ASSERT_NE(exp, model::kNotInlined);
  EXPECT_EQ(lw.inline_expansion(exp, self_call), model::kNotInlined);
}

TEST(Cfg, DominatorsOfDiamond) {
  // Hand-build an image: entry -> a -> b, entry -> a -> c, b/c -> d, with a
  // back edge d -> a (natural loop {a,b,c,d}).
  BinaryImage img;
  const NameId f = img.names().intern("x.c");
  auto line = [&](Addr a) { img.lines().push_back(LineEntry{a, f, 1}); };
  for (Addr a = 100; a <= 104; ++a) line(a);
  auto edge = [&](Addr s, Addr d) { img.edges().push_back(CfgEdge{s, d}); };
  edge(100, 101);            // entry -> a
  edge(101, 102);            // a -> b
  edge(101, 103);            // a -> c
  edge(102, 104);            // b -> d
  edge(103, 104);            // c -> d
  edge(104, 101);            // back edge d -> a
  img.procs().push_back(BinProc{100, 105, img.names().intern("p"),
                                img.names().intern("m"), f, 1, true});
  img.finalize();

  const Cfg cfg = Cfg::build(img, 100, 105);
  ASSERT_EQ(cfg.size(), 5u);
  const auto idom = cfg.immediate_dominators();
  EXPECT_EQ(idom[cfg.node_of(101)], cfg.node_of(100));
  EXPECT_EQ(idom[cfg.node_of(102)], cfg.node_of(101));
  EXPECT_EQ(idom[cfg.node_of(103)], cfg.node_of(101));
  EXPECT_EQ(idom[cfg.node_of(104)], cfg.node_of(101));  // join dominated by a

  const LoopNest nest = find_loops(cfg);
  ASSERT_EQ(nest.loops.size(), 1u);
  EXPECT_EQ(cfg.addr(nest.loops[0].header), 101u);
  EXPECT_EQ(nest.loops[0].body.size(), 4u);  // a, b, c, d
}

TEST(Cfg, NestedNaturalLoops) {
  const model::Program prog = nested_loops_program();
  const Lowering lw(prog);
  const BinaryImage& img = lw.image();
  const BinProc& bp = img.procs().front();
  const Cfg cfg = Cfg::build(img, bp.entry, bp.end);
  const LoopNest nest = find_loops(cfg);
  ASSERT_EQ(nest.loops.size(), 3u);
  int with_parent = 0;
  for (const NaturalLoop& l : nest.loops) with_parent += (l.parent != kNoLoop);
  EXPECT_EQ(with_parent, 1);  // only l2 nests inside l1
}

TEST(Cfg, IrreducibleGraphYieldsNoBogusLoops) {
  // Two-entry "loop" (irreducible): entry -> a, entry -> b, a <-> b.
  // Neither a nor b dominates the other, so neither backward edge is a
  // natural back edge: recovery must yield zero loops (and not crash).
  BinaryImage img;
  const NameId f = img.names().intern("x.c");
  for (Addr a = 200; a <= 202; ++a)
    img.lines().push_back(LineEntry{a, f, 1});
  auto edge = [&](Addr s, Addr d) { img.edges().push_back(CfgEdge{s, d}); };
  edge(200, 201);  // entry -> a
  edge(200, 202);  // entry -> b
  edge(201, 202);  // a -> b
  edge(202, 201);  // b -> a
  img.procs().push_back(BinProc{200, 203, img.names().intern("p"),
                                img.names().intern("m"), f, 1, true});
  img.finalize();
  const Cfg cfg = Cfg::build(img, 200, 203);
  const LoopNest nest = find_loops(cfg);
  EXPECT_TRUE(nest.loops.empty());
  // And full recovery still produces a sane tree.
  const StructureTree tree = recover_structure(img);
  EXPECT_GE(tree.size(), 4u);  // root, module, file, proc, stmt
}

TEST(Cfg, SelfLoopIsANaturalLoop) {
  BinaryImage img;
  const NameId f = img.names().intern("x.c");
  for (Addr a = 300; a <= 301; ++a)
    img.lines().push_back(LineEntry{a, f, 2});
  img.edges().push_back(CfgEdge{300, 301});
  img.edges().push_back(CfgEdge{301, 301});  // self loop
  img.procs().push_back(BinProc{300, 302, img.names().intern("q"),
                                img.names().intern("m"), f, 2, true});
  img.finalize();
  const Cfg cfg = Cfg::build(img, 300, 302);
  const LoopNest nest = find_loops(cfg);
  ASSERT_EQ(nest.loops.size(), 1u);
  EXPECT_EQ(nest.loops[0].body.size(), 1u);
  EXPECT_EQ(cfg.addr(nest.loops[0].header), 301u);
}

TEST(Recovery, MatchesGroundTruthOnPaperExample) {
  workloads::PaperExample ex;
  const StructureTree truth =
      ground_truth_structure(ex.program(), ex.lowering());
  std::string why;
  EXPECT_TRUE(StructureTree::equivalent(ex.tree(), truth, &why)) << why;
}

TEST(Recovery, MatchesGroundTruthOnMeshWorkloadWithInlining) {
  workloads::MeshWorkload w = workloads::make_mesh();
  const StructureTree truth = ground_truth_structure(*w.program, *w.lowering);
  std::string why;
  EXPECT_TRUE(StructureTree::equivalent(*w.tree, truth, &why)) << why;
}

// Property: recovery equals ground truth on randomized programs.
class RecoveryProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RecoveryProperty, RecoveredTreeEqualsGroundTruth) {
  workloads::Workload w =
      workloads::make_random_program({.seed = GetParam()});
  const StructureTree truth = ground_truth_structure(*w.program, *w.lowering);
  std::string why;
  EXPECT_TRUE(StructureTree::equivalent(*w.tree, truth, &why)) << why;
}

INSTANTIATE_TEST_SUITE_P(Seeds, RecoveryProperty,
                         ::testing::Range<std::uint64_t>(1, 21));

TEST(StructureTree, PathAndEnclosingQueries) {
  workloads::PaperExample ex;
  const StructureTree& t = ex.tree();
  // Find h's inner-loop stmt via its address.
  const Addr a = ex.lowering().addr(model::kTopLevelFrame, ex.stmt_l2);
  const SNodeId loop_node = t.stmt_of_addr(a);
  ASSERT_NE(loop_node, kSNull);
  const auto path = t.path_from_proc(loop_node);
  ASSERT_GE(path.size(), 2u);
  EXPECT_EQ(t.node(path.front()).kind, SKind::kProc);
  EXPECT_EQ(t.name_of(path.front()), "h");
  EXPECT_EQ(path.back(), loop_node);
  EXPECT_EQ(t.enclosing_proc(loop_node), path.front());
  EXPECT_EQ(t.node(t.enclosing_file(loop_node)).kind, SKind::kFile);

  // scopes_below_proc is the path's interior, innermost first, for every
  // scope of the tree: procs and scopes outside any proc included.
  std::vector<SNodeId> below{42};  // stale contents are cleared
  t.scopes_below_proc(loop_node, below);
  EXPECT_EQ(below, std::vector<SNodeId>(path.rbegin() + 1, path.rend() - 1));
  EXPECT_EQ(below.size(), 2u);  // h's two loops
  for (SNodeId n = 0; n < t.size(); ++n) {
    const auto p = t.path_from_proc(n);
    t.scopes_below_proc(n, below);
    if (p.size() < 2) {
      EXPECT_TRUE(below.empty()) << n;
    } else {
      EXPECT_EQ(below, std::vector<SNodeId>(p.rbegin() + 1, p.rend() - 1))
          << n;
    }
  }
}

}  // namespace
}  // namespace pathview::structure
