#include "pathview/structure/recovery.hpp"

#include <algorithm>
#include <functional>

#include "pathview/obs/obs.hpp"
#include "pathview/structure/cfg.hpp"
#include "pathview/support/error.hpp"

namespace pathview::structure {

namespace {

/// One element of an address's container chain: either a recovered loop or
/// an inline region. Containers of a given address always form a strict
/// nesting chain, so "contains" induces a total order.
struct Container {
  bool is_loop = false;
  std::uint32_t id = 0;  // loop id (within the proc's LoopNest) or region id
};

struct ContainerOrder {
  const LoopNest* nest;
  const Cfg* cfg;
  const std::vector<InlineRegion>* regions;

  bool loop_contains_loop(std::uint32_t a, std::uint32_t b) const {
    for (std::uint32_t l = nest->loops[b].parent; l != kNoLoop;
         l = nest->loops[l].parent)
      if (l == a) return true;
    return false;
  }
  bool region_contains_region(std::uint32_t a, std::uint32_t b) const {
    for (std::uint32_t r = (*regions)[b].parent; r != kNoParent;
         r = (*regions)[r].parent)
      if (r == a) return true;
    return false;
  }
  bool region_contains_loop(std::uint32_t r, std::uint32_t l) const {
    const Addr header = cfg->addr(nest->loops[l].header);
    return header >= (*regions)[r].begin && header < (*regions)[r].end;
  }
  /// True when `a` strictly contains `b` (a is the outer scope).
  bool contains(const Container& a, const Container& b) const {
    if (a.is_loop && b.is_loop) return loop_contains_loop(a.id, b.id);
    if (!a.is_loop && !b.is_loop) return region_contains_region(a.id, b.id);
    if (!a.is_loop && b.is_loop) return region_contains_loop(a.id, b.id);
    return !region_contains_loop(b.id, a.id);
  }
};

}  // namespace

StructureTree recover_structure(const BinaryImage& img) {
  PV_SPAN("structure.recover");
  StructureTree tree;
  auto intern = [&](NameId img_name) {
    return tree.names().intern(img.names().str(img_name));
  };

  for (const BinProc& bp : img.procs()) {
    // Module and file scopes (created on first encounter, keyed by name).
    SNode mod;
    mod.kind = SKind::kModule;
    mod.name = intern(bp.module);
    const SNodeId mod_id = tree.find_or_add_child(tree.root(), std::move(mod));

    SNode file;
    file.kind = SKind::kFile;
    file.name = intern(bp.file);
    file.file = intern(bp.file);
    const SNodeId file_id = tree.find_or_add_child(mod_id, std::move(file));

    SNode proc;
    proc.kind = SKind::kProc;
    proc.name = intern(bp.name);
    proc.file = intern(bp.file);
    proc.line = bp.line;
    proc.entry = bp.entry;
    proc.has_source = bp.has_source;
    const SNodeId proc_id = tree.find_or_add_child(file_id, std::move(proc));
    tree.map_proc_entry(bp.entry, proc_id);

    // Loop recovery over the procedure's CFG.
    const Cfg cfg = Cfg::build(img, bp.entry, bp.end);
    const LoopNest nest = find_loops(cfg);
    const ContainerOrder order{&nest, &cfg, &img.inline_regions()};

    // Materialized scope node per loop / per inline region (lazily).
    std::vector<SNodeId> loop_node(nest.loops.size(), kSNull);
    std::unordered_map<std::uint32_t, SNodeId> region_node;

    auto lines_begin = std::lower_bound(
        img.lines().begin(), img.lines().end(), bp.entry,
        [](const LineEntry& e, Addr a) { return e.addr < a; });

    for (auto it = lines_begin; it != img.lines().end() && it->addr < bp.end;
         ++it) {
      const LineEntry& le = *it;

      // Collect this address's containers: loop chain + inline chain.
      std::vector<Container> chain;
      const std::uint32_t cfg_node = cfg.node_of(le.addr);
      if (cfg_node != kNoLoop) {
        for (std::uint32_t l = nest.innermost[cfg_node]; l != kNoLoop;
             l = nest.loops[l].parent)
          chain.push_back(Container{true, l});
      }
      for (std::uint32_t r : img.inline_chain(le.addr))
        chain.push_back(Container{false, r});
      std::sort(chain.begin(), chain.end(),
                [&](const Container& a, const Container& b) {
                  return order.contains(a, b);
                });

      // Materialize the scope path proc -> containers -> stmt.
      SNodeId cur = proc_id;
      for (const Container& c : chain) {
        if (c.is_loop) {
          if (loop_node[c.id] == kSNull || tree.node(loop_node[c.id]).parent != cur) {
            const Addr header = cfg.addr(nest.loops[c.id].header);
            const LineEntry* hle = img.find_line(header);
            SNode loop;
            loop.kind = SKind::kLoop;
            loop.file = hle ? intern(hle->file) : 0;
            loop.line = hle ? hle->line : 0;
            loop.entry = header;
            loop_node[c.id] = tree.find_or_add_child(cur, std::move(loop));
          }
          cur = loop_node[c.id];
        } else {
          auto rit = region_node.find(c.id);
          if (rit == region_node.end() || tree.node(rit->second).parent != cur) {
            const InlineRegion& r = img.inline_regions()[c.id];
            SNode inl;
            inl.kind = SKind::kInline;
            inl.name = intern(r.callee);
            inl.file = intern(r.callee_file);
            inl.line = r.callee_line;
            inl.call_line = r.call_line;
            inl.entry = r.begin;
            rit = region_node.insert_or_assign(
                              c.id, tree.find_or_add_child(cur, std::move(inl)))
                      .first;
          }
          cur = rit->second;
        }
      }

      SNode stmt;
      stmt.kind = SKind::kStmt;
      stmt.file = intern(le.file);
      stmt.line = le.line;
      stmt.entry = le.addr;
      const SNodeId stmt_id = tree.find_or_add_child(cur, std::move(stmt));
      tree.map_addr(le.addr, stmt_id);
    }
  }
  return tree;
}

StructureTree ground_truth_structure(const model::Program& prog,
                                     const Lowering& lowering) {
  StructureTree tree;
  auto intern = [&](const std::string& s) { return tree.names().intern(s); };

  std::function<void(const std::vector<model::StmtId>&, model::ProcId,
                     model::InlineFrameId, SNodeId)>
      walk = [&](const std::vector<model::StmtId>& body, model::ProcId owner,
                 model::InlineFrameId frame, SNodeId parent) {
        const NameId owner_file = intern(prog.file_name(prog.proc(owner).file));
        for (model::StmtId s : body) {
          const model::Stmt& st = prog.stmt(s);
          const Addr a = lowering.addr(frame, s);
          switch (st.kind) {
            case model::StmtKind::kCompute: {
              SNode stmt;
              stmt.kind = SKind::kStmt;
              stmt.file = owner_file;
              stmt.line = st.line;
              stmt.entry = a;
              tree.map_addr(a, tree.find_or_add_child(parent, std::move(stmt)));
              break;
            }
            case model::StmtKind::kBranch: {
              SNode stmt;
              stmt.kind = SKind::kStmt;
              stmt.file = owner_file;
              stmt.line = st.line;
              stmt.entry = a;
              tree.map_addr(a, tree.find_or_add_child(parent, std::move(stmt)));
              walk(st.body, owner, frame, parent);
              break;
            }
            case model::StmtKind::kLoop: {
              SNode loop;
              loop.kind = SKind::kLoop;
              loop.file = owner_file;
              loop.line = st.line;
              loop.entry = a;
              const SNodeId loop_id =
                  tree.find_or_add_child(parent, std::move(loop));
              SNode stmt;
              stmt.kind = SKind::kStmt;
              stmt.file = owner_file;
              stmt.line = st.line;
              stmt.entry = a;
              tree.map_addr(a,
                            tree.find_or_add_child(loop_id, std::move(stmt)));
              walk(st.body, owner, frame, loop_id);
              break;
            }
            case model::StmtKind::kCall: {
              SNode stmt;
              stmt.kind = SKind::kStmt;
              stmt.file = owner_file;
              stmt.line = st.line;
              stmt.entry = a;
              tree.map_addr(a, tree.find_or_add_child(parent, std::move(stmt)));
              const model::InlineFrameId exp = lowering.inline_expansion(frame, s);
              if (exp != model::kNotInlined) {
                const auto& fi = lowering.inline_frames()[exp];
                const InlineRegion& r = lowering.image().inline_regions()[fi.region];
                const model::Procedure& cp = prog.proc(fi.callee);
                SNode inl;
                inl.kind = SKind::kInline;
                inl.name = intern(prog.names().str(cp.name));
                inl.file = intern(prog.file_name(cp.file));
                inl.line = cp.begin_line;
                inl.call_line = st.line;
                inl.entry = r.begin;
                const SNodeId inl_id =
                    tree.find_or_add_child(parent, std::move(inl));
                walk(cp.body, fi.callee, exp, inl_id);
              }
              break;
            }
          }
        }
      };

  for (model::ProcId p = 0; p < prog.procs().size(); ++p) {
    const model::Procedure& pr = prog.proc(p);
    const model::SourceFile& f = prog.file(pr.file);

    SNode mod;
    mod.kind = SKind::kModule;
    mod.name = intern(prog.module_name(f.module));
    const SNodeId mod_id = tree.find_or_add_child(tree.root(), std::move(mod));

    SNode file;
    file.kind = SKind::kFile;
    file.name = intern(prog.file_name(pr.file));
    file.file = intern(prog.file_name(pr.file));
    const SNodeId file_id = tree.find_or_add_child(mod_id, std::move(file));

    SNode proc;
    proc.kind = SKind::kProc;
    proc.name = intern(prog.names().str(pr.name));
    proc.file = intern(prog.file_name(pr.file));
    proc.line = pr.begin_line;
    proc.entry = lowering.proc_entry(p);
    proc.has_source = pr.has_source;
    const SNodeId proc_id = tree.find_or_add_child(file_id, std::move(proc));
    tree.map_proc_entry(lowering.proc_entry(p), proc_id);

    // Entry stub statement (the procedure's entry address).
    SNode stub;
    stub.kind = SKind::kStmt;
    stub.file = intern(prog.file_name(pr.file));
    stub.line = pr.begin_line;
    stub.entry = lowering.proc_entry(p);
    tree.map_addr(lowering.proc_entry(p),
                  tree.find_or_add_child(proc_id, std::move(stub)));

    walk(pr.body, p, model::kTopLevelFrame, proc_id);
  }
  return tree;
}

}  // namespace pathview::structure
