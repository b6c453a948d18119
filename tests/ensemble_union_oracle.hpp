// Reference union for oracle tests: the hash-union-then-rebuild alignment
// that Ensemble::align's one-pass supergraph build replaced. Members' scopes
// are folded into a working structure tree keyed by the serial creation
// keys, members' CCTs into a working CCT with find_or_add_child (summing
// samples in member order, member preorder within a member), and both
// working trees are then rebuilt with children sorted by intrinsic keys and
// renumbered in preorder.
#pragma once

#include <algorithm>
#include <map>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "pathview/db/experiment.hpp"

namespace pathview::ensemble::oracle {

struct UnionReference {
  std::unique_ptr<structure::StructureTree> tree;
  std::unique_ptr<prof::CanonicalCct> cct;
  /// member k's CCT node id -> reference supergraph node id.
  std::vector<std::vector<prof::CctNodeId>> maps;
};

inline UnionReference reference_union(
    const std::vector<std::shared_ptr<const db::Experiment>>& members) {
  using prof::CctNodeId;
  using structure::SNode;
  using structure::SNodeId;
  const std::size_t N = members.size();

  // Working structure tree in insertion order.
  structure::StructureTree wtree;
  std::map<std::tuple<SNodeId, structure::SKind, NameId, NameId, int, int>,
           SNodeId>
      tindex;
  std::vector<std::vector<SNodeId>> smap(N);
  for (std::size_t k = 0; k < N; ++k) {
    const structure::StructureTree& t = members[k]->tree();
    smap[k].assign(t.size(), structure::kSNull);
    smap[k][t.root()] = wtree.root();
    std::vector<SNodeId> stack(t.node(t.root()).children.rbegin(),
                               t.node(t.root()).children.rend());
    while (!stack.empty()) {
      const SNodeId id = stack.back();
      stack.pop_back();
      const SNode& n = t.node(id);
      const auto key = std::make_tuple(
          smap[k][n.parent], n.kind,
          wtree.names().intern(t.names().str(n.name)),
          wtree.names().intern(t.names().str(n.file)), n.line, n.call_line);
      auto it = tindex.find(key);
      if (it == tindex.end()) {
        SNode copy;
        copy.kind = n.kind;
        copy.parent = std::get<0>(key);
        copy.name = std::get<2>(key);
        copy.file = std::get<3>(key);
        copy.line = n.line;
        copy.call_line = n.call_line;
        copy.has_source = n.has_source;
        it = tindex.emplace(key, wtree.add_node(std::move(copy))).first;
      }
      smap[k][id] = it->second;
      for (auto c = n.children.rbegin(); c != n.children.rend(); ++c)
        stack.push_back(*c);
    }
  }

  // Working CCT in insertion order, samples summed as members are folded.
  prof::CanonicalCct wcct(&wtree);
  std::vector<std::vector<CctNodeId>> cmap(N);
  for (std::size_t k = 0; k < N; ++k) {
    const prof::CanonicalCct& c = members[k]->cct();
    cmap[k].assign(c.size(), prof::kCctNull);
    cmap[k][prof::kCctRoot] = prof::kCctRoot;
    wcct.add_samples(prof::kCctRoot, c.samples(prof::kCctRoot));
    const auto mapped = [&](SNodeId s) {
      return s == structure::kSNull ? structure::kSNull : smap[k][s];
    };
    c.walk([&](CctNodeId id, int) {
      if (id == prof::kCctRoot) return;
      const prof::CctNode& n = c.node(id);
      const CctNodeId u = wcct.find_or_add_child(
          cmap[k][n.parent], n.kind, mapped(n.scope), mapped(n.call_site));
      wcct.add_samples(u, c.samples(id));
      cmap[k][id] = u;
    });
  }

  // Rebuild the structure tree: children sorted by intrinsic keys, preorder.
  UnionReference out;
  out.tree = std::make_unique<structure::StructureTree>();
  structure::StructureTree& ctree = *out.tree;
  std::vector<SNodeId> tmap(wtree.size(), structure::kSNull);
  tmap[wtree.root()] = ctree.root();
  const auto tree_key = [&wtree](SNodeId id) {
    const SNode& n = wtree.node(id);
    return std::make_tuple(n.kind, wtree.names().str(n.name),
                           wtree.names().str(n.file), n.line, n.call_line);
  };
  std::vector<std::pair<SNodeId, SNodeId>> tstack;  // (working id, parent)
  const auto push_tree_children = [&](SNodeId wid, SNodeId cparent) {
    std::vector<SNodeId> ch = wtree.node(wid).children;
    std::sort(ch.begin(), ch.end(), [&](SNodeId a, SNodeId b) {
      return tree_key(a) < tree_key(b);
    });
    for (auto it = ch.rbegin(); it != ch.rend(); ++it)
      tstack.emplace_back(*it, cparent);
  };
  push_tree_children(wtree.root(), ctree.root());
  while (!tstack.empty()) {
    const auto [wid, cparent] = tstack.back();
    tstack.pop_back();
    const SNode& wn = wtree.node(wid);
    SNode cn;
    cn.kind = wn.kind;
    cn.parent = cparent;
    cn.name = ctree.names().intern(wtree.names().str(wn.name));
    cn.file = ctree.names().intern(wtree.names().str(wn.file));
    cn.line = wn.line;
    cn.call_line = wn.call_line;
    cn.has_source = wn.has_source;
    const SNodeId cid = ctree.add_node(std::move(cn));
    tmap[wid] = cid;
    push_tree_children(wid, cid);
  }

  // Rebuild the CCT: children sorted by (kind, canonical scope, canonical
  // call site), preorder, samples copied from the working node.
  out.cct = std::make_unique<prof::CanonicalCct>(&ctree);
  prof::CanonicalCct& ccct = *out.cct;
  std::vector<CctNodeId> kmap(wcct.size(), prof::kCctNull);
  kmap[prof::kCctRoot] = prof::kCctRoot;
  ccct.add_samples(prof::kCctRoot, wcct.samples(prof::kCctRoot));
  const auto canon = [&tmap](SNodeId s) {
    return s == structure::kSNull ? structure::kSNull : tmap[s];
  };
  const auto cct_key = [&](CctNodeId id) {
    const prof::CctNode& n = wcct.node(id);
    return std::make_tuple(n.kind, canon(n.scope), canon(n.call_site));
  };
  std::vector<CctNodeId> cstack;
  const auto push_cct_children = [&](CctNodeId wid) {
    std::vector<CctNodeId> ch = wcct.node(wid).children;
    std::sort(ch.begin(), ch.end(), [&](CctNodeId a, CctNodeId b) {
      return cct_key(a) < cct_key(b);
    });
    cstack.insert(cstack.end(), ch.rbegin(), ch.rend());
  };
  push_cct_children(prof::kCctRoot);
  while (!cstack.empty()) {
    const CctNodeId wid = cstack.back();
    cstack.pop_back();
    const prof::CctNode& wn = wcct.node(wid);
    const CctNodeId cid = ccct.append_child(
        kmap[wn.parent], wn.kind, canon(wn.scope), canon(wn.call_site));
    ccct.add_samples(cid, wcct.samples(wid));
    kmap[wid] = cid;
    push_cct_children(wid);
  }

  out.maps.resize(N);
  for (std::size_t k = 0; k < N; ++k)
    for (const CctNodeId u : cmap[k]) out.maps[k].push_back(kmap[u]);
  return out;
}

}  // namespace pathview::ensemble::oracle
