#include "pathview/structure/structure_tree.hpp"

#include <algorithm>

#include "pathview/support/error.hpp"

namespace pathview::structure {

const char* skind_name(SKind k) {
  switch (k) {
    case SKind::kRoot:
      return "root";
    case SKind::kModule:
      return "module";
    case SKind::kFile:
      return "file";
    case SKind::kProc:
      return "proc";
    case SKind::kLoop:
      return "loop";
    case SKind::kInline:
      return "inline";
    case SKind::kStmt:
      return "stmt";
  }
  return "?";
}

StructureTree::StructureTree() {
  SNode root;
  root.kind = SKind::kRoot;
  nodes_.push_back(std::move(root));
}

SNodeId StructureTree::add_node(SNode n) {
  const auto id = static_cast<SNodeId>(nodes_.size());
  const SNodeId parent = n.parent;
  nodes_.push_back(std::move(n));
  if (parent != kSNull) nodes_[parent].children.push_back(id);
  return id;
}

SNodeId StructureTree::find_or_add_child(SNodeId parent, SNode candidate) {
  for (SNodeId c : nodes_[parent].children) {
    const SNode& n = nodes_[c];
    if (n.kind != candidate.kind) continue;
    switch (candidate.kind) {
      case SKind::kStmt:
        if (n.file == candidate.file && n.line == candidate.line) return c;
        break;
      case SKind::kLoop:
      case SKind::kProc:
      case SKind::kInline:
        if (n.entry == candidate.entry) return c;
        break;
      default:
        if (n.name == candidate.name) return c;
        break;
    }
  }
  candidate.parent = parent;
  return add_node(std::move(candidate));
}

SNodeId StructureTree::stmt_of_addr(model::Addr a) const {
  auto it = addr2stmt_.find(a);
  return it == addr2stmt_.end() ? kSNull : it->second;
}

SNodeId StructureTree::proc_of_entry(model::Addr entry) const {
  auto it = entry2proc_.find(entry);
  return it == entry2proc_.end() ? kSNull : it->second;
}

std::vector<SNodeId> StructureTree::path_from_proc(SNodeId n) const {
  std::vector<SNodeId> path;
  for (SNodeId cur = n; cur != kSNull; cur = nodes_[cur].parent) {
    path.push_back(cur);
    if (nodes_[cur].kind == SKind::kProc) break;
  }
  std::reverse(path.begin(), path.end());
  return path;
}

void StructureTree::scopes_below_proc(SNodeId n,
                                      std::vector<SNodeId>& out) const {
  out.clear();
  if (nodes_[n].kind == SKind::kProc) return;
  SNodeId cur = nodes_[n].parent;
  for (; cur != kSNull && nodes_[cur].kind != SKind::kProc;
       cur = nodes_[cur].parent)
    out.push_back(cur);
  // Without an enclosing procedure the path starts at the topmost scope,
  // and that end is not interior either.
  if (cur == kSNull && !out.empty()) out.pop_back();
}

SNodeId StructureTree::enclosing_proc(SNodeId n) const {
  for (SNodeId cur = n; cur != kSNull; cur = nodes_[cur].parent)
    if (nodes_[cur].kind == SKind::kProc) return cur;
  return kSNull;
}

SNodeId StructureTree::enclosing_file(SNodeId n) const {
  for (SNodeId cur = n; cur != kSNull; cur = nodes_[cur].parent)
    if (nodes_[cur].kind == SKind::kFile) return cur;
  return kSNull;
}

std::string StructureTree::label(SNodeId id) const {
  const SNode& n = node(id);
  switch (n.kind) {
    case SKind::kRoot:
      return "<root>";
    case SKind::kModule:
    case SKind::kFile:
    case SKind::kProc:
      return names_.str(n.name);
    case SKind::kInline:
      return "inlined from " + names_.str(n.name);
    case SKind::kLoop:
      return "loop at " + names_.str(n.file) + ": " + std::to_string(n.line);
    case SKind::kStmt:
      return names_.str(n.file) + ": " + std::to_string(n.line);
  }
  return "?";
}

namespace {

bool node_equal(const StructureTree& a, SNodeId ia, const StructureTree& b,
                SNodeId ib, std::string* why) {
  const SNode& na = a.node(ia);
  const SNode& nb = b.node(ib);
  auto fail = [&](const std::string& what) {
    if (why)
      *why = what + ": '" + a.label(ia) + "' vs '" + b.label(ib) + "'";
    return false;
  };
  if (na.kind != nb.kind) return fail("kind mismatch");
  if (a.names().str(na.name) != b.names().str(nb.name))
    return fail("name mismatch");
  if (a.names().str(na.file) != b.names().str(nb.file))
    return fail("file mismatch");
  if (na.line != nb.line) return fail("line mismatch");
  if (na.call_line != nb.call_line) return fail("call_line mismatch");
  if (na.children.size() != nb.children.size())
    return fail("child count mismatch (" + std::to_string(na.children.size()) +
                " vs " + std::to_string(nb.children.size()) + ")");
  for (std::size_t i = 0; i < na.children.size(); ++i)
    if (!node_equal(a, na.children[i], b, nb.children[i], why)) return false;
  return true;
}

}  // namespace

bool StructureTree::equivalent(const StructureTree& a, const StructureTree& b,
                               std::string* why) {
  return node_equal(a, a.root(), b, b.root(), why);
}

}  // namespace pathview::structure
