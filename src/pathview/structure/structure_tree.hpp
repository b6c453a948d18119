// The recovered static program structure (hpcstruct's output).
//
// A tree of scopes: root -> load modules -> files -> procedures ->
// {loops, inlined procedures, statements} nested arbitrarily. hpcprof fuses
// this tree with dynamic call paths to build the canonical CCT, and the
// Flat View is essentially this tree annotated with aggregated metrics.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "pathview/model/address_space.hpp"
#include "pathview/support/string_table.hpp"

namespace pathview::structure {

enum class SKind : std::uint8_t {
  kRoot = 0,
  kModule,
  kFile,
  kProc,
  kLoop,
  kInline,  // an inlined procedure instance ("alien scope")
  kStmt,
};

const char* skind_name(SKind k);

using SNodeId = std::uint32_t;
inline constexpr SNodeId kSNull = 0xffffffffu;

struct SNode {
  SKind kind = SKind::kRoot;
  SNodeId parent = kSNull;
  NameId name = 0;   // module/file/proc/inlined-callee name
  NameId file = 0;   // enclosing source file
  int line = 0;      // proc: begin line; loop: header line; stmt: line;
                     // inline: callee declaration line
  int call_line = 0; // inline scopes: line of the inlined call site
  model::Addr entry = 0;  // proc entry / loop header / first stmt address
  bool has_source = true;
  std::vector<SNodeId> children;
};

class StructureTree {
 public:
  StructureTree();

  StringTable& names() { return names_; }
  const StringTable& names() const { return names_; }

  SNodeId root() const { return 0; }
  const SNode& node(SNodeId id) const { return nodes_.at(id); }
  std::size_t size() const { return nodes_.size(); }

  SNodeId add_node(SNode n);

  /// Find a direct child matching (kind, name, line, entry-key); create it
  /// if absent. Keys: loops/procs match on `entry`, stmts on (file, line),
  /// inline scopes on `entry` (their region's begin), others on name.
  SNodeId find_or_add_child(SNodeId parent, SNode candidate);

  /// Register/lookup the statement scope covering an address.
  void map_addr(model::Addr a, SNodeId stmt_node) { addr2stmt_[a] = stmt_node; }
  SNodeId stmt_of_addr(model::Addr a) const;

  /// Register/lookup a procedure by its entry address.
  void map_proc_entry(model::Addr entry, SNodeId proc_node) {
    entry2proc_[entry] = proc_node;
  }
  SNodeId proc_of_entry(model::Addr entry) const;

  /// Chain of scopes from the enclosing procedure (inclusive) down to `n`
  /// (inclusive).
  std::vector<SNodeId> path_from_proc(SNodeId n) const;

  /// The interior of path_from_proc(n) — the scopes strictly between the
  /// enclosing procedure and `n` — written into `out` innermost first.
  /// Reuses `out`'s storage, so a caller resolving many scopes allocates
  /// once.
  void scopes_below_proc(SNodeId n, std::vector<SNodeId>& out) const;

  /// Enclosing procedure scope of `n` (n itself if a proc).
  SNodeId enclosing_proc(SNodeId n) const;
  /// Enclosing file scope of `n`.
  SNodeId enclosing_file(SNodeId n) const;

  const std::string& name_of(SNodeId n) const {
    return names_.str(node(n).name);
  }
  const std::string& file_of(SNodeId n) const {
    return names_.str(node(n).file);
  }

  /// Human-readable label for a scope ("loop at file2.c: 8", "g", ...).
  std::string label(SNodeId n) const;

  /// Structural equality (kinds, names, lines, child order) — used to
  /// validate recovery against ground truth.
  static bool equivalent(const StructureTree& a, const StructureTree& b,
                         std::string* why = nullptr);

 private:
  StringTable names_;
  std::vector<SNode> nodes_;
  std::unordered_map<model::Addr, SNodeId> addr2stmt_;
  std::unordered_map<model::Addr, SNodeId> entry2proc_;
};

}  // namespace pathview::structure
