// Validated decoding of CCT node and sample records — the one check shared
// by every database decoder (PVDB1, PVDB2 and XML) that rebuilds a
// CanonicalCct from untrusted bytes. Node ids are implicit in record order
// (record i is node i + 1, the root is never stored), so the tree is built
// in one batch: every record is range-checked as it is decoded, then the
// nodes are appended in id order with exactly reserved child lists, and
// sibling keys are checked for uniqueness by sorting each parent's
// children. A bad input raises a typed ParseError; it never indexes out of
// bounds and never folds a record into an earlier node (which would shift
// every later node id and attach later records to the wrong parents).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>
#include <vector>

#include "pathview/model/program.hpp"
#include "pathview/prof/cct.hpp"

namespace pathview::db::detail {

/// One CCT node record as decoded. `scope` and `call_site` use
/// structure::kSNull for "none", as CctNode does.
struct CctRecord {
  std::uint64_t kind;
  std::uint64_t parent;
  std::uint64_t scope;
  std::uint64_t call_site;
};

/// Collects the node records of one CCT section, then builds the tree.
class CctBuilder {
 public:
  /// `count` records will follow. The caller bounds `count` by its input
  /// size first (the reservation here is proportional to it).
  CctBuilder(const structure::StructureTree* tree, std::size_t count,
             std::string_view format);

  /// Range-check the record of the next node (ids start at 1) and keep it.
  /// Throws ParseError("<format>: ...", offset) on an out-of-range kind, a
  /// parent that is not an earlier node, or a scope or call site outside
  /// the structure tree.
  void add(const CctRecord& rec, std::size_t offset);

  /// Build the CCT. Throws ParseError("<format>: duplicate cct record") at
  /// the offset of the lowest-id record whose (parent, kind, scope, call
  /// site) repeats an earlier one. The result has no sibling index;
  /// CanonicalCct builds one on its first keyed insert.
  prof::CanonicalCct build() const;

 private:
  struct Node {
    std::uint32_t parent;
    std::uint32_t scope;
    std::uint32_t call_site;
    prof::CctKind kind;
  };

  const structure::StructureTree* tree_;
  std::string_view format_;
  std::vector<Node> records_;
  std::vector<std::size_t> offsets_;  // offsets_[i]: record i's offset
};

/// Add one sample cell (`value` of event `event` on `node`). Throws
/// ParseError on an out-of-range node or event.
void add_sample_record(prof::CanonicalCct& cct, std::uint64_t node,
                       std::uint64_t event, double value,
                       std::string_view format, std::size_t offset);

}  // namespace pathview::db::detail
