// Validated decoding of CCT node and sample records — the one check shared
// by every database decoder (PVDB2 and XML) that rebuilds a CanonicalCct
// from untrusted bytes. A record either extends the tree exactly as the
// writer's node order says or raises a typed ParseError; it never indexes
// out of bounds and never folds into an earlier node (which would shift
// every later node id and attach later records to the wrong parents).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>

#include "pathview/model/program.hpp"
#include "pathview/prof/cct.hpp"

namespace pathview::db::detail {

/// One decoded CCT node record. `scope` and `call_site` use
/// structure::kSNull for "none", as CctNode does.
struct CctRecord {
  std::uint64_t kind;
  std::uint64_t parent;
  std::uint64_t scope;
  std::uint64_t call_site;
};

/// Append `rec` as node cct.size(). Throws ParseError("<format>: ...",
/// offset) on an out-of-range kind, parent, scope or call site, and on a
/// record whose (parent, kind, scope, call site) repeats an earlier one.
void append_cct_record(prof::CanonicalCct& cct, const CctRecord& rec,
                       std::string_view format, std::size_t offset);

/// Add one sample cell (`value` of event `event` on `node`). Throws
/// ParseError on an out-of-range node or event.
void add_sample_record(prof::CanonicalCct& cct, std::uint64_t node,
                       std::uint64_t event, double value,
                       std::string_view format, std::size_t offset);

}  // namespace pathview::db::detail
