#include "pathview/db/cct_records.hpp"

#include <string>

#include "pathview/support/error.hpp"

namespace pathview::db::detail {

namespace {

[[noreturn]] void fail(std::string_view format, const char* what,
                       std::size_t offset) {
  throw ParseError(std::string(format) + ": " + what, offset);
}

bool scope_ok(const prof::CanonicalCct& cct, std::uint64_t s) {
  return s == structure::kSNull || s < cct.tree().size();
}

}  // namespace

void append_cct_record(prof::CanonicalCct& cct, const CctRecord& rec,
                       std::string_view format, std::size_t offset) {
  if (rec.kind > static_cast<std::uint64_t>(prof::CctKind::kStmt))
    fail(format, "bad cct node kind", offset);
  if (rec.parent >= cct.size()) fail(format, "dangling cct parent", offset);
  // Scope and call-site ids index the structure tree; a corrupt id would
  // otherwise surface as an out-of-bounds read at first label() call.
  if (!scope_ok(cct, rec.scope)) fail(format, "cct scope out of range", offset);
  if (!scope_ok(cct, rec.call_site))
    fail(format, "cct call site out of range", offset);
  const std::size_t before = cct.size();
  cct.find_or_add_child(static_cast<prof::CctNodeId>(rec.parent),
                        static_cast<prof::CctKind>(rec.kind),
                        static_cast<structure::SNodeId>(rec.scope),
                        static_cast<structure::SNodeId>(rec.call_site));
  if (cct.size() == before) fail(format, "duplicate cct record", offset);
}

void add_sample_record(prof::CanonicalCct& cct, std::uint64_t node,
                       std::uint64_t event, double value,
                       std::string_view format, std::size_t offset) {
  if (node >= cct.size() || event >= model::kNumEvents)
    fail(format, "bad sample cell", offset);
  model::EventVector ev;
  ev.v[event] = value;
  cct.add_samples(static_cast<prof::CctNodeId>(node), ev);
}

}  // namespace pathview::db::detail
