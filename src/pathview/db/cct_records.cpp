#include "pathview/db/cct_records.hpp"

#include <algorithm>
#include <string>

#include "pathview/support/error.hpp"

namespace pathview::db::detail {

namespace {

[[noreturn]] void fail(std::string_view format, const char* what,
                       std::size_t offset) {
  throw ParseError(std::string(format) + ": " + what, offset);
}

// A sibling's identity under its parent, packed for sorting, with the node
// id as the tie-break so the first duplicate in a run is the lowest id.
struct SiblingKey {
  std::uint64_t scopes;  // scope << 32 | call site
  std::uint32_t kind;
  prof::CctNodeId id;
  bool same_key(const SiblingKey& o) const {
    return scopes == o.scopes && kind == o.kind;
  }
  bool operator<(const SiblingKey& o) const {
    if (scopes != o.scopes) return scopes < o.scopes;
    if (kind != o.kind) return kind < o.kind;
    return id < o.id;
  }
};

}  // namespace

CctBuilder::CctBuilder(const structure::StructureTree* tree,
                       std::size_t count, std::string_view format)
    : tree_(tree), format_(format) {
  records_.reserve(count);
  offsets_.reserve(count);
}

void CctBuilder::add(const CctRecord& rec, std::size_t offset) {
  const std::size_t id = records_.size() + 1;
  if (rec.kind > static_cast<std::uint64_t>(prof::CctKind::kStmt))
    fail(format_, "bad cct node kind", offset);
  if (rec.parent >= id) fail(format_, "dangling cct parent", offset);
  // Scope and call-site ids index the structure tree; a corrupt id would
  // otherwise surface as an out-of-bounds read at first label() call.
  const auto scope_ok = [this](std::uint64_t s) {
    return s == structure::kSNull || s < tree_->size();
  };
  if (!scope_ok(rec.scope)) fail(format_, "cct scope out of range", offset);
  if (!scope_ok(rec.call_site))
    fail(format_, "cct call site out of range", offset);
  records_.push_back({static_cast<std::uint32_t>(rec.parent),
                      static_cast<std::uint32_t>(rec.scope),
                      static_cast<std::uint32_t>(rec.call_site),
                      static_cast<prof::CctKind>(rec.kind)});
  offsets_.push_back(offset);
}

prof::CanonicalCct CctBuilder::build() const {
  const std::size_t n = records_.size() + 1;
  std::vector<std::uint32_t> nchildren(n, 0);
  for (const Node& r : records_) ++nchildren[r.parent];

  prof::CanonicalCct cct(tree_);
  cct.reserve(n);
  cct.reserve_children(prof::kCctRoot, nchildren[prof::kCctRoot]);
  for (const Node& r : records_) {
    const prof::CctNodeId id =
        cct.append_child(r.parent, r.kind, r.scope, r.call_site);
    cct.reserve_children(id, nchildren[id]);
  }

  // Parents precede children, so each child list is in id order; sorting a
  // copy of its keys puts equal siblings next to each other, lowest id first.
  std::size_t first_dup = n;
  std::vector<SiblingKey> keys;
  for (prof::CctNodeId p = 0; p < n; ++p) {
    const std::vector<prof::CctNodeId>& ch = cct.node(p).children;
    if (ch.size() < 2) continue;
    keys.clear();
    for (const prof::CctNodeId c : ch) {
      const prof::CctNode& node = cct.node(c);
      keys.push_back({static_cast<std::uint64_t>(node.scope) << 32 |
                          node.call_site,
                      static_cast<std::uint32_t>(node.kind), c});
    }
    std::sort(keys.begin(), keys.end());
    for (std::size_t j = 1; j < keys.size(); ++j)
      if (keys[j].same_key(keys[j - 1]))
        first_dup = std::min<std::size_t>(first_dup, keys[j].id);
  }
  if (first_dup != n)
    fail(format_, "duplicate cct record", offsets_[first_dup - 1]);
  return cct;
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
