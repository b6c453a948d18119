// View framework (paper Sec. III).
//
// A view is a tree of presentation nodes over the canonical CCT, carrying
// its own metric table (rows = view nodes). The three concrete views are:
//   * CctView     — top-down Calling Context View (mirrors the CCT);
//   * CallersView — bottom-up view, constructed lazily per the paper's
//                   scalability design (Sec. VII);
//   * FlatView    — static view over program structure, with call-site
//                   children aggregated per <call site, callee>.
// Children may be built on demand: ensure_children() materializes a node's
// children (and keeps derived metric columns consistent).
//
// Sorting is applied on read. sort_by() only records the key in the view's
// sort history (consecutive repeats collapsed), so it costs O(1) however
// large the view is. A level — one node's child list — is its construction
// order stable-sorted by every key the view was given since the level was
// built, in the order given. A Callers-view level is created on expand, so
// it starts with only the active key pending. A CctView level stands for a
// CCT level that exists from construction, so a level it copies on first
// read gets every key in the history, as an eagerly built mirror would.
// children_of() brings a level up to date before returning it, and every
// order-sensitive reader (tree-table, export, flatten, hot path, serve rows)
// goes through it, so only the levels that are actually shown are ever
// sorted.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "pathview/metrics/attribution.hpp"
#include "pathview/metrics/metric_table.hpp"
#include "pathview/prof/cct.hpp"

namespace pathview::core {

enum class ViewType : std::uint8_t { kCallingContext, kCallers, kFlat };

const char* view_type_name(ViewType t);

/// How costs of recursive procedures are aggregated onto a single
/// Callers/Flat-view node (paper Sec. IV-B). kExposedOnly reproduces the
/// paper's Fig. 2 exactly (inclusive AND exclusive from exposed instances);
/// kAllInstances sums exclusive over every instance, which conserves
/// column totals (exclusive never double-counts).
enum class RecursionPolicy : std::uint8_t { kExposedOnly, kAllInstances };

enum class NodeRole : std::uint8_t {
  kRoot = 0,
  kFrame,   // fused <call site, callee> line (CCT view; Flat-view call site)
  kCaller,  // Callers view: one caller context of the parent
  kProc,    // procedure as a static scope (Flat) or Callers-view top entry
  kLoop,
  kInline,
  kStmt,
  kFile,
  kModule,
};

using ViewNodeId = std::uint32_t;
inline constexpr ViewNodeId kViewRoot = 0;
inline constexpr ViewNodeId kViewNull = 0xffffffffu;

struct ViewNode {
  ViewNodeId parent = kViewNull;
  NodeRole role = NodeRole::kRoot;
  bool children_built = false;
  structure::SNodeId scope = structure::kSNull;      // primary scope identity
  structure::SNodeId call_site = structure::kSNull;  // frames/callers
  prof::CctNodeId origin = prof::kCctNull;  // CCT view: underlying CCT node
  /// Entries of the view's sort history already applied to `children`.
  std::uint32_t sorts_applied = 0;
  std::vector<ViewNodeId> children;
};

/// One metric sort a view was given (paper Sec. V-A).
struct SortKey {
  metrics::ColumnId column = 0;
  bool descending = true;
  bool operator==(const SortKey&) const = default;
};

class View {
 public:
  virtual ~View() = default;

  ViewType type() const { return type_; }
  const prof::CanonicalCct& cct() const { return *cct_; }
  const structure::StructureTree& tree() const { return cct_->tree(); }

  metrics::MetricTable& table() { return table_; }
  const metrics::MetricTable& table() const { return table_; }

  ViewNodeId root() const { return kViewRoot; }
  const ViewNode& node(ViewNodeId id) const { return nodes_[id]; }
  std::size_t size() const { return nodes_.size(); }

  /// Materialize `id`'s children if not yet built; keeps derived metric
  /// columns consistent when new rows appear.
  void ensure_children(ViewNodeId id);

  /// Children of `id` in display order: built if need be, then sorted by
  /// the history entries the level has not had yet.
  const std::vector<ViewNodeId>& children_of(ViewNodeId id);

  /// Order every level by `metric` (stable, NaN last; see the file
  /// comment). O(1): levels catch up when children_of() next reads them.
  /// Throws InvalidArgument for a column the table does not have.
  void sort_by(metrics::ColumnId metric, bool descending = true);

  /// Every key given so far, in order, consecutive repeats collapsed; the
  /// last one is the active key.
  const std::vector<SortKey>& sort_history() const { return sort_history_; }

  /// Display label ("g", "loop at file2.c: 8", "file2.c: 9", ...).
  std::string label(ViewNodeId id) const;

  /// True when the node represents a call site fused with its callee —
  /// the UI prefixes the call-site glyph (paper Sec. V-B).
  bool is_call_site(ViewNodeId id) const;

  /// Percentage denominator for a column: the root's inclusive value.
  double root_value(metrics::ColumnId c) const { return table_.get(c, kViewRoot); }

  /// Total number of ensure_children() calls that actually built something
  /// (instrumentation for the lazy-vs-eager ablation bench).
  std::size_t nodes_materialized() const { return size(); }

  // Mutable child lists for the eager sorts of core/sort.hpp (built first).
  std::vector<ViewNodeId>& mutable_children(ViewNodeId id) {
    ensure_children(id);
    return nodes_[id].children;
  }

 protected:
  View(ViewType type, const prof::CanonicalCct& cct)
      : type_(type), cct_(&cct) {}

  /// Subclass hook: materialize children of `id`. Default: nothing (view is
  /// fully built eagerly).
  virtual void build_children(ViewNodeId /*id*/) {}

  ViewNodeId add_node(ViewNode n);
  /// Bulk construction: take `nodes` as the view's nodes (their parent
  /// links and child lists as given) and size the table to match.
  void set_nodes(std::vector<ViewNode> nodes);
  ViewNode& node_mut(ViewNodeId id) { return nodes_[id]; }

 private:
  ViewType type_;
  const prof::CanonicalCct* cct_;
  std::vector<ViewNode> nodes_;
  metrics::MetricTable table_;
  std::vector<SortKey> sort_history_;
};

// sorts_applied lives in what was padding: a node is no larger for it.
static_assert(sizeof(ViewNode) <= 24 + sizeof(std::vector<ViewNodeId>));

}  // namespace pathview::core
