// The eager reference for lazily applied view sorts.
//
// core::View applies sort keys when a level is read. EagerSortOracle drives
// a ui::ViewerController whose views are never given a key, so reading
// never reorders them; instead every sort op re-sorts each built level at
// once with core::sort_built_by, and a level is sorted by the active key
// the moment it is built (the rule the serve `expand` op always had). Each
// op first builds, in the order the real op reads them, the levels it is
// about to read, so a level is built at the same point of the sequence as
// on the lazy side — and node ids come out the same.
#pragma once

#include <array>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "pathview/core/flatten.hpp"
#include "pathview/core/sort.hpp"
#include "pathview/ui/controller.hpp"

namespace pathview::testutil {

class EagerSortOracle {
 public:
  EagerSortOracle(const prof::CanonicalCct& cct,
                  const metrics::Attribution& attr)
      : c_(cct, attr) {}

  ui::ViewerController& controller() { return c_; }
  core::View& view() { return c_.current(); }

  void select_view(core::ViewType t) { c_.select_view(t); }
  metrics::ColumnId add_derived(const std::string& name,
                                const std::string& formula) {
    return c_.add_derived(name, formula);
  }

  void sort_by(metrics::ColumnId col, bool descending) {
    core::sort_built_by(view(), col, descending);
    active_[slot()] = core::SortKey{col, descending};
  }

  /// The built (and sorted) children of `id`.
  const std::vector<core::ViewNodeId>& children_of(core::ViewNodeId id) {
    touch(id);
    return view().node(id).children;
  }

  void expand(core::ViewNodeId id) {
    touch(id);
    c_.expand(id);
  }
  void collapse(core::ViewNodeId id) { c_.collapse(id); }

  /// core::hot_path's walk, building each level before it is read.
  std::vector<core::ViewNodeId> run_hot_path(core::ViewNodeId start,
                                             metrics::ColumnId col) {
    const core::HotPathOptions opts;
    std::size_t depth = 1;
    for (core::ViewNodeId cur = start; depth < opts.max_depth; ++depth) {
      const std::vector<core::ViewNodeId>& ch = children_of(cur);
      if (ch.empty()) break;
      const std::span<const double> v = view().table().column(col);
      core::ViewNodeId best = ch.front();
      for (core::ViewNodeId c : ch)
        if (v[c] > v[best]) best = c;
      if (v[best] < c_.config().hot_path_threshold * v[cur]) break;
      cur = best;
    }
    return c_.run_hot_path(start, col);
  }

  /// Display roots after a flatten/unflatten step (the cursor a serve
  /// session keeps; the controller's own cursor moves in step with it).
  const std::vector<core::ViewNodeId>& flatten_roots() {
    return cursor().roots();
  }
  bool flatten() {
    for (core::ViewNodeId r : cursor().roots()) touch(r);
    c_.flatten();
    return cursor().flatten();
  }
  bool unflatten() {
    c_.unflatten();
    return cursor().unflatten();
  }

  /// The controller's render, after building what render_tree_table reads
  /// (the expanded rows, depth first, in display order).
  std::string render(ui::TreeTableOptions opts) {
    const auto& top = flatten_[slot()] && flatten_[slot()]->depth() > 0
                          ? flatten_[slot()]->roots()
                          : children_of(view().root());
    std::vector<core::ViewNodeId> stack(top.rbegin(), top.rend());
    while (!stack.empty()) {
      const core::ViewNodeId id = stack.back();
      stack.pop_back();
      if (!c_.expansion().is_expanded(id)) continue;
      const std::vector<core::ViewNodeId>& ch = children_of(id);
      stack.insert(stack.end(), ch.rbegin(), ch.rend());
    }
    return c_.render(std::move(opts));
  }

 private:
  std::size_t slot() const {
    return static_cast<std::size_t>(c_.current_view_type());
  }
  core::FlattenState& cursor() {
    auto& f = flatten_[slot()];
    if (!f) f = std::make_unique<core::FlattenState>(view());
    return *f;
  }
  void touch(core::ViewNodeId id) {
    core::View& v = view();
    if (v.node(id).children_built) return;
    v.ensure_children(id);
    if (const auto& key = active_[slot()])
      core::sort_children_by(v, id, key->column, key->descending);
  }

  ui::ViewerController c_;
  std::array<std::optional<core::SortKey>, 3> active_;
  std::array<std::unique_ptr<core::FlattenState>, 3> flatten_;
};

}  // namespace pathview::testutil
