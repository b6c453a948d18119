// The headless viewer controller: the hpcviewer application logic without
// pixels. Owns the three views over one experiment, their expansion and
// sorting state, derived-metric definitions (applied to all views), hot-path
// expansion, flattening, and source-pane selection.
#pragma once

#include <memory>
#include <optional>
#include <string>

#include "pathview/core/callers_view.hpp"
#include "pathview/core/cct_view.hpp"
#include "pathview/core/flat_view.hpp"
#include "pathview/core/flatten.hpp"
#include "pathview/core/hot_path.hpp"
#include "pathview/ui/tree_table.hpp"

namespace pathview::ui {

class ViewerController {
 public:
  struct Config {
    core::RecursionPolicy policy = core::RecursionPolicy::kExposedOnly;
    bool lazy_callers = true;
    double hot_path_threshold = 0.5;  // adjustable, as in the paper's prefs
    /// Optional: enables the source pane.
    const model::Program* program = nullptr;
  };

  ViewerController(const prof::CanonicalCct& cct,
                   const metrics::Attribution& attr, const Config& cfg);
  ViewerController(const prof::CanonicalCct& cct,
                   const metrics::Attribution& attr)
      : ViewerController(cct, attr, Config{}) {}

  // --- view selection -------------------------------------------------------
  void select_view(core::ViewType t) { current_ = t; }
  core::ViewType current_view_type() const { return current_; }
  core::View& view(core::ViewType t);
  core::View& current() { return view(current_); }

  // --- navigation -----------------------------------------------------------
  void expand(core::ViewNodeId id);
  void collapse(core::ViewNodeId id);
  ExpansionState& expansion() { return exp_[index(current_)]; }

  /// Run hot-path analysis from `start` on `metric` (Eq. 3): expands the
  /// path in the current view and returns/highlights it.
  std::vector<core::ViewNodeId> run_hot_path(core::ViewNodeId start,
                                             metrics::ColumnId metric);

  /// Sort every level of the current view by `metric` (descending by
  /// default). The view records the key; each level is sorted when it is
  /// next shown (core::View::sort_by).
  void sort_by(metrics::ColumnId metric, bool descending = true) {
    current().sort_by(metric, descending);
  }

  /// Define a derived metric on ALL views; returns its column id (identical
  /// across views because all tables share the column layout).
  metrics::ColumnId add_derived(const std::string& name,
                                const std::string& formula);

  /// Resolve a metric column of the current view by name (column layouts are
  /// identical across views, so the id is valid in all three).
  std::optional<metrics::ColumnId> find_column(std::string_view name) {
    return current().table().find(name);
  }

  // --- metric-column visibility (the paper's "select which metric to
  // observe"); empty selection = show everything -------------------------------
  void show_columns(std::vector<metrics::ColumnId> cols);
  void show_all_columns() { visible_[index(current_)].clear(); }
  const std::vector<metrics::ColumnId>& visible_columns() {
    return visible_[index(current_)];
  }

  // --- flattening (current view; meaningful for the Flat View) --------------
  bool flatten();
  bool unflatten();

  // --- zoom: restrict the display to one subtree (hpcviewer's zoom-in) ------
  void zoom(core::ViewNodeId id);
  /// Returns false at the outermost level.
  bool unzoom();
  const std::vector<core::ViewNodeId>& zoom_stack() {
    return zoom_[index(current_)];
  }

  // --- selection / source pane ----------------------------------------------
  void select(core::ViewNodeId id) { selected_ = id; }
  std::optional<core::ViewNodeId> selected() const { return selected_; }
  /// Source context of the selected scope ("" without a program model).
  std::string source_pane(int context = 3) const;

  // --- rendering -------------------------------------------------------------
  std::string render(TreeTableOptions opts = TreeTableOptions{});

  /// True when the underlying CCT was salvaged from damaged data — render()
  /// tags every view header with "[DEGRADED]" (see docs/robustness.md).
  bool degraded() const { return cct_view_.cct().degraded(); }

  const Config& config() const { return cfg_; }
  /// Adjust the hot-path threshold (the paper's preferences dialog).
  void set_hot_path_threshold(double t) { cfg_.hot_path_threshold = t; }

 private:
  static std::size_t index(core::ViewType t) {
    return static_cast<std::size_t>(t);
  }
  core::FlattenState& flatten_state();

  Config cfg_;
  core::CctView cct_view_;
  core::CallersView callers_view_;
  core::FlatView flat_view_;
  core::ViewType current_ = core::ViewType::kCallingContext;
  ExpansionState exp_[3];
  std::unique_ptr<core::FlattenState> flatten_[3];
  std::vector<core::ViewNodeId> highlight_[3];
  std::vector<metrics::ColumnId> visible_[3];
  std::vector<core::ViewNodeId> zoom_[3];
  std::optional<core::ViewNodeId> selected_;
};

}  // namespace pathview::ui
