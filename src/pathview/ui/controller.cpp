#include "pathview/ui/controller.hpp"

#include "pathview/metrics/derived.hpp"
#include "pathview/support/error.hpp"
#include "pathview/ui/source_pane.hpp"

namespace pathview::ui {

ViewerController::ViewerController(const prof::CanonicalCct& cct,
                                   const metrics::Attribution& attr,
                                   const Config& cfg)
    : cfg_(cfg),
      cct_view_(cct, attr),
      callers_view_(cct, attr,
                    core::CallersView::Options{cfg.policy, cfg.lazy_callers}),
      flat_view_(cct, attr, cfg.policy) {}

core::View& ViewerController::view(core::ViewType t) {
  switch (t) {
    case core::ViewType::kCallingContext:
      return cct_view_;
    case core::ViewType::kCallers:
      return callers_view_;
    case core::ViewType::kFlat:
      return flat_view_;
  }
  throw InvalidArgument("ViewerController::view: bad type");
}

void ViewerController::expand(core::ViewNodeId id) {
  current().ensure_children(id);
  exp_[index(current_)].expand(id);
}

void ViewerController::collapse(core::ViewNodeId id) {
  exp_[index(current_)].collapse(id);
}

std::vector<core::ViewNodeId> ViewerController::run_hot_path(
    core::ViewNodeId start, metrics::ColumnId metric) {
  core::HotPathOptions opts;
  opts.threshold = cfg_.hot_path_threshold;
  std::vector<core::ViewNodeId> path =
      core::hot_path(current(), start, metric, opts);
  exp_[index(current_)].expand_path(path);
  highlight_[index(current_)] = path;
  if (!path.empty()) selected_ = path.back();
  return path;
}

metrics::ColumnId ViewerController::add_derived(const std::string& name,
                                                const std::string& formula) {
  const metrics::ColumnId a =
      metrics::add_derived_metric(cct_view_.table(), name, formula);
  const metrics::ColumnId b =
      metrics::add_derived_metric(callers_view_.table(), name, formula);
  const metrics::ColumnId c =
      metrics::add_derived_metric(flat_view_.table(), name, formula);
  if (a != b || b != c)
    throw InvalidArgument("add_derived: views diverged in column layout");
  return a;
}

void ViewerController::show_columns(std::vector<metrics::ColumnId> cols) {
  for (metrics::ColumnId c : cols)
    if (c >= current().table().num_columns())
      throw InvalidArgument("show_columns: bad column " + std::to_string(c));
  visible_[index(current_)] = std::move(cols);
}

void ViewerController::zoom(core::ViewNodeId id) {
  if (id >= current().size())
    throw InvalidArgument("zoom: bad node id");
  zoom_[index(current_)].push_back(id);
  exp_[index(current_)].expand(id);
}

bool ViewerController::unzoom() {
  auto& stack = zoom_[index(current_)];
  if (stack.empty()) return false;
  stack.pop_back();
  return true;
}

core::FlattenState& ViewerController::flatten_state() {
  auto& slot = flatten_[index(current_)];
  if (!slot) slot = std::make_unique<core::FlattenState>(current());
  return *slot;
}

bool ViewerController::flatten() { return flatten_state().flatten(); }

bool ViewerController::unflatten() { return flatten_state().unflatten(); }

std::string ViewerController::source_pane(int context) const {
  if (!selected_ || cfg_.program == nullptr) return {};
  // Views are const-rendered here; find the scope of the selection.
  const core::View& v = const_cast<ViewerController*>(this)->current();
  const structure::SNodeId scope = v.node(*selected_).scope;
  if (scope == structure::kSNull) return {};
  return render_source_pane(*cfg_.program, v.tree(), scope, context);
}

std::string ViewerController::render(TreeTableOptions opts) {
  core::View& v = current();
  const std::size_t idx = index(current_);
  if (!zoom_[idx].empty() && opts.roots.empty())
    opts.roots = {zoom_[idx].back()};
  else if (flatten_[idx] && flatten_[idx]->depth() > 0 && opts.roots.empty())
    opts.roots = flatten_[idx]->roots();
  if (opts.highlight.empty()) opts.highlight = highlight_[idx];
  if (opts.columns.empty()) opts.columns = visible_[idx];
  std::string head = std::string(view_type_name(v.type()));
  if (v.cct().degraded()) head += " [DEGRADED]";
  head += "\n";
  return head + render_tree_table(v, exp_[idx], opts);
}

}  // namespace pathview::ui
