#include "pathview/metrics/attribution.hpp"

#include "pathview/obs/obs.hpp"

namespace pathview::metrics {

std::span<const model::Event> all_events() {
  static constexpr model::Event kAll[] = {
      model::Event::kCycles,  model::Event::kInstructions,
      model::Event::kFlops,   model::Event::kL1Miss,
      model::Event::kL2Miss,  model::Event::kIdle,
  };
  return kAll;
}

void attribute_events(const prof::CanonicalCct& cct,
                      std::span<const model::Event> events, bool inclusive,
                      std::span<double* const> dst) {
  const prof::CctNodeId n_nodes = static_cast<prof::CctNodeId>(cct.size());
  const std::size_t k = events.size();
  if (inclusive) {
    // Subtree sums of raw samples: children have larger ids than parents,
    // so one reverse sweep accumulates bottom-up.
    for (prof::CctNodeId n = 0; n < n_nodes; ++n) {
      const model::EventVector& raw = cct.samples(n);
      for (std::size_t i = 0; i < k; ++i) dst[i][n] = raw[events[i]];
    }
    for (prof::CctNodeId n = n_nodes; n-- > 1;) {
      const prof::CctNodeId parent = cct.node(n).parent;
      for (std::size_t i = 0; i < k; ++i) dst[i][parent] += dst[i][n];
    }
    return;
  }
  // Exclusive: every statement's raw samples credit (a) the statement
  // itself, (b) its direct parent when that parent is a loop or inline
  // scope (Eq. 1 static rule), and (c) the nearest enclosing procedure
  // frame (Eq. 1 dynamic rule) — once only if (b) and (c) coincide. A
  // statement with no samples in `events` is skipped, and adding a zero
  // changes no cell (a cell starts at +0 and never becomes -0), so the
  // cells do not depend on which other events share the pass.
  for (prof::CctNodeId n = 0; n < n_nodes; ++n) {
    const prof::CctNode& node = cct.node(n);
    if (node.kind != prof::CctKind::kStmt) continue;
    const model::EventVector& raw = cct.samples(n);
    bool any = false;
    for (std::size_t i = 0; i < k; ++i) any = any || raw[events[i]] != 0.0;
    if (!any) continue;
    const auto credit = [&](prof::CctNodeId target) {
      for (std::size_t i = 0; i < k; ++i) dst[i][target] += raw[events[i]];
    };
    credit(n);

    const prof::CctNodeId parent = node.parent;
    const prof::CctKind pk = cct.node(parent).kind;
    if (pk == prof::CctKind::kLoop || pk == prof::CctKind::kInline)
      credit(parent);

    // Nearest enclosing frame (or the root, for orphan samples).
    prof::CctNodeId frame = parent;
    while (frame != prof::kCctNull &&
           cct.node(frame).kind != prof::CctKind::kFrame &&
           cct.node(frame).kind != prof::CctKind::kRoot)
      frame = cct.node(frame).parent;
    // A frame or root parent is credited here, once, as rule (c).
    if (frame != prof::kCctNull) credit(frame);
  }
}

Attribution attribute_metrics(const prof::CanonicalCct& cct,
                              std::span<const model::Event> events) {
  PV_SPAN("metrics.attribute");
  Attribution out;
  out.events.assign(events.begin(), events.end());
  out.table.set_degraded(cct.degraded());
  out.table.ensure_rows(cct.size());
  for (model::Event e : events) {
    for (const bool inclusive : {true, false}) {
      MetricDesc desc{std::string(model::event_name(e)) +
                          (inclusive ? " (I)" : " (E)"),
                      MetricKind::kRaw, e, inclusive, {}};
      (inclusive ? out.cols.incl : out.cols.excl)[static_cast<std::size_t>(
          e)] = out.table.add_column(std::move(desc));
    }
  }
  // One pass per flavor fills every event's column.
  for (const bool inclusive : {true, false}) {
    std::vector<double*> dst;
    for (model::Event e : events)
      dst.push_back(out.table
                        .column_mut(inclusive ? out.cols.inclusive(e)
                                              : out.cols.exclusive(e))
                        .data());
    attribute_events(cct, events, inclusive, dst);
  }
  return out;
}

}  // namespace pathview::metrics
