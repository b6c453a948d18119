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

Attribution attribute_metrics(const prof::CanonicalCct& cct,
                              std::span<const model::Event> events) {
  PV_SPAN("metrics.attribute");
  Attribution out;
  out.events.assign(events.begin(), events.end());
  out.table.set_degraded(cct.degraded());
  out.table.ensure_rows(cct.size());
  for (model::Event e : events) {
    MetricDesc incl{std::string(model::event_name(e)) + " (I)",
                    MetricKind::kRaw, e, /*inclusive=*/true, {}};
    MetricDesc excl{std::string(model::event_name(e)) + " (E)",
                    MetricKind::kRaw, e, /*inclusive=*/false, {}};
    out.cols.incl[static_cast<std::size_t>(e)] =
        out.table.add_column(std::move(incl));
    out.cols.excl[static_cast<std::size_t>(e)] =
        out.table.add_column(std::move(excl));
  }

  // Inclusive: subtree sums of raw samples (children have larger ids than
  // parents, so one reverse sweep accumulates bottom-up). Filled one
  // contiguous column at a time.
  const std::vector<model::EventVector> incl = cct.inclusive_samples();
  for (model::Event e : events) {
    const std::span<double> dst = out.table.column_mut(out.cols.inclusive(e));
    for (prof::CctNodeId n = 0; n < cct.size(); ++n) dst[n] = incl[n][e];
  }

  // Exclusive: every statement's raw samples credit (a) the statement
  // itself, (b) its direct parent when that parent is a loop or inline
  // scope (Eq. 1 static rule), and (c) the nearest enclosing procedure
  // frame (Eq. 1 dynamic rule) — once only if (b) and (c) coincide.
  for (prof::CctNodeId n = 0; n < cct.size(); ++n) {
    const prof::CctNode& node = cct.node(n);
    if (node.kind != prof::CctKind::kStmt) continue;
    const model::EventVector& raw = cct.samples(n);
    if (raw.all_zero()) continue;

    auto credit = [&](prof::CctNodeId target) {
      for (model::Event e : events)
        out.table.add(out.cols.exclusive(e), target, raw[e]);
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
    if (frame != prof::kCctNull && frame != parent) credit(frame);
    // (when frame == parent, rule (b)/(c) coincide and were credited once —
    //  note a frame parent is credited here only via this branch)
    if (frame == parent &&
        (pk == prof::CctKind::kFrame || pk == prof::CctKind::kRoot)) {
      credit(frame);
    }
  }
  return out;
}

}  // namespace pathview::metrics
