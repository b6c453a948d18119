// Inclusive/exclusive metric attribution over the canonical CCT
// (paper Sec. IV-A, Equations 1 and 2).
//
// Exclusive (Eq. 1), by scope kind:
//   * procedure frame (dynamic): sum of all statement samples within the
//     frame reachable without crossing a call site — this crosses loops and
//     inline scopes;
//   * loop / inline scope (static): sum of *direct child* statement samples
//     only ("the exclusive cost of l1 does not include the cost of l2 since
//     l2 is not a statement");
//   * statement: its own samples.
// Inclusive (Eq. 2): subtree sum of raw samples.
#pragma once

#include <array>
#include <span>

#include "pathview/metrics/metric_table.hpp"
#include "pathview/prof/cct.hpp"

namespace pathview::metrics {

struct EventColumns {
  std::array<ColumnId, model::kNumEvents> incl{};
  std::array<ColumnId, model::kNumEvents> excl{};

  ColumnId inclusive(model::Event e) const {
    return incl[static_cast<std::size_t>(e)];
  }
  ColumnId exclusive(model::Event e) const {
    return excl[static_cast<std::size_t>(e)];
  }
};

struct Attribution {
  MetricTable table;   // rows indexed by CCT node id
  EventColumns cols;
  std::vector<model::Event> events;
};

/// Compute inclusive and exclusive columns for the given events over `cct`.
Attribution attribute_metrics(const prof::CanonicalCct& cct,
                              std::span<const model::Event> events);

/// The inclusive or exclusive column of each event in `events` over `cct`:
/// dst[i] receives events[i]'s column (cct.size() values, zero on entry).
/// attribute_metrics fills every column with it, and each ensemble block
/// calls it for one event on every member, so both share one arithmetic:
/// the inclusive sweep in reverse id order of
/// CanonicalCct::inclusive_samples, and the Eq. 1 credits in id order. A
/// cell's value does not depend on which other events share the call.
void attribute_events(const prof::CanonicalCct& cct,
                      std::span<const model::Event> events, bool inclusive,
                      std::span<double* const> dst);

/// All six simulated events.
std::span<const model::Event> all_events();

}  // namespace pathview::metrics
