// Reference column build for oracle tests: the eager attribute-then-scatter
// build that Ensemble's per-block column generators replaced. Every member's
// full attribution (all events, both flavors) is computed with the
// all-events arithmetic metrics::attribute_metrics used before it was split
// per event, each of its columns is scattered through the member's node
// map, and every statistic of every block is filled up front, serially.
#pragma once

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <vector>

#include "pathview/db/experiment.hpp"
#include "pathview/ensemble/ensemble.hpp"

namespace pathview::ensemble::oracle {

/// [event][row] inclusive and exclusive values: inclusive from
/// CanonicalCct::inclusive_samples, exclusive by crediting each statement's
/// whole sample vector per Eq. 1 in id order.
struct ReferenceAttribution {
  std::vector<std::vector<double>> incl, excl;
};

inline ReferenceAttribution reference_attribution(
    const prof::CanonicalCct& cct, const std::vector<model::Event>& events) {
  ReferenceAttribution out;
  const std::vector<model::EventVector> incl = cct.inclusive_samples();
  for (const model::Event ev : events) {
    std::vector<double> col(cct.size());
    for (prof::CctNodeId n = 0; n < cct.size(); ++n) col[n] = incl[n][ev];
    out.incl.push_back(std::move(col));
  }
  out.excl.assign(events.size(), std::vector<double>(cct.size(), 0.0));
  for (prof::CctNodeId n = 0; n < cct.size(); ++n) {
    const prof::CctNode& node = cct.node(n);
    if (node.kind != prof::CctKind::kStmt) continue;
    const model::EventVector& raw = cct.samples(n);
    if (raw.all_zero()) continue;
    const auto credit = [&](prof::CctNodeId target) {
      for (std::size_t i = 0; i < events.size(); ++i)
        out.excl[i][target] += raw[events[i]];
    };
    credit(n);
    const prof::CctNodeId parent = node.parent;
    const prof::CctKind pk = cct.node(parent).kind;
    if (pk == prof::CctKind::kLoop || pk == prof::CctKind::kInline)
      credit(parent);
    prof::CctNodeId frame = parent;
    while (frame != prof::kCctNull &&
           cct.node(frame).kind != prof::CctKind::kFrame &&
           cct.node(frame).kind != prof::CctKind::kRoot)
      frame = cct.node(frame).parent;
    if (frame != prof::kCctNull && frame != parent) credit(frame);
    if (frame == parent &&
        (pk == prof::CctKind::kFrame || pk == prof::CctKind::kRoot))
      credit(frame);
  }
  return out;
}

/// Every column of `e`'s table, in table order, as the eager build computed
/// it. `members` must be the member list `e` was aligned from.
inline std::vector<std::vector<double>> eager_columns(
    const Ensemble& e,
    const std::vector<std::shared_ptr<const db::Experiment>>& members) {
  const std::vector<model::Event>& events = e.options().events;
  const std::size_t N = members.size();
  const std::size_t rows = e.cct().size();
  const std::size_t B = e.baseline();
  const double thr = e.options().regress_threshold;

  std::vector<std::vector<double>> out;
  ReferenceAttribution plain = reference_attribution(e.cct(), events);
  for (std::size_t i = 0; i < events.size(); ++i) {
    out.push_back(std::move(plain.incl[i]));
    out.push_back(std::move(plain.excl[i]));
  }
  std::vector<double> presence(rows);
  for (prof::CctNodeId r = 0; r < rows; ++r)
    presence[r] = static_cast<double>(e.presence_count(r));
  out.push_back(std::move(presence));

  struct Block {
    std::size_t event;  // index into `events`
    bool incl;
    std::vector<std::vector<double>> runs;  // [member][row]
  };
  std::vector<Block> blocks;
  for (std::size_t i = 0; i < events.size(); ++i)
    for (const bool incl : {true, false})
      blocks.push_back({i, incl, std::vector<std::vector<double>>(N)});
  for (std::size_t k = 0; k < N; ++k) {
    const ReferenceAttribution ak =
        reference_attribution(members[k]->cct(), events);
    const std::vector<prof::CctNodeId>& map = e.member_map(k);
    for (Block& b : blocks) {
      const std::vector<double>& src =
          b.incl ? ak.incl[b.event] : ak.excl[b.event];
      std::vector<double> dst(rows, 0.0);
      for (std::size_t i = 0; i < src.size(); ++i)
        if (src[i] != 0.0) dst[map[i]] += src[i];
      b.runs[k] = std::move(dst);
    }
  }

  for (Block& b : blocks) {
    std::vector<std::vector<double>> stats(7, std::vector<double>(rows));
    for (std::size_t r = 0; r < rows; ++r) {
      double sum = 0.0;
      double mn = std::numeric_limits<double>::infinity();
      double mx = -std::numeric_limits<double>::infinity();
      for (std::size_t k = 0; k < N; ++k) {
        const double v = b.runs[k][r];
        sum += v;
        mn = std::min(mn, v);
        mx = std::max(mx, v);
      }
      const double mean = sum / static_cast<double>(N);
      double var = 0.0;
      for (std::size_t k = 0; k < N; ++k) {
        const double d = b.runs[k][r] - mean;
        var += d * d;
      }
      var /= static_cast<double>(N);
      const double base = b.runs[B][r];
      const double others =
          N > 1 ? (sum - base) / static_cast<double>(N - 1) : base;
      stats[0][r] = mean;
      stats[1][r] = mn;
      stats[2][r] = mx;
      stats[3][r] = std::sqrt(var);
      stats[4][r] = others - base;
      stats[5][r] = base != 0.0 ? others / base : (others == 0.0 ? 1.0 : 0.0);
      stats[6][r] = ((base > 0.0 && others - base > thr * base) ||
                     (base == 0.0 && others > 0.0))
                        ? 1.0
                        : 0.0;
    }
    for (std::vector<double>& run : b.runs) out.push_back(std::move(run));
    for (std::vector<double>& stat : stats) out.push_back(std::move(stat));
  }
  return out;
}

}  // namespace pathview::ensemble::oracle
