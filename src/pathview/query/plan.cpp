// Query compilation and execution (see plan.hpp for the operator pipeline).
#include "pathview/query/plan.hpp"

#include <algorithm>
#include <limits>
#include <utility>

#include "pathview/model/program.hpp"
#include "pathview/obs/obs.hpp"
#include "pathview/support/error.hpp"

namespace pathview::query {

namespace {

using metrics::ColumnId;
using metrics::MetricTable;
using metrics::RowId;
using prof::CanonicalCct;
using prof::CctNodeId;

bool is_cmp(ExprOp op) {
  return op == ExprOp::kGt || op == ExprOp::kGe || op == ExprOp::kLt ||
         op == ExprOp::kLe || op == ExprOp::kEq || op == ExprOp::kNe;
}

[[noreturn]] void unknown_column(const std::string& name, std::size_t offset) {
  std::string msg = "query: unknown metric column '" + name + "'";
  if (offset > 0) msg += " (at byte " + std::to_string(offset) + ")";
  throw InvalidArgument(msg);
}

std::optional<model::Event> short_event(std::string_view s) {
  if (s == "cycles") return model::Event::kCycles;
  if (s == "instructions") return model::Event::kInstructions;
  if (s == "flops") return model::Event::kFlops;
  if (s == "l1") return model::Event::kL1Miss;
  if (s == "l2") return model::Event::kL2Miss;
  if (s == "idle") return model::Event::kIdle;
  return std::nullopt;
}

ColumnId resolve_column(const MetricTable& table, const std::string& name,
                        std::size_t offset) {
  if (const auto c = table.find(name)) return *c;
  // Ergonomic aliases: EVENT.incl/.excl refs also accept the short event
  // names every CLI uses ("cycles.incl" resolves to "PAPI_TOT_CYC (I)").
  // Ensemble columns keep the flavor infix ("cycles (I) delta" resolves to
  // "PAPI_TOT_CYC (I) delta"), so match the first " (I)"/" (E)" and rewrite
  // the event name in front of it.
  for (const std::string_view flavor : {" (I)", " (E)"}) {
    const std::size_t pos = name.find(flavor);
    if (pos == std::string::npos) continue;
    if (const auto ev = short_event(std::string_view(name).substr(0, pos))) {
      const std::string papi = std::string(model::event_name(*ev)) +
                               name.substr(pos);
      if (const auto c = table.find(papi)) return *c;
    }
    break;
  }
  unknown_column(name, offset);
}

/// First metric reference in preorder (lhs before rhs) — the comparison's
/// anchor for `total`. Does not descend into nested comparisons, which
/// anchor their own totals.
const Expr* find_anchor_metric(const Expr& e) {
  if (e.op == ExprOp::kMetric) return &e;
  if (e.lhs && !is_cmp(e.lhs->op))
    if (const Expr* m = find_anchor_metric(*e.lhs)) return m;
  if (e.rhs && !is_cmp(e.rhs->op))
    if (const Expr* m = find_anchor_metric(*e.rhs)) return m;
  return nullptr;
}

/// Rewrite every kTotal node into a kNumber holding the root-row value of
/// the nearest enclosing comparison's anchor metric. After this pass the
/// tree is fully constant-resolved, so both the postfix compiler and
/// explain() see plain numbers.
void fold_totals(Expr& e, const MetricTable& table, const double* anchor) {
  if (e.op == ExprOp::kTotal) {
    if (anchor == nullptr)
      throw InvalidArgument(
          "query: 'total' needs a metric in the same comparison (at byte " +
          std::to_string(e.offset) + ")");
    e.op = ExprOp::kNumber;
    e.number = *anchor;
    return;
  }
  double own_total = 0.0;
  if (is_cmp(e.op)) {
    if (const Expr* m = find_anchor_metric(e)) {
      const ColumnId c = resolve_column(table, m->metric, m->offset);
      own_total = table.num_rows() > 0 ? table.get(c, 0) : 0.0;
      anchor = &own_total;
    } else {
      anchor = nullptr;  // a metric-free comparison can't anchor 'total'
    }
  }
  if (e.lhs) fold_totals(*e.lhs, table, anchor);
  if (e.rhs) fold_totals(*e.rhs, table, anchor);
}

double apply_binary(ExprOp op, double a, double b) {
  switch (op) {
    case ExprOp::kAdd:
      return a + b;
    case ExprOp::kSub:
      return a - b;
    case ExprOp::kMul:
      return a * b;
    case ExprOp::kDiv:
      return a / b;
    case ExprOp::kGt:
      return a > b ? 1.0 : 0.0;
    case ExprOp::kGe:
      return a >= b ? 1.0 : 0.0;
    case ExprOp::kLt:
      return a < b ? 1.0 : 0.0;
    case ExprOp::kLe:
      return a <= b ? 1.0 : 0.0;
    case ExprOp::kEq:
      return a == b ? 1.0 : 0.0;
    case ExprOp::kNe:
      return a != b ? 1.0 : 0.0;
    case ExprOp::kAnd:
      return (a != 0.0 && b != 0.0) ? 1.0 : 0.0;
    case ExprOp::kOr:
      return (a != 0.0 || b != 0.0) ? 1.0 : 0.0;
    default:
      return 0.0;
  }
}

}  // namespace

// --- compile ----------------------------------------------------------------

namespace {

/// Post-order flatten of a folded (total-free) expression tree.
void emit_program(const Expr& e, const MetricTable& table,
                  std::vector<Plan::Instr>& out) {
  if (e.lhs) emit_program(*e.lhs, table, out);
  if (e.rhs) emit_program(*e.rhs, table, out);
  Plan::Instr in;
  in.op = e.op;
  switch (e.op) {
    case ExprOp::kNumber:
      in.imm = e.number;
      break;
    case ExprOp::kMetric:
      // Resolved to the column's values once, here: the per-row loop reads
      // them directly (this first read also generates a lazy column).
      in.col = resolve_column(table, e.metric, e.offset);
      in.values = table.column(in.col).data();
      break;
    case ExprOp::kTotal:  // folded away before emission
      in.op = ExprOp::kNumber;
      break;
    default:
      break;
  }
  out.push_back(in);
}

/// Run a postfix program for one row. `stack` is caller-owned scratch so the
/// per-row loop does not allocate.
double eval_program(const std::vector<Plan::Instr>& prog, RowId row,
                    std::vector<double>& stack) {
  stack.clear();
  for (const Plan::Instr& in : prog) {
    switch (in.op) {
      case ExprOp::kNumber:
        stack.push_back(in.imm);
        break;
      case ExprOp::kMetric:
        stack.push_back(in.values[row]);
        break;
      case ExprOp::kNeg:
        stack.back() = -stack.back();
        break;
      case ExprOp::kNot:
        stack.back() = stack.back() != 0.0 ? 0.0 : 1.0;
        break;
      case ExprOp::kTotal:
        stack.push_back(0.0);  // unreachable: folded at compile time
        break;
      default: {
        const double b = stack.back();
        stack.pop_back();
        stack.back() = apply_binary(in.op, stack.back(), b);
        break;
      }
    }
  }
  return stack.back();
}

bool is_const_op(ExprOp op) {
  return op == ExprOp::kNumber || op == ExprOp::kNeg || op == ExprOp::kAdd ||
         op == ExprOp::kSub || op == ExprOp::kMul || op == ExprOp::kDiv;
}

ExprOp flip_cmp(ExprOp op) {
  switch (op) {
    case ExprOp::kGt:
      return ExprOp::kLt;
    case ExprOp::kGe:
      return ExprOp::kLe;
    case ExprOp::kLt:
      return ExprOp::kGt;
    case ExprOp::kLe:
      return ExprOp::kGe;
    default:
      return op;  // ==, != are symmetric
  }
}

}  // namespace

Plan compile(Query q, const CanonicalCct& cct, const MetricTable& table) {
  PV_SPAN("query.compile");
  PV_COUNTER_ADD("query.compiles", 1);
  Plan p;
  p.q_ = std::move(q);
  p.cct_ = &cct;
  p.table_ = &table;

  p.text_ = to_text(p.q_);
  p.pattern_ = parse_pattern(p.q_.pattern, p.q_.pattern_offset);

  if (p.q_.where) {
    fold_totals(*p.q_.where, table, nullptr);
    emit_program(*p.q_.where, table, p.program_);
    p.predicate_text_ = to_text(*p.q_.where);
  }

  // Columnar fast path: no pattern, and the predicate is one comparison of a
  // single metric against a constant sub-expression. In postfix that is
  // either [metric][const...][cmp] or [const...][metric][cmp]; the constant
  // part is evaluated here, once.
  if (p.pattern_.empty() && !p.program_.empty() &&
      is_cmp(p.program_.back().op)) {
    const auto& prog = p.program_;
    const std::size_t n = prog.size();
    auto const_range = [&](std::size_t lo, std::size_t hi) {  // [lo, hi)
      if (lo >= hi) return false;
      for (std::size_t i = lo; i < hi; ++i)
        if (!is_const_op(prog[i].op)) return false;
      return true;
    };
    std::vector<double> scratch;
    if (prog[0].op == ExprOp::kMetric && const_range(1, n - 1)) {
      // metric cmp const
      p.simple_scan_ = true;
      p.scan_cmp_ = prog.back().op;
      p.scan_col_ = prog[0].col;
      const std::vector<Plan::Instr> rhs(prog.begin() + 1, prog.end() - 1);
      p.scan_bound_ = eval_program(rhs, 0, scratch);
    } else if (n >= 2 && prog[n - 2].op == ExprOp::kMetric &&
               const_range(0, n - 2)) {
      // const cmp metric — flip so the metric is on the left
      p.simple_scan_ = true;
      p.scan_cmp_ = flip_cmp(prog.back().op);
      p.scan_col_ = prog[n - 2].col;
      const std::vector<Plan::Instr> lhs(prog.begin(), prog.end() - 2);
      p.scan_bound_ = eval_program(lhs, 0, scratch);
    }
  }

  // Select list: as written, or defaulted to the metrics the query already
  // references (order-by first, then where-clause metrics in source order);
  // a query referencing no metrics projects every column. Defaulted items
  // display the canonical (resolved) column name.
  p.select_ = p.q_.select;
  if (p.select_.empty()) {
    std::vector<ColumnId> cols;
    auto add_col = [&](ColumnId c) {
      if (std::find(cols.begin(), cols.end(), c) == cols.end())
        cols.push_back(c);
    };
    if (!p.q_.order_by.empty())
      add_col(resolve_column(table, p.q_.order_by, p.q_.order_by_offset));
    for (const Plan::Instr& in : p.program_)
      if (in.op == ExprOp::kMetric) add_col(in.col);
    if (cols.empty())
      for (ColumnId c = 0; c < table.num_columns(); ++c) add_col(c);
    for (const ColumnId c : cols) {
      SelectItem item;
      item.metric = std::string(table.desc(c).name);
      item.display = item.metric;
      p.select_.push_back(std::move(item));
    }
  }

  bool any_agg = false, any_plain = false;
  for (const SelectItem& s : p.select_)
    (s.agg == SelectItem::Agg::kNone ? any_plain : any_agg) = true;
  if (any_agg && any_plain)
    throw InvalidArgument(
        "query: select mixes aggregates with plain metrics; pick one shape");
  p.aggregate_ = any_agg;
  for (const SelectItem& s : p.select_) {
    if (s.agg == SelectItem::Agg::kCount) {
      p.out_cols_.push_back(0);  // unused
      continue;
    }
    p.out_cols_.push_back(resolve_column(table, s.metric, 0));
  }

  if (!p.q_.order_by.empty())
    p.order_col_ = resolve_column(table, p.q_.order_by, p.q_.order_by_offset);
  return p;
}

// --- execute ----------------------------------------------------------------

namespace {

/// '/'-joined frame names root→node; a non-frame result node appends its own
/// display label so rows stay distinguishable ("main/g/loop at file2.c: 8").
std::string path_of(const CanonicalCct& cct, CctNodeId id) {
  std::vector<std::string_view> parts;
  for (CctNodeId cur = id; cur != prof::kCctRoot && cur != prof::kCctNull;
       cur = cct.node(cur).parent) {
    const prof::CctNode& n = cct.node(cur);
    if (prof::is_frame(n.kind)) parts.push_back(cct.tree().name_of(n.scope));
  }
  std::string out;
  for (auto it = parts.rbegin(); it != parts.rend(); ++it) {
    if (!out.empty()) out += '/';
    out += *it;
  }
  if (id != prof::kCctRoot && !prof::is_frame(cct.node(id).kind)) {
    if (!out.empty()) out += '/';
    out += cct.label(id);
  }
  return out;
}

}  // namespace

std::vector<CctNodeId> Plan::match_candidates(QueryStats& stats) const {
  PV_SPAN("query.match");
  const PatternMatcher m(pattern_);
  if (pattern_.unanchored()) {
    // No subtree could be pruned, so the pass runs over the CCT's frame
    // list in id order: a non-frame node passes its parent's state set on
    // unchanged, so a frame's state is its nearest frame ancestor's,
    // advanced by its own name. Matches come out ascending with no sort.
    stats.nodes_visited += cct_->size();  // the start state never dies
    const std::vector<CctNodeId>& frames = cct_->frames();
    if (std::all_of(pattern_.segments.begin(), pattern_.segments.end(),
                    [](const PathPattern::Segment& s) { return s.any_depth; }))
      return frames;  // only '**' segments: every frame matches
    const std::vector<std::uint32_t>& up = cct_->frame_parents();
    std::vector<PatternMatcher::StateSet> state(frames.size());
    std::vector<CctNodeId> out;
    for (std::size_t i = 0; i < frames.size(); ++i) {
      const prof::CctNode& n = cct_->node(frames[i]);
      state[i] = m.advance(
          up[i] == CanonicalCct::kNoFrame ? m.initial() : state[up[i]],
          cct_->tree().name_of(n.scope));
      if (m.accepting(state[i])) out.push_back(frames[i]);
    }
    return out;
  }
  // DFS carrying NFA state sets. A subtree is pruned the moment its state
  // set goes empty — for anchored patterns this skips most of the tree.
  std::vector<CctNodeId> out;
  std::vector<std::pair<CctNodeId, PatternMatcher::StateSet>> stack;
  stack.emplace_back(prof::kCctRoot, m.initial());
  while (!stack.empty()) {
    const auto [id, state] = stack.back();
    stack.pop_back();
    ++stats.nodes_visited;
    PatternMatcher::StateSet s = state;
    const prof::CctNode& n = cct_->node(id);
    if (prof::is_frame(n.kind)) {
      s = m.advance(s, cct_->tree().name_of(n.scope));
      if (m.accepting(s)) out.push_back(id);
      if (!m.can_continue(s)) continue;
    }
    for (const CctNodeId child : n.children) stack.emplace_back(child, s);
  }
  std::sort(out.begin(), out.end());
  return out;
}

void Plan::order_rows(std::vector<RowId>& rows) const {
  PV_SPAN("query.order");
  // Order by (key, node id), NaN keys last: the input is node-id ascending,
  // so this is a stable sort on the key — byte-deterministic output. With a
  // limit only the first `limit` rows are ordered.
  struct Keyed {
    double key;
    RowId row;
  };
  const std::span<const double> col = table_->column(*order_col_);
  std::vector<Keyed> keyed(rows.size());
  for (std::size_t i = 0; i < rows.size(); ++i)
    keyed[i] = Keyed{col[rows[i]], rows[i]};
  const bool desc = q_.order_desc;
  const auto before = [desc](const Keyed& a, const Keyed& b) {
    if (metrics::sorts_before(a.key, b.key, desc)) return true;
    if (metrics::sorts_before(b.key, a.key, desc)) return false;
    return a.row < b.row;
  };
  if (q_.limit > 0 && q_.limit < keyed.size()) {
    std::partial_sort(keyed.begin(), keyed.begin() + q_.limit, keyed.end(),
                      before);
    keyed.resize(q_.limit);
  } else {
    std::sort(keyed.begin(), keyed.end(), before);
  }
  rows.resize(keyed.size());
  for (std::size_t i = 0; i < keyed.size(); ++i) rows[i] = keyed[i].row;
}

QueryResult Plan::execute() const {
  PV_SPAN("query.execute");
  QueryResult res;
  QueryStats& stats = res.stats;
  const std::size_t nrows = table_->num_rows();

  std::vector<RowId> matched;
  if (simple_scan_) {
    stats.rows_scanned = nrows;
    auto emit = [&](RowId r, double) { matched.push_back(r); };
    const double b = scan_bound_;
    switch (scan_cmp_) {
      case ExprOp::kGt:
        table_->scan(scan_col_, [b](double v) { return v > b; }, emit);
        break;
      case ExprOp::kGe:
        table_->scan(scan_col_, [b](double v) { return v >= b; }, emit);
        break;
      case ExprOp::kLt:
        table_->scan(scan_col_, [b](double v) { return v < b; }, emit);
        break;
      case ExprOp::kLe:
        table_->scan(scan_col_, [b](double v) { return v <= b; }, emit);
        break;
      case ExprOp::kEq:
        table_->scan(scan_col_, [b](double v) { return v == b; }, emit);
        break;
      default:
        table_->scan(scan_col_, [b](double v) { return v != b; }, emit);
        break;
    }
  } else {
    std::vector<double> scratch;
    auto test = [&](RowId r) {
      if (program_.empty()) {
        matched.push_back(r);
        return;
      }
      ++stats.rows_scanned;
      if (eval_program(program_, r, scratch) != 0.0)
        matched.push_back(r);
    };
    if (pattern_.empty()) {
      for (RowId r = 0; r < nrows; ++r) test(r);
    } else {
      for (const CctNodeId id : match_candidates(stats))
        if (id < nrows) test(id);
    }
  }
  stats.rows_matched = matched.size();

  for (const SelectItem& s : select_) res.columns.push_back(s.display);

  if (aggregate_) {
    ResultRow row;
    for (std::size_t i = 0; i < select_.size(); ++i) {
      const SelectItem& s = select_[i];
      if (s.agg == SelectItem::Agg::kCount) {
        row.values.push_back(static_cast<double>(matched.size()));
        continue;
      }
      const std::span<const double> col = table_->column(out_cols_[i]);
      double acc = 0.0;
      if (!matched.empty()) {
        switch (s.agg) {
          case SelectItem::Agg::kMin:
            acc = std::numeric_limits<double>::infinity();
            for (const RowId r : matched) acc = std::min(acc, col[r]);
            break;
          case SelectItem::Agg::kMax:
            acc = -std::numeric_limits<double>::infinity();
            for (const RowId r : matched) acc = std::max(acc, col[r]);
            break;
          default:  // kSum, kMean
            for (const RowId r : matched) acc += col[r];
            if (s.agg == SelectItem::Agg::kMean)
              acc /= static_cast<double>(matched.size());
            break;
        }
      }
      row.values.push_back(acc);
    }
    res.rows.push_back(std::move(row));
  } else {
    if (order_col_ && matched.size() > 1) order_rows(matched);
    if (q_.limit > 0 && matched.size() > q_.limit) matched.resize(q_.limit);
    res.rows.reserve(matched.size());
    for (const RowId r : matched) {
      ResultRow row;
      row.node = r;
      row.path = path_of(*cct_, r);
      row.label = cct_->label(r);
      row.values.reserve(out_cols_.size());
      for (const ColumnId c : out_cols_) row.values.push_back(table_->get(c, r));
      res.rows.push_back(std::move(row));
    }
  }

  PV_COUNTER_ADD("query.executes", 1);
  PV_COUNTER_ADD("query.nodes_visited", stats.nodes_visited);
  PV_COUNTER_ADD("query.rows_scanned", stats.rows_scanned);
  PV_COUNTER_ADD("query.rows_matched", stats.rows_matched);
  return res;
}

std::string Plan::explain() const {
  std::string out = "plan for: " + text_ + "\n";
  out += "  source: cct (" + std::to_string(cct_->size()) +
         " nodes) x metrics (" + std::to_string(table_->num_columns()) +
         " columns, " + std::to_string(table_->num_rows()) + " rows)\n";
  if (!pattern_.empty())
    out += "  match: '" + pattern_.text + "' (" +
           std::to_string(pattern_.segments.size()) + " segments, " +
           (pattern_.unanchored() ? "nfa id-order pass" : "nfa dfs") + ")\n";
  if (!program_.empty()) {
    out += "  filter: " + predicate_text_;
    if (simple_scan_) {
      Expr bound;
      bound.op = ExprOp::kNumber;
      bound.number = scan_bound_;
      out += " [columnar scan on \"" +
             std::string(table_->desc(scan_col_).name) + "\", bound " +
             to_text(bound) + "]";
    } else {
      out += " [row program, " + std::to_string(program_.size()) + " ops]";
    }
    out += "\n";
  }
  out += aggregate_ ? "  aggregate:" : "  project:";
  for (std::size_t i = 0; i < select_.size(); ++i)
    out += (i == 0 ? " " : ", ") + select_[i].display;
  out += "\n";
  if (order_col_)
    out += "  order by: \"" + q_.order_by + "\" " +
           (q_.order_desc ? "desc" : "asc") + "\n";
  if (q_.limit > 0) out += "  limit: " + std::to_string(q_.limit) + "\n";
  return out;
}

QueryResult run(std::string_view text, const CanonicalCct& cct,
                const MetricTable& table) {
  return compile(parse(text), cct, table).execute();
}

}  // namespace pathview::query
