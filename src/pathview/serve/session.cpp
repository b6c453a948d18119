#include "pathview/serve/session.hpp"

#include <algorithm>
#include <charconv>
#include <filesystem>

#include "pathview/analysis/timeline.hpp"
#include "pathview/core/flatten.hpp"
#include "pathview/ensemble/inputs.hpp"
#include "pathview/metrics/attribution.hpp"
#include "pathview/metrics/derived.hpp"
#include "pathview/obs/obs.hpp"
#include "pathview/query/plan.hpp"
#include "pathview/serve/journal.hpp"
#include "pathview/serve/query_codec.hpp"
#include "pathview/support/error.hpp"
#include "pathview/support/io.hpp"

namespace pathview::serve {

namespace {

/// Internal control-flow exception carrying the protocol error kind.
struct ServeError : Error {
  ServeError(ErrorKind k, const std::string& what,
             std::uint32_t retry_ms = 0)
      : Error(what), kind(k), retry_after_ms(retry_ms) {}
  ErrorKind kind;
  /// Nonzero marks the refusal transient; echoed as "retry_after_ms".
  std::uint32_t retry_after_ms;
};

const char* metric_kind_name(metrics::MetricKind k) {
  switch (k) {
    case metrics::MetricKind::kRaw: return "raw";
    case metrics::MetricKind::kDerived: return "derived";
    case metrics::MetricKind::kSummary: return "summary";
  }
  return "raw";
}

/// The journal entry for one mutating request: its op name plus the
/// op-specific params, minus envelope fields that must not replay (ids,
/// trace ids, the session token itself).
JsonValue sanitize_body(const Request& req) {
  JsonValue out = JsonValue::object();
  out.set("op", JsonValue::string(op_name(req.op)));
  if (req.body.is_object()) {
    for (const auto& [key, value] : req.body.members()) {
      if (key == "v" || key == "id" || key == "op" || key == "trace_id" ||
          key == "session")
        continue;
      out.set(key, value);
    }
  }
  return out;
}

/// "s<N>" -> N; 0 when the token is not a dense session id.
std::uint64_t sid_number(std::string_view sid) {
  if (sid.size() < 2 || sid[0] != 's') return 0;
  std::uint64_t n = 0;
  const char* first = sid.data() + 1;
  const char* last = sid.data() + sid.size();
  auto r = std::from_chars(first, last, n);
  if (r.ec != std::errc() || r.ptr != last) return 0;
  return n;
}

}  // namespace

core::ViewType parse_view_name(const std::string& name) {
  if (name == "cct") return core::ViewType::kCallingContext;
  if (name == "callers") return core::ViewType::kCallers;
  if (name == "flat") return core::ViewType::kFlat;
  // handle() maps InvalidArgument onto a kBadRequest error response.
  throw InvalidArgument("unknown view \"" + name + "\" (cct|callers|flat)");
}

/// Inverse of parse_view_name: the wire token journal headers store (the
/// display name from core::view_type_name is for humans, not for replay).
const char* view_wire_name(core::ViewType view) {
  switch (view) {
    case core::ViewType::kCallingContext: return "cct";
    case core::ViewType::kCallers: return "callers";
    case core::ViewType::kFlat: return "flat";
  }
  return "cct";
}

// ---------------------------------------------------------------------------
// Session.
// ---------------------------------------------------------------------------

Session::Session(std::string sid, std::string path, AttributedExperiment exp,
                 core::ViewType view)
    : sid_(std::move(sid)),
      path_(std::move(path)),
      exp_(std::move(exp.exp)),
      // Shares the cached base attribution's columns; derived columns this
      // session adds are its own.
      attr_(*exp.attr) {
  viewer_ = std::make_unique<ui::ViewerController>(exp_->cct(), attr_);
  viewer_->select_view(view);
  // Stored derived metrics become columns of this session's tables, exactly
  // as pvviewer applies them on load.
  for (const metrics::MetricDesc& d : exp_->user_metrics())
    add_derived(d.name, d.formula);
}

Session::Session(std::string sid,
                 std::shared_ptr<const ensemble::Ensemble> ens,
                 core::ViewType view)
    : sid_(std::move(sid)),
      ens_(std::move(ens)),
      // The supergraph and every ensemble column are shared; the table copy
      // holds handles, to which `metrics.derive` adds this session's own
      // columns.
      attr_(ens_->attribution()) {
  viewer_ = std::make_unique<ui::ViewerController>(ens_->cct(), attr_);
  viewer_->select_view(view);
}

metrics::ColumnId Session::add_derived(const std::string& name,
                                       const std::string& formula) {
  const metrics::ColumnId c = viewer_->add_derived(name, formula);
  // Mirror into the attribution table (the query substrate, rows = CCT node
  // ids) so `query`/`explain` can reference every column the views show.
  metrics::add_derived_metric(attr_.table, name, formula);
  return c;
}

void Session::check_node(std::uint64_t id) const {
  if (id >= viewer_->current().size())
    throw ServeError(ErrorKind::kBadRequest,
                     "node " + std::to_string(id) + " out of range (view has " +
                         std::to_string(viewer_->current().size()) +
                         " materialized nodes)");
}

const std::vector<core::ViewNodeId>& Session::display_children(
    core::ViewNodeId id) {
  return viewer_->current().children_of(id);
}

JsonValue Session::encode_rows(const std::vector<core::ViewNodeId>& ids) {
  core::View& view = viewer_->current();
  const metrics::MetricTable& table = view.table();
  JsonValue rows = JsonValue::array();
  for (core::ViewNodeId id : ids) {
    const core::ViewNode& n = view.node(id);
    std::string label = view.label(id);
    if (n.scope != structure::kSNull) {
      const structure::SNode& sn = view.tree().node(n.scope);
      if (sn.kind == structure::SKind::kProc && !sn.has_source)
        label = "[" + label + "]";  // the paper's "plain black" rendering
    }
    // The tree-table's lazy expandability test: an unbuilt node might have
    // children; a built one is asked directly. Never materializes.
    const bool expandable = !n.children_built || !n.children.empty();
    JsonValue row = JsonValue::object();
    row.set("id", JsonValue::number(static_cast<std::uint64_t>(id)));
    row.set("label", JsonValue::string(std::move(label)));
    row.set("expandable", JsonValue::boolean(expandable));
    if (view.is_call_site(id)) row.set("call_site", JsonValue::boolean(true));
    JsonValue vals = JsonValue::array();
    for (metrics::ColumnId c = 0; c < table.num_columns(); ++c)
      vals.push(JsonValue::number(table.get(c, id)));
    row.set("metrics", std::move(vals));
    rows.push(std::move(row));
  }
  PV_COUNTER_ADD("serve.rows_encoded", ids.size());
  return rows;
}

JsonValue Session::encode_columns() const {
  const metrics::MetricTable& table = viewer_->current().table();
  JsonValue cols = JsonValue::array();
  for (metrics::ColumnId c = 0; c < table.num_columns(); ++c) {
    const metrics::MetricDesc& d = table.desc(c);
    JsonValue col = JsonValue::object();
    col.set("id", JsonValue::number(static_cast<std::uint64_t>(c)));
    col.set("name", JsonValue::string(d.name));
    col.set("kind", JsonValue::string(metric_kind_name(d.kind)));
    col.set("inclusive", JsonValue::boolean(d.inclusive));
    cols.push(std::move(col));
  }
  return cols;
}

bool Session::journaled_op(const Request& req) {
  switch (req.op) {
    case Op::kExpand:
    case Op::kCollapse:
    case Op::kSort:
    case Op::kFlatten:
    case Op::kUnflatten:
    case Op::kHotPath:
      return true;
    case Op::kMetrics:
      // Only derivations mutate; a bare column listing does not.
      return req.body.find("derive") != nullptr;
    default:
      return false;
  }
}

void Session::ensure_traces() {
  if (ens_)
    throw ServeError(ErrorKind::kNotFound,
                     "ensemble sessions have no traces");
  if (traces_loaded_) {
    if (traces_.empty())
      throw ServeError(ErrorKind::kNotFound,
                       "experiment has no trace directory");
    return;
  }
  traces_loaded_ = true;
  try {
    traces_ = db::open_traces(db::trace_dir_for(path_));
  } catch (const Error& e) {
    throw ServeError(ErrorKind::kNotFound,
                     std::string("no traces for this experiment: ") + e.what());
  }
}

// ---------------------------------------------------------------------------
// SessionManager.
// ---------------------------------------------------------------------------

SessionManager::SessionManager() : SessionManager(Options()) {}

SessionManager::SessionManager(Options opts)
    : opts_(opts), cache_(opts.cache) {
  if (opts_.session_dir.empty()) return;
  // Journals from a previous incarnation must keep their tokens: scan the
  // session dir so freshly opened sessions never collide with a resumable
  // "s<N>" that is still on disk.
  std::error_code ec;
  std::filesystem::create_directories(opts_.session_dir, ec);
  for (const auto& ent :
       std::filesystem::directory_iterator(opts_.session_dir, ec)) {
    const std::string name = ent.path().filename().string();
    constexpr std::string_view kExt = ".pvsj";
    if (name.size() <= kExt.size() ||
        std::string_view(name).substr(name.size() - kExt.size()) != kExt)
      continue;
    const std::uint64_t n =
        sid_number(std::string_view(name).substr(0, name.size() - kExt.size()));
    if (n >= next_sid_) next_sid_ = n + 1;
  }
}

std::shared_ptr<Session> SessionManager::find(const std::string& sid) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = sessions_.find(sid);
  if (it == sessions_.end())
    throw ServeError(ErrorKind::kNotFound, "unknown session \"" + sid + "\"");
  return it->second;
}

std::size_t SessionManager::open_sessions() const {
  std::lock_guard<std::mutex> lock(mu_);
  return sessions_.size();
}

std::uint64_t SessionManager::sessions_opened() const {
  std::lock_guard<std::mutex> lock(mu_);
  return next_sid_ - 1;
}

std::uint64_t SessionManager::resumed_sessions() const {
  std::lock_guard<std::mutex> lock(mu_);
  return resumed_;
}

std::size_t SessionManager::degraded_sessions() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::size_t n = 0;
  for (const auto& [sid, s] : sessions_)
    if (s->degraded()) ++n;
  return n;
}

std::size_t SessionManager::close_all() {
  std::lock_guard<std::mutex> lock(mu_);
  const std::size_t n = sessions_.size();
  sessions_.clear();
  PV_COUNTER_SET("serve.sessions.open", 0);
  return n;
}

JsonValue SessionManager::handle(const Request& req) {
  try {
    switch (req.op) {
      case Op::kOpen: return do_open(req);
      case Op::kOpenEnsemble: return do_open_ensemble(req);
      case Op::kClose: return do_close(req);
      case Op::kPing: return do_ping(req);
      case Op::kStats: return do_stats(req);
      case Op::kShutdown: return ok_response(req.id);
      case Op::kResumeSession: return do_resume_session(req);
      default: return do_session_op(req);
    }
  } catch (const ServeError& e) {
    return error_response(req.id, e.kind, e.what(), e.retry_after_ms);
  } catch (const Error& e) {
    // InvalidArgument / ParseError from views, formulas, loaders.
    return error_response(req.id, ErrorKind::kBadRequest, e.what());
  } catch (const std::exception& e) {
    return error_response(req.id, ErrorKind::kInternal, e.what());
  }
}

// Reserve the sid and a capacity slot under the lock, but construct the
// Session (metric attribution over the whole CCT — expensive) outside it
// so concurrent opens/finds on other sessions don't stall behind it.
template <class Build>
std::shared_ptr<Session> SessionManager::register_session(Build&& build) {
  std::string sid;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (sessions_.size() + pending_opens_ >= opts_.max_sessions)
      throw ServeError(ErrorKind::kOverloaded,
                       "session limit (" +
                           std::to_string(opts_.max_sessions) + ") reached",
                       opts_.retry_after_ms);
    sid = "s" + std::to_string(next_sid_++);
    ++pending_opens_;
  }
  std::shared_ptr<Session> session;
  try {
    session = build(sid);
  } catch (...) {
    std::lock_guard<std::mutex> lock(mu_);
    --pending_opens_;
    throw;
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    --pending_opens_;
    sessions_.emplace(sid, session);
    PV_COUNTER_SET("serve.sessions.open", sessions_.size());
  }
  PV_COUNTER_ADD("serve.sessions.opened", 1);
  return session;
}

// register_session for resume: the sid comes from the journal, not the dense
// counter. Returns nullptr when a concurrent resume already published it.
template <class Build>
std::shared_ptr<Session> SessionManager::register_session_with_sid(
    const std::string& sid, Build&& build) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (sessions_.count(sid) != 0) return nullptr;
    if (sessions_.size() + pending_opens_ >= opts_.max_sessions)
      throw ServeError(ErrorKind::kOverloaded,
                       "session limit (" +
                           std::to_string(opts_.max_sessions) + ") reached",
                       opts_.retry_after_ms);
    // Keep the dense-id invariant: this token is taken forever.
    if (const std::uint64_t n = sid_number(sid); n >= next_sid_)
      next_sid_ = n + 1;
    ++pending_opens_;
  }
  std::shared_ptr<Session> session;
  try {
    session = build(sid);
  } catch (...) {
    std::lock_guard<std::mutex> lock(mu_);
    --pending_opens_;
    throw;
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    --pending_opens_;
    auto [it, inserted] = sessions_.emplace(sid, session);
    if (!inserted) return nullptr;  // a concurrent resume won the race
    PV_COUNTER_SET("serve.sessions.open", sessions_.size());
  }
  PV_COUNTER_ADD("serve.sessions.opened", 1);
  return session;
}

// ---------------------------------------------------------------------------
// Journaling (see journal.hpp).
// ---------------------------------------------------------------------------

void SessionManager::init_journal(Session& s, JsonValue header) {
  if (opts_.session_dir.empty()) return;
  s.journal_file_ = journal_path(opts_.session_dir, s.sid());
  s.journal_max_ops_ = opts_.journal_max_ops;
  s.journal_header_ = std::move(header);
  s.journal_ops_ = JsonValue::array();
  checkpoint(s);
}

void SessionManager::checkpoint(Session& s) {
  if (s.journal_file_.empty()) return;
  try {
    support::atomic_write_file(
        s.journal_file_, encode_journal(s.journal_header_, s.journal_ops_),
        "serve.journal.save");
    PV_COUNTER_ADD("serve.journal.checkpoints", 1);
  } catch (const std::exception&) {
    // A checkpoint must never fail the op it rides on: the session keeps
    // serving, a later resume just falls back to the previous checkpoint
    // (atomic_write_file guarantees that file is still whole).
    PV_COUNTER_ADD("serve.journal.errors", 1);
  }
}

void SessionManager::journal_op(Session& s, const Request& req) {
  if (s.journal_file_.empty() || s.journal_suppressed_) return;
  if (!Session::journaled_op(req)) return;
  if (s.journal_ops_.items().size() >= s.journal_max_ops_) {
    if (!s.journal_overflow_) {
      s.journal_overflow_ = true;
      s.journal_header_.set("overflow", JsonValue::boolean(true));
      PV_COUNTER_ADD("serve.journal.overflows", 1);
      checkpoint(s);
    }
    return;
  }
  PV_SPAN("serve.journal.append");
  s.journal_ops_.push(sanitize_body(req));
  checkpoint(s);
}

JsonValue SessionManager::do_open(const Request& req) {
  const std::string path = req.body.get_string("path", "");
  if (path.empty())
    throw ServeError(ErrorKind::kBadRequest, "open: missing \"path\"");
  const std::string view_name = req.body.get_string("view", "");
  const core::ViewType view =
      view_name.empty() ? opts_.default_view : parse_view_name(view_name);

  AttributedExperiment exp;
  try {
    exp = cache_.get_attributed(path);
  } catch (const Error& e) {
    throw ServeError(ErrorKind::kNotFound,
                     "cannot load \"" + path + "\": " + e.what());
  }

  std::shared_ptr<Session> session =
      register_session([&](const std::string& sid) {
        return std::make_shared<Session>(sid, path, std::move(exp), view);
      });

  std::lock_guard<std::mutex> slock(session->mu_);
  {
    JsonValue jheader = JsonValue::object();
    jheader.set("type", JsonValue::string("exp"));
    jheader.set("path", JsonValue::string(path));
    jheader.set("view", JsonValue::string(view_wire_name(view)));
    init_journal(*session, std::move(jheader));
  }
  JsonValue resp = ok_response(req.id);
  resp.set("session", JsonValue::string(session->sid()));
  resp.set("name", JsonValue::string(session->exp_->name()));
  resp.set("nranks", JsonValue::number(static_cast<std::uint64_t>(
                         session->exp_->nranks())));
  // Degraded experiments (salvage-loaded, dropped ranks) announce it so a
  // remote viewer can show the banner a local load would print.
  if (session->exp_->degraded()) {
    resp.set("degraded", JsonValue::boolean(true));
    if (!session->exp_->dropped_ranks().empty()) {
      JsonValue dropped = JsonValue::array();
      for (const std::uint32_t r : session->exp_->dropped_ranks())
        dropped.push(JsonValue::number(static_cast<std::uint64_t>(r)));
      resp.set("dropped_ranks", std::move(dropped));
    }
  }
  resp.set("scopes", JsonValue::number(static_cast<std::uint64_t>(
                         session->exp_->cct().size())));
  resp.set("view", JsonValue::string(
                       core::view_type_name(session->viewer_->current_view_type())));
  resp.set("columns", session->encode_columns());
  // The initially visible rows: the view root's children, nothing deeper.
  resp.set("rows",
           session->encode_rows(session->display_children(core::kViewRoot)));
  return resp;
}

std::shared_ptr<const ensemble::Ensemble> SessionManager::get_ensemble(
    const std::vector<std::string>& paths, std::size_t baseline,
    double threshold) {
  std::string key;
  for (const std::string& p : paths) {
    key += p;
    key += '\x1f';
  }
  key += std::to_string(baseline);
  key += '|';
  key += std::to_string(threshold);

  std::lock_guard<std::mutex> lock(ens_mu_);
  if (auto it = ensembles_.find(key); it != ensembles_.end()) {
    if (std::shared_ptr<const ensemble::Ensemble> e = it->second.lock()) {
      PV_COUNTER_ADD("serve.ensemble.cache_hits", 1);
      return e;
    }
  }
  // Members come from the shared ExperimentCache: each run is one cache
  // entry, loaded once no matter how many ensembles or plain sessions pin
  // it. Building under ens_mu_ serializes concurrent opens of the *same*
  // ensemble into one build (and, conservatively, distinct ensembles too).
  std::vector<std::shared_ptr<const db::Experiment>> members;
  members.reserve(paths.size());
  for (const std::string& p : paths) {
    try {
      members.push_back(cache_.get(p));
    } catch (const Error& e) {
      throw ServeError(ErrorKind::kNotFound,
                       "cannot load \"" + p + "\": " + e.what());
    }
  }
  ensemble::EnsembleOptions eopts;
  eopts.baseline = baseline;
  eopts.regress_threshold = threshold;
  auto ens = std::make_shared<const ensemble::Ensemble>(
      ensemble::Ensemble::align(members, paths, std::move(eopts)));
  PV_COUNTER_ADD("serve.ensemble.built", 1);
  for (auto it = ensembles_.begin(); it != ensembles_.end();)
    it = it->second.expired() ? ensembles_.erase(it) : std::next(it);
  ensembles_[key] = ens;
  return ens;
}

JsonValue SessionManager::do_open_ensemble(const Request& req) {
  std::vector<std::string> inputs;
  if (const JsonValue* jpaths = req.body.find("paths")) {
    if (!jpaths->is_array())
      throw ServeError(ErrorKind::kBadRequest,
                       "open_ensemble: \"paths\" must be an array of strings");
    for (const JsonValue& p : jpaths->items()) {
      if (!p.is_string())
        throw ServeError(ErrorKind::kBadRequest,
                         "open_ensemble: \"paths\" must be an array of "
                         "strings");
      inputs.push_back(p.as_string());
    }
  }
  if (const std::string dir = req.body.get_string("dir", ""); !dir.empty())
    inputs.push_back(dir);
  if (const std::string glob = req.body.get_string("glob", ""); !glob.empty())
    inputs.push_back(glob);
  if (inputs.empty())
    throw ServeError(ErrorKind::kBadRequest,
                     "open_ensemble: needs \"paths\", \"dir\" or \"glob\"");

  const std::string view_name = req.body.get_string("view", "");
  const core::ViewType view =
      view_name.empty() ? opts_.default_view : parse_view_name(view_name);
  const std::uint64_t baseline = req.body.get_u64("baseline", 0);
  const double threshold = req.body.get_number("threshold", 0.05);

  // Globs/dirs expand exactly as pvdiff expands them (sorted, in place), so
  // a window ring opens in window order; InvalidArgument (empty match, bad
  // glob, bad baseline/threshold) maps to kBadRequest via handle().
  const std::vector<std::string> paths = ensemble::expand_inputs(inputs);
  std::shared_ptr<const ensemble::Ensemble> ens =
      get_ensemble(paths, static_cast<std::size_t>(baseline), threshold);

  std::shared_ptr<Session> session =
      register_session([&](const std::string& sid) {
        return std::make_shared<Session>(sid, ens, view);
      });

  std::lock_guard<std::mutex> slock(session->mu_);
  {
    JsonValue jheader = JsonValue::object();
    jheader.set("type", JsonValue::string("ens"));
    JsonValue jpaths = JsonValue::array();
    for (const std::string& p : paths) jpaths.push(JsonValue::string(p));
    jheader.set("paths", std::move(jpaths));
    jheader.set("baseline", JsonValue::number(baseline));
    jheader.set("threshold", JsonValue::number(threshold));
    jheader.set("view", JsonValue::string(view_wire_name(view)));
    init_journal(*session, std::move(jheader));
  }
  JsonValue resp = ok_response(req.id);
  resp.set("session", JsonValue::string(session->sid()));
  resp.set("name",
           JsonValue::string("ensemble of " +
                             std::to_string(ens->num_members()) + " runs"));
  JsonValue jmembers = JsonValue::array();
  for (const ensemble::MemberInfo& m : ens->members()) {
    JsonValue jm = JsonValue::object();
    jm.set("path", JsonValue::string(m.path));
    jm.set("name", JsonValue::string(m.name));
    jm.set("nranks",
           JsonValue::number(static_cast<std::uint64_t>(m.nranks)));
    jm.set("scopes",
           JsonValue::number(static_cast<std::uint64_t>(m.cct_nodes)));
    if (m.degraded) {
      jm.set("degraded", JsonValue::boolean(true));
      if (!m.dropped_ranks.empty()) {
        JsonValue dropped = JsonValue::array();
        for (const std::uint32_t r : m.dropped_ranks)
          dropped.push(JsonValue::number(static_cast<std::uint64_t>(r)));
        jm.set("dropped_ranks", std::move(dropped));
      }
    }
    jmembers.push(std::move(jm));
  }
  resp.set("members", std::move(jmembers));
  resp.set("baseline", JsonValue::number(baseline));
  if (ens->degraded()) resp.set("degraded", JsonValue::boolean(true));
  resp.set("scopes", JsonValue::number(static_cast<std::uint64_t>(
                         ens->cct().size())));
  resp.set("view", JsonValue::string(core::view_type_name(
                       session->viewer_->current_view_type())));
  resp.set("columns", session->encode_columns());
  resp.set("rows",
           session->encode_rows(session->display_children(core::kViewRoot)));
  return resp;
}

JsonValue SessionManager::do_close(const Request& req) {
  const std::string sid = req.body.get_string("session", "");
  std::shared_ptr<Session> session;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = sessions_.find(sid);
    if (it == sessions_.end())
      throw ServeError(ErrorKind::kNotFound, "unknown session \"" + sid + "\"");
    session = std::move(it->second);
    sessions_.erase(it);
    PV_COUNTER_SET("serve.sessions.open", sessions_.size());
    PV_COUNTER_ADD("serve.sessions.closed", 1);
  }
  {
    // An explicitly closed session is not resumable: drop its journal. The
    // session mutex also drains any in-flight op before the delete.
    std::lock_guard<std::mutex> slock(session->mu_);
    if (!session->journal_file_.empty()) {
      std::error_code ec;
      std::filesystem::remove(session->journal_file_, ec);
      session->journal_file_.clear();
    }
  }
  JsonValue resp = ok_response(req.id);
  resp.set("closed", JsonValue::string(sid));
  return resp;
}

JsonValue SessionManager::do_ping(const Request& req) const {
  JsonValue resp = ok_response(req.id);
  resp.set("server", JsonValue::string("pvserve"));
  resp.set("protocol",
           JsonValue::number(static_cast<std::int64_t>(kProtocolVersion)));
  return resp;
}

JsonValue SessionManager::do_stats(const Request& req) {
  const ExperimentCache::Stats cs = cache_.stats();
  JsonValue resp = ok_response(req.id);
  resp.set("sessions_open",
           JsonValue::number(static_cast<std::uint64_t>(open_sessions())));
  resp.set("sessions_opened", JsonValue::number(sessions_opened()));
  resp.set("resumed_sessions", JsonValue::number(resumed_sessions()));
  resp.set("sessions_degraded", JsonValue::number(static_cast<std::uint64_t>(
                                    degraded_sessions())));
  JsonValue cache = JsonValue::object();
  cache.set("hits", JsonValue::number(cs.hits));
  cache.set("misses", JsonValue::number(cs.misses));
  cache.set("evictions", JsonValue::number(cs.evictions));
  cache.set("resident_bytes",
            JsonValue::number(static_cast<std::uint64_t>(cs.resident_bytes)));
  cache.set("entries",
            JsonValue::number(static_cast<std::uint64_t>(cs.entries)));
  cache.set("byte_budget", JsonValue::number(static_cast<std::uint64_t>(
                               cache_.byte_budget())));
  resp.set("cache", std::move(cache));
  return resp;
}

JsonValue SessionManager::do_resume_session(const Request& req) {
  std::string token = req.body.get_string("token", "");
  if (token.empty()) token = req.body.get_string("session", "");
  if (token.empty())
    throw ServeError(ErrorKind::kBadRequest, "resume_session: missing \"token\"");
  if (opts_.session_dir.empty())
    throw ServeError(ErrorKind::kBadRequest,
                     "resume_session: daemon has no --session-dir (durable "
                     "sessions are off)");

  // The continuation the client needs to pick up where it left off: the
  // current display roots in the current sort order.
  const auto resume_reply = [&](Session& s, bool live, std::uint64_t replayed,
                                bool degraded) {
    JsonValue resp = ok_response(req.id);
    resp.set("session", JsonValue::string(s.sid()));
    resp.set("resumed", JsonValue::boolean(true));
    if (live) resp.set("live", JsonValue::boolean(true));
    resp.set("replayed", JsonValue::number(replayed));
    if (degraded) resp.set("degraded", JsonValue::boolean(true));
    resp.set("view", JsonValue::string(core::view_type_name(
                         s.viewer_->current_view_type())));
    resp.set("columns", s.encode_columns());
    resp.set("rows", s.encode_rows(s.flatten_ ? s.flatten_->roots()
                                              : s.display_children(
                                                    core::kViewRoot)));
    return resp;
  };

  // Idempotent on a live session (the connection died, not the daemon).
  {
    std::shared_ptr<Session> live;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (auto it = sessions_.find(token); it != sessions_.end())
        live = it->second;
    }
    if (live) {
      std::lock_guard<std::mutex> slock(live->mu_);
      return resume_reply(*live, /*live=*/true, 0, live->resume_degraded_);
    }
  }

  const std::string jfile = journal_path(opts_.session_dir, token);
  std::string bytes;
  try {
    bytes = support::read_file(jfile, "serve.journal.load");
  } catch (const Error& e) {
    throw ServeError(ErrorKind::kNotFound, "no journal for token \"" + token +
                                               "\": " + e.what());
  }
  JsonValue header, ops;
  const JournalState jstate = decode_journal(bytes, &header, &ops);
  if (jstate == JournalState::kUnusable)
    throw ServeError(ErrorKind::kNotFound,
                     "journal for \"" + token +
                         "\" is unusable (damaged header section)");
  bool degraded = jstate == JournalState::kDegraded;
  if (header.get_bool("overflow", false)) degraded = true;

  const std::string view_name = header.get_string("view", "");
  const core::ViewType view =
      view_name.empty() ? opts_.default_view : parse_view_name(view_name);
  const std::string type = header.get_string("type", "");
  std::shared_ptr<Session> session;
  if (type == "exp") {
    const std::string path = header.get_string("path", "");
    if (path.empty())
      throw ServeError(ErrorKind::kNotFound,
                       "journal for \"" + token + "\" names no experiment");
    AttributedExperiment exp;
    try {
      exp = cache_.get_attributed(path);
    } catch (const Error& e) {
      throw ServeError(ErrorKind::kNotFound,
                       "cannot reload \"" + path + "\": " + e.what());
    }
    session = register_session_with_sid(token, [&](const std::string& sid) {
      return std::make_shared<Session>(sid, path, std::move(exp), view);
    });
  } else if (type == "ens") {
    std::vector<std::string> paths;
    if (const JsonValue* jpaths = header.find("paths"); jpaths &&
                                                        jpaths->is_array()) {
      for (const JsonValue& p : jpaths->items())
        if (p.is_string()) paths.push_back(p.as_string());
    }
    if (paths.empty())
      throw ServeError(ErrorKind::kNotFound,
                       "journal for \"" + token + "\" names no members");
    std::shared_ptr<const ensemble::Ensemble> ens = get_ensemble(
        paths, static_cast<std::size_t>(header.get_u64("baseline", 0)),
        header.get_number("threshold", 0.05));
    session = register_session_with_sid(token, [&](const std::string& sid) {
      return std::make_shared<Session>(sid, ens, view);
    });
  } else {
    throw ServeError(ErrorKind::kNotFound,
                     "journal for \"" + token + "\" has unknown type \"" +
                         type + "\"");
  }
  if (!session) {
    // A concurrent resume_session for the same token won; answer from the
    // session it published.
    std::shared_ptr<Session> live = find(token);
    std::lock_guard<std::mutex> slock(live->mu_);
    return resume_reply(*live, /*live=*/true, 0, live->resume_degraded_);
  }

  // Replay the mutating-op log through the ordinary handlers, discarding
  // replies. A mid-replay failure keeps the state reached so far and marks
  // the resume degraded — salvage, never a crash.
  std::lock_guard<std::mutex> slock(session->mu_);
  session->journal_suppressed_ = true;
  std::uint64_t replayed = 0;
  JsonValue kept = JsonValue::array();
  for (const JsonValue& entry : ops.items()) {
    std::optional<Op> op;
    if (entry.is_object()) op = parse_op(entry.get_string("op", ""));
    if (!op) {
      degraded = true;
      break;
    }
    Request r;
    r.op = *op;
    r.body = entry;
    try {
      run_session_op(*session, r);
    } catch (const std::exception&) {
      degraded = true;
      break;
    }
    kept.push(entry);
    ++replayed;
  }
  session->journal_suppressed_ = false;
  session->resumed_ = true;
  session->resume_degraded_ = degraded;
  session->journal_file_ = jfile;
  session->journal_max_ops_ = opts_.journal_max_ops;
  session->journal_overflow_ = header.get_bool("overflow", false);
  session->journal_header_ = std::move(header);
  session->journal_ops_ = std::move(kept);
  checkpoint(*session);
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++resumed_;
  }
  PV_COUNTER_ADD("serve.sessions.resumed", 1);
  return resume_reply(*session, /*live=*/false, replayed, degraded);
}

JsonValue SessionManager::do_session_op(const Request& req) {
  const std::string sid = req.body.get_string("session", "");
  if (sid.empty())
    throw ServeError(ErrorKind::kBadRequest, "missing \"session\"");
  std::shared_ptr<Session> session = find(sid);
  std::lock_guard<std::mutex> lock(session->mu_);
  JsonValue resp = run_session_op(*session, req);
  // Handlers throw on failure, so reaching here means the op mutated state
  // (or was read-only): journal + checkpoint only what actually happened.
  journal_op(*session, req);
  return resp;
}

JsonValue SessionManager::run_session_op(Session& s, const Request& req) {
  switch (req.op) {
    case Op::kExpand: return op_expand(s, req);
    case Op::kCollapse: return op_collapse(s, req);
    case Op::kSort: return op_sort(s, req);
    case Op::kFlatten: return op_flatten(s, req, /*unflatten=*/false);
    case Op::kUnflatten: return op_flatten(s, req, /*unflatten=*/true);
    case Op::kHotPath: return op_hot_path(s, req);
    case Op::kMetrics: return op_metrics(s, req);
    case Op::kTimelineWindow: return op_timeline_window(s, req);
    case Op::kQuery: return op_query(s, req, /*explain_only=*/false);
    case Op::kExplain: return op_query(s, req, /*explain_only=*/true);
    default:
      throw ServeError(ErrorKind::kBadRequest, "op not valid on a session");
  }
}

JsonValue SessionManager::op_expand(Session& s, const Request& req) {
  PV_SPAN("serve.op.expand");
  const std::uint64_t node = req.body.get_u64("node", core::kViewRoot);
  s.check_node(node);
  const auto id = static_cast<core::ViewNodeId>(node);
  core::View& view = s.viewer_->current();
  const std::size_t before = view.size();
  s.viewer_->expand(id);
  PV_COUNTER_ADD("serve.nodes_materialized", view.size() - before);
  JsonValue resp = ok_response(req.id);
  resp.set("node", JsonValue::number(node));
  resp.set("rows", s.encode_rows(s.display_children(id)));
  return resp;
}

JsonValue SessionManager::op_collapse(Session& s, const Request& req) {
  PV_SPAN("serve.op.collapse");
  const std::uint64_t node = req.body.get_u64("node", core::kViewRoot);
  s.check_node(node);
  s.viewer_->collapse(static_cast<core::ViewNodeId>(node));
  JsonValue resp = ok_response(req.id);
  resp.set("node", JsonValue::number(node));
  return resp;
}

JsonValue SessionManager::op_sort(Session& s, const Request& req) {
  PV_SPAN("serve.op.sort");
  const std::uint64_t col = req.body.get_u64("column", 0);
  core::View& view = s.viewer_->current();
  if (col >= view.table().num_columns())
    throw ServeError(ErrorKind::kBadRequest,
                     "sort: column " + std::to_string(col) + " out of range");
  const bool desc = req.body.get_bool("descending", true);
  // O(1): the view records the key and sorts each level as it is read, so
  // only the root level shown below is sorted now.
  s.viewer_->sort_by(static_cast<metrics::ColumnId>(col), desc);
  JsonValue resp = ok_response(req.id);
  resp.set("column", JsonValue::number(col));
  resp.set("descending", JsonValue::boolean(desc));
  resp.set("rows", s.encode_rows(s.display_children(core::kViewRoot)));
  return resp;
}

JsonValue SessionManager::op_flatten(Session& s, const Request& req,
                                     bool unflatten) {
  PV_SPAN(unflatten ? "serve.op.unflatten" : "serve.op.flatten");
  if (!s.flatten_)
    s.flatten_ = std::make_unique<core::FlattenState>(s.viewer_->current());
  const std::size_t before = s.viewer_->current().size();
  const bool changed = unflatten ? s.flatten_->unflatten()
                                 : s.flatten_->flatten();
  PV_COUNTER_ADD("serve.nodes_materialized",
                 s.viewer_->current().size() - before);
  JsonValue resp = ok_response(req.id);
  resp.set("changed", JsonValue::boolean(changed));
  resp.set("depth",
           JsonValue::number(static_cast<std::uint64_t>(s.flatten_->depth())));
  resp.set("rows", s.encode_rows(s.flatten_->roots()));
  return resp;
}

JsonValue SessionManager::op_hot_path(Session& s, const Request& req) {
  PV_SPAN("serve.op.hot_path");
  const std::uint64_t start = req.body.get_u64("start", core::kViewRoot);
  s.check_node(start);
  const std::uint64_t col = req.body.get_u64("column", 0);
  core::View& view = s.viewer_->current();
  if (col >= view.table().num_columns())
    throw ServeError(ErrorKind::kBadRequest,
                     "hot_path: column " + std::to_string(col) +
                         " out of range");
  const double threshold = req.body.get_number("threshold", 0);
  if (threshold != 0) {
    if (!(threshold > 0) || threshold > 1)
      throw ServeError(ErrorKind::kBadRequest,
                       "hot_path: threshold must be in (0, 1]");
    s.viewer_->set_hot_path_threshold(threshold);
  }
  const std::size_t before = view.size();
  const std::vector<core::ViewNodeId> path = s.viewer_->run_hot_path(
      static_cast<core::ViewNodeId>(start),
      static_cast<metrics::ColumnId>(col));
  PV_COUNTER_ADD("serve.nodes_materialized", view.size() - before);
  JsonValue resp = ok_response(req.id);
  JsonValue ids = JsonValue::array();
  for (core::ViewNodeId id : path)
    ids.push(JsonValue::number(static_cast<std::uint64_t>(id)));
  resp.set("path", std::move(ids));
  resp.set("rows", s.encode_rows(path));
  return resp;
}

JsonValue SessionManager::op_metrics(Session& s, const Request& req) {
  PV_SPAN("serve.op.metrics");
  JsonValue resp = ok_response(req.id);
  if (const JsonValue* derive = req.body.find("derive")) {
    const std::string name = derive->get_string("name", "");
    const std::string formula = derive->get_string("formula", "");
    if (name.empty() || formula.empty())
      throw ServeError(ErrorKind::kBadRequest,
                       "metrics.derive needs \"name\" and \"formula\"");
    // Bad formulas throw InvalidArgument -> bad_request.
    const metrics::ColumnId c = s.add_derived(name, formula);
    resp.set("derived",
             JsonValue::number(static_cast<std::uint64_t>(c)));
  }
  resp.set("columns", s.encode_columns());
  return resp;
}

JsonValue SessionManager::op_query(Session& s, const Request& req,
                                   bool explain_only) {
  PV_SPAN(explain_only ? "serve.op.explain" : "serve.op.query");
  const std::string text = req.body.get_string("q", "");
  if (text.empty())
    throw ServeError(ErrorKind::kBadRequest,
                     std::string(explain_only ? "explain" : "query") +
                         ": missing \"q\"");
  // ParseError (grammar, with byte offset) and InvalidArgument (unknown
  // columns) surface as kBadRequest via handle().
  query::Plan plan =
      query::compile(query::parse(text), s.cct(), s.attr_.table);
  // If a slow-request flight recorder is armed on this thread, attach the
  // compiled plan so the eventual log line explains what actually ran.
  if (obs::flight_armed()) obs::flight_note(plan.explain());
  JsonValue resp = ok_response(req.id);
  resp.set("query", JsonValue::string(plan.text()));
  if (explain_only) {
    resp.set("plan", JsonValue::string(plan.explain()));
    return resp;
  }
  resp.set("result", encode_query_result(plan.execute()));
  return resp;
}

JsonValue SessionManager::op_timeline_window(Session& s, const Request& req) {
  PV_SPAN("serve.op.timeline_window");
  s.ensure_traces();
  analysis::TimelineOptions topts;
  topts.width = static_cast<std::size_t>(
      std::clamp<std::uint64_t>(req.body.get_u64("width", 96), 1, 2048));
  topts.depth = static_cast<int>(
      std::clamp<std::uint64_t>(req.body.get_u64("depth", 1), 0, 64));
  topts.t0 = req.body.get_u64("t0", 0);
  topts.t1 = req.body.get_u64("t1", 0);
  const ui::TimelineImage img =
      analysis::build_timeline(s.traces_, s.cct(), topts);

  JsonValue resp = ok_response(req.id);
  resp.set("t0", JsonValue::number(img.t0));
  resp.set("t1", JsonValue::number(img.t1));
  resp.set("depth",
           JsonValue::number(static_cast<std::int64_t>(img.depth)));
  resp.set("width", JsonValue::number(static_cast<std::uint64_t>(img.width())));
  JsonValue ranks = JsonValue::array();
  for (std::uint32_t r : img.ranks)
    ranks.push(JsonValue::number(static_cast<std::uint64_t>(r)));
  resp.set("ranks", std::move(ranks));

  // Cells as node ids (-1 = no activity); the legend maps the distinct ids
  // that actually appear to their scope labels.
  std::vector<prof::CctNodeId> distinct;
  JsonValue cells = JsonValue::array();
  for (const auto& row : img.cells) {
    JsonValue jrow = JsonValue::array();
    for (prof::CctNodeId c : row) {
      if (c == prof::kCctNull) {
        jrow.push(JsonValue::number(static_cast<std::int64_t>(-1)));
      } else {
        jrow.push(JsonValue::number(static_cast<std::uint64_t>(c)));
        if (std::find(distinct.begin(), distinct.end(), c) == distinct.end())
          distinct.push_back(c);
      }
    }
    cells.push(std::move(jrow));
  }
  resp.set("cells", std::move(cells));
  JsonValue legend = JsonValue::array();
  for (prof::CctNodeId c : distinct) {
    JsonValue entry = JsonValue::object();
    entry.set("node", JsonValue::number(static_cast<std::uint64_t>(c)));
    entry.set("label", JsonValue::string(s.cct().label(c)));
    legend.push(std::move(entry));
  }
  resp.set("legend", std::move(legend));
  PV_COUNTER_ADD("serve.timeline_cells",
                 img.cells.size() * (img.cells.empty() ? 0 : img.width()));
  return resp;
}

}  // namespace pathview::serve
