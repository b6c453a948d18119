// Session-scoped lazy view cursors, and the request handlers over them.
//
// A Session is the server-side analog of one hpcviewer window: it pins a
// shared immutable Experiment and its shared base attribution, owns its
// derived columns and the three lazily-built views (via
// ui::ViewerController), and tracks expansion + sort state. Every navigation request does work proportional to the rows
// it returns — `expand` materializes exactly the children of one node,
// never the whole CCT — which is the paper's scalability principle moved
// behind the network boundary.
//
// Sessions are daemon-scoped (they survive connection close, so one-shot
// `pvserve --client` calls can script a navigation sequence) and are
// identified by dense ids "s1", "s2", ... in creation order. A per-session
// mutex serializes operations on one session; distinct sessions proceed in
// parallel.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "pathview/db/trace.hpp"
#include "pathview/ensemble/ensemble.hpp"
#include "pathview/serve/experiment_cache.hpp"
#include "pathview/serve/protocol.hpp"
#include "pathview/ui/controller.hpp"

namespace pathview::serve {

class Session {
 public:
  /// Experiment-backed session: shares the cached experiment and its base
  /// attribution's columns.
  Session(std::string sid, std::string path, AttributedExperiment exp,
          core::ViewType view);

  /// Ensemble-backed session: shares the immutable aligned supergraph and
  /// every column of its table (the session's table copy holds handles; only
  /// derived metrics the session adds are its own).
  Session(std::string sid, std::shared_ptr<const ensemble::Ensemble> ens,
          core::ViewType view);

  const std::string& sid() const { return sid_; }

 private:
  friend class SessionManager;

  /// True when `req` mutates cursor state and so belongs in the replay log
  /// (expand/collapse/sort/flatten/unflatten/hot_path, and metrics only when
  /// it derives a column).
  static bool journaled_op(const Request& req);

  /// Add a derived metric to the three views AND the attribution table, so
  /// interactive columns and the query substrate never diverge. Returns the
  /// view-table column id (what the `metrics` op reports).
  metrics::ColumnId add_derived(const std::string& name,
                                const std::string& formula);

  /// Rows for `ids` in the current view: id, label, expandable flag,
  /// call-site flag, and every metric column's value.
  JsonValue encode_rows(const std::vector<core::ViewNodeId>& ids);
  JsonValue encode_columns() const;
  /// Children of `id` in display (post-sort) order.
  const std::vector<core::ViewNodeId>& display_children(core::ViewNodeId id);
  void check_node(std::uint64_t id) const;
  /// Lazily open the experiment's trace directory (throws kNotFound-style
  /// InvalidArgument when the experiment has no traces).
  void ensure_traces();

  /// The CCT this session's views/queries run over — the experiment's, or
  /// the ensemble's supergraph.
  const prof::CanonicalCct& cct() const {
    return ens_ ? ens_->cct() : exp_->cct();
  }
  bool degraded() const { return ens_ ? ens_->degraded() : exp_->degraded(); }

  std::string sid_;
  std::string path_;
  std::shared_ptr<const db::Experiment> exp_;  // null for ensemble sessions
  std::shared_ptr<const ensemble::Ensemble> ens_;  // null for single sessions
  metrics::Attribution attr_;
  std::unique_ptr<ui::ViewerController> viewer_;
  /// Session-owned flatten cursor over the current view (built on first
  /// flatten/unflatten request).
  std::unique_ptr<core::FlattenState> flatten_;
  bool traces_loaded_ = false;
  std::vector<std::unique_ptr<db::TraceReader>> traces_;

  // Durable-resume state (see journal.hpp). journal_file_ empty = journaling
  // off (no --session-dir). All guarded by mu_.
  std::string journal_file_;
  JsonValue journal_header_;  // what the session was opened on
  JsonValue journal_ops_;     // ordered replay log of mutating bodies
  std::size_t journal_max_ops_ = 0;
  bool journal_overflow_ = false;    // log capped; resume will be degraded
  bool journal_suppressed_ = false;  // true while replaying during resume
  bool resumed_ = false;             // this session came back from a journal
  bool resume_degraded_ = false;     // ...with salvage semantics

  std::mutex mu_;  // serializes requests against this session
};

class SessionManager {
 public:
  struct Options {
    ExperimentCache::Options cache;
    std::size_t max_sessions = 256;
    /// View an "open" request starts in when it does not name one.
    core::ViewType default_view = core::ViewType::kCallingContext;
    /// Directory for per-session journals ("" = durable resume off). Every
    /// mutating op checkpoints the session's cursor state here, and
    /// `resume_session` reconstructs sessions from it after a restart.
    std::string session_dir;
    /// Replay-log cap; beyond it the journal stops growing and a later
    /// resume is degraded (defaults cursor) rather than unbounded.
    std::size_t journal_max_ops = 4096;
    /// Hint attached to transient "overloaded" refusals (the session-limit
    /// ceiling): sessions close, so the client should come back. Keeps the
    /// protocol contract that every kOverloaded reply carries
    /// retry_after_ms. The server aligns this with its own knob.
    std::uint32_t retry_after_ms = 50;
  };

  SessionManager();
  explicit SessionManager(Options opts);

  /// Execute one request, returning the response object. Never throws:
  /// failures become {"ok":false} error responses.
  JsonValue handle(const Request& req);

  std::size_t open_sessions() const;
  /// Total sessions ever opened (open + closed).
  std::uint64_t sessions_opened() const;
  /// Sessions reconstructed from journals by `resume_session` (lifetime).
  std::uint64_t resumed_sessions() const;
  /// Open sessions whose experiment loaded in degraded mode (some inputs
  /// were unreadable; see pathview::fault). Surfaced in "stats" and pvtop.
  std::size_t degraded_sessions() const;
  /// Drop every live session; returns how many were force-closed. Used at
  /// daemon shutdown to report orphaned sessions.
  std::size_t close_all();

  ExperimentCache& cache() { return cache_; }

 private:
  JsonValue do_open(const Request& req);
  JsonValue do_open_ensemble(const Request& req);
  JsonValue do_close(const Request& req);
  JsonValue do_session_op(const Request& req);
  JsonValue do_ping(const Request& req) const;
  JsonValue do_stats(const Request& req);
  JsonValue do_resume_session(const Request& req);

  /// Dispatch one session-scoped op body (the session's mutex must be
  /// held). Shared by do_session_op and journal replay.
  JsonValue run_session_op(Session& s, const Request& req);

  // Journal plumbing; all called with the session's mutex held.
  void init_journal(Session& s, JsonValue header);
  void journal_op(Session& s, const Request& req);
  void checkpoint(Session& s);

  // Session-op bodies; called with the session's mutex held.
  JsonValue op_expand(Session& s, const Request& req);
  JsonValue op_collapse(Session& s, const Request& req);
  JsonValue op_sort(Session& s, const Request& req);
  JsonValue op_flatten(Session& s, const Request& req, bool unflatten);
  JsonValue op_hot_path(Session& s, const Request& req);
  JsonValue op_metrics(Session& s, const Request& req);
  JsonValue op_timeline_window(Session& s, const Request& req);
  /// `query` and `explain`: compile the "q" text against the session's CCT
  /// and attribution table (rows = CCT node ids, independent of view state).
  JsonValue op_query(Session& s, const Request& req, bool explain_only);

  std::shared_ptr<Session> find(const std::string& sid) const;

  /// Aligned supergraph for (paths, baseline, threshold), built once and
  /// shared by every session opened on the same ensemble while any of them
  /// lives (weak entries; members come from the ExperimentCache, so two
  /// ensembles over overlapping runs share the member experiments too).
  std::shared_ptr<const ensemble::Ensemble> get_ensemble(
      const std::vector<std::string>& paths, std::size_t baseline,
      double threshold);

  /// Reserve a sid + capacity slot, run `build` outside the manager lock,
  /// and publish the session (shared by do_open / do_open_ensemble).
  template <class Build>
  std::shared_ptr<Session> register_session(Build&& build);
  /// Same, but re-publishing a resumed session under its original sid.
  /// Returns nullptr when the sid is (concurrently) live already.
  template <class Build>
  std::shared_ptr<Session> register_session_with_sid(const std::string& sid,
                                                     Build&& build);

  Options opts_;
  ExperimentCache cache_;
  mutable std::mutex mu_;  // guards sessions_, next_sid_, pending_opens_
  std::unordered_map<std::string, std::shared_ptr<Session>> sessions_;
  std::uint64_t next_sid_ = 1;
  std::uint64_t resumed_ = 0;  // guarded by mu_
  /// Opens whose Session is being constructed outside mu_; counted against
  /// max_sessions so concurrent opens cannot overshoot the limit.
  std::size_t pending_opens_ = 0;
  std::mutex ens_mu_;  // guards ensembles_ (and serializes ensemble builds)
  std::unordered_map<std::string, std::weak_ptr<const ensemble::Ensemble>>
      ensembles_;
};

/// Parse a view name ("cct" | "callers" | "flat"). Throws InvalidArgument on
/// anything else. Exposed for pvserve's --view flag.
core::ViewType parse_view_name(const std::string& name);

}  // namespace pathview::serve
