// Unit tests for the serve subsystem's edges: JSON integer bounds on
// untrusted input, SessionManager option handling, connection reaping, and
// shutdown while clients are mid-request.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <netinet/in.h>
#include <random>
#include <sys/socket.h>
#include <unistd.h>
#include <vector>

#include "pathview/db/experiment.hpp"
#include "pathview/obs/obs.hpp"
#include "pathview/prof/correlate.hpp"
#include "pathview/serve/client.hpp"
#include "pathview/serve/experiment_cache.hpp"
#include "pathview/serve/journal.hpp"
#include "pathview/serve/overload.hpp"
#include "pathview/serve/server.hpp"
#include "pathview/serve/session.hpp"
#include "pathview/serve/supervisor.hpp"
#include "pathview/sim/engine.hpp"
#include "pathview/support/error.hpp"
#include "pathview/workloads/paper_example.hpp"
#include "pathview/workloads/random_program.hpp"
#include "sort_oracle.hpp"

namespace pathview::serve {
namespace {

TEST(ServeJson, GetU64RejectsTwoToTheSixtyFour) {
  // 18446744073709551616 is exactly 2^64: representable as a double but NOT
  // as a uint64_t, so casting it would be UB. It must be rejected, while the
  // largest double below 2^64 still converts.
  JsonValue over = JsonValue::parse("{\"n\": 18446744073709551616}");
  EXPECT_THROW(over.get_u64("n", 0), InvalidArgument);
  JsonValue under = JsonValue::parse("{\"n\": 18446744073709549568}");
  EXPECT_EQ(under.get_u64("n", 0), 18446744073709549568ull);
  JsonValue huge = JsonValue::parse("{\"n\": 1e300}");
  EXPECT_THROW(huge.get_u64("n", 0), InvalidArgument);
}

TEST(ServeSession, ParseViewName) {
  EXPECT_EQ(parse_view_name("cct"), core::ViewType::kCallingContext);
  EXPECT_EQ(parse_view_name("callers"), core::ViewType::kCallers);
  EXPECT_EQ(parse_view_name("flat"), core::ViewType::kFlat);
  EXPECT_THROW(parse_view_name("tree"), InvalidArgument);
  EXPECT_THROW(parse_view_name(""), InvalidArgument);
}

/// Writes the paper example to an XML experiment database and deletes it on
/// scope exit.
class TempExperiment {
 public:
  TempExperiment() {
    path_ = (std::filesystem::temp_directory_path() /
             ("serve_test_" + std::to_string(::getpid()) + ".xml"))
                .string();
    workloads::PaperExample ex;
    const prof::CanonicalCct cct = prof::correlate(ex.profile(), ex.tree());
    db::save_xml(db::Experiment::capture(ex.tree(), cct, "serve test", 1),
                 path_);
  }
  ~TempExperiment() { std::remove(path_.c_str()); }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

Request open_request(const std::string& path) {
  Request req;
  req.id = 1;
  req.op = Op::kOpen;
  req.body = JsonValue::object();
  req.body.set("path", JsonValue::string(path));
  return req;
}

TEST(ServeSession, OpenFallsBackToConfiguredDefaultView) {
  TempExperiment exp;
  SessionManager::Options opts;
  opts.default_view = core::ViewType::kFlat;
  SessionManager mgr(opts);

  JsonValue resp = mgr.handle(open_request(exp.path()));
  ASSERT_TRUE(resp.get_bool("ok", false)) << resp.dump();
  EXPECT_EQ(resp.get_string("view", ""), core::view_type_name(
                                             core::ViewType::kFlat));

  // An explicit view in the request still wins over the configured default.
  Request req = open_request(exp.path());
  req.body.set("view", JsonValue::string("callers"));
  resp = mgr.handle(req);
  ASSERT_TRUE(resp.get_bool("ok", false)) << resp.dump();
  EXPECT_EQ(resp.get_string("view", ""), core::view_type_name(
                                             core::ViewType::kCallers));
}

Request session_request(int id, Op op, const std::string& sid,
                        const std::string& q) {
  Request req;
  req.id = id;
  req.op = op;
  req.body = JsonValue::object();
  req.body.set("session", JsonValue::string(sid));
  req.body.set("q", JsonValue::string(q));
  return req;
}

TEST(ServeSession, QueryOpExecutesAndEchoesCanonicalText) {
  TempExperiment exp;
  SessionManager mgr{SessionManager::Options{}};
  JsonValue open = mgr.handle(open_request(exp.path()));
  ASSERT_TRUE(open.get_bool("ok", false)) << open.dump();
  const std::string sid = open.get_string("session", "");

  JsonValue resp = mgr.handle(session_request(
      2, Op::kQuery, sid, "order by cycles.incl desc limit 3"));
  ASSERT_TRUE(resp.get_bool("ok", false)) << resp.dump();
  // The echo is the canonical text with the order-by column resolved.
  EXPECT_EQ(resp.get_string("query", ""),
            "order by \"cycles (I)\" desc limit 3");
  const std::string dump = resp.dump();
  EXPECT_NE(dump.find("\"result\""), std::string::npos) << dump;
  EXPECT_NE(dump.find("\"rows\""), std::string::npos) << dump;
  EXPECT_NE(dump.find("\"stats\""), std::string::npos) << dump;
  EXPECT_NE(dump.find("\"rows_matched\""), std::string::npos) << dump;
}

TEST(ServeSession, ExplainOpReturnsThePlanWithoutExecuting) {
  TempExperiment exp;
  SessionManager mgr{SessionManager::Options{}};
  JsonValue open = mgr.handle(open_request(exp.path()));
  ASSERT_TRUE(open.get_bool("ok", false)) << open.dump();
  const std::string sid = open.get_string("session", "");

  JsonValue resp = mgr.handle(session_request(
      3, Op::kExplain, sid, "where cycles.incl > 0.5*total"));
  ASSERT_TRUE(resp.get_bool("ok", false)) << resp.dump();
  const std::string plan = resp.get_string("plan", "");
  EXPECT_NE(plan.find("columnar scan"), std::string::npos) << plan;
  EXPECT_NE(plan.find("plan for:"), std::string::npos) << plan;
  // No result payload on explain.
  EXPECT_EQ(resp.dump().find("\"result\""), std::string::npos);
}

TEST(ServeSession, QueryOpRejectsBadInputStructurally) {
  TempExperiment exp;
  SessionManager mgr{SessionManager::Options{}};
  JsonValue open = mgr.handle(open_request(exp.path()));
  const std::string sid = open.get_string("session", "");

  // Missing "q" and malformed query text both come back as error responses,
  // never as a dropped connection or a crash.
  JsonValue missing = mgr.handle(session_request(4, Op::kQuery, sid, ""));
  EXPECT_FALSE(missing.get_bool("ok", true)) << missing.dump();
  JsonValue bad = mgr.handle(
      session_request(5, Op::kQuery, sid, "limit limit"));
  EXPECT_FALSE(bad.get_bool("ok", true)) << bad.dump();
  JsonValue unknown_col = mgr.handle(
      session_request(6, Op::kQuery, sid, "where bogus > 1"));
  EXPECT_FALSE(unknown_col.get_bool("ok", true)) << unknown_col.dump();
}

TEST(ServeServer, QueryResponsesAreByteIdenticalAcrossThreadCounts) {
  TempExperiment exp;
  std::vector<std::string> replies;
  for (const int threads : {1, 4}) {
    Server::Options opts;
    opts.threads = threads;
    Server server(opts);
    server.start();
    const int fd = connect_to("127.0.0.1", server.port());
    const std::string open_req =
        "{\"v\":1,\"id\":1,\"op\":\"open\",\"path\":\"" + exp.path() + "\"}";
    std::string reply;
    write_frame(fd, open_req);
    ASSERT_TRUE(read_frame(fd, &reply));
    const std::string sid = JsonValue::parse(reply).get_string("session", "");
    ASSERT_FALSE(sid.empty()) << reply;
    const std::string query_req =
        "{\"v\":1,\"id\":2,\"op\":\"query\",\"session\":\"" + sid + "\","
        "\"q\":\"match '**/g' where cycles.incl > 0.2*total "
        "order by cycles.incl desc limit 5\"}";
    write_frame(fd, query_req);
    ASSERT_TRUE(read_frame(fd, &reply));
    replies.push_back(reply);
    ::close(fd);
    server.stop();
  }
  ASSERT_EQ(replies.size(), 2u);
  EXPECT_NE(replies[0].find("\"ok\":true"), std::string::npos) << replies[0];
  EXPECT_EQ(replies[0], replies[1]);  // byte-identical across --threads
}

constexpr char kPing[] = "{\"v\":1,\"id\":1,\"op\":\"ping\"}";

TEST(ServeServer, FinishedConnectionsAreReaped) {
  Server server;
  server.start();
  std::string reply;
  // Many short-lived connections, each fully closed before the next opens.
  for (int i = 0; i < 20; ++i) {
    const int fd = connect_to("127.0.0.1", server.port());
    write_frame(fd, kPing);
    ASSERT_TRUE(read_frame(fd, &reply));
    ::close(fd);
  }
  // Finished threads mark their entry asynchronously and the accept loop
  // reaps on its next wake, so probe (each probe's accept wakes the loop)
  // until the count collapses.
  bool reaped = false;
  for (int tries = 0; tries < 200 && !reaped; ++tries) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    const int fd = connect_to("127.0.0.1", server.port());
    write_frame(fd, kPing);
    ASSERT_TRUE(read_frame(fd, &reply));
    ::close(fd);
    reaped = server.tracked_connections() <= 3;
  }
  EXPECT_TRUE(reaped) << server.tracked_connections()
                      << " connection entries still tracked";
  server.stop();
}

TEST(ServeServer, StopWhileClientsHammerRequests) {
  // Regression canary for the shutdown race: a request enqueued just as
  // stopping lands must still be answered (or rejected with kind
  // "shutdown"), never stranded — a stranded job parks its connection
  // thread forever and stop() below would hang.
  for (int iter = 0; iter < 4; ++iter) {
    Server::Options opts;
    opts.threads = 2;
    Server server(opts);
    server.start();
    std::atomic<bool> done{false};
    std::vector<std::thread> clients;
    for (int c = 0; c < 4; ++c) {
      clients.emplace_back([&] {
        try {
          const int fd = connect_to("127.0.0.1", server.port());
          std::string reply;
          while (!done.load(std::memory_order_acquire)) {
            write_frame(fd, kPing);
            if (!read_frame(fd, &reply)) break;
          }
          ::close(fd);
        } catch (const Error&) {
          // Torn connection during shutdown is expected.
        }
      });
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(iter * 5));
    server.stop();  // must terminate; the ctest timeout guards a hang
    done.store(true, std::memory_order_release);
    for (std::thread& t : clients) t.join();
  }
}

TEST(ServeCache, EvictionRacesConcurrentOpensOfTheSamePath) {
  // A byte budget far below one experiment forces an eviction on every
  // insert (only the shard's front entry survives), while several threads
  // concurrently re-open the same two databases. The shared_ptr handoff
  // must stay correct: every get() returns a complete experiment even when
  // a sibling thread just evicted the entry. (TSan/ASan runs of this test
  // are part of scripts/check.sh.)
  const std::string base =
      (std::filesystem::temp_directory_path() /
       ("serve_cache_race_" + std::to_string(::getpid()))).string();
  workloads::PaperExample ex;
  const prof::CanonicalCct cct = prof::correlate(ex.profile(), ex.tree());
  const std::vector<std::string> paths = {base + "_a.xml", base + "_b.xml"};
  for (const std::string& p : paths)
    db::save_xml(db::Experiment::capture(ex.tree(), cct, p, 1), p);

  ExperimentCache::Options opts;
  opts.byte_budget = 1;  // evict on every insert
  opts.shards = 1;       // maximum contention
  ExperimentCache cache(opts);

  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < 50; ++i) {
        const std::string& p = paths[(t + i) % paths.size()];
        const std::shared_ptr<const db::Experiment> got = cache.get(p);
        if (!got || got->name() != p || got->cct().size() == 0)
          failures.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
  const ExperimentCache::Stats stats = cache.stats();
  EXPECT_GT(stats.evictions, 0u);
  EXPECT_LE(stats.entries, 1u);
  for (const std::string& p : paths) std::remove(p.c_str());
}

TEST(ServeCache, BaseAttributionIsBuiltOnceAndCounted) {
  // Loading alone (an ensemble member) charges the experiment; the first
  // session-style fetch builds the shared base attribution once and charges
  // its columns too, so serve.cache.bytes does not under-report.
  const std::string path =
      (std::filesystem::temp_directory_path() /
       ("serve_cache_attr_" + std::to_string(::getpid()) + ".xml"))
          .string();
  workloads::PaperExample ex;
  const prof::CanonicalCct cct = prof::correlate(ex.profile(), ex.tree());
  db::save_xml(db::Experiment::capture(ex.tree(), cct, path, 1), path);

  ExperimentCache cache;
  const std::shared_ptr<const db::Experiment> exp = cache.get(path);
  EXPECT_EQ(cache.stats().resident_bytes, estimate_experiment_bytes(*exp));

  std::vector<AttributedExperiment> got(4);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < got.size(); ++t)
    threads.emplace_back([&, t] { got[t] = cache.get_attributed(path); });
  for (std::thread& t : threads) t.join();
  for (const AttributedExperiment& g : got) {
    EXPECT_EQ(g.exp, exp);
    ASSERT_NE(g.attr, nullptr);
    EXPECT_EQ(g.attr, got[0].attr);  // one base attribution, shared
  }
  const std::size_t with_attr =
      estimate_experiment_bytes(*exp, /*with_attribution=*/true);
  EXPECT_EQ(cache.stats().resident_bytes, with_attr);
  EXPECT_GE(with_attr - estimate_experiment_bytes(*exp),
            got[0].attr->table.num_columns() * cct.size() * sizeof(double));
  EXPECT_EQ(got[0].attr->table.num_columns(), 2 * model::kNumEvents);
  std::remove(path.c_str());
}

/// Minimal scripted daemon for client-retry tests: accepts one connection
/// and answers each request from a canned reply list (then echoes ok:true).
class ScriptedServer {
 public:
  explicit ScriptedServer(std::vector<std::string> replies)
      : replies_(std::move(replies)) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = 0;
    if (::bind(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0 ||
        ::listen(fd_, 1) != 0)
      throw Error("ScriptedServer: bind/listen failed");
    socklen_t len = sizeof addr;
    ::getsockname(fd_, reinterpret_cast<sockaddr*>(&addr), &len);
    port_ = ntohs(addr.sin_port);
    thread_ = std::thread([this] {
      const int conn = ::accept(fd_, nullptr, nullptr);
      if (conn < 0) return;
      std::string req;
      std::size_t i = 0;
      try {
        while (read_frame(conn, &req)) {
          ++requests_;
          write_frame(conn, i < replies_.size() ? replies_[i++]
                                                : R"({"ok":true})");
        }
      } catch (const Error&) {
        // Client went away; fine.
      }
      ::close(conn);
    });
  }
  ~ScriptedServer() {
    ::shutdown(fd_, SHUT_RDWR);
    ::close(fd_);
    thread_.join();
  }
  std::uint16_t port() const { return port_; }
  int requests() const { return requests_.load(); }

 private:
  int fd_ = -1;
  std::uint16_t port_ = 0;
  std::vector<std::string> replies_;
  std::atomic<int> requests_{0};
  std::thread thread_;
};

TEST(ServeClient, RetriesOnlyOnExplicitRetryAfterHints) {
  ScriptedServer srv({R"({"ok":false,"retry_after_ms":1})",
                      R"({"ok":false,"retry_after_ms":1})"});
  RetryOptions retry;
  retry.max_attempts = 5;
  retry.base_backoff_ms = 1;
  Client client("127.0.0.1", srv.port(), retry);
  const JsonValue reply = client.call_op("ping", JsonValue::object());
  EXPECT_TRUE(reply.get_bool("ok", false)) << reply.dump();
  EXPECT_EQ(client.retries(), 2u);
  EXPECT_EQ(srv.requests(), 3);
}

TEST(ServeClient, RefusalWithoutHintIsFinal) {
  ScriptedServer srv({R"({"ok":false,"error":{"kind":"bad_request"}})"});
  RetryOptions retry;
  retry.max_attempts = 5;
  retry.base_backoff_ms = 1;
  Client client("127.0.0.1", srv.port(), retry);
  const JsonValue reply = client.call_op("ping", JsonValue::object());
  EXPECT_FALSE(reply.get_bool("ok", true));
  EXPECT_EQ(client.retries(), 0u);
  EXPECT_EQ(srv.requests(), 1);
}

TEST(ServeClient, ExhaustedRetriesReturnTheLastRefusal) {
  ScriptedServer srv({R"({"ok":false,"retry_after_ms":1})",
                      R"({"ok":false,"retry_after_ms":1})",
                      R"({"ok":false,"retry_after_ms":1})"});
  RetryOptions retry;
  retry.max_attempts = 2;
  retry.base_backoff_ms = 1;
  Client client("127.0.0.1", srv.port(), retry);
  const JsonValue reply = client.call_op("ping", JsonValue::object());
  EXPECT_FALSE(reply.get_bool("ok", true));
  EXPECT_EQ(client.retries(), 1u);
  EXPECT_EQ(srv.requests(), 2);
}

TEST(ServeClient, DeadlineBoundsRetriesAndBackoff) {
  // The daemon stalls forever behind retry hints; a 40ms deadline must cut
  // the call off with a transport error instead of backing off unbounded.
  std::vector<std::string> always;
  for (int i = 0; i < 64; ++i)
    always.push_back(R"({"ok":false,"retry_after_ms":30})");
  ScriptedServer srv(std::move(always));
  RetryOptions retry;
  retry.max_attempts = 100;
  retry.base_backoff_ms = 1;
  retry.deadline_ms = 40;
  Client client("127.0.0.1", srv.port(), retry);
  EXPECT_THROW(client.call_op("ping", JsonValue::object()), TransportError);
}

TEST(ServeClient, UnparseableReplyIsAProtocolError) {
  ScriptedServer srv({"this is not json"});
  Client client("127.0.0.1", srv.port(), {});
  EXPECT_THROW(client.call_op("ping", JsonValue::object()), ProtocolError);
}

// ---------------------------------------------------------------------------
// Trace ids on the wire.
// ---------------------------------------------------------------------------

TEST(ServeTraceId, RequestDecodesOptionalTraceId) {
  const Request with = Request::from_json(
      JsonValue::parse(R"({"v":1,"id":1,"op":"ping","trace_id":9001})"));
  EXPECT_EQ(with.trace_id, 9001u);
  // A PR 5-era client that never sends the field still decodes fine.
  const Request without =
      Request::from_json(JsonValue::parse(R"({"v":1,"id":1,"op":"ping"})"));
  EXPECT_EQ(without.trace_id, 0u);
}

TEST(ServeTraceId, ErrorRepliesEchoTheTraceId) {
  Server server;
  server.start();
  const int fd = connect_to("127.0.0.1", server.port());
  std::string raw;

  // An ok reply never carries trace_id (byte-determinism surface).
  write_frame(fd, R"({"v":1,"id":1,"op":"ping","trace_id":77})");
  ASSERT_TRUE(read_frame(fd, &raw));
  EXPECT_EQ(raw.find("trace_id"), std::string::npos) << raw;

  // An error reply echoes it...
  write_frame(fd,
              R"({"v":1,"id":2,"op":"expand","session":"nope","trace_id":77})");
  ASSERT_TRUE(read_frame(fd, &raw));
  JsonValue reply = JsonValue::parse(raw);
  EXPECT_FALSE(reply.get_bool("ok", true));
  EXPECT_EQ(reply.get_u64("trace_id", 0), 77u);

  // ...but only when the request carried one (PR 5 compatibility: a peer
  // that never sends the field never sees it back).
  write_frame(fd, R"({"v":1,"id":3,"op":"expand","session":"nope"})");
  ASSERT_TRUE(read_frame(fd, &raw));
  EXPECT_EQ(raw.find("trace_id"), std::string::npos) << raw;

  ::close(fd);
  server.stop();
}

TEST(ServeClient, StampsConfiguredTraceIdUnlessRequestHasOne) {
  Server server;
  server.start();
  Client client("127.0.0.1", server.port(), {});
  client.set_trace_id(4242);
  // The stamped id is observable through the error-reply echo.
  JsonValue req = JsonValue::object();
  req.set("op", JsonValue::string("expand"));
  req.set("session", JsonValue::string("nope"));
  JsonValue reply = client.call(std::move(req));
  EXPECT_FALSE(reply.get_bool("ok", true));
  EXPECT_EQ(reply.get_u64("trace_id", 0), 4242u);

  // An explicit per-request id wins over the client-level one.
  req = JsonValue::object();
  req.set("op", JsonValue::string("expand"));
  req.set("session", JsonValue::string("nope"));
  req.set("trace_id", JsonValue::number(std::uint64_t{7}));
  reply = client.call(std::move(req));
  EXPECT_EQ(reply.get_u64("trace_id", 0), 7u);
  server.stop();
}

// ---------------------------------------------------------------------------
// Stats exposition and the metrics file.
// ---------------------------------------------------------------------------

TEST(ServeStats, ReportsPerOpRedMetrics) {
  obs::reset();  // per-op RED series are process-global registry slots
  TempExperiment exp;
  Server server;
  server.start();
  Client client("127.0.0.1", server.port(), {});
  client.call_op("ping", JsonValue::object());
  JsonValue body = JsonValue::object();
  body.set("path", JsonValue::string(exp.path()));
  ASSERT_TRUE(client.call_op("open", std::move(body)).get_bool("ok", false));
  // One failing op so the error counter has something to show.
  body = JsonValue::object();
  body.set("session", JsonValue::string("nope"));
  client.call_op("expand", std::move(body));

  const JsonValue stats = client.call_op("stats", JsonValue::object());
  ASSERT_TRUE(stats.get_bool("ok", false)) << stats.dump();
  EXPECT_EQ(stats.get_u64("sessions_degraded", 99), 0u);
  const JsonValue* srv = stats.find("server");
  ASSERT_NE(srv, nullptr);
  // A fresh server may legitimately report 0 ms; presence is the contract.
  ASSERT_NE(srv->find("uptime_ms"), nullptr) << stats.dump();
  EXPECT_LT(srv->get_u64("uptime_ms", ~0ull), 60'000u);

  const JsonValue* ops = stats.find("ops");
  ASSERT_NE(ops, nullptr) << stats.dump();
  const JsonValue* ping = ops->find("ping");
  ASSERT_NE(ping, nullptr) << stats.dump();
  EXPECT_EQ(ping->get_u64("count", 0), 1u);
  EXPECT_EQ(ping->get_u64("errors", 99), 0u);
  // Percentile fields exist and are ordered.
  const std::uint64_t p50 = ping->get_u64("p50_us", ~0ull);
  const std::uint64_t p99 = ping->get_u64("p99_us", 0);
  const std::uint64_t p999 = ping->get_u64("p999_us", 0);
  EXPECT_LE(p50, p99);
  EXPECT_LE(p99, p999);
  const JsonValue* expand = ops->find("expand");
  ASSERT_NE(expand, nullptr);
  EXPECT_EQ(expand->get_u64("count", 0), 1u);
  EXPECT_EQ(expand->get_u64("errors", 0), 1u);
  // Ops never exercised are omitted, not zero-filled.
  EXPECT_EQ(ops->find("shutdown"), nullptr);
  server.stop();
}

TEST(ServeStats, MetricsTextIsPrometheusShaped) {
  obs::reset();
  Server server;
  server.start();
  Client client("127.0.0.1", server.port(), {});
  client.call_op("ping", JsonValue::object());
  const std::string text = server.metrics_text();
  EXPECT_NE(text.find("# TYPE pathview_serve_requests_total counter"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("pathview_serve_requests_total{op=\"ping\"} 1"),
            std::string::npos);
  EXPECT_NE(
      text.find("pathview_serve_request_latency_us_bucket{op=\"ping\",le=\""),
      std::string::npos);
  EXPECT_NE(text.find("pathview_serve_sessions_open 0"), std::string::npos);
  EXPECT_NE(text.find("pathview_serve_uptime_seconds"), std::string::npos);
  EXPECT_NE(text.find("pathview_serve_queue_capacity 128"),
            std::string::npos);
  server.stop();
}

TEST(ServeStats, MetricsFileIsWrittenAndReplaced) {
  const std::string path =
      (std::filesystem::temp_directory_path() /
       ("serve_metrics_" + std::to_string(::getpid()) + ".prom"))
          .string();
  std::remove(path.c_str());
  obs::reset();
  {
    Server::Options opts;
    opts.metrics_file = path;
    opts.metrics_interval_ms = 20;
    Server server(opts);
    server.start();
    Client client("127.0.0.1", server.port(), {});
    client.call_op("ping", JsonValue::object());
    // The periodic writer must produce the file within a few intervals.
    bool wrote = false;
    for (int i = 0; i < 200 && !wrote; ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
      wrote = std::filesystem::exists(path);
    }
    EXPECT_TRUE(wrote);
    server.stop();  // stop() also writes one final snapshot
  }
  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::string content(1 << 16, '\0');
  content.resize(std::fread(content.data(), 1, content.size(), f));
  std::fclose(f);
  EXPECT_NE(content.find("pathview_serve_requests_total{op=\"ping\"} 1"),
            std::string::npos)
      << content.substr(0, 512);
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Continuous self-profiling ops + the slow-request flight recorder.
// ---------------------------------------------------------------------------

TEST(ServeProfile, SelfProfileOpReportsHotPaths) {
  obs::reset();
  Server server;  // default options: profiler on at 97 Hz, no ring dir
  server.start();
  Client client("127.0.0.1", server.port(), {});
  for (int i = 0; i < 3; ++i) client.call_op("ping", JsonValue::object());
  // Don't wait for the 97 Hz schedule: force one deterministic sample. The
  // accept loop's long-lived span guarantees it lands on a serve.* path.
  ASSERT_NE(server.profiler(), nullptr);
  server.profiler()->tick_once();

  JsonValue body = JsonValue::object();
  body.set("max", JsonValue::number(std::uint64_t{4}));
  const JsonValue rep = client.call_op("self_profile", std::move(body));
  ASSERT_TRUE(rep.get_bool("ok", false)) << rep.dump();
  EXPECT_TRUE(rep.get_bool("enabled", false));
  EXPECT_TRUE(rep.get_bool("running", false));
  EXPECT_GE(rep.get_u64("ticks", 0), 1u);
  EXPECT_GE(rep.get_u64("samples", 0), 1u);
  const JsonValue* hot = rep.find("hot");
  ASSERT_NE(hot, nullptr) << rep.dump();
  ASSERT_TRUE(hot->is_array());
  ASSERT_FALSE(hot->items().empty());
  EXPECT_LE(hot->items().size(), 4u);
  bool has_serve_path = false;
  for (const JsonValue& h : hot->items()) {
    EXPECT_GE(h.get_u64("samples", 0), 1u);
    if (h.get_string("path", "").rfind("serve.", 0) == 0)
      has_serve_path = true;
  }
  EXPECT_TRUE(has_serve_path) << rep.dump();
  server.stop();
}

TEST(ServeProfile, ProfileOpsReportDisabledWhenHzIsZero) {
  Server::Options opts;
  opts.self_profile_hz = 0;
  Server server(opts);
  server.start();
  EXPECT_EQ(server.profiler(), nullptr);
  Client client("127.0.0.1", server.port(), {});
  const JsonValue rep =
      client.call_op("self_profile", JsonValue::object());
  ASSERT_TRUE(rep.get_bool("ok", false)) << rep.dump();
  EXPECT_FALSE(rep.get_bool("enabled", true));
  const JsonValue wins =
      client.call_op("profile_windows", JsonValue::object());
  ASSERT_TRUE(wins.get_bool("ok", false)) << wins.dump();
  EXPECT_FALSE(wins.get_bool("enabled", true));
  server.stop();
}

TEST(ServeProfile, ProfileWindowsListsLoadableExperiments) {
  const std::string dir =
      (std::filesystem::temp_directory_path() /
       ("serve_prof_ring_" + std::to_string(::getpid())))
          .string();
  std::filesystem::remove_all(dir);
  Server::Options opts;
  opts.self_profile_hz = 500;
  opts.self_profile_interval_ms = 40;
  opts.self_profile_dir = dir;
  opts.self_profile_retain = 4;
  Server server(opts);
  server.start();
  Client client("127.0.0.1", server.port(), {});

  JsonValue wins;
  bool have = false;
  for (int i = 0; i < 500 && !have; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    wins = client.call_op("profile_windows", JsonValue::object());
    ASSERT_TRUE(wins.get_bool("ok", false)) << wins.dump();
    const JsonValue* arr = wins.find("windows");
    have = arr != nullptr && arr->is_array() && !arr->items().empty();
  }
  ASSERT_TRUE(have) << wins.dump();
  EXPECT_TRUE(wins.get_bool("enabled", false));
  EXPECT_EQ(wins.get_string("dir", ""), dir);
  const JsonValue& w = wins.find("windows")->items().front();
  EXPECT_GE(w.get_u64("samples", 0), 1u);
  EXPECT_GE(w.get_u64("seq", 0), 1u);
  const std::string file = w.get_string("file", "");
  ASSERT_FALSE(file.empty());
  EXPECT_TRUE(std::filesystem::exists(file));
  // Ring files are ordinary, clean PVDB2 experiments.
  const db::Experiment exp = db::load_binary(file);
  EXPECT_FALSE(exp.degraded());
  EXPECT_LE(wins.find("windows")->items().size(), 4u);
  server.stop();
  std::filesystem::remove_all(dir);
}

TEST(ServeFlight, FormatFlightRendersNestedSpansAndNotes) {
  std::vector<obs::FlightSpan> spans;
  spans.push_back({"serve.query", 0, 5000, -1});
  spans.push_back({"query.compile", 500, 1500, 0});
  spans.push_back({"query.exec", 1500, 4500, 0});
  EXPECT_EQ(Server::format_flight(spans, {"plan: scan"}, false),
            "flight: serve.query=5us{query.compile=1us,query.exec=3us}"
            " note: plan: scan");
  EXPECT_EQ(Server::format_flight({spans[0]}, {}, true),
            "flight: serve.query=5us (capture truncated)");
  EXPECT_EQ(Server::format_flight({}, {}, false), "flight:");
}

TEST(ServeFlight, SlowRequestsLogSpanBreakdownWithQueryPlan) {
  TempExperiment exp;
  const std::string log_path =
      (std::filesystem::temp_directory_path() /
       ("serve_flight_" + std::to_string(::getpid()) + ".log"))
          .string();
  std::remove(log_path.c_str());
  Server::Options opts;
  opts.log_format = "json";
  opts.log_file = log_path;
  opts.slow_ms = 0;  // every request is "slow": deterministic capture
  Server server(opts);
  server.start();
  Client client("127.0.0.1", server.port(), {});
  JsonValue body = JsonValue::object();
  body.set("path", JsonValue::string(exp.path()));
  const JsonValue open = client.call_op("open", std::move(body));
  ASSERT_TRUE(open.get_bool("ok", false)) << open.dump();
  const std::string sid = open.get_string("session", "");
  body = JsonValue::object();
  body.set("session", JsonValue::string(sid));
  body.set("q", JsonValue::string("order by cycles.incl desc limit 3"));
  ASSERT_TRUE(
      client.call_op("query", std::move(body)).get_bool("ok", false));

  // The stats op surfaces the log drop counter alongside the server gauges.
  const JsonValue stats = client.call_op("stats", JsonValue::object());
  const JsonValue* srv = stats.find("server");
  ASSERT_NE(srv, nullptr);
  EXPECT_EQ(srv->get_u64("log_dropped", 99), 0u);

  ASSERT_NE(server.event_log(), nullptr);
  server.event_log()->flush();
  server.stop();
  std::FILE* f = std::fopen(log_path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::string content(1 << 20, '\0');
  content.resize(std::fread(content.data(), 1, content.size(), f));
  std::fclose(f);
  // Every logged slow request carries its flight breakdown; the query op's
  // line also carries the compiled plan as a note.
  EXPECT_NE(content.find("flight: serve.open="), std::string::npos)
      << content.substr(0, 1024);
  const std::size_t qpos = content.find("flight: serve.query=");
  ASSERT_NE(qpos, std::string::npos) << content.substr(0, 1024);
  EXPECT_NE(content.find(" note: ", qpos), std::string::npos)
      << content.substr(qpos, 512);
  std::remove(log_path.c_str());
}

TEST(ServeServer, IdleConnectionsAreClosedByTheTimeout) {
  Server::Options opts;
  opts.idle_timeout_ms = 50;
  Server server(opts);
  server.start();
  const int fd = connect_to("127.0.0.1", server.port());
  // An active request keeps the connection; then going quiet closes it.
  std::string reply;
  write_frame(fd, kPing);
  ASSERT_TRUE(read_frame(fd, &reply));
  const bool eof = !read_frame(fd, &reply);  // blocks until the server closes
  EXPECT_TRUE(eof);
  ::close(fd);
  server.stop();
}

// ---------------------------------------------------------------------------
// open_ensemble: round trip, session sharing, and byte-determinism.
// ---------------------------------------------------------------------------

/// Two experiment databases with the same structure but distinct names, as
/// a pvdiff-able pair.
class TempEnsembleFiles {
 public:
  TempEnsembleFiles() {
    workloads::PaperExample ex;
    const prof::CanonicalCct cct = prof::correlate(ex.profile(), ex.tree());
    const std::string stem =
        (std::filesystem::temp_directory_path() /
         ("serve_ens_" + std::to_string(::getpid()))).string();
    a_ = stem + "_a.xml";
    b_ = stem + "_b.xml";
    db::save_xml(db::Experiment::capture(ex.tree(), cct, "ens a", 1), a_);
    db::save_xml(db::Experiment::capture(ex.tree(), cct, "ens b", 1), b_);
  }
  ~TempEnsembleFiles() {
    std::remove(a_.c_str());
    std::remove(b_.c_str());
  }
  const std::string& a() const { return a_; }
  const std::string& b() const { return b_; }

 private:
  std::string a_, b_;
};

Request ensemble_request(int id, const std::string& a, const std::string& b,
                         std::uint64_t baseline) {
  Request req;
  req.id = id;
  req.op = Op::kOpenEnsemble;
  req.body = JsonValue::object();
  JsonValue paths = JsonValue::array();
  paths.push(JsonValue::string(a));
  paths.push(JsonValue::string(b));
  req.body.set("paths", std::move(paths));
  req.body.set("baseline", JsonValue::number(baseline));
  return req;
}

TEST(ServeEnsemble, OpenEnsembleRoundTrip) {
  TempEnsembleFiles files;
  SessionManager mgr{SessionManager::Options{}};

  JsonValue resp = mgr.handle(ensemble_request(1, files.a(), files.b(), 1));
  ASSERT_TRUE(resp.get_bool("ok", false)) << resp.dump();
  EXPECT_EQ(resp.get_string("name", ""), "ensemble of 2 runs");
  EXPECT_EQ(resp.get_u64("baseline", 99), 1u);
  EXPECT_GT(resp.get_u64("scopes", 0), 0u);
  const JsonValue* members = resp.find("members");
  ASSERT_NE(members, nullptr);
  ASSERT_EQ(members->items().size(), 2u);
  EXPECT_EQ(members->items()[0].get_string("path", ""), files.a());
  EXPECT_EQ(members->items()[0].get_string("name", ""), "ens a");
  EXPECT_EQ(members->items()[1].get_string("name", ""), "ens b");

  // The ensemble columns are queryable through the ordinary query op.
  const std::string sid = resp.get_string("session", "");
  JsonValue q = mgr.handle(session_request(
      2, Op::kQuery, sid,
      "match '**' where cycles.incl.delta >= 0 select cycles.incl.run0, "
      "cycles.incl.mean order by cycles.incl.mean desc limit 3"));
  ASSERT_TRUE(q.get_bool("ok", false)) << q.dump();
  EXPECT_NE(q.dump().find("\"result\""), std::string::npos);

  // Ensembles have no trace directory; the timeline op must say so rather
  // than fall over.
  Request tl;
  tl.id = 3;
  tl.op = Op::kTimelineWindow;
  tl.body = JsonValue::object();
  tl.body.set("session", JsonValue::string(sid));
  JsonValue tresp = mgr.handle(tl);
  EXPECT_FALSE(tresp.get_bool("ok", true));
  EXPECT_NE(tresp.dump().find("no traces"), std::string::npos)
      << tresp.dump();

  Request close;
  close.id = 4;
  close.op = Op::kClose;
  close.body = JsonValue::object();
  close.body.set("session", JsonValue::string(sid));
  EXPECT_TRUE(mgr.handle(close).get_bool("ok", false));
}

Request derive_request(int id, const std::string& sid, const std::string& name,
                       const std::string& formula) {
  Request req;
  req.id = id;
  req.op = Op::kMetrics;
  req.body = JsonValue::object();
  req.body.set("session", JsonValue::string(sid));
  if (!name.empty()) {
    JsonValue derive = JsonValue::object();
    derive.set("name", JsonValue::string(name));
    derive.set("formula", JsonValue::string(formula));
    req.body.set("derive", std::move(derive));
  }
  return req;
}

TEST(ServeSession, DeriveInOneSessionLeavesSiblingsAndTheBaseUnchanged) {
  // Sessions share their base table's columns; a derived column is an
  // overlay in the one session that asked for it.
  TempEnsembleFiles files;
  SessionManager mgr{SessionManager::Options{}};
  const auto columns_of = [&mgr](const std::string& sid) {
    const JsonValue r = mgr.handle(derive_request(9, sid, "", ""));
    EXPECT_TRUE(r.get_bool("ok", false)) << r.dump();
    const JsonValue* cols = r.find("columns");
    return cols ? cols->dump() : std::string();
  };
  const auto query_ok = [&mgr](const std::string& sid) {
    return mgr.handle(session_request(8, Op::kQuery, sid, "where twice > 0"))
        .get_bool("ok", false);
  };
  const auto check_pair = [&](const std::string& first,
                              const std::string& second,
                              const std::string& later_sid_of_base) {
    const std::string before = columns_of(second);
    const JsonValue d =
        mgr.handle(derive_request(7, first, "twice", "$0 * 2"));
    ASSERT_TRUE(d.get_bool("ok", false)) << d.dump();
    EXPECT_NE(columns_of(first), before);
    EXPECT_EQ(columns_of(second), before);
    EXPECT_TRUE(query_ok(first));
    EXPECT_FALSE(query_ok(second));
    // A session opened afterwards copies the base table: no "twice".
    EXPECT_EQ(columns_of(later_sid_of_base), before);
  };

  const auto open_exp = [&] {
    return mgr.handle(open_request(files.a())).get_string("session", "");
  };
  const std::shared_ptr<const metrics::Attribution> base =
      mgr.cache().get_attributed(files.a()).attr;
  const std::size_t base_cols = base->table.num_columns();
  const std::string e1 = open_exp(), e2 = open_exp();
  check_pair(e1, e2, open_exp());
  EXPECT_EQ(base->table.num_columns(), base_cols);
  EXPECT_EQ(mgr.cache().get_attributed(files.a()).attr, base);

  const auto open_ens = [&] {
    return mgr.handle(ensemble_request(1, files.a(), files.b(), 0))
        .get_string("session", "");
  };
  const std::string n1 = open_ens(), n2 = open_ens();
  check_pair(n1, n2, open_ens());
}

TEST(ServeEnsemble, RepliesAreByteDeterministicAcrossManagers) {
  // The protocol's determinism contract: the same request sequence yields
  // byte-identical responses regardless of daemon instance (and therefore
  // of --threads, which only changes which worker runs the handler).
  TempEnsembleFiles files;
  auto run_sequence = [&](SessionManager& mgr) {
    std::string out;
    out += mgr.handle(ensemble_request(1, files.a(), files.b(), 0)).dump();
    out += mgr.handle(session_request(
                          2, Op::kQuery, "s1",
                          "match '**' where cycles.incl.regressed >= 0 "
                          "select cycles.incl.delta, cycles.incl.stddev "
                          "order by cycles.incl.delta desc limit 5"))
               .dump();
    return out;
  };
  SessionManager m1{SessionManager::Options{}};
  SessionManager m2{SessionManager::Options{}};
  const std::string r1 = run_sequence(m1);
  const std::string r2 = run_sequence(m2);
  EXPECT_FALSE(r1.empty());
  EXPECT_EQ(r1, r2);
  EXPECT_NE(r1.find("\"ok\":true"), std::string::npos) << r1;
}

TEST(ServeEnsemble, ConcurrentOpensShareOneEnsemble) {
  TempEnsembleFiles files;
  SessionManager mgr{SessionManager::Options{}};

  constexpr int kThreads = 4;
  std::vector<std::string> sids(kThreads);
  std::vector<std::string> column_dumps(kThreads);
  {
    std::vector<std::thread> threads;
    for (int i = 0; i < kThreads; ++i)
      threads.emplace_back([&, i] {
        JsonValue resp =
            mgr.handle(ensemble_request(10 + i, files.a(), files.b(), 0));
        ASSERT_TRUE(resp.get_bool("ok", false)) << resp.dump();
        sids[i] = resp.get_string("session", "");
        const JsonValue* cols = resp.find("columns");
        ASSERT_NE(cols, nullptr);
        column_dumps[i] = cols->dump();
      });
    for (std::thread& t : threads) t.join();
  }
  EXPECT_EQ(mgr.open_sessions(), static_cast<std::size_t>(kThreads));
  for (int i = 1; i < kThreads; ++i) {
    EXPECT_NE(sids[i], sids[0]);
    EXPECT_EQ(column_dumps[i], column_dumps[0]);
  }

  // Every session queries the shared supergraph; results are byte-equal.
  std::vector<std::string> results(kThreads);
  {
    std::vector<std::thread> threads;
    for (int i = 0; i < kThreads; ++i)
      threads.emplace_back([&, i] {
        JsonValue resp = mgr.handle(session_request(
            20 + i, Op::kQuery, sids[i],
            "order by cycles.incl.mean desc limit 4"));
        ASSERT_TRUE(resp.get_bool("ok", false)) << resp.dump();
        const JsonValue* result = resp.find("result");
        ASSERT_NE(result, nullptr);
        results[i] = result->dump();
      });
    for (std::thread& t : threads) t.join();
  }
  for (int i = 1; i < kThreads; ++i) EXPECT_EQ(results[i], results[0]);
}

// ---------------------------------------------------------------------------
// Durable session journals: encode/decode salvage semantics.
// ---------------------------------------------------------------------------

/// A unique temp directory removed on scope exit.
class TempDir {
 public:
  explicit TempDir(const std::string& tag) {
    path_ = (std::filesystem::temp_directory_path() /
             (tag + "_" + std::to_string(::getpid())))
                .string();
    std::filesystem::remove_all(path_);
    std::filesystem::create_directories(path_);
  }
  ~TempDir() { std::filesystem::remove_all(path_); }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

JsonValue sample_journal_header() {
  JsonValue h = JsonValue::object();
  h.set("type", JsonValue::string("exp"));
  h.set("path", JsonValue::string("/tmp/x.xml"));
  h.set("view", JsonValue::string("cct"));
  return h;
}

JsonValue sample_journal_ops() {
  JsonValue ops = JsonValue::array();
  JsonValue op = JsonValue::object();
  op.set("op", JsonValue::string("expand"));
  op.set("node", JsonValue::number(std::uint64_t{0}));
  ops.push(std::move(op));
  return ops;
}

TEST(ServeJournal, EncodeDecodeRoundTrip) {
  const JsonValue header = sample_journal_header();
  const JsonValue ops = sample_journal_ops();
  const std::string bytes = encode_journal(header, ops);
  EXPECT_EQ(bytes.rfind("PVSJ1 ", 0), 0u);
  EXPECT_NE(bytes.find("PVSJ2 "), std::string::npos);
  JsonValue h, o;
  EXPECT_EQ(decode_journal(bytes, &h, &o), JournalState::kComplete);
  EXPECT_EQ(h.dump(), header.dump());
  EXPECT_EQ(o.dump(), ops.dump());
}

TEST(ServeJournal, TornOpsSectionDegrades) {
  const JsonValue header = sample_journal_header();
  const std::string bytes = encode_journal(header, sample_journal_ops());
  // Truncate mid-ops-section: what a crash between the two section writes
  // (or disk damage past the header) leaves behind. The header salvages;
  // the replay log is gone.
  const std::string torn = bytes.substr(0, bytes.find("PVSJ2") + 9);
  JsonValue h, o;
  EXPECT_EQ(decode_journal(torn, &h, &o), JournalState::kDegraded);
  EXPECT_EQ(h.dump(), header.dump());
  ASSERT_TRUE(o.is_array());
  EXPECT_TRUE(o.items().empty());
  // A flipped byte inside the ops payload fails its CRC: same salvage.
  std::string flipped = bytes;
  flipped[flipped.size() - 3] ^= 0x5a;
  EXPECT_EQ(decode_journal(flipped, &h, &o), JournalState::kDegraded);
}

TEST(ServeJournal, DamagedHeaderIsUnusable) {
  std::string bytes =
      encode_journal(sample_journal_header(), sample_journal_ops());
  bytes[8] ^= 0x5a;  // inside section 1's framing/payload
  JsonValue h, o;
  EXPECT_EQ(decode_journal(bytes, &h, &o), JournalState::kUnusable);
  EXPECT_EQ(decode_journal("not a journal at all", &h, &o),
            JournalState::kUnusable);
  EXPECT_EQ(decode_journal("", &h, &o), JournalState::kUnusable);
  EXPECT_EQ(std::string(journal_state_name(JournalState::kComplete)),
            "complete");
  EXPECT_EQ(journal_path("/some/dir", "s7"), "/some/dir/s7.pvsj");
}

// ---------------------------------------------------------------------------
// Durable session resume: checkpoint -> restart -> byte-identical replies.
// ---------------------------------------------------------------------------

Request nav_request(int id, Op op, const std::string& sid) {
  Request req;
  req.id = id;
  req.op = op;
  req.body = JsonValue::object();
  req.body.set("session", JsonValue::string(sid));
  return req;
}

Request resume_request(int id, const std::string& token) {
  Request req;
  req.id = id;
  req.op = Op::kResumeSession;
  req.body = JsonValue::object();
  req.body.set("token", JsonValue::string(token));
  return req;
}

TEST(ServeResume, CheckpointThenResumeIsByteIdentical) {
  TempExperiment exp;
  TempDir dir("serve_resume");
  SessionManager::Options opts;
  opts.session_dir = dir.path();

  // An uninterrupted run: open, navigate (expand root, flip the sort), and
  // capture the reply of a probe expansion — the oracle.
  std::string oracle;
  {
    SessionManager a(opts);
    JsonValue open = a.handle(open_request(exp.path()));
    ASSERT_TRUE(open.get_bool("ok", false)) << open.dump();
    ASSERT_EQ(open.get_string("session", ""), "s1");
    ASSERT_TRUE(std::filesystem::exists(journal_path(dir.path(), "s1")));
    ASSERT_TRUE(
        a.handle(nav_request(2, Op::kExpand, "s1")).get_bool("ok", false));
    Request sort = nav_request(3, Op::kSort, "s1");
    sort.body.set("column", JsonValue::number(std::uint64_t{0}));
    sort.body.set("descending", JsonValue::boolean(false));
    ASSERT_TRUE(a.handle(sort).get_bool("ok", false));
    oracle = a.handle(nav_request(4, Op::kExpand, "s1")).dump();
    ASSERT_NE(oracle.find("\"ok\":true"), std::string::npos) << oracle;
  }

  // "Restart": a fresh manager over the same journal directory. The resume
  // replays the log and the probe reply must be byte-identical.
  SessionManager b(opts);
  const JsonValue resumed = b.handle(resume_request(10, "s1"));
  ASSERT_TRUE(resumed.get_bool("ok", false)) << resumed.dump();
  EXPECT_EQ(resumed.get_string("session", ""), "s1");
  EXPECT_TRUE(resumed.get_bool("resumed", false));
  EXPECT_FALSE(resumed.get_bool("degraded", false));
  EXPECT_EQ(resumed.get_u64("replayed", 0), 3u);  // expand + sort + expand
  EXPECT_EQ(b.resumed_sessions(), 1u);
  EXPECT_EQ(b.handle(nav_request(4, Op::kExpand, "s1")).dump(), oracle);

  // The startup scan bumped the sid counter past journaled sessions, so a
  // new open never collides with a resumable token.
  JsonValue open2 = b.handle(open_request(exp.path()));
  ASSERT_TRUE(open2.get_bool("ok", false)) << open2.dump();
  EXPECT_EQ(open2.get_string("session", ""), "s2");

  // Close deletes the journal: the token is no longer resumable.
  ASSERT_TRUE(
      b.handle(nav_request(11, Op::kClose, "s1")).get_bool("ok", false));
  EXPECT_FALSE(std::filesystem::exists(journal_path(dir.path(), "s1")));
}

TEST(ServeResume, TornJournalResumesDegraded) {
  TempExperiment exp;
  TempDir dir("serve_resume_torn");
  SessionManager::Options opts;
  opts.session_dir = dir.path();
  {
    SessionManager a(opts);
    ASSERT_TRUE(a.handle(open_request(exp.path())).get_bool("ok", false));
    ASSERT_TRUE(
        a.handle(nav_request(2, Op::kExpand, "s1")).get_bool("ok", false));
  }
  // Damage the ops section on disk (disk rot / hand-edited file).
  const std::string jpath = journal_path(dir.path(), "s1");
  std::FILE* f = std::fopen(jpath.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::string bytes(1 << 16, '\0');
  bytes.resize(std::fread(bytes.data(), 1, bytes.size(), f));
  std::fclose(f);
  bytes.resize(bytes.find("PVSJ2") + 9);
  f = std::fopen(jpath.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  std::fwrite(bytes.data(), 1, bytes.size(), f);
  std::fclose(f);

  // Salvage semantics: the session comes back at its open-time defaults
  // with the degraded bit set — never a crash, never a refused token.
  SessionManager b(opts);
  const JsonValue resumed = b.handle(resume_request(10, "s1"));
  ASSERT_TRUE(resumed.get_bool("ok", false)) << resumed.dump();
  EXPECT_TRUE(resumed.get_bool("resumed", false));
  EXPECT_TRUE(resumed.get_bool("degraded", false));
  EXPECT_EQ(resumed.get_u64("replayed", 99), 0u);
  // The resumed cursor still works.
  EXPECT_TRUE(
      b.handle(nav_request(11, Op::kExpand, "s1")).get_bool("ok", false));
}

TEST(ServeResume, UnknownTokenAndDisabledJournalingAreRefused) {
  TempExperiment exp;
  TempDir dir("serve_resume_unknown");
  SessionManager::Options opts;
  opts.session_dir = dir.path();
  SessionManager mgr(opts);
  JsonValue resp = mgr.handle(resume_request(1, "s42"));
  EXPECT_FALSE(resp.get_bool("ok", true)) << resp.dump();

  // Without --session-dir the op is a structural refusal, not a crash.
  SessionManager off{SessionManager::Options{}};
  resp = off.handle(resume_request(2, "s1"));
  EXPECT_FALSE(resp.get_bool("ok", true)) << resp.dump();
}

TEST(ServeResume, LiveSessionResumeIsIdempotent) {
  TempExperiment exp;
  TempDir dir("serve_resume_live");
  SessionManager::Options opts;
  opts.session_dir = dir.path();
  SessionManager mgr(opts);
  ASSERT_TRUE(mgr.handle(open_request(exp.path())).get_bool("ok", false));
  // Resuming a session that never died is an ack, not a rebuild.
  const JsonValue resp = mgr.handle(resume_request(2, "s1"));
  ASSERT_TRUE(resp.get_bool("ok", false)) << resp.dump();
  EXPECT_TRUE(resp.get_bool("live", false));
  EXPECT_EQ(mgr.open_sessions(), 1u);
}

// ---------------------------------------------------------------------------
// Overload control: brownout hysteresis, shed order, per-peer buckets.
// ---------------------------------------------------------------------------

using Verdict = OverloadController::Verdict;

TEST(ServeOverload, BrownoutHysteresisShedsExpensiveOpsFirst) {
  OverloadOptions o;
  o.retry_after_ms = 75;
  OverloadController c(o);
  // Below the high-water mark everything admits.
  EXPECT_EQ(c.admit(Op::kQuery, "p", 50, 100, 0).verdict, Verdict::kAdmit);
  // Crossing 75% enters brownout: expensive ops shed with the retry hint...
  const auto shed = c.admit(Op::kQuery, "p", 80, 100, 0);
  EXPECT_EQ(shed.verdict, Verdict::kShed);
  EXPECT_EQ(shed.retry_after_ms, 75u);
  EXPECT_TRUE(c.browned_out());
  // ...while cheap navigation, stats, and health keep answering.
  EXPECT_EQ(c.admit(Op::kExpand, "p", 80, 100, 0).verdict, Verdict::kAdmit);
  EXPECT_EQ(c.admit(Op::kStats, "p", 80, 100, 0).verdict, Verdict::kAdmit);
  EXPECT_EQ(c.admit(Op::kHealth, "p", 100, 100, 0).verdict, Verdict::kAdmit);
  // Hysteresis: draining below enter but above exit keeps the brownout.
  EXPECT_EQ(c.admit(Op::kOpen, "p", 50, 100, 0).verdict, Verdict::kShed);
  // Only falling to the low-water mark (25%) recovers.
  EXPECT_EQ(c.admit(Op::kOpen, "p", 20, 100, 0).verdict, Verdict::kAdmit);
  EXPECT_FALSE(c.browned_out());
  EXPECT_EQ(c.shed_requests(), 2u);
  EXPECT_EQ(c.brownouts_entered(), 1u);
}

TEST(ServeOverload, TokenBucketsArePerPeerAndRefill) {
  OverloadOptions o;
  o.rate_limit_rps = 2.0;
  o.rate_limit_burst = 4.0;
  o.brownout = false;
  OverloadController c(o);
  std::uint64_t now = 0;
  // A greedy peer drains its burst of 4 cheap tokens...
  for (int i = 0; i < 4; ++i)
    EXPECT_EQ(c.admit(Op::kPing, "greedy", 0, 100, now).verdict,
              Verdict::kAdmit)
        << i;
  const auto limited = c.admit(Op::kPing, "greedy", 0, 100, now);
  EXPECT_EQ(limited.verdict, Verdict::kRateLimited);
  EXPECT_GE(limited.retry_after_ms, o.retry_after_ms);
  // ...while a polite peer's bucket is untouched (fairness).
  EXPECT_EQ(c.admit(Op::kPing, "polite", 0, 100, now).verdict,
            Verdict::kAdmit);
  // One second refills rps-worth of tokens.
  now += 1'000'000'000ull;
  EXPECT_EQ(c.admit(Op::kPing, "greedy", 0, 100, now).verdict,
            Verdict::kAdmit);
  EXPECT_EQ(c.admit(Op::kPing, "greedy", 0, 100, now).verdict,
            Verdict::kAdmit);
  EXPECT_EQ(c.admit(Op::kPing, "greedy", 0, 100, now).verdict,
            Verdict::kRateLimited);
  EXPECT_EQ(c.rate_limited(), 2u);
  // Expensive ops cost expensive_cost (4.0) tokens: one empties the bucket.
  now += 10'000'000'000ull;  // back to the burst cap
  EXPECT_EQ(c.admit(Op::kQuery, "greedy", 0, 100, now).verdict,
            Verdict::kAdmit);
  EXPECT_EQ(c.admit(Op::kPing, "greedy", 0, 100, now).verdict,
            Verdict::kRateLimited);
  // forget_peer resets the bucket (connection closed -> fresh burst).
  c.forget_peer("greedy");
  EXPECT_EQ(c.admit(Op::kPing, "greedy", 0, 100, now).verdict,
            Verdict::kAdmit);
}

TEST(ServeServer, RateLimitedPeersGetTypedRefusalsWhileOthersProceed) {
  Server::Options opts;
  opts.overload.rate_limit_rps = 1.0;
  opts.overload.rate_limit_burst = 2.0;
  Server server(opts);
  server.start();
  // Each connection is its own peer (distinct source port): the greedy one
  // collects typed refusals with a retry hint, the polite one is untouched.
  const int greedy = connect_to("127.0.0.1", server.port());
  std::string raw;
  bool saw_limit = false;
  for (int i = 0; i < 8 && !saw_limit; ++i) {
    write_frame(greedy, kPing);
    ASSERT_TRUE(read_frame(greedy, &raw));
    const JsonValue reply = JsonValue::parse(raw);
    if (!reply.get_bool("ok", true)) {
      EXPECT_NE(raw.find("\"rate_limited\""), std::string::npos) << raw;
      EXPECT_GT(reply.get_u64("retry_after_ms", 0), 0u) << raw;
      saw_limit = true;
    }
  }
  EXPECT_TRUE(saw_limit);
  const int polite = connect_to("127.0.0.1", server.port());
  write_frame(polite, kPing);
  ASSERT_TRUE(read_frame(polite, &raw));
  EXPECT_TRUE(JsonValue::parse(raw).get_bool("ok", false)) << raw;
  ::close(greedy);
  ::close(polite);
  server.stop();
}

// ---------------------------------------------------------------------------
// Health: the inline op, the health file, and the slowloris read deadline.
// ---------------------------------------------------------------------------

TEST(ServeHealth, HealthOpReportsServing) {
  Server server;
  server.start();
  Client client("127.0.0.1", server.port(), {});
  const JsonValue h = client.call_op("health", JsonValue::object());
  ASSERT_TRUE(h.get_bool("ok", false)) << h.dump();
  EXPECT_EQ(h.get_string("state", ""), "serving");
  EXPECT_EQ(h.get_u64("port", 0), server.port());
  EXPECT_GT(h.get_u64("pid", 0), 0u);
  EXPECT_FALSE(h.get_bool("brownout", true));
  EXPECT_EQ(h.get_u64("queue_capacity", 0), 128u);
  server.stop();
}

TEST(ServeHealth, HealthFileTransitionsToDrainingOnStop) {
  const std::string path =
      (std::filesystem::temp_directory_path() /
       ("serve_health_" + std::to_string(::getpid()) + ".json"))
          .string();
  std::remove(path.c_str());
  Server::Options opts;
  opts.health_file = path;
  Server server(opts);
  server.start();  // writes one snapshot synchronously
  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::string content(4096, '\0');
  content.resize(std::fread(content.data(), 1, content.size(), f));
  std::fclose(f);
  EXPECT_NE(content.find("\"state\":\"serving\""), std::string::npos)
      << content;
  server.stop();  // final write reads "draining"
  f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  content.assign(4096, '\0');
  content.resize(std::fread(content.data(), 1, content.size(), f));
  std::fclose(f);
  EXPECT_NE(content.find("\"state\":\"draining\""), std::string::npos)
      << content;
  std::remove(path.c_str());
}

TEST(ServeServer, SlowlorisPartialFrameIsDropped) {
  Server::Options opts;
  opts.read_deadline_ms = 50;
  Server server(opts);
  server.start();
  const int fd = connect_to("127.0.0.1", server.port());
  // Two header bytes, then silence: once the first byte lands, the rest of
  // the frame must arrive within the deadline or the connection dies.
  const char partial[2] = {0, 0};
  ASSERT_EQ(::send(fd, partial, sizeof partial, 0), 2);
  char buf[16];
  const ssize_t n = ::recv(fd, buf, sizeof buf, 0);  // blocks until close
  EXPECT_EQ(n, 0) << "expected EOF from the dropped connection";
  ::close(fd);

  // A fresh, well-behaved connection still works.
  const int ok_fd = connect_to("127.0.0.1", server.port());
  std::string raw;
  write_frame(ok_fd, kPing);
  ASSERT_TRUE(read_frame(ok_fd, &raw));
  EXPECT_TRUE(JsonValue::parse(raw).get_bool("ok", false));
  ::close(ok_fd);
  server.stop();
}

// ---------------------------------------------------------------------------
// The supervisor: respawn on abnormal exit, clean exit ends supervision,
// crash-loop breaker.
// ---------------------------------------------------------------------------

TEST(ServeSupervisor, CleanExitEndsSupervision) {
  SupervisorOptions opts;
  opts.quiet = true;
  Supervisor sup(opts);
  EXPECT_EQ(sup.run([] { return 0; }), 0);
  EXPECT_EQ(sup.restarts(), 0u);
}

TEST(ServeSupervisor, RespawnsUntilTheWorkerExitsClean) {
  const std::string health =
      (std::filesystem::temp_directory_path() /
       ("serve_sup_" + std::to_string(::getpid()) + ".json"))
          .string();
  std::remove(health.c_str());
  SupervisorOptions opts;
  opts.backoff_ms = 1;
  opts.quiet = true;
  opts.health_file = health;
  Supervisor sup(opts);
  // Each incarnation reads its restart count from the env the supervisor
  // exports; the first two "crash", the third exits clean.
  const int rc = sup.run([] {
    const char* n = std::getenv(kSupervisorRestartsEnv);
    return (n != nullptr && std::atoi(n) >= 2) ? 0 : 1;
  });
  EXPECT_EQ(rc, 0);
  EXPECT_EQ(sup.restarts(), 2u);
  // The supervisor stamped "starting" between death and respawn.
  std::FILE* f = std::fopen(health.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::string content(4096, '\0');
  content.resize(std::fread(content.data(), 1, content.size(), f));
  std::fclose(f);
  EXPECT_NE(content.find("\"state\":\"starting\""), std::string::npos)
      << content;
  EXPECT_NE(content.find("\"restarts\":2"), std::string::npos) << content;
  std::remove(health.c_str());
}

TEST(ServeSupervisor, CrashLoopBreakerGivesUp) {
  SupervisorOptions opts;
  opts.backoff_ms = 1;
  opts.max_backoff_ms = 2;
  opts.max_restarts = 2;
  opts.quiet = true;
  Supervisor sup(opts);
  // A worker that can never come up: after max_restarts abnormal exits
  // inside the window the breaker trips and the worker's code surfaces.
  EXPECT_EQ(sup.run([] { return 7; }), 7);
  EXPECT_EQ(sup.restarts(), 2u);
}

// ---------------------------------------------------------------------------
// Client auto-resume across a daemon restart.
// ---------------------------------------------------------------------------

TEST(ServeClient, AutoResumeSurvivesDaemonRestart) {
  TempExperiment exp;
  TempDir dir("serve_client_resume");
  const std::uint16_t port = reserve_ephemeral_port("127.0.0.1");
  Server::Options opts;
  opts.port = port;
  opts.sessions.session_dir = dir.path();

  RetryOptions retry;
  retry.auto_resume = true;
  retry.reconnect_backoff_ms = 10;

  auto server1 = std::make_unique<Server>(opts);
  server1->start();
  Client client("127.0.0.1", port, retry);
  JsonValue body = JsonValue::object();
  body.set("path", JsonValue::string(exp.path()));
  const JsonValue open = client.call_op("open", std::move(body));
  ASSERT_TRUE(open.get_bool("ok", false)) << open.dump();
  const std::string sid = open.get_string("session", "");
  ASSERT_EQ(client.tracked_sessions(), std::vector<std::string>{sid});
  body = JsonValue::object();
  body.set("session", JsonValue::string(sid));
  body.set("id", JsonValue::number(std::uint64_t{42}));  // pin for the diff
  const std::string oracle = client.call_op("expand", body).dump();

  // Kill the daemon and bring up a fresh one on the same port + journal
  // dir. The next call rides the transport failure: reconnect, resume, and
  // re-send — the caller just sees the same bytes again.
  server1->stop();
  server1.reset();
  Server server2(opts);
  server2.start();
  body = JsonValue::object();
  body.set("session", JsonValue::string(sid));
  body.set("id", JsonValue::number(std::uint64_t{42}));
  EXPECT_EQ(client.call_op("expand", std::move(body)).dump(), oracle);
  EXPECT_EQ(client.resumes(), 1u);
  server2.stop();
}

// --- lazy sorting behind the wire vs the eager oracle ----------------------

std::vector<std::uint64_t> row_ids(const JsonValue& reply) {
  std::vector<std::uint64_t> ids;
  if (const JsonValue* rows = reply.find("rows"))
    for (const JsonValue& row : rows->items())
      ids.push_back(row.get_u64("id", ~std::uint64_t{0}));
  return ids;
}

std::vector<std::uint64_t> as_u64(const std::vector<core::ViewNodeId>& ids) {
  return {ids.begin(), ids.end()};
}

// Every row list a session sends (expand, sort, hot_path, flatten, and the
// resume continuation) equals what the eager oracle shows, over random op
// sequences in all three views; the replayed journal rebuilds the same
// sort history.
TEST(ServeSortOracle, RowListsMatchEagerReplay) {
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() /
      ("serve_sort_oracle_" + std::to_string(::getpid()));
  std::filesystem::create_directories(dir);
  const std::string db_path = (dir / "exp.pvdb").string();
  {
    const workloads::Workload w =
        workloads::make_random_program({.seed = 4, .num_procs = 10});
    const prof::CanonicalCct cct = prof::correlate(
        sim::ExecutionEngine(*w.program, *w.lowering, w.run).run(), *w.tree);
    db::save_binary(db::Experiment::capture(*w.tree, cct, "oracle", 1),
                    db_path);
  }
  const db::Experiment exp = db::load_binary(db_path);
  const metrics::Attribution attr =
      metrics::attribute_metrics(exp.cct(), metrics::all_events());
  const std::string nan_formula =
      "sqrt($" + std::to_string(attr.cols.exclusive(model::Event::kCycles)) +
      " - 0.25 * $" +
      std::to_string(attr.cols.inclusive(model::Event::kCycles)) + ")";

  SessionManager::Options opts;
  opts.session_dir = (dir / "sessions").string();
  std::uint64_t seed = 0;
  for (const char* view : {"cct", "callers", "flat"}) {
    SessionManager mgr(opts);
    Request open = open_request(db_path);
    open.body.set("view", JsonValue::string(view));
    const JsonValue opened = mgr.handle(open);
    ASSERT_TRUE(opened.get_bool("ok", false)) << opened.dump();
    const std::string sid = opened.get_string("session", "");
    testutil::EagerSortOracle eager(exp.cct(), attr);
    eager.select_view(parse_view_name(view));
    EXPECT_EQ(row_ids(opened), as_u64(eager.children_of(core::kViewRoot)));

    int next_id = 2;
    const auto call = [&](Op op, JsonValue body) {
      Request req;
      req.id = next_id++;
      req.op = op;
      req.body = std::move(body);
      req.body.set("session", JsonValue::string(sid));
      JsonValue reply = mgr.handle(req);
      EXPECT_TRUE(reply.get_bool("ok", false)) << reply.dump();
      return reply;
    };
    JsonValue derive = JsonValue::object();
    derive.set("name", JsonValue::string("nan"));
    derive.set("formula", JsonValue::string(nan_formula));
    JsonValue mbody = JsonValue::object();
    mbody.set("derive", std::move(derive));
    const std::uint64_t nan_col =
        call(Op::kMetrics, std::move(mbody)).get_u64("derived", 0);
    ASSERT_EQ(eager.add_derived("nan", nan_formula), nan_col);
    const std::array<std::uint64_t, 3> cols = {
        attr.cols.inclusive(model::Event::kCycles),
        attr.cols.exclusive(model::Event::kCycles), nan_col};

    std::mt19937_64 rng(++seed);
    const auto pick = [&](std::size_t n) {
      return static_cast<std::size_t>(rng() % n);
    };
    bool flattened = false;
    for (int step = 0; step < 300; ++step) {
      const auto node = static_cast<core::ViewNodeId>(
          pick(eager.view().size()));
      JsonValue body = JsonValue::object();
      switch (pick(6)) {
        case 0:
        case 1: {
          const std::uint64_t col = cols[pick(cols.size())];
          const bool desc = pick(2) == 0;
          body.set("column", JsonValue::number(col));
          body.set("descending", JsonValue::boolean(desc));
          const JsonValue r = call(Op::kSort, std::move(body));
          eager.sort_by(static_cast<metrics::ColumnId>(col), desc);
          ASSERT_EQ(row_ids(r), as_u64(eager.children_of(core::kViewRoot)))
              << view << " step " << step;
          break;
        }
        case 2: {
          body.set("node", JsonValue::number(std::uint64_t{node}));
          const JsonValue r = call(Op::kExpand, std::move(body));
          eager.expand(node);
          ASSERT_EQ(row_ids(r), as_u64(eager.children_of(node)))
              << view << " step " << step;
          break;
        }
        case 3: {
          const std::uint64_t col = cols[pick(cols.size())];
          body.set("start", JsonValue::number(std::uint64_t{node}));
          body.set("column", JsonValue::number(col));
          const JsonValue r = call(Op::kHotPath, std::move(body));
          ASSERT_EQ(row_ids(r),
                    as_u64(eager.run_hot_path(
                        node, static_cast<metrics::ColumnId>(col))))
              << view << " step " << step;
          break;
        }
        case 4: {
          body.set("node", JsonValue::number(std::uint64_t{node}));
          call(Op::kCollapse, std::move(body));
          eager.collapse(node);
          break;
        }
        default: {
          const bool un = pick(3) == 0;
          const JsonValue r =
              call(un ? Op::kUnflatten : Op::kFlatten, std::move(body));
          EXPECT_EQ(r.get_bool("changed", false),
                    un ? eager.unflatten() : eager.flatten());
          flattened = true;
          ASSERT_EQ(row_ids(r), as_u64(eager.flatten_roots()))
              << view << " step " << step;
          break;
        }
      }
    }

    // A restarted daemon replays the journal into the same display.
    SessionManager restarted(opts);
    Request resume;
    resume.id = next_id++;
    resume.op = Op::kResumeSession;
    resume.body = JsonValue::object();
    resume.body.set("token", JsonValue::string(sid));
    const JsonValue resumed = restarted.handle(resume);
    ASSERT_TRUE(resumed.get_bool("ok", false)) << resumed.dump();
    EXPECT_EQ(row_ids(resumed),
              as_u64(flattened ? eager.flatten_roots()
                               : eager.children_of(core::kViewRoot)))
        << view;
  }
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace pathview::serve
