// The `browse` workload: pvserve under interactive use. Set-up writes the
// `ingest` experiment as PVDB2, starts the shipped pvserve daemon at its
// defaults, opens one session per client and records each op's reference
// reply. The timed part runs 3 closed-loop clients from this process, each
// on its own connection and session, looping over expand / sort / hot_path
// / collapse navigation plus one top-20 query per round.
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <array>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>

#include "bench.hpp"
#include "measure.hpp"
#include "pathview/db/experiment.hpp"
#include "pathview/obs/export.hpp"
#include "pathview/prof/pipeline.hpp"
#include "pathview/serve/json.hpp"
#include "pathview/serve/protocol.hpp"
#include "pathview/serve/server.hpp"

namespace pvbench {

using namespace pathview;

namespace {

constexpr std::size_t kClients = 3;
constexpr int kSetupReps = 3;
constexpr std::size_t kOps = 5;
// Op order within a round; a round leaves the session as it found it, so
// from the second round on every reply repeats byte for byte.
constexpr std::array<const char*, kOps> kOpNames = {"expand", "sort",
                                                     "hot_path", "collapse",
                                                     "query"};
constexpr std::array<const char*, kOps> kOpSpans = {
    "bench.serve.expand", "bench.serve.sort", "bench.serve.hot_path",
    "bench.serve.collapse", "bench.serve.query"};
constexpr std::size_t kQueryOp = 4;

/// The pvserve daemon as a child process. The destructor asks it to shut
/// down and waits for it (killing it if it does not stop).
class Daemon {
 public:
  Daemon(const std::string& binary, const std::string& log_path) {
    std::filesystem::remove(log_path);  // a stale log names a stale port
    pid_ = ::fork();
    if (pid_ < 0) throw std::runtime_error("fork failed");
    if (pid_ == 0) {
      std::FILE* log = std::freopen(log_path.c_str(), "w", stdout);
      if (log == nullptr || ::dup2(::fileno(stdout), 2) < 0) ::_exit(127);
      ::execl(binary.c_str(), binary.c_str(), "--port", "0",
              static_cast<char*>(nullptr));
      ::_exit(127);
    }
    const Clock::time_point t0 = Clock::now();
    while (port_ == 0) {
      std::ifstream in(log_path);
      std::string line;
      while (std::getline(in, line)) {
        const std::size_t at = line.find("listening on ");
        if (at == std::string::npos) continue;
        const std::size_t colon = line.find(':', at + 13);
        if (colon != std::string::npos)
          port_ = static_cast<std::uint16_t>(
              std::strtoul(line.c_str() + colon + 1, nullptr, 10));
      }
      int status = 0;
      if (port_ == 0 && ::waitpid(pid_, &status, WNOHANG) == pid_) pid_ = -1;
      if (port_ == 0 && (pid_ < 0 || seconds_since(t0) > 60.0)) {
        stop();
        throw std::runtime_error("pvserve did not start; see " + log_path);
      }
      if (port_ == 0) std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
  }
  ~Daemon() { stop(); }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  std::uint16_t port() const { return port_; }
  int pid() const { return pid_; }

  void stop() {
    if (pid_ <= 0) return;
    ::kill(pid_, SIGTERM);
    const Clock::time_point t0 = Clock::now();
    int status = 0;
    while (::waitpid(pid_, &status, WNOHANG) == 0) {
      if (seconds_since(t0) > 20.0) {
        ::kill(pid_, SIGKILL);
        ::waitpid(pid_, &status, 0);
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    pid_ = -1;
  }

 private:
  int pid_ = -1;
  std::uint16_t port_ = 0;
};

/// One client connection (closed on destruction).
class Connection {
 public:
  explicit Connection(std::uint16_t port)
      : fd_(serve::connect_to("127.0.0.1", port)) {}
  ~Connection() { ::close(fd_); }
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  std::string call(const std::string& request) {
    serve::write_frame(fd_, request);
    std::string reply;
    if (!serve::read_frame(fd_, &reply))
      throw std::runtime_error("pvserve closed the connection");
    return reply;
  }

 private:
  int fd_;
};

/// One client: its session, the round's requests and their reference
/// replies.
struct Client {
  std::unique_ptr<Connection> conn;
  std::array<std::string, kOps> requests;
  std::array<std::string, kOps> reference;
};

std::string request(std::size_t op, const std::string& session,
                    const std::string& params) {
  return "{\"v\":1,\"id\":" + std::to_string(op + 1) + ",\"op\":\"" +
         kOpNames[op] + "\",\"session\":\"" + obs::json_escape(session) +
         "\"" + params + "}";
}

/// Opens a session and prepares the round; the reference is the second
/// round's replies, checked against a third.
Client open_client(std::uint16_t port, const std::string& db_path) {
  Client c;
  c.conn = std::make_unique<Connection>(port);
  const serve::JsonValue open = serve::JsonValue::parse(c.conn->call(
      "{\"v\":1,\"id\":0,\"op\":\"open\",\"path\":\"" +
      obs::json_escape(db_path) + "\"}"));
  if (!open.get_bool("ok", false))
    throw std::runtime_error("open failed: " + open.dump());
  const std::string session = open.get_string("session", "");
  std::uint64_t node = 0;
  for (const serve::JsonValue& row : open.find("rows")->items())
    if (row.get_bool("expandable", false)) {
      node = row.get_u64("id", 0);
      break;
    }
  std::uint64_t column = 0;
  for (const serve::JsonValue& col : open.find("columns")->items())
    if (col.get_string("name", "") == "PAPI_TOT_CYC (I)")
      column = col.get_u64("id", 0);
  if (node == 0) throw std::runtime_error("open: no expandable root row");
  const std::string n = ",\"node\":" + std::to_string(node);
  const std::string col = ",\"column\":" + std::to_string(column);
  c.requests = {request(0, session, n), request(1, session, col),
                request(2, session, col), request(3, session, n),
                request(4, session,
                        ",\"q\":\"match '**' order by cycles.excl desc "
                        "limit 20\"")};
  std::array<std::string, kOps> again;
  for (int round = 0; round < 3; ++round)
    for (std::size_t op = 0; op < kOps; ++op) {
      std::string reply = c.conn->call(c.requests[op]);
      if (round == 1) c.reference[op] = std::move(reply);
      if (round == 2) again[op] = std::move(reply);
    }
  for (std::size_t op = 0; op < kOps; ++op) {
    if (c.reference[op] != again[op] ||
        c.reference[op].find("\"ok\":true") == std::string::npos)
      throw std::runtime_error(std::string("reference reply for ") +
                               kOpNames[op] + " is not steady: " +
                               c.reference[op].substr(0, 200));
  }
  return c;
}

/// Rows a reply carries (navigation `rows`, query `result.rows`).
std::size_t rows_in(const std::string& reply) {
  const serve::JsonValue v = serve::JsonValue::parse(reply);
  const serve::JsonValue* rows = v.find("rows");
  if (rows == nullptr) {
    const serve::JsonValue* result = v.find("result");
    if (result != nullptr) rows = result->find("rows");
  }
  return rows == nullptr ? 0 : rows->items().size();
}

bool refused(const std::string& reply) {
  const serve::JsonValue v = serve::JsonValue::parse(reply);
  const serve::JsonValue* err = v.find("error");
  if (err == nullptr) return false;
  const std::string kind = err->get_string("kind", "");
  return kind == "overloaded" || kind == "rate_limited" || kind == "deadline";
}

struct PhaseResult {
  std::array<std::vector<double>, kOps> rtt_ms;
  std::vector<double> round_ms;  // one per completed round of kOps requests
  std::uint64_t requests = 0;
  std::uint64_t mismatched = 0;
  std::uint64_t refused = 0;
  double reply_bytes = 0.0;
  double seconds = 0.0;
};

/// Adds `part` to `into`.
void merge_into(PhaseResult& into, PhaseResult part) {
  for (std::size_t op = 0; op < kOps; ++op)
    into.rtt_ms[op].insert(into.rtt_ms[op].end(), part.rtt_ms[op].begin(),
                           part.rtt_ms[op].end());
  into.round_ms.insert(into.round_ms.end(), part.round_ms.begin(),
                       part.round_ms.end());
  into.requests += part.requests;
  into.mismatched += part.mismatched;
  into.refused += part.refused;
  into.reply_bytes += part.reply_bytes;
  into.seconds += part.seconds;
}

/// Runs every client in its own thread, closed loop, for `seconds`.
PhaseResult run_clients(std::vector<Client>& clients, double seconds) {
  std::vector<PhaseResult> per(clients.size());
  std::vector<std::string> errors(clients.size());
  const Clock::time_point t0 = Clock::now();
  std::vector<std::jthread> threads;  // joined on every path out
  for (std::size_t i = 0; i < clients.size(); ++i) {
    threads.emplace_back([&, i] {
      Client& c = clients[i];
      PhaseResult& r = per[i];
      try {
        while (seconds_since(t0) < seconds) {
          const Clock::time_point round0 = Clock::now();
          for (std::size_t op = 0; op < kOps; ++op) {
            const Clock::time_point s0 = Clock::now();
            std::string reply;
            {
              obs::Span span(kOpSpans[op]);
              reply = c.conn->call(c.requests[op]);
            }
            r.rtt_ms[op].push_back(seconds_since(s0) * 1e3);
            ++r.requests;
            r.reply_bytes += static_cast<double>(reply.size());
            if (reply != c.reference[op]) {
              ++r.mismatched;
              if (refused(reply)) ++r.refused;
            }
          }
          r.round_ms.push_back(seconds_since(round0) * 1e3);
        }
      } catch (const std::exception& e) {
        errors[i] = e.what();
      }
    });
  }
  threads.clear();
  const double seconds_run = seconds_since(t0);
  PhaseResult all;
  for (std::size_t i = 0; i < per.size(); ++i) {
    if (!errors[i].empty())
      throw std::runtime_error("client " + std::to_string(i) + ": " +
                               errors[i]);
    merge_into(all, std::move(per[i]));
  }
  all.seconds = seconds_run;
  return all;
}

std::vector<double> nav_rtts(const PhaseResult& p) {
  std::vector<double> v;
  for (std::size_t op = 0; op < kOps; ++op)
    if (op != kQueryOp) v.insert(v.end(), p.rtt_ms[op].begin(), p.rtt_ms[op].end());
  return v;
}

}  // namespace

void run_browse(const Args& args, Result& res) {
  const std::string db_path = args.work_dir + "/browse.pvdb";
  const std::string pvserve = args.self_dir + "/pvserve";
  std::unique_ptr<Daemon> daemon;
  std::vector<Client> clients;
  repeat_setup(res, kSetupReps, [&] {
    clients.clear();
    daemon.reset();
    {
      Simulated sim = simulate_divergent(args.seed, res, args.trace);
      const prof::CanonicalCct cct = prof::Pipeline().run(sim.raws, *sim.w.tree);
      db::save_binary(db::Experiment::capture(*sim.w.tree, cct, "browse", 64),
                      db_path);
    }
    daemon = std::make_unique<Daemon>(pvserve, args.work_dir + "/pvserve.log");
    for (std::size_t i = 0; i < kClients; ++i)
      clients.push_back(open_client(daemon->port(), db_path));
  });

  // A traced run measures in four slices, untraced / traced / traced /
  // untraced, so a drift in machine speed cancels out of the overhead.
  PhaseResult measured;
  std::uint64_t untraced_requests = 0, untraced_mismatched = 0;
  if (!args.trace) {
    measured = run_clients(clients, args.seconds);
  } else {
    PhaseResult plain;
    for (int slice = 0; slice < 4; ++slice) {
      const bool traced = slice == 1 || slice == 2;
      obs::set_enabled(traced);
      PhaseResult part = run_clients(clients, args.seconds / 4);
      obs::set_enabled(false);
      merge_into(traced ? measured : plain, std::move(part));
    }
    res.layer("obs.trace_overhead_frac",
              median(measured.round_ms) / median(plain.round_ms) - 1.0);
    untraced_requests = plain.requests;
    untraced_mismatched = plain.mismatched;
  }
  // Every request is one checked operation.
  res.attempted += measured.requests + untraced_requests;
  res.failed += measured.mismatched + untraced_mismatched;
  if (res.failed > 0)
    std::fprintf(stderr, "pvbench: %llu replies differ from the reference\n",
                 static_cast<unsigned long long>(res.failed));
  // Each closed-loop client completes kOps requests per round, so the
  // median round sets the request rate. (A count of requests per second
  // follows the slow tail of rounds and spread 31% between runs where the
  // median round spread 21%.)
  res.wait_p50_ms = median(measured.round_ms);
  res.ops_per_s = static_cast<double>(kClients * kOps) * 1e3 / res.wait_p50_ms;
  res.peak_rss_mb = peak_rss_mb(daemon->pid());

  const std::vector<double> nav = nav_rtts(measured);
  const std::vector<double>& query = measured.rtt_ms[kQueryOp];
  res.line("serve_rps", static_cast<double>(measured.requests) / measured.seconds,
           "1/s", measured.requests);
  res.line("nav_p50_ms", percentile(nav, 0.50), "ms", nav.size());
  res.line("nav_p99_ms", percentile(nav, 0.99), "ms", nav.size());
  res.line("query_p50_ms", percentile(query, 0.50), "ms", query.size());
  res.line("query_p99_ms", percentile(query, 0.99), "ms", query.size());
  res.line("peak_rss_mb (pvserve)", res.peak_rss_mb, "MB");

  if (args.trace) {
    Connection stats_conn(daemon->port());
    const serve::JsonValue stats = serve::JsonValue::parse(
        stats_conn.call("{\"v\":1,\"id\":1,\"op\":\"stats\"}"));
    const serve::JsonValue* ops = stats.find("ops");
    double rows = 0.0;
    for (std::size_t op = 0; op < kOps; ++op) {
      const std::string name = kOpNames[op];
      const serve::JsonValue* o = ops ? ops->find(name) : nullptr;
      const double rtt = median(measured.rtt_ms[op]);
      const double handler = o ? o->get_number("p50_us", 0.0) / 1e3 : 0.0;
      res.layer("serve.rtt_p50_ms." + name, rtt);
      res.layer("serve.handler_p50_ms." + name, handler);
      res.layer("serve.outside_handler_ms." + name, rtt - handler);
      rows += static_cast<double>(rows_in(clients[0].reference[op]));
    }
    res.layer("serve.reply_bytes_per_req",
              measured.reply_bytes / static_cast<double>(measured.requests));
    res.layer("serve.rows_encoded_per_req", rows / kOps);
    const serve::JsonValue* cache = stats.find("cache");
    const double hits = cache ? cache->get_number("hits", 0.0) : 0.0;
    const double misses = cache ? cache->get_number("misses", 0.0) : 0.0;
    res.layer("serve.cache_hit_ratio",
              hits + misses > 0 ? hits / (hits + misses) : 0.0);
    res.layer("serve.refused", static_cast<double>(measured.refused));
    res.layer("serve.peak_rss_mb", res.peak_rss_mb);
  }
  clients.clear();
  daemon.reset();
}

}  // namespace pvbench
