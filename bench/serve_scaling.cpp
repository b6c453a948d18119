// pvserve scaling harness: a 64-rank merged CCT behind the query server,
// measured on four axes the serving design must hold:
//   - proportional work: open + a handful of expands materializes and
//     encodes only the visible rows, never the whole CCT (counter gate);
//   - throughput: 16 concurrent clients, each navigating its own session
//     over its own connection, sustain >= 1k requests/second;
//   - bounded memory: the experiment cache's byte budget is respected as
//     distinct databases stream through it;
//   - determinism: the byte stream a client observes is identical for
//     --threads 1 and --threads 4;
//   - self-profiling overhead: the continuous profiler at its default
//     97 Hz costs <= 5% of request throughput, and every window it emits
//     is a clean experiment database that answers a serve.* hot-path
//     query;
//   - overload control: under a storm of expensive ops on a tiny queue,
//     cheap ops keep answering (p99 <= 100 ms), every shed refusal
//     carries retry_after_ms, and with no storm the admission machinery
//     costs <= 5% of request throughput.
// Writes BENCH_serve_scaling.json with the measurements + obs counters.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <string>
#include <thread>
#include <unistd.h>
#include <vector>

#include "bench_util.hpp"
#include "pathview/db/experiment.hpp"
#include "pathview/metrics/attribution.hpp"
#include "pathview/query/plan.hpp"
#include "pathview/support/error.hpp"
#include "pathview/prof/pipeline.hpp"
#include "pathview/serve/server.hpp"
#include "pathview/workloads/registry.hpp"

using namespace pathview;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// One framed request/response round trip on an open client socket.
std::string roundtrip(int fd, const std::string& req) {
  serve::write_frame(fd, req);
  std::string reply;
  if (!serve::read_frame(fd, &reply))
    throw Error("server closed the connection mid-benchmark");
  return reply;
}

std::int64_t counter(const obs::TraceSnapshot& snap, const std::string& name) {
  for (const auto& [k, v] : snap.counters)
    if (k == name) return v;
  return 0;
}

/// The fixed navigation script each throughput client loops over.
std::vector<std::string> session_script(const std::string& sid) {
  return {
      R"({"v":1,"id":1,"op":"expand","session":")" + sid + R"(","node":1})",
      R"({"v":1,"id":2,"op":"sort","session":")" + sid +
          R"(","column":0})",
      R"({"v":1,"id":3,"op":"collapse","session":")" + sid +
          R"(","node":1})",
      R"({"v":1,"id":4,"op":"hot_path","session":")" + sid + R"("})",
  };
}

std::string extract_sid(const std::string& open_reply) {
  const std::size_t at = open_reply.find("\"session\":\"");
  if (at == std::string::npos) throw Error("open failed: " + open_reply);
  const std::size_t start = at + 11;
  return open_reply.substr(start, open_reply.find('"', start) - start);
}

}  // namespace

int main(int argc, char** argv) {
  obs::set_enabled(true);
  constexpr std::uint32_t kRanks = 64;
  constexpr int kClients = 16;

  bench::Report rep("pvserve: concurrent profile query serving",
                    bench::meta_from_args(argc, argv, "serve_scaling"));
  rep.config("workload", "subsurface");
  rep.config("ranks", static_cast<double>(kRanks));
  rep.config("clients", static_cast<double>(kClients));
  rep.info("ranks", kRanks);
  rep.info("clients", kClients);

  // --- phase 0: the telemetry hot path is nearly free ----------------------
  // Every request does one histogram add + two counter adds; the whole
  // budget for that is 50 ns. Each sample times 2^20 adds on a warm
  // histogram; the gate judges the median of 7 samples, so one sample
  // slowed by a neighbour on a shared host does not decide it.
  {
    obs::Histogram& h = obs::histogram("bench.histogram.add");
    for (std::uint64_t i = 0; i < 10000; ++i) h.add(i);  // warm up
    constexpr std::uint64_t kAdds = 1u << 20;
    constexpr int kSamples = 7;
    std::vector<double> ns_per_add;
    for (int s = 0; s < kSamples; ++s) {
      const Clock::time_point t0 = Clock::now();
      for (std::uint64_t i = 0; i < kAdds; ++i) h.add(i & 0xffff);
      ns_per_add.push_back(seconds_since(t0) * 1e9 /
                           static_cast<double>(kAdds));
    }
    std::sort(ns_per_add.begin(), ns_per_add.end());
    const double median = ns_per_add[kSamples / 2];
    rep.info("histogram add, min of 7 [ns]", ns_per_add.front());
    rep.info("histogram add, median of 7 [ns]", median);
    rep.info("histogram add, max of 7 [ns]", ns_per_add.back());
    rep.gate_max("histogram hot path <= 50 ns/add (median of 7)", median,
                 50.0);
  }

  // --- build the 64-rank merged experiment once, on disk -------------------
  const std::string dir = "/tmp/pathview_serve_bench";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const workloads::Workload w = workloads::make_workload("subsurface", kRanks);
  const std::vector<sim::RawProfile> raws =
      workloads::profile_workload(w, kRanks);
  const prof::CanonicalCct merged = prof::Pipeline().run(raws, *w.tree);
  const db::Experiment exp =
      db::Experiment::capture(*w.tree, merged, "serve-bench", kRanks);
  const std::string db_path = dir + "/exp.pvdb";
  db::save_binary(exp, db_path);
  rep.info("merged CCT nodes", static_cast<double>(merged.size()));

  // --- phase 1: expand work is proportional to visible rows ----------------
  {
    serve::Server::Options opts;
    opts.threads = 2;
    serve::Server server(opts);
    server.start();
    obs::reset();
    const int fd = serve::connect_to("127.0.0.1", server.port());
    const std::string sid = extract_sid(roundtrip(
        fd, R"({"v":1,"id":1,"op":"open","path":")" + db_path + R"("})"));
    for (const std::string& req : session_script(sid)) roundtrip(fd, req);
    ::close(fd);
    const obs::TraceSnapshot snap = obs::snapshot();
    const double materialized =
        static_cast<double>(counter(snap, "serve.nodes_materialized"));
    const double encoded =
        static_cast<double>(counter(snap, "serve.rows_encoded"));
    rep.info("nodes materialized by open+script", materialized);
    rep.info("rows encoded by open+script", encoded);
    // Every materialized node was returned as a row at most once, and the
    // session never touched more than a sliver of the full CCT.
    rep.row("lazy expansion: materialized <= rows encoded", 1,
            materialized <= encoded ? 1 : 0, 0);
    rep.row("lazy expansion: touched < 25% of the CCT", 1,
            materialized < 0.25 * static_cast<double>(merged.size()) ? 1 : 0,
            0);
    server.stop();
  }

  // --- phase 2: throughput with 16 concurrent clients ----------------------
  // Run the identical 16-client navigation storm twice: once with the
  // continuous profiler off, once in the production configuration (97 Hz +
  // window writes). The second run carries the paper-facing latency gates;
  // the pair yields the self-profiling overhead gate.
  struct ThroughputResult {
    double rps = 0;
    double p50_us = 0;
    double p99_us = 0;
  };
  const auto run_throughput = [&](serve::Server::Options opts) {
    serve::Server server(opts);
    server.start();
    // Each client opens its own session first (setup, untimed)...
    std::vector<int> fds(kClients);
    std::vector<std::string> sids(kClients);
    for (int c = 0; c < kClients; ++c) {
      fds[c] = serve::connect_to("127.0.0.1", server.port());
      sids[c] = extract_sid(roundtrip(
          fds[c],
          R"({"v":1,"id":1,"op":"open","path":")" + db_path + R"("})"));
    }
    // ...then all clients hammer the navigation script concurrently, each
    // recording every round trip's latency for the percentile gates.
    constexpr int kRounds = 200;
    std::atomic<std::uint64_t> completed{0};
    std::vector<std::vector<double>> latencies_us(kClients);
    std::vector<std::thread> clients;
    const Clock::time_point t0 = Clock::now();
    for (int c = 0; c < kClients; ++c) {
      clients.emplace_back([&, c] {
        const std::vector<std::string> script = session_script(sids[c]);
        latencies_us[c].reserve(kRounds * script.size());
        for (int r = 0; r < kRounds; ++r)
          for (const std::string& req : script) {
            const Clock::time_point s = Clock::now();
            roundtrip(fds[c], req);
            latencies_us[c].push_back(seconds_since(s) * 1e6);
            completed.fetch_add(1, std::memory_order_relaxed);
          }
      });
    }
    for (std::thread& t : clients) t.join();
    const double elapsed = seconds_since(t0);
    for (int fd : fds) ::close(fd);

    std::vector<double> all;
    for (const auto& v : latencies_us) all.insert(all.end(), v.begin(),
                                                  v.end());
    std::sort(all.begin(), all.end());
    const auto pct = [&](double q) {
      return all[std::min(all.size() - 1,
                          static_cast<std::size_t>(q * all.size()))];
    };
    server.stop();
    return ThroughputResult{static_cast<double>(completed.load()) / elapsed,
                            pct(0.50), pct(0.99)};
  };

  const std::string prof_dir = dir + "/self_profile_ring";
  {
    serve::Server::Options off_opts;
    off_opts.threads = 0;  // all hardware threads
    off_opts.self_profile_hz = 0;
    const ThroughputResult off = run_throughput(off_opts);

    serve::Server::Options on_opts;
    on_opts.threads = 0;
    on_opts.self_profile_hz = 97.0;  // the pvserve default
    on_opts.self_profile_interval_ms = 250;
    on_opts.self_profile_dir = prof_dir;
    on_opts.self_profile_retain = 8;
    const ThroughputResult on = run_throughput(on_opts);

    rep.info("throughput, profiler off [req/s]", off.rps);
    rep.info("throughput, profiler on [req/s]", on.rps);
    rep.info("latency p50, profiler on [us]", on.p50_us);
    rep.info("latency p99, profiler on [us]", on.p99_us);
    const double overhead_pct =
        off.rps > 0 ? std::max(0.0, (1.0 - on.rps / off.rps) * 100.0) : 0.0;
    rep.info("continuous profiling overhead [%]", overhead_pct);
    rep.row("16 clients sustain >= 1k req/s (profiling on)", 1,
            on.rps >= 1000.0 ? 1 : 0, 0);
    // Round-trip latency ceilings under full 16-way concurrency (localhost,
    // so this is serving cost + queueing, not network) — measured with the
    // profiler on, because that is how pvserve ships.
    rep.gate_max("latency p50 <= 25 ms (profiling on)", on.p50_us / 1000.0,
                 25.0);
    rep.gate_max("latency p99 <= 100 ms (profiling on)", on.p99_us / 1000.0,
                 100.0);
    // The tentpole's cost contract: always-on profiling may not tax request
    // throughput by more than 5%.
    rep.row("profiling overhead <= 5% of req/s", 1,
            on.rps >= 0.95 * off.rps ? 1 : 0, 0);
  }

  // --- phase 2b: the emitted windows are real experiment databases ---------
  {
    std::vector<std::string> windows;
    if (std::filesystem::exists(prof_dir))
      for (const auto& e : std::filesystem::directory_iterator(prof_dir))
        windows.push_back(e.path().string());
    std::sort(windows.begin(), windows.end());
    rep.info("profile windows written", static_cast<double>(windows.size()));
    rep.row("profiler run left >= 1 window on disk", 1,
            windows.empty() ? 0 : 1, 0);
    if (!windows.empty()) {
      const db::Experiment wexp = db::load_binary(windows.back());
      rep.row("window loads clean (not degraded)", 1,
              wexp.degraded() ? 0 : 1, 0);
      metrics::Attribution attr =
          metrics::attribute_metrics(wexp.cct(), metrics::all_events());
      const query::QueryResult qr = query::run(
          "match '**/serve.*' order by PAPI_TOT_INS.excl desc limit 10",
          wexp.cct(), attr.table);
      rep.info("serve.* paths in the newest window",
               static_cast<double>(qr.rows.size()));
      rep.row("window answers the serve.* hot-path query", 1,
              qr.rows.empty() ? 0 : 1, 0);
    }
  }

  // --- phase 3: the cache byte budget bounds resident bytes ----------------
  {
    // Six distinct databases through a cache sized for about three: the
    // budget must hold as entries stream through (shards=1 so the whole
    // budget is one LRU).
    const std::size_t entry_bytes =
        serve::estimate_experiment_bytes(exp, /*with_attribution=*/true);
    serve::Server::Options opts;
    opts.threads = 1;
    opts.sessions.cache.byte_budget = 3 * entry_bytes + entry_bytes / 2;
    opts.sessions.cache.shards = 1;
    serve::Server server(opts);
    server.start();
    const int fd = serve::connect_to("127.0.0.1", server.port());
    std::size_t worst = 0;
    for (int i = 0; i < 6; ++i) {
      const std::string copy =
          dir + "/copy" + std::to_string(i) + ".pvdb";
      std::filesystem::copy_file(db_path, copy);
      const std::string sid = extract_sid(roundtrip(
          fd, R"({"v":1,"id":1,"op":"open","path":")" + copy + R"("})"));
      // Close immediately: only the cache holds the experiment now.
      roundtrip(fd,
                R"({"v":1,"id":2,"op":"close","session":")" + sid + R"("})");
      worst = std::max(worst,
                       server.sessions().cache().stats().resident_bytes);
    }
    ::close(fd);
    rep.info("cache budget [bytes]",
             static_cast<double>(opts.sessions.cache.byte_budget));
    rep.info("worst resident [bytes]", static_cast<double>(worst));
    rep.info("evictions",
             static_cast<double>(server.sessions().cache().stats().evictions));
    rep.row("cache stays within its byte budget", 1,
            worst <= opts.sessions.cache.byte_budget ? 1 : 0, 0);
    server.stop();
  }

  // --- phase 4: responses byte-identical across --threads ------------------
  {
    std::vector<std::string> streams;
    for (const std::size_t threads : {1u, 4u}) {
      serve::Server::Options opts;
      opts.threads = threads;
      serve::Server server(opts);
      server.start();
      const int fd = serve::connect_to("127.0.0.1", server.port());
      std::string stream;
      stream += roundtrip(
          fd, R"({"v":1,"id":1,"op":"open","path":")" + db_path + R"("})");
      for (const std::string& req : session_script("s1"))
        stream += roundtrip(fd, req);
      stream += roundtrip(
          fd, R"({"v":1,"id":9,"op":"close","session":"s1"})");
      ::close(fd);
      server.stop();
      streams.push_back(std::move(stream));
    }
    rep.row("byte-identical streams for threads=1 vs 4", 1,
            streams[0] == streams[1] ? 1 : 0, 0);
  }

  // --- phase 5: adaptive overload control under an expensive-op storm ------
  {
    // A deliberately tiny queue behind one worker: six connections spinning
    // on expensive opens drive the depth over the brownout high-water mark,
    // while a seventh client keeps pinging. The contract: cheap ops stay
    // responsive, every refusal is typed and carries a retry hint, and the
    // server never wavers.
    serve::Server::Options opts;
    opts.threads = 1;
    opts.queue_capacity = 4;
    serve::Server server(opts);
    server.start();

    const int cheap_fd = serve::connect_to("127.0.0.1", server.port());
    roundtrip(cheap_fd,
              R"({"v":1,"id":1,"op":"open","path":")" + db_path + R"("})");

    constexpr int kStormConns = 6;
    std::atomic<bool> stop{false};
    std::atomic<std::uint64_t> refused{0};
    std::atomic<std::uint64_t> refused_with_hint{0};
    std::vector<std::thread> storm;
    for (int s = 0; s < kStormConns; ++s) {
      storm.emplace_back([&] {
        const int fd = serve::connect_to("127.0.0.1", server.port());
        const std::string req =
            R"({"v":1,"id":7,"op":"open","path":")" + db_path + R"("})";
        while (!stop.load(std::memory_order_relaxed)) {
          const std::string reply = roundtrip(fd, req);
          if (reply.find("\"overloaded\"") != std::string::npos) {
            refused.fetch_add(1, std::memory_order_relaxed);
            if (reply.find("\"retry_after_ms\":") != std::string::npos)
              refused_with_hint.fetch_add(1, std::memory_order_relaxed);
          } else if (reply.find("\"ok\":true") != std::string::npos) {
            // Close what we opened: keeps the session census flat, so every
            // refusal the storm collects is genuine overload shedding and
            // not the (hint-less) session-limit ceiling.
            roundtrip(fd, R"({"v":1,"id":8,"op":"close","session":")" +
                              extract_sid(reply) + R"("})");
          }
        }
        ::close(fd);
      });
    }

    std::vector<double> ping_us;
    std::uint64_t pongs = 0;
    for (int i = 0; i < 300; ++i) {
      const Clock::time_point t = Clock::now();
      const std::string reply =
          roundtrip(cheap_fd, R"({"v":1,"id":2,"op":"ping"})");
      ping_us.push_back(seconds_since(t) * 1e6);
      if (reply.find("\"ok\":true") != std::string::npos) ++pongs;
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    stop.store(true);
    for (std::thread& t : storm) t.join();
    ::close(cheap_fd);

    std::sort(ping_us.begin(), ping_us.end());
    const double p99_us =
        ping_us[std::min(ping_us.size() - 1,
                         static_cast<std::size_t>(0.99 * ping_us.size()))];
    rep.info("cheap-op p99 during storm [us]", p99_us);
    rep.info("cheap pings answered ok during storm",
             static_cast<double>(pongs));
    rep.info("expensive ops refused during storm",
             static_cast<double>(refused.load()));
    rep.info("brownouts entered",
             static_cast<double>(server.overload().brownouts_entered()));
    rep.info("requests shed by brownout",
             static_cast<double>(server.overload().shed_requests()));
    rep.gate_max("cheap-op p99 under storm <= 100 ms", p99_us / 1000.0,
                 100.0);
    rep.row("cheap ops answered through the storm", 1, pongs > 0 ? 1 : 0, 0);
    rep.row("storm refused at least one expensive op", 1,
            refused.load() > 0 ? 1 : 0, 0);
    rep.row("every refusal carries retry_after_ms", 1,
            refused_with_hint.load() == refused.load() ? 1 : 0, 0);
    rep.row("server survived the storm (zero crashes)", 1,
            server.running() ? 1 : 0, 0);
    server.stop();
  }

  // --- phase 5b: the admission machinery is nearly free when idle ----------
  // The same 16-client navigation storm as phase 2, with the overload
  // machinery fully disabled vs fully armed (brownout + per-peer token
  // buckets at a rate that never binds). Arming may not tax throughput by
  // more than 5%.
  {
    serve::Server::Options bare;
    bare.threads = 0;
    bare.self_profile_hz = 0;
    bare.overload.brownout = false;

    serve::Server::Options armed = bare;
    armed.overload.brownout = true;
    armed.overload.rate_limit_rps = 1e9;  // exercised, never binding

    // Alternate the configurations and keep each one's best run: a single
    // pair of runs confounds the admission cost with scheduler noise,
    // which on a small box dwarfs the effect being measured.
    double off_rps = 0, on_rps = 0;
    for (int round = 0; round < 3; ++round) {
      off_rps = std::max(off_rps, run_throughput(bare).rps);
      on_rps = std::max(on_rps, run_throughput(armed).rps);
    }
    rep.info("throughput, overload control off [req/s]", off_rps);
    rep.info("throughput, overload control armed [req/s]", on_rps);
    rep.row("overload control costs <= 5% of req/s", 1,
            on_rps >= 0.95 * off_rps ? 1 : 0, 0);
  }

  std::filesystem::remove_all(dir);
  rep.write_json("BENCH_serve_scaling.json");
  return rep.exit_code();
}
