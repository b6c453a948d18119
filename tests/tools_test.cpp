// Tests for the tool-facing surfaces: measurement files, the workload
// registry, the structure-tree dump, and the CLI binaries themselves
// (observability flags, the trace capture pipeline).
#include <gtest/gtest.h>

#include <csignal>
#include <sys/wait.h>

#include <chrono>
#include <thread>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "pathview/db/experiment.hpp"
#include "pathview/db/measurement.hpp"
#include "pathview/db/trace.hpp"
#include "pathview/prof/correlate.hpp"
#include "pathview/sim/engine.hpp"
#include "pathview/structure/dump.hpp"
#include "pathview/support/error.hpp"
#include "pathview/support/prng.hpp"
#include "pathview/workloads/random_program.hpp"
#include "pathview/workloads/registry.hpp"
#include "json_util.hpp"

namespace pathview {
namespace {

using model::Event;

void expect_same_cells(const sim::RawProfile& a, const sim::RawProfile& b) {
  const auto ca = a.cells();
  const auto cb = b.cells();
  ASSERT_EQ(ca.size(), cb.size());
  for (std::size_t i = 0; i < ca.size(); ++i) {
    EXPECT_EQ(ca[i].node, cb[i].node);
    EXPECT_EQ(ca[i].leaf, cb[i].leaf);
    for (std::size_t e = 0; e < model::kNumEvents; ++e)
      EXPECT_EQ(ca[i].counts.v[e], cb[i].counts.v[e]);
  }
}

TEST(Measurement, RoundTripsProfile) {
  workloads::Workload w = workloads::make_random_program({.seed = 7});
  sim::ExecutionEngine eng(*w.program, *w.lowering, w.run);
  const sim::RawProfile raw = eng.run();
  const sim::RawProfile back =
      db::measurement_from_bytes(db::measurement_to_bytes(raw));
  EXPECT_EQ(back.rank, raw.rank);
  EXPECT_EQ(back.nodes().size(), raw.nodes().size());
  expect_same_cells(raw, back);
  // Correlation over the loaded profile matches the original.
  const prof::CanonicalCct a = prof::correlate(raw, *w.tree);
  const prof::CanonicalCct b = prof::correlate(back, *w.tree);
  EXPECT_EQ(a.size(), b.size());
  EXPECT_EQ(a.totals()[Event::kCycles], b.totals()[Event::kCycles]);
}

TEST(Measurement, RejectsCorruption) {
  workloads::Workload w = workloads::make_random_program({.seed = 8});
  sim::ExecutionEngine eng(*w.program, *w.lowering, w.run);
  const std::string bytes = db::measurement_to_bytes(eng.run());
  EXPECT_THROW(db::measurement_from_bytes("XXXX"), ParseError);
  EXPECT_THROW(db::measurement_from_bytes(bytes.substr(0, bytes.size() / 2)),
               ParseError);
  EXPECT_THROW(db::measurement_from_bytes(bytes + "z"), ParseError);
}

TEST(Measurement, ReencodesDecodedBytesExactly) {
  workloads::Workload w = workloads::make_random_program({.seed = 9});
  sim::ExecutionEngine eng(*w.program, *w.lowering, w.run);
  const sim::RawProfile raw = eng.run();
  const std::string bytes = db::measurement_to_bytes(raw);
  const sim::RawProfile back = db::measurement_from_bytes(bytes);
  EXPECT_EQ(db::measurement_to_bytes(back), bytes);
  // Decoded cells are stored in file order, which is key order.
  const auto cells = back.cells();
  ASSERT_GT(cells.size(), 1u);
  for (std::size_t i = 1; i < cells.size(); ++i)
    EXPECT_TRUE(cells[i - 1].node < cells[i].node ||
                (cells[i - 1].node == cells[i].node &&
                 cells[i - 1].leaf < cells[i].leaf))
        << i;
  expect_same_cells(raw, back);
}

void put_varint(std::string& out, std::uint64_t v) {
  while (v >= 0x80) {
    out += static_cast<char>((v & 0x7f) | 0x80);
    v >>= 7;
  }
  out += static_cast<char>(v);
}

/// Magic, rank 0, thread 0, then a node count of `nnodes`.
std::string header_with_node_count(std::uint64_t nnodes) {
  std::string b = "PVMS1\n";
  put_varint(b, 0);
  put_varint(b, 0);
  put_varint(b, nnodes);
  return b;
}

/// measurement_from_bytes(bytes) throws a ParseError whose message names
/// `why`.
void expect_parse_error(const std::string& bytes, const std::string& why) {
  try {
    db::measurement_from_bytes(bytes);
    ADD_FAILURE() << "decoded without error";
  } catch (const ParseError& e) {
    EXPECT_NE(std::string(e.what()).find(why), std::string::npos) << e.what();
  }
}

TEST(Measurement, RejectsNodeCountsBeyondTheInput) {
  // 2^64-1 used to wrap the node map's size to 0 and write past it; 2^33
  // and 2^40 used to throw std::bad_alloc, which salvage cannot drop. Each
  // count is now refused before anything is sized from it — so is a
  // modest one that merely exceeds the remaining bytes (3 per node).
  for (const std::uint64_t n : {~0ull, 1ull << 33, 1ull << 40, 22ull}) {
    SCOPED_TRACE(n);
    std::string b = header_with_node_count(n);
    b.append(64, '\x01');
    expect_parse_error(b, "node count exceeds the input");
  }
}

TEST(Measurement, RejectsCellCountsBeyondTheInput) {
  for (const std::uint64_t n : {~0ull, 1ull << 40, 11ull}) {
    SCOPED_TRACE(n);
    std::string b = header_with_node_count(0);
    put_varint(b, n);
    b.append(32, '\x00');
    expect_parse_error(b, "cell count exceeds the input");
  }
}

/// Seeded mutations of a real profile — bit flips, truncations and varint
/// splices (a random or boundary value written over a random span) — must
/// each decode to a valid profile or throw ParseError, never anything else.
TEST(Measurement, MutatedBytesDecodeOrThrowParseError) {
  workloads::Workload w =
      workloads::make_random_program({.seed = 8, .num_procs = 4});
  sim::ExecutionEngine eng(*w.program, *w.lowering, w.run);
  const std::string good = db::measurement_to_bytes(eng.run());
  const std::uint64_t boundary[] = {~0ull,         1ull << 32,
                                    (1ull << 32) - 1, 1ull << 33,
                                    1ull << 40,    127,
                                    128,           0};
  Prng rng(0x5eed);
  std::size_t valid = 0, rejected = 0;
  for (int i = 0; i < 3000; ++i) {
    std::string b = good;
    switch (i % 3) {
      case 0:
        for (std::uint64_t k = 1 + rng.next_below(4); k-- > 0;)
          b[rng.next_below(b.size())] ^=
              static_cast<char>(1u << rng.next_below(8));
        break;
      case 1:
        b.resize(rng.next_below(b.size()));
        break;
      default: {
        std::string v;
        put_varint(v, rng.next_bool(0.5)
                          ? boundary[rng.next_below(8)]
                          : rng.next_u64() >> rng.next_below(64));
        const std::size_t at = rng.next_below(b.size());
        const std::size_t span =
            std::min<std::size_t>(1 + rng.next_below(9), b.size() - at);
        b.replace(at, span, v);
      }
    }
    try {
      const sim::RawProfile raw = db::measurement_from_bytes(b);
      const auto& nodes = raw.nodes();
      for (sim::NodeIndex n = 1; n < nodes.size(); ++n)
        ASSERT_LT(nodes[n].parent, n) << "case " << i;
      for (const auto& cell : raw.cells())
        ASSERT_LT(cell.node, nodes.size()) << "case " << i;
      // A valid profile re-encodes to bytes that decode again.
      db::measurement_from_bytes(db::measurement_to_bytes(raw));
      ++valid;
    } catch (const ParseError&) {
      ++rejected;
    }
  }
  EXPECT_GT(valid, 0u);
  EXPECT_GT(rejected, 0u);
}

TEST(Measurement, DirectorySaveAndLoad) {
  const std::string dir = "/tmp/pathview_meas_test";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);

  workloads::Workload w = workloads::make_workload("subsurface", 3);
  const auto ranks = workloads::profile_workload(w, 3);
  db::save_measurements(ranks, dir);
  const auto back = db::load_measurements(dir);
  ASSERT_EQ(back.size(), 3u);
  for (std::uint32_t r = 0; r < 3; ++r) {
    EXPECT_EQ(back[r].rank, r);
    expect_same_cells(ranks[r], back[r]);
  }
  std::filesystem::remove_all(dir);
  EXPECT_THROW(db::load_measurements(dir), InvalidArgument);
}

TEST(Registry, AllWorkloadsInstantiateAndProfile) {
  for (const auto& wl : workloads::list_workloads()) {
    SCOPED_TRACE(wl.name);
    workloads::Workload w = workloads::make_workload(wl.name, 2, 42);
    ASSERT_NE(w.program, nullptr);
    ASSERT_NE(w.tree, nullptr);
    const auto profiles = workloads::profile_workload(w, 1);
    ASSERT_EQ(profiles.size(), 1u);
    EXPECT_GT(profiles[0].totals()[Event::kCycles], 0.0)
        << wl.name << " produced an empty profile";
  }
}

TEST(Registry, UnknownNameThrows) {
  EXPECT_THROW(workloads::make_workload("nope"), InvalidArgument);
}

// --- driving the CLI binaries -----------------------------------------------

/// Fixture running the actual tool executables (PATHVIEW_TOOL_DIR is baked
/// in by CMake) inside a scratch directory.
class ToolCliTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Unique per test: ctest runs these cases as parallel processes, and a
    // shared scratch directory would be remove_all'd under a sibling's feet.
    dir_ = std::string("/tmp/pathview_tools_cli_") +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  static std::string tool(const std::string& name) {
    return std::string(PATHVIEW_TOOL_DIR) + "/" + name;
  }
  std::string out(const std::string& name) const { return dir_ + "/" + name; }

  /// Run a shell command; returns its exit status (stdout/stderr to `log`).
  int run(const std::string& cmd) const {
    const int rc =
        std::system((cmd + " > " + out("log") + " 2>&1").c_str());
    return rc == -1 ? -1 : WEXITSTATUS(rc);
  }

  std::string slurp(const std::string& p) const {
    std::ifstream in(p, std::ios::binary);
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
  }

  std::string dir_;
};

TEST_F(ToolCliTest, EveryToolWritesParseableChromeTrace) {
  ASSERT_EQ(run(tool("pvprof") + " paper -o " + out("exp.pvdb")), 0);
  const std::vector<std::pair<std::string, std::string>> cmds = {
      {"pvrun", tool("pvrun") + " paper --top 3"},
      {"pvstruct", tool("pvstruct") + " paper --max 20"},
      {"pvprof", tool("pvprof") + " paper -o " + out("exp2.pvdb")},
      {"pvviewer",
       "printf 'quit\\n' | " + tool("pvviewer") + " " + out("exp.pvdb")},
      {"pvdiff", tool("pvdiff") + " " + out("exp.pvdb") + " " +
                     out("exp2.pvdb") + " --top 3"},
  };
  for (const auto& [name, cmd] : cmds) {
    SCOPED_TRACE(name);
    const std::string json_path = out(name + ".trace.json");
    ASSERT_EQ(run(cmd + " --trace " + json_path), 0) << slurp(out("log"));
    const std::string json = slurp(json_path);
    ASSERT_FALSE(json.empty());
    EXPECT_TRUE(testutil::valid_json(json)) << json.substr(0, 400);
    EXPECT_NE(json.find(name + ".run"), std::string::npos);
  }
}

TEST_F(ToolCliTest, SelfProfileDatabasesOpenInTheViewerStack) {
  ASSERT_EQ(run(tool("pvrun") + " paper --top 3 --self-profile " +
                out("sp.pvdb")),
            0)
      << slurp(out("log"));
  const db::Experiment sp = db::load_binary(out("sp.pvdb"));
  EXPECT_EQ(sp.name(), "pvrun-self");
  bool found = false;
  for (prof::CctNodeId id = 0; id < sp.cct().size(); ++id)
    if (sp.cct().label(id) == "pvrun.run") found = true;
  EXPECT_TRUE(found) << "self-profile lost the tool's root span";
}

TEST_F(ToolCliTest, TraceCapturePipelineEndToEnd) {
  // pvrun captures raw traces next to the measurements...
  ASSERT_EQ(run(tool("pvrun") + " subsurface --ranks 2 -o " + out("meas") +
                " --trace-events"),
            0)
      << slurp(out("log"));
  EXPECT_TRUE(std::filesystem::exists(db::raw_trace_path(out("meas"), 0)));
  EXPECT_TRUE(std::filesystem::exists(db::raw_trace_path(out("meas"), 1)));

  // ...pvprof converts them to canonical traces next to the database...
  ASSERT_EQ(run(tool("pvprof") + " subsurface --ranks 2 --measurements " +
                out("meas") + " -o " + out("exp.pvdb") +
                " --trace-events --trace " + out("obs.json")),
            0)
      << slurp(out("log"));
  const std::string tdir = db::trace_dir_for(out("exp.pvdb"));
  const auto traces = db::open_traces(tdir);
  ASSERT_EQ(traces.size(), 2u);
  EXPECT_GT(traces[0]->size(), 0u);

  // ...the tool's own observability saw the trace subsystem at work...
  const std::string obs_json = slurp(out("obs.json"));
  EXPECT_TRUE(testutil::valid_json(obs_json));
  EXPECT_NE(obs_json.find("trace.records_written"), std::string::npos);
  EXPECT_NE(obs_json.find("trace.resolve.map_rank"), std::string::npos);

  // ...and pvtrace renders a timeline from the pair.
  ASSERT_EQ(run(tool("pvtrace") + " " + out("exp.pvdb") +
                " --width 32 --depth 2 --stats --phases --svg " +
                out("t.svg")),
            0)
      << slurp(out("log"));
  const std::string text = slurp(out("log"));
  EXPECT_NE(text.find("timeline"), std::string::npos);
  EXPECT_NE(text.find("rank 0001"), std::string::npos);
  EXPECT_NE(text.find("load imbalance"), std::string::npos);
  EXPECT_NE(text.find("phase 0"), std::string::npos);
  EXPECT_NE(slurp(out("t.svg")).find("<svg "), std::string::npos);
}

TEST_F(ToolCliTest, PvtraceTimelineIsIdenticalAcrossThreadCounts) {
  std::vector<std::string> renders;
  for (const char* threads : {"1", "4"}) {
    const std::string exp = out(std::string("exp") + threads + ".pvdb");
    ASSERT_EQ(run(tool("pvprof") + " subsurface --ranks 4 -o " + exp +
                  " --trace-events --threads " + threads),
              0)
        << slurp(out("log"));
    ASSERT_EQ(run(tool("pvtrace") + " " + exp + " --width 48 --depth 3"), 0);
    renders.push_back(slurp(out("log")));
  }
  ASSERT_EQ(renders.size(), 2u);
  EXPECT_EQ(renders[0], renders[1]);
}

// --- pvserve end-to-end ------------------------------------------------------

/// Daemon-driving helpers on top of the CLI fixture: start pvserve on an
/// ephemeral port, script it with --client, and stop it with a signal.
class PvserveCliTest : public ToolCliTest {
 protected:
  void TearDown() override {
    if (pid_ > 0) {
      ::kill(pid_, SIGKILL);  // only if the test failed to stop it
      wait_exit(2.0);
    }
    ToolCliTest::TearDown();
  }

  /// Launch the daemon; returns the bound port after parsing the listening
  /// line from its log.
  int start_daemon(const std::string& extra_flags = "") {
    const std::string log = out("serve.log");
    const std::string cmd = tool("pvserve") + " --port 0 " + extra_flags +
                            " > " + log + " 2>&1 & echo $! > " +
                            out("serve.pid");
    if (std::system(cmd.c_str()) != 0) return -1;
    pid_ = std::stoi(slurp(out("serve.pid")));
    for (int i = 0; i < 100; ++i) {
      const std::string text = slurp(log);
      const std::size_t at = text.find("listening on 127.0.0.1:");
      if (at != std::string::npos)
        return std::stoi(text.substr(at + 23));
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
    return -1;
  }

  /// One --client round trip; returns the reply line. A daemon refusal
  /// (ok:false reply) exits 2 — callers sending bad requests on purpose
  /// pass expect_rc = 2 (the documented protocol-error exit code).
  std::string request(int port, const std::string& body, int expect_rc = 0) {
    const int rc = run(tool("pvserve") + " --client --port " +
                       std::to_string(port) + " --request '" + body + "'");
    EXPECT_EQ(rc, expect_rc) << slurp(out("log"));
    std::string reply = slurp(out("log"));
    while (!reply.empty() && (reply.back() == '\n' || reply.back() == '\r'))
      reply.pop_back();
    return reply;
  }

  /// True once the daemon process is gone.
  bool wait_exit(double seconds) {
    for (int i = 0; i < static_cast<int>(seconds * 20); ++i) {
      if (::kill(pid_, 0) != 0) {
        pid_ = -1;
        return true;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
    return false;
  }

  pid_t pid_ = -1;
};

TEST_F(PvserveCliTest, SessionLifecycleOverTheWire) {
  ASSERT_EQ(run(tool("pvprof") + " subsurface --ranks 4 -o " +
                out("exp.pvdb") + " --trace-events"),
            0)
      << slurp(out("log"));
  const int port = start_daemon();
  ASSERT_GT(port, 0) << slurp(out("serve.log"));

  EXPECT_NE(request(port, R"({"v":1,"id":1,"op":"ping"})")
                .find("\"ok\":true"),
            std::string::npos);

  // open -> the first session is s1 and carries the root's rows.
  const std::string opened = request(
      port, R"({"v":1,"id":2,"op":"open","path":")" + out("exp.pvdb") +
                R"("})");
  EXPECT_NE(opened.find("\"session\":\"s1\""), std::string::npos) << opened;
  EXPECT_NE(opened.find("\"rows\":["), std::string::npos);
  EXPECT_TRUE(testutil::valid_json(opened));

  // Sessions are daemon-scoped: a NEW connection keeps navigating s1.
  const std::string expanded = request(
      port, R"({"v":1,"id":3,"op":"expand","session":"s1","node":1})");
  EXPECT_NE(expanded.find("\"ok\":true"), std::string::npos) << expanded;
  const std::string sorted = request(
      port,
      R"({"v":1,"id":4,"op":"sort","session":"s1","column":0})");
  EXPECT_NE(sorted.find("\"descending\":true"), std::string::npos);
  const std::string hot = request(
      port, R"({"v":1,"id":5,"op":"hot_path","session":"s1"})");
  EXPECT_NE(hot.find("\"path\":["), std::string::npos) << hot;
  const std::string timeline = request(
      port,
      R"({"v":1,"id":6,"op":"timeline_window","session":"s1","width":8})");
  EXPECT_NE(timeline.find("\"cells\":["), std::string::npos) << timeline;

  // Typed protocol errors, not crashes — and the client exits 2 for each.
  EXPECT_NE(
      request(port, R"({"v":1,"id":7,"op":"expand","session":"nope"})", 2)
          .find("\"kind\":\"not_found\""),
      std::string::npos);
  EXPECT_NE(request(port, R"({"v":1,"id":8,"op":"frobnicate"})", 2)
                .find("\"kind\":\"bad_request\""),
            std::string::npos);
  EXPECT_NE(request(port, R"({"v":9,"id":9,"op":"ping"})", 2)
                .find("\"kind\":\"bad_request\""),
            std::string::npos);
  EXPECT_NE(
      request(port, R"({"v":1,"id":10,"op":"open","path":"/no/such.pvdb"})",
              2)
          .find("\"kind\":\"not_found\""),
      std::string::npos);

  EXPECT_NE(request(port, R"({"v":1,"id":11,"op":"close","session":"s1"})")
                .find("\"closed\":\"s1\""),
            std::string::npos);

  // SIGTERM: graceful shutdown, and the close above means no orphans.
  ASSERT_EQ(::kill(pid_, SIGTERM), 0);
  ASSERT_TRUE(wait_exit(5.0)) << "daemon ignored SIGTERM";
  const std::string log = slurp(out("serve.log"));
  EXPECT_NE(log.find("0 session(s) open"), std::string::npos) << log;
}

TEST_F(PvserveCliTest, ResponseStreamsIdenticalAcrossThreadCounts) {
  ASSERT_EQ(run(tool("pvprof") + " subsurface --ranks 4 -o " +
                out("exp.pvdb") + " --trace-events"),
            0)
      << slurp(out("log"));
  const std::string script = out("reqs.txt");
  {
    std::ofstream reqs(script);
    reqs << R"({"v":1,"id":1,"op":"open","path":)" << '"' << out("exp.pvdb")
         << '"' << "}\n"
         << R"({"v":1,"id":2,"op":"expand","session":"s1","node":1})" << "\n"
         << R"({"v":1,"id":3,"op":"sort","session":"s1","column":0})" << "\n"
         << R"({"v":1,"id":4,"op":"hot_path","session":"s1"})" << "\n"
         << R"({"v":1,"id":5,"op":"flatten","session":"s1"})" << "\n"
         << R"({"v":1,"id":6,"op":"timeline_window","session":"s1","width":16,"depth":2})"
         << "\n"
         << R"({"v":1,"id":7,"op":"close","session":"s1"})" << "\n";
  }
  std::vector<std::string> streams;
  for (const char* threads : {"1", "4"}) {
    const int port = start_daemon(std::string("--threads ") + threads);
    ASSERT_GT(port, 0) << slurp(out("serve.log"));
    ASSERT_EQ(std::system((tool("pvserve") + " --client --port " +
                           std::to_string(port) + " < " + script + " > " +
                           out("stream.txt") + " 2>&1")
                              .c_str()),
              0);
    streams.push_back(slurp(out("stream.txt")));
    request(port, R"({"v":1,"id":99,"op":"shutdown"})");
    ASSERT_TRUE(wait_exit(5.0)) << "daemon ignored the shutdown request";
    std::filesystem::remove(out("serve.log"));
  }
  ASSERT_EQ(streams.size(), 2u);
  ASSERT_FALSE(streams[0].empty());
  EXPECT_EQ(streams[0], streams[1]);
}

TEST_F(PvserveCliTest, PvqueryJsonMatchesServeQueryResult) {
  ASSERT_EQ(run(tool("pvprof") + " subsurface --ranks 2 -o " +
                out("exp.pvdb")),
            0)
      << slurp(out("log"));
  // The same query both ways; the grammar accepts single- or double-quoted
  // patterns, which lets each transport use the quote the shell leaves free.
  const std::string tail =
      " where cycles.incl > 0.05*total order by cycles.excl desc limit 10";
  ASSERT_EQ(run(tool("pvquery") + " " + out("exp.pvdb") + " \"match '**'" +
                tail + "\" --json"),
            0)
      << slurp(out("log"));
  std::string local = slurp(out("log"));
  while (!local.empty() && (local.back() == '\n' || local.back() == '\r'))
    local.pop_back();
  ASSERT_FALSE(local.empty());
  EXPECT_TRUE(testutil::valid_json(local)) << local.substr(0, 400);

  const int port = start_daemon();
  ASSERT_GT(port, 0) << slurp(out("serve.log"));
  const std::string opened = request(
      port, R"({"v":1,"id":1,"op":"open","path":")" + out("exp.pvdb") +
                R"("})");
  ASSERT_NE(opened.find("\"session\":\"s1\""), std::string::npos) << opened;
  const std::string reply = request(
      port, R"({"v":1,"id":2,"op":"query","session":"s1","q":"match \"**\")" +
                tail + R"("})");
  // The serve response embeds pvquery's --json output byte-for-byte as its
  // "result" field — one encoder, two transports.
  EXPECT_NE(reply.find("\"result\":" + local), std::string::npos)
      << "serve result diverged from pvquery --json:\n"
      << reply << "\nvs\n"
      << local;

  request(port, R"({"v":1,"id":99,"op":"shutdown"})");
  ASSERT_TRUE(wait_exit(5.0)) << "daemon ignored the shutdown request";
}

TEST_F(PvserveCliTest, ClientExitCodesDistinguishTransportFromProtocol) {
  // No daemon listening: the connect fails -> transport error -> exit 3.
  EXPECT_EQ(run(tool("pvserve") + " --client --port 1 --request "
                R"('{"v":1,"id":1,"op":"ping"}')"),
            3);

  const int port = start_daemon();
  ASSERT_GT(port, 0) << slurp(out("serve.log"));
  // Unparseable request JSON never reaches the wire -> protocol -> exit 2.
  EXPECT_EQ(run(tool("pvserve") + " --client --port " + std::to_string(port) +
                " --request '{broken'"),
            2);
  // A daemon refusal prints the reply but still exits 2.
  EXPECT_EQ(run(tool("pvserve") + " --client --port " + std::to_string(port) +
                R"( --request '{"v":1,"id":1,"op":"frobnicate"}')"),
            2);
  EXPECT_NE(slurp(out("log")).find("\"kind\":\"bad_request\""),
            std::string::npos);
  // A healthy round trip: exit 0.
  EXPECT_EQ(run(tool("pvserve") + " --client --port " + std::to_string(port) +
                R"( --request '{"v":1,"id":2,"op":"ping"}')"),
            0);
  ASSERT_EQ(::kill(pid_, SIGTERM), 0);
  ASSERT_TRUE(wait_exit(5.0));
}

TEST_F(PvserveCliTest, TraceIdFlowsFromClientFlagToServerJsonLog) {
  const std::string reqlog = out("requests.jsonl");
  const int port =
      start_daemon("--log-format json --log-file " + reqlog);
  ASSERT_GT(port, 0) << slurp(out("serve.log"));

  // The client stamps every request with the configured trace id...
  EXPECT_EQ(run(tool("pvserve") + " --client --port " + std::to_string(port) +
                R"( --trace-id 987654321 --request '{"v":1,"id":1,"op":"ping"}')"),
            0);
  // ...including ones the daemon refuses — and the error reply echoes it so
  // the client-side line and the server-side log line are matchable.
  EXPECT_EQ(run(tool("pvserve") + " --client --port " + std::to_string(port) +
                R"( --trace-id 987654321 --request '{"v":1,"id":2,"op":"frobnicate"}')"),
            2);
  EXPECT_NE(slurp(out("log")).find("\"trace_id\":987654321"),
            std::string::npos)
      << slurp(out("log"));

  request(port, R"({"v":1,"id":99,"op":"shutdown"})");
  ASSERT_TRUE(wait_exit(5.0));

  // Every structured log line is one JSON object; the tagged requests carry
  // the trace id end to end.
  const std::string lines = slurp(reqlog);
  ASSERT_FALSE(lines.empty());
  std::size_t tagged = 0, total = 0;
  std::istringstream in(lines);
  for (std::string line; std::getline(in, line);) {
    if (line.empty()) continue;
    ++total;
    EXPECT_TRUE(testutil::valid_json(line)) << line;
    EXPECT_NE(line.find("\"op\":"), std::string::npos) << line;
    if (line.find("\"trace_id\":987654321") != std::string::npos) ++tagged;
  }
  EXPECT_GE(total, 3u) << lines;  // ping + frobnicate + shutdown
  EXPECT_EQ(tagged, 2u) << lines;
}

TEST_F(PvserveCliTest, PvtopOnceRendersOneDashboardFrame) {
  const int port = start_daemon();
  ASSERT_GT(port, 0) << slurp(out("serve.log"));

  // Put one op on the board so the table has a row to render.
  EXPECT_NE(request(port, R"({"v":1,"id":1,"op":"ping"})")
                .find("\"ok\":true"),
            std::string::npos);

  ASSERT_EQ(run(tool("pvtop") + " --port " + std::to_string(port) +
                " --once"),
            0)
      << slurp(out("log"));
  const std::string frame = slurp(out("log"));
  EXPECT_NE(frame.find("pvtop"), std::string::npos) << frame;
  EXPECT_NE(frame.find(" up "), std::string::npos);
  EXPECT_NE(frame.find("sessions:"), std::string::npos);
  EXPECT_NE(frame.find("ping"), std::string::npos) << frame;
  // --once never emits escape sequences: pipelines stay clean.
  EXPECT_EQ(frame.find('\x1b'), std::string::npos);

  // Transport errors surface as exit 3, same taxonomy as the client.
  EXPECT_EQ(run(tool("pvtop") + " --port 1 --once"), 3);

  request(port, R"({"v":1,"id":99,"op":"shutdown"})");
  ASSERT_TRUE(wait_exit(5.0));
}

// --- fault injection & crash recovery ----------------------------------------

TEST_F(ToolCliTest, CrashMidSaveLeavesOldDatabaseIntact) {
  const std::string dbp = out("exp.pvdb");
  ASSERT_EQ(run(tool("pvprof") + " paper -o " + dbp), 0) << slurp(out("log"));
  const std::string before = slurp(dbp);
  ASSERT_FALSE(before.empty());

  // kill -9 analog at the atomic-rename step: exit 137, destination intact.
  EXPECT_EQ(run(tool("pvprof") + " paper -o " + dbp +
                " --fault-spec 'db.experiment.save.rename:crash'"),
            137);
  EXPECT_EQ(slurp(dbp), before);

  // A clean I/O failure at the same site: error exit, intact again.
  EXPECT_EQ(run(tool("pvprof") + " paper -o " + dbp +
                " --fault-spec 'db.experiment.save.rename:error'"),
            1);
  EXPECT_EQ(slurp(dbp), before);

  // Torn mid-write: the temp file tears, the destination is never touched.
  EXPECT_EQ(run(tool("pvprof") + " paper -o " + dbp +
                " --fault-spec 'db.experiment.save.write:short=7'"),
            1);
  EXPECT_EQ(slurp(dbp), before);

  // After all that abuse the database still opens clean, no degraded banner.
  ASSERT_EQ(run("printf 'quit\\n' | " + tool("pvviewer") + " " + dbp), 0)
      << slurp(out("log"));
  EXPECT_EQ(slurp(out("log")).find("DEGRADED"), std::string::npos);
}

TEST_F(ToolCliTest, SalvageProfilesDamagedMeasurements) {
  ASSERT_EQ(run(tool("pvrun") + " subsurface --ranks 4 -o " + out("meas")), 0)
      << slurp(out("log"));
  // Truncate rank 2's measurement file — a writer crashed mid-stream.
  const std::string victim = db::measurement_path(out("meas"), 2);
  const std::string bytes = slurp(victim);
  ASSERT_GT(bytes.size(), 30u);
  {
    std::ofstream o(victim, std::ios::binary | std::ios::trunc);
    o.write(bytes.data(), static_cast<std::streamsize>(bytes.size() / 2));
  }

  // Strict profiling refuses the damaged directory...
  EXPECT_EQ(run(tool("pvprof") + " subsurface --ranks 4 --measurements " +
                out("meas") + " -o " + out("strict.pvdb")),
            1);

  // ...salvage drops the rank, marks the experiment, and says so loudly.
  ASSERT_EQ(run(tool("pvprof") + " subsurface --ranks 4 --measurements " +
                out("meas") + " -o " + out("exp.pvdb") + " --salvage"),
            0)
      << slurp(out("log"));
  const std::string log = slurp(out("log"));
  EXPECT_NE(log.find("DEGRADED DATA"), std::string::npos) << log;
  EXPECT_NE(log.find("rank 2"), std::string::npos) << log;

  const db::Experiment exp = db::load_binary(out("exp.pvdb"));
  EXPECT_TRUE(exp.degraded());
  EXPECT_EQ(exp.dropped_ranks(), (std::vector<std::uint32_t>{2}));

  // The viewer banners the damage instead of presenting partial data whole.
  ASSERT_EQ(run("printf 'quit\\n' | " + tool("pvviewer") + " " +
                out("exp.pvdb")),
            0)
      << slurp(out("log"));
  EXPECT_NE(slurp(out("log")).find("[DEGRADED]"), std::string::npos);
}

TEST_F(ToolCliTest, RecoveredTraceIndexIsSurfaced) {
  ASSERT_EQ(run(tool("pvprof") + " subsurface --ranks 2 -o " +
                out("exp.pvdb") + " --trace-events"),
            0)
      << slurp(out("log"));
  // Chop the tail off rank 1's trace: the footer index is gone, the reader
  // must fall back to scanning.
  const std::string tpath =
      db::trace_path(db::trace_dir_for(out("exp.pvdb")), 1);
  const std::string bytes = slurp(tpath);
  ASSERT_GT(bytes.size(), 32u);
  {
    std::ofstream o(tpath, std::ios::binary | std::ios::trunc);
    o.write(bytes.data(), static_cast<std::streamsize>(bytes.size() - 12));
  }
  ASSERT_EQ(run(tool("pvtrace") + " " + out("exp.pvdb") + " --width 16"), 0)
      << slurp(out("log"));
  const std::string log = slurp(out("log"));
  EXPECT_NE(log.find("recovered"), std::string::npos) << log;
  EXPECT_NE(log.find("rank 1 trace index was damaged"), std::string::npos)
      << log;
}

TEST(StructureDump, RendersHierarchy) {
  workloads::Workload w = workloads::make_workload("mesh");
  const std::string text = structure::render_structure(*w.tree);
  EXPECT_NE(text.find("module mbperf_iMesh.x"), std::string::npos);
  EXPECT_NE(text.find("proc MBCore::get_coords"), std::string::npos);
  EXPECT_NE(text.find("loop loop at MBCore.cpp: 686"), std::string::npos);
  EXPECT_NE(text.find("inline inlined from SequenceManager::find"),
            std::string::npos);
  EXPECT_NE(text.find("[binary only]"), std::string::npos);

  structure::DumpOptions opts;
  opts.show_statements = false;
  const std::string no_stmts = structure::render_structure(*w.tree, opts);
  EXPECT_EQ(no_stmts.find("stmt "), std::string::npos);
  EXPECT_LT(no_stmts.size(), text.size());

  opts.max_lines = 5;
  const std::string capped = structure::render_structure(*w.tree, opts);
  EXPECT_NE(capped.find("(truncated)"), std::string::npos);

  opts.show_addresses = true;
  opts.max_lines = 0;
  opts.show_statements = true;
  const std::string with_addr = structure::render_structure(*w.tree, opts);
  EXPECT_NE(with_addr.find("@0x"), std::string::npos);
}

}  // namespace
}  // namespace pathview
