// Tests for the fault-injection layer and everything it guards: the spec
// grammar, deterministic firing, crash-safe atomic writes, CRC32C, and
// salvage loading of damaged experiment databases and measurement
// directories.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sys/stat.h>
#include <unistd.h>

#include "pathview/db/experiment.hpp"
#include "pathview/db/measurement.hpp"
#include "pathview/fault/fault.hpp"
#include "pathview/prof/correlate.hpp"
#include "pathview/prof/pipeline.hpp"
#include "pathview/support/crc32c.hpp"
#include "pathview/support/io.hpp"
#include "pathview/workloads/paper_example.hpp"
#include "pathview/workloads/registry.hpp"

namespace pathview {
namespace {

/// Every test leaves the process fault-free, even on assertion failure.
class FaultTest : public ::testing::Test {
 protected:
  void TearDown() override { fault::clear(); }
};

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

db::Experiment paper_experiment() {
  workloads::PaperExample ex;
  const prof::CanonicalCct cct = prof::correlate(ex.profile(), ex.tree());
  return db::Experiment::capture(ex.tree(), cct, "fault-paper", 1);
}

// --- spec grammar ------------------------------------------------------------

TEST_F(FaultTest, ParsesFullGrammar) {
  const fault::Plan plan = fault::Plan::parse(
      "db.*.write:short=4096:after=2:count=3;"
      "serve.net.read:error:prob=0.5:seed=9;"
      "io.save.fsync:delay=20;"
      "db.experiment.save.rename:crash:after=1;"
      "prof.merge:alloc");
  ASSERT_EQ(plan.rules.size(), 5u);
  EXPECT_EQ(plan.seed, 9u);
  EXPECT_EQ(plan.rules[0].kind, fault::Kind::kShortWrite);
  EXPECT_EQ(plan.rules[0].arg, 4096u);
  EXPECT_EQ(plan.rules[0].after, 2u);
  EXPECT_EQ(plan.rules[0].count, 3u);
  EXPECT_EQ(plan.rules[1].kind, fault::Kind::kError);
  EXPECT_DOUBLE_EQ(plan.rules[1].prob, 0.5);
  EXPECT_EQ(plan.rules[2].kind, fault::Kind::kDelay);
  EXPECT_EQ(plan.rules[2].arg, 20u);
  EXPECT_EQ(plan.rules[3].kind, fault::Kind::kCrash);
  EXPECT_EQ(plan.rules[4].kind, fault::Kind::kAlloc);
}

TEST_F(FaultTest, RejectsMalformedSpecs) {
  EXPECT_THROW(fault::Plan::parse("siteonly"), InvalidArgument);
  EXPECT_THROW(fault::Plan::parse(":error"), InvalidArgument);
  EXPECT_THROW(fault::Plan::parse("a.b:jazz"), InvalidArgument);
  EXPECT_THROW(fault::Plan::parse("a.b:short"), InvalidArgument);
  EXPECT_THROW(fault::Plan::parse("a.b:short=xyz"), InvalidArgument);
  EXPECT_THROW(fault::Plan::parse("a.b:error:prob=1.5"), InvalidArgument);
  EXPECT_THROW(fault::Plan::parse("a.b:error:bogus=1"), InvalidArgument);
  EXPECT_THROW(fault::Plan::parse("a.b:error:after"), InvalidArgument);
  // Empty clauses are tolerated.
  EXPECT_EQ(fault::Plan::parse("a:error;;b:error").rules.size(), 2u);
  EXPECT_TRUE(fault::Plan::parse("").empty());
}

TEST_F(FaultTest, ParsesSocketChaosVerbs) {
  const fault::Plan plan = fault::Plan::parse(
      "serve.net.read:reset:after=1;"
      "serve.net.write:stall=200:count=2;"
      "serve.net.accept:stall=50");
  ASSERT_EQ(plan.rules.size(), 3u);
  EXPECT_EQ(plan.rules[0].kind, fault::Kind::kReset);
  EXPECT_EQ(plan.rules[0].after, 1u);
  EXPECT_EQ(plan.rules[1].kind, fault::Kind::kStall);
  EXPECT_EQ(plan.rules[1].arg, 200u);
  EXPECT_EQ(plan.rules[1].count, 2u);
  EXPECT_EQ(plan.rules[2].kind, fault::Kind::kStall);
  EXPECT_EQ(std::string(fault::kind_name(fault::Kind::kReset)), "reset");
  EXPECT_EQ(std::string(fault::kind_name(fault::Kind::kStall)), "stall");
  // A stall without a duration is malformed, like short without a length.
  EXPECT_THROW(fault::Plan::parse("a.b:stall"), InvalidArgument);
}

TEST_F(FaultTest, ResetThrowsStyledAsConnectionReset) {
  fault::install_spec("serve.net.write:reset");
  try {
    fault::check_site("serve.net.write");
    FAIL() << "expected InjectedFault";
  } catch (const fault::InjectedFault& e) {
    EXPECT_EQ(e.site(), "serve.net.write");
    EXPECT_NE(std::string(e.what()).find("connection reset"),
              std::string::npos)
        << e.what();
  }
  // Reset is check_site territory; stall_ms never fires it.
  fault::install_spec("s.site:reset");
  EXPECT_EQ(fault::stall_ms("s.site"), 0u);
}

TEST_F(FaultTest, StallIsConsumedOnlyByStallMs) {
  fault::install_spec("serve.net.write:stall=120:count=2");
  // check_site ignores stall rules (transports that cannot split a transfer
  // may skip them entirely).
  fault::check_site("serve.net.write");  // must not throw
  EXPECT_EQ(fault::stall_ms("other.site"), 0u);
  EXPECT_EQ(fault::stall_ms("serve.net.write"), 120u);
  EXPECT_EQ(fault::stall_ms("serve.net.write"), 120u);
  EXPECT_EQ(fault::stall_ms("serve.net.write"), 0u);  // count exhausted
  // The longest matching stall wins when several rules fire.
  fault::install_spec("a.*:stall=30;a.b:stall=90");
  EXPECT_EQ(fault::stall_ms("a.b"), 90u);
}

// --- firing semantics --------------------------------------------------------

TEST_F(FaultTest, InactiveByDefaultAndZeroCostPathDoesNothing) {
  fault::clear();
  EXPECT_FALSE(fault::active());
  PV_FAULT("any.site");  // must not throw
  EXPECT_EQ(PV_FAULT_LEN("any.site", 123u), 123u);
}

TEST_F(FaultTest, AfterAndCountWindowFiring) {
  fault::install_spec("win.site:error:after=2:count=2");
  int fired = 0;
  for (int i = 0; i < 10; ++i) {
    try {
      fault::check_site("win.site");
    } catch (const fault::InjectedFault&) {
      ++fired;
      // Hits 0,1 skipped; hits 2,3 fire; count caps the rest.
      EXPECT_TRUE(i == 2 || i == 3) << i;
    }
  }
  EXPECT_EQ(fired, 2);
}

TEST_F(FaultTest, GlobsSelectSites) {
  fault::install_spec("db.*.rename:error");
  EXPECT_THROW(fault::check_site("db.experiment.save.rename"),
               fault::InjectedFault);
  fault::check_site("db.experiment.save.write");  // no match, no throw
  fault::check_site("io.save.rename");            // prefix mismatch
}

TEST_F(FaultTest, ProbabilisticFiringIsDeterministic) {
  const auto run = [] {
    fault::install_spec("p.site:error:prob=0.3:seed=1234");
    std::string pattern;
    for (int i = 0; i < 64; ++i) {
      try {
        fault::check_site("p.site");
        pattern += '.';
      } catch (const fault::InjectedFault&) {
        pattern += 'X';
      }
    }
    return pattern;
  };
  const std::string a = run();
  const std::string b = run();
  EXPECT_EQ(a, b);
  // ~0.3 firing rate, loosely bounded.
  const auto fires = static_cast<int>(std::count(a.begin(), a.end(), 'X'));
  EXPECT_GT(fires, 5);
  EXPECT_LT(fires, 40);
}

TEST_F(FaultTest, ShortWriteClampsLengths) {
  fault::install_spec("w.site:short=100");
  EXPECT_EQ(fault::clamp_len("w.site", 4096), 100u);
  EXPECT_EQ(fault::clamp_len("other.site", 4096), 4096u);
  const std::uint64_t before = fault::fired_total();
  fault::clamp_len("w.site", 50);  // already under the clamp: still fires
  EXPECT_GT(fault::fired_total(), before);
}

TEST_F(FaultTest, InjectedFaultCarriesSite) {
  fault::install_spec("x.y.z:error");
  try {
    fault::check_site("x.y.z");
    FAIL() << "expected InjectedFault";
  } catch (const fault::InjectedFault& e) {
    EXPECT_EQ(e.site(), "x.y.z");
    EXPECT_NE(std::string(e.what()).find("x.y.z"), std::string::npos);
  }
}

// --- crc32c ------------------------------------------------------------------

TEST(Crc32c, KnownVectors) {
  // RFC 3720 / Castagnoli reference value.
  EXPECT_EQ(support::crc32c("123456789"), 0xE3069283u);
  EXPECT_EQ(support::crc32c(""), 0u);
  // Seeding with a previous CRC continues the stream.
  const std::uint32_t whole = support::crc32c("hello world");
  EXPECT_EQ(support::crc32c("world", support::crc32c("hello ")), whole);
  EXPECT_NE(support::crc32c("hello worle"), whole);
}

// --- atomic writes under injected faults ------------------------------------

TEST_F(FaultTest, AtomicWriteSurvivesTornWrite) {
  const std::string path = "/tmp/pathview_fault_torn.bin";
  support::atomic_write_file(path, "OLD-CONTENT", "t.save");
  fault::install_spec("t.save.write:short=3");
  EXPECT_THROW(support::atomic_write_file(path, "NEW-CONTENT-MUCH-LONGER",
                                          "t.save"),
               fault::InjectedFault);
  fault::clear();
  // The destination still holds the complete old payload...
  EXPECT_EQ(slurp(path), "OLD-CONTENT");
  // ...and the torn temp file was cleaned up.
  struct stat st {};
  EXPECT_NE(::stat((path + ".tmp." + std::to_string(::getpid())).c_str(), &st),
            0);
  std::remove(path.c_str());
}

TEST_F(FaultTest, AtomicWriteSurvivesRenameFailure) {
  const std::string path = "/tmp/pathview_fault_rename.bin";
  support::atomic_write_file(path, "OLD", "t.save");
  fault::install_spec("t.save.rename:error");
  EXPECT_THROW(support::atomic_write_file(path, "NEW", "t.save"),
               fault::InjectedFault);
  fault::clear();
  EXPECT_EQ(slurp(path), "OLD");
  support::atomic_write_file(path, "NEW", "t.save");
  EXPECT_EQ(slurp(path), "NEW");
  std::remove(path.c_str());
}

TEST_F(FaultTest, ReadFaultsSurfaceAsInjectedFault) {
  const std::string path = "/tmp/pathview_fault_read.bin";
  support::atomic_write_file(path, "0123456789", "t.save");
  fault::install_spec("t.load.open:error");
  EXPECT_THROW(support::read_file(path, "t.load"), fault::InjectedFault);
  fault::install_spec("t.load.read:short=4");
  // A short read models racing a torn file: the result is truncated.
  EXPECT_EQ(support::read_file(path, "t.load"), "0123");
  std::remove(path.c_str());
}

// --- crash-safe experiment databases -----------------------------------------

TEST_F(FaultTest, BinaryV1StillReadable) {
  const db::Experiment exp = paper_experiment();
  const std::string v1 = db::to_binary(exp, db::BinaryVersion::kV1);
  const std::string v2 = db::to_binary(exp, db::BinaryVersion::kV2);
  EXPECT_EQ(v1.substr(0, 5), "PVDB1");
  EXPECT_EQ(v2.substr(0, 5), "PVDB2");
  std::string why;
  EXPECT_TRUE(db::Experiment::equivalent(exp, db::from_binary(v1), &why))
      << why;
  EXPECT_TRUE(db::Experiment::equivalent(exp, db::from_binary(v2), &why))
      << why;
}

TEST_F(FaultTest, DegradedFlagAndDroppedRanksPersist) {
  db::Experiment exp = paper_experiment();
  exp.set_degraded(true);
  exp.set_dropped_ranks({3, 1, 3});
  ASSERT_EQ(exp.dropped_ranks().size(), 2u);  // sorted + deduped

  const db::Experiment via_bin = db::from_binary(db::to_binary(exp));
  EXPECT_TRUE(via_bin.degraded());
  EXPECT_EQ(via_bin.dropped_ranks(), (std::vector<std::uint32_t>{1, 3}));

  const db::Experiment via_xml = db::from_xml(db::to_xml(exp));
  EXPECT_TRUE(via_xml.degraded());
  EXPECT_EQ(via_xml.dropped_ranks(), (std::vector<std::uint32_t>{1, 3}));

  std::string why;
  EXPECT_TRUE(db::Experiment::equivalent(exp, via_bin, &why)) << why;
  EXPECT_TRUE(db::Experiment::equivalent(exp, via_xml, &why)) << why;
}

TEST_F(FaultTest, UnsealedFileStrictFailsSalvageScans) {
  const db::Experiment exp = paper_experiment();
  std::string bytes = db::to_binary(exp);
  // Chop the sealed footer off — what a crash between the last section and
  // the footer write leaves behind.
  bytes.resize(bytes.size() - 64);
  EXPECT_THROW(db::from_binary(bytes), ParseError);

  db::LoadOptions opts;
  opts.salvage = true;
  db::LoadReport report;
  const db::Experiment back = db::from_binary(bytes, opts, &report);
  EXPECT_FALSE(report.notes.empty());
  EXPECT_EQ(back.cct().size(), exp.cct().size());
  // Only the footer was lost; all five sections scanned back intact.
  EXPECT_EQ(back.name(), exp.name());
}

TEST_F(FaultTest, CorruptSamplesSectionSalvagesDegraded) {
  const db::Experiment exp = paper_experiment();
  std::string bytes = db::to_binary(exp);
  // Flip one byte inside the samples payload. Find the samples section via
  // a fresh write with a sentinel: simpler — flip a byte near the end of
  // the sections area (samples is the 4th of 5 sections; metrics is tiny).
  // Instead locate it robustly: corrupt every trailing byte until the
  // strict load fails with a checksum error but structure still parses.
  db::LoadOptions opts;
  opts.salvage = true;
  bool exercised = false;
  const std::size_t lo = 40, hi = std::min<std::size_t>(bytes.size() - 8, 400);
  for (std::size_t back_off = lo; back_off < hi && !exercised; ++back_off) {
    std::string dmg = bytes;
    dmg[dmg.size() - back_off] ^= 0x5a;
    db::LoadReport report;
    try {
      const db::Experiment got = db::from_binary(dmg, opts, &report);
      if (report.degraded && got.degraded()) {
        // Structure and CCT are required, so a degraded salvage must still
        // have the full tree.
        EXPECT_EQ(got.cct().size(), exp.cct().size());
        EXPECT_THROW(db::from_binary(dmg), ParseError);  // strict refuses
        exercised = true;
      }
    } catch (const ParseError&) {
      // Hit the footer/required section; keep probing.
    }
  }
  EXPECT_TRUE(exercised)
      << "no offset produced a degraded-but-loadable database";
}

TEST_F(FaultTest, CorruptStructureSectionFailsEvenSalvage) {
  const db::Experiment exp = paper_experiment();
  std::string bytes = db::to_binary(exp);
  // The structure section is early in the file (after the small meta
  // section). Flip a byte ~64 bytes in.
  bytes[70] ^= 0xff;
  db::LoadOptions opts;
  opts.salvage = true;
  db::LoadReport report;
  EXPECT_THROW(db::from_binary(bytes, opts, &report), ParseError);
  EXPECT_FALSE(report.notes.empty());
}

TEST_F(FaultTest, CrashDuringSaveLeavesOldFileLoadable) {
  const std::string path = "/tmp/pathview_fault_crash_save.pvdb";
  const db::Experiment exp = paper_experiment();
  db::save_binary(exp, path);
  const std::string before = slurp(path);

  // A short write mid-save models the bytes a crash would have left in the
  // temp file; the destination must be untouched.
  fault::install_spec("db.experiment.save.write:short=10");
  db::Experiment exp2 = paper_experiment();
  exp2.set_degraded(true);
  EXPECT_THROW(db::save_binary(exp2, path), fault::InjectedFault);
  fault::clear();
  EXPECT_EQ(slurp(path), before);
  std::string why;
  EXPECT_TRUE(
      db::Experiment::equivalent(exp, db::load(path, {}, nullptr), &why))
      << why;
  std::remove(path.c_str());
}

// --- measurement directory salvage -------------------------------------------

TEST_F(FaultTest, MeasurementSalvageDropsDamagedRanks) {
  workloads::Workload w = workloads::make_workload("paper", 6, 42);
  const auto raws = workloads::profile_workload(w, 6, 1, nullptr);
  const std::string dir = "/tmp/pathview_fault_meas";
  std::remove((dir + "/rank-00000.pvms").c_str());
  ::mkdir(dir.c_str(), 0755);
  db::save_measurements(raws, dir);

  // Corrupt rank 2 (truncate) and remove rank 4 entirely.
  {
    const std::string p2 = db::measurement_path(dir, 2);
    std::string bytes = slurp(p2);
    std::ofstream out(p2, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size() / 3));
  }
  std::remove(db::measurement_path(dir, 4).c_str());

  // Strict: rank 2 is damaged mid-sequence -> throw.
  EXPECT_THROW(db::load_measurements(dir), ParseError);

  db::LoadOptions opts;
  opts.salvage = true;
  db::LoadReport report;
  const auto salvaged = db::load_measurements(dir, opts, &report);
  EXPECT_EQ(salvaged.size(), 4u);
  EXPECT_TRUE(report.degraded);
  EXPECT_EQ(report.dropped_ranks, (std::vector<std::uint32_t>{2, 4}));

  // The surviving ranks correlate into a merged CCT identical to merging
  // just those ranks from the pristine set — salvage loses nothing else.
  std::vector<sim::RawProfile> clean;
  for (const auto& r : raws)
    if (r.rank != 2 && r.rank != 4) clean.push_back(r);
  const prof::CanonicalCct a = prof::Pipeline().run(salvaged, *w.tree);
  const prof::CanonicalCct b = prof::Pipeline().run(clean, *w.tree);
  ASSERT_EQ(a.size(), b.size());
  for (prof::CctNodeId n = 0; n < a.size(); ++n)
    for (std::size_t e = 0; e < model::kNumEvents; ++e)
      EXPECT_EQ(a.samples(n).v[e], b.samples(n).v[e]) << n;

  for (std::uint32_t r = 0; r < 6; ++r)
    std::remove(db::measurement_path(dir, r).c_str());
  ::rmdir(dir.c_str());
}

/// The error measurement_from_bytes raises for `bytes`.
std::string decode_error(const std::string& bytes) {
  try {
    db::measurement_from_bytes(bytes);
  } catch (const ParseError& e) {
    return e.what();
  }
  return "";
}

TEST_F(FaultTest, ParallelMeasurementLoadReportsDamageInRankOrder) {
  workloads::Workload w = workloads::make_workload("subsurface", 8, 42);
  const auto raws = workloads::profile_workload(w, 8, 1, nullptr);
  const std::string dir = "/tmp/pathview_fault_meas_order";
  for (std::uint32_t r = 0; r < 8; ++r)
    std::remove(db::measurement_path(dir, r).c_str());
  ::mkdir(dir.c_str(), 0755);
  db::save_measurements(raws, dir);

  // Rank 1 gets a bad magic, rank 3 is truncated.
  const std::string p1 = db::measurement_path(dir, 1);
  const std::string p3 = db::measurement_path(dir, 3);
  std::string b1 = slurp(p1);
  b1[0] = 'X';
  std::string b3 = slurp(p3);
  b3.resize(b3.size() / 2);
  for (const auto& [path, bytes] : {std::pair{p1, b1}, std::pair{p3, b3}}) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  const std::string err1 = decode_error(b1);
  const std::string err3 = decode_error(b3);
  ASSERT_FALSE(err1.empty());
  ASSERT_FALSE(err3.empty());
  ASSERT_NE(err1, err3);

  db::LoadOptions salvage;
  salvage.salvage = true;
  for (int rep = 0; rep < 20; ++rep) {
    SCOPED_TRACE(rep);
    // Strict: the lowest damaged rank's error, whichever worker finished
    // first.
    try {
      db::load_measurements(dir);
      ADD_FAILURE() << "strict load accepted damaged ranks";
    } catch (const ParseError& e) {
      EXPECT_EQ(std::string(e.what()), err1);
    }
    // Salvage: drops and notes in rank order, survivors as a serial load.
    db::LoadReport report;
    const auto got = db::load_measurements(dir, salvage, &report);
    EXPECT_EQ(report.dropped_ranks, (std::vector<std::uint32_t>{1, 3}));
    EXPECT_EQ(report.notes, (std::vector<std::string>{
                                "rank 1 dropped: " + err1,
                                "rank 3 dropped: " + err3}));
    ASSERT_EQ(got.size(), 6u);
    std::size_t i = 0;
    for (std::uint32_t r = 0; r < 8; ++r) {
      if (r == 1 || r == 3) continue;
      EXPECT_EQ(got[i].rank, r);
      EXPECT_EQ(db::measurement_to_bytes(got[i]),
                db::measurement_to_bytes(raws[r]));
      ++i;
    }
  }

  for (std::uint32_t r = 0; r < 8; ++r)
    std::remove(db::measurement_path(dir, r).c_str());
  ::rmdir(dir.c_str());
}

// --- degraded propagation through the pipeline -------------------------------

TEST_F(FaultTest, DegradedFlagPropagatesThroughMergeAndPipeline) {
  workloads::PaperExample ex;
  prof::CanonicalCct a = prof::correlate(ex.profile(), ex.tree());
  prof::CanonicalCct b = prof::correlate(ex.profile(), ex.tree());
  b.set_degraded(true);
  a.merge(b);
  EXPECT_TRUE(a.degraded());

  prof::CanonicalCct fresh(&ex.tree());
  fresh.merge(std::move(a));  // move-steal path
  EXPECT_TRUE(fresh.degraded());

  const prof::CanonicalCct clone = fresh.clone_with_tree(&ex.tree());
  EXPECT_TRUE(clone.degraded());
}

}  // namespace
}  // namespace pathview
