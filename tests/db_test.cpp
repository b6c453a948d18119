// Tests for experiment databases: XML and compact binary round trips,
// parser error handling, and the size advantage of the binary format.
#include <gtest/gtest.h>

#include "pathview/support/error.hpp"

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>

#include "pathview/db/experiment.hpp"
#include "pathview/db/xml.hpp"
#include "pathview/prof/correlate.hpp"
#include "pathview/sim/engine.hpp"
#include "pathview/workloads/paper_example.hpp"
#include "pathview/workloads/random_program.hpp"

namespace pathview::db {
namespace {

Experiment paper_experiment() {
  workloads::PaperExample ex;
  const prof::CanonicalCct cct = prof::correlate(ex.profile(), ex.tree());
  Experiment exp =
      Experiment::capture(ex.tree(), cct, "fig2 <example> & \"co\"", 1);
  exp.add_user_metric(metrics::MetricDesc{
      "FP WASTE", metrics::MetricKind::kDerived, model::Event::kCycles, true,
      "$0 * 4 - $2"});
  return exp;
}

TEST(UserMetrics, PersistAcrossBothFormats) {
  const Experiment exp = paper_experiment();
  ASSERT_EQ(exp.user_metrics().size(), 1u);
  const Experiment via_xml = from_xml(to_xml(exp));
  ASSERT_EQ(via_xml.user_metrics().size(), 1u);
  EXPECT_EQ(via_xml.user_metrics()[0].formula, "$0 * 4 - $2");
  const Experiment via_bin = from_binary(to_binary(exp));
  EXPECT_EQ(via_bin.user_metrics()[0].name, "FP WASTE");
}

TEST(UserMetrics, RejectsInvalidDefinitions) {
  Experiment exp = paper_experiment();
  metrics::MetricDesc bad;
  bad.name = "bad";
  bad.kind = metrics::MetricKind::kDerived;
  bad.formula = "$1 +";
  EXPECT_THROW(exp.add_user_metric(bad), InvalidArgument);
  metrics::MetricDesc raw;
  raw.kind = metrics::MetricKind::kRaw;
  EXPECT_THROW(exp.add_user_metric(raw), InvalidArgument);
}

TEST(Xml, EscapeRoundTrip) {
  EXPECT_EQ(xml_escape("a<b>&\"'"), "a&lt;b&gt;&amp;&quot;&apos;");
}

TEST(Xml, ParserBasics) {
  const XmlNode root = parse_xml(
      "<?xml version=\"1.0\"?>\n<!-- c -->\n"
      "<A x=\"1\"><B y=\"2\"/><B y=\"3\"/></A>");
  EXPECT_EQ(root.name, "A");
  EXPECT_EQ(root.attr("x"), "1");
  EXPECT_EQ(root.attr_or("zz", "d"), "d");
  ASSERT_EQ(root.children.size(), 2u);
  EXPECT_EQ(root.children[1].attr("y"), "3");
  EXPECT_EQ(&root.child("B"), &root.children[0]);
}

TEST(Xml, ParserErrors) {
  EXPECT_THROW(parse_xml("<A>"), ParseError);
  EXPECT_THROW(parse_xml("<A></B>"), ParseError);
  EXPECT_THROW(parse_xml("<A x=1/>"), ParseError);
  EXPECT_THROW(parse_xml("<A/><B/>"), ParseError);
  EXPECT_THROW(parse_xml("<A x=\"&bogus;\"/>"), ParseError);
  EXPECT_THROW(parse_xml("junk"), ParseError);
}

TEST(XmlDb, RoundTripsPaperExperiment) {
  const Experiment exp = paper_experiment();
  const std::string xml = to_xml(exp);
  const Experiment back = from_xml(xml);
  std::string why;
  EXPECT_TRUE(Experiment::equivalent(exp, back, &why)) << why;
  // And the re-serialization is byte-identical (canonical writer).
  EXPECT_EQ(to_xml(back), xml);
}

TEST(BinaryDb, RoundTripsPaperExperiment) {
  const Experiment exp = paper_experiment();
  const std::string bytes = to_binary(exp);
  const Experiment back = from_binary(bytes);
  std::string why;
  EXPECT_TRUE(Experiment::equivalent(exp, back, &why)) << why;
  EXPECT_EQ(to_binary(back), bytes);
}

TEST(BinaryDb, IsMoreCompactThanXml) {
  // The paper's motivation for the binary format.
  workloads::Workload w = workloads::make_random_program(
      {.seed = 99, .num_procs = 16, .max_body_stmts = 5});
  sim::ExecutionEngine eng(*w.program, *w.lowering, w.run);
  const prof::CanonicalCct cct = prof::correlate(eng.run(), *w.tree);
  const Experiment exp = Experiment::capture(*w.tree, cct, "rand", 1);
  EXPECT_LT(to_binary(exp).size(), to_xml(exp).size() / 3);
}

TEST(BinaryDb, RejectsCorruption) {
  const Experiment exp = paper_experiment();
  std::string bytes = to_binary(exp);
  EXPECT_THROW(from_binary("NOPE"), ParseError);
  EXPECT_THROW(from_binary(bytes.substr(0, bytes.size() / 2)), ParseError);
  std::string trailing = bytes + "x";
  EXPECT_THROW(from_binary(trailing), ParseError);
}

TEST(Db, FileRoundTrips) {
  const Experiment exp = paper_experiment();
  const std::string xml_path = "/tmp/pathview_test_exp.xml";
  const std::string bin_path = "/tmp/pathview_test_exp.pvdb";
  save_xml(exp, xml_path);
  save_binary(exp, bin_path);
  std::string why;
  EXPECT_TRUE(Experiment::equivalent(exp, load_xml(xml_path), &why)) << why;
  EXPECT_TRUE(Experiment::equivalent(exp, load_binary(bin_path), &why)) << why;
  std::remove(xml_path.c_str());
  std::remove(bin_path.c_str());
  EXPECT_THROW(load_xml("/tmp/definitely_missing_pathview.xml"),
               InvalidArgument);
}

// Property: round trips hold for arbitrary random-program experiments.
class DbRoundTrip : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DbRoundTrip, XmlAndBinary) {
  workloads::Workload w = workloads::make_random_program({.seed = GetParam()});
  sim::ExecutionEngine eng(*w.program, *w.lowering, w.run);
  const prof::CanonicalCct cct = prof::correlate(eng.run(), *w.tree);
  const Experiment exp = Experiment::capture(
      *w.tree, cct, "seed" + std::to_string(GetParam()), 1);
  std::string why;
  EXPECT_TRUE(Experiment::equivalent(exp, from_xml(to_xml(exp)), &why)) << why;
  EXPECT_TRUE(Experiment::equivalent(exp, from_binary(to_binary(exp)), &why))
      << why;
}

INSTANTIATE_TEST_SUITE_P(Seeds, DbRoundTrip,
                         ::testing::Values(101, 202, 303, 404, 505));

// --- robustness: corrupt and truncated inputs must fail with typed errors,
// never crash -----------------------------------------------------------------

TEST(BinaryDb, EveryTruncationPrefixThrowsTypedError) {
  const std::string bytes = to_binary(paper_experiment());
  ASSERT_GT(bytes.size(), 16u);
  // Every prefix short of the full database (sampled stride keeps runtime
  // down) must raise a pathview::Error subclass — no crash, no silent
  // success.
  const std::size_t stride = std::max<std::size_t>(1, bytes.size() / 97);
  for (std::size_t n = 0; n < bytes.size(); n += stride) {
    try {
      from_binary(std::string_view(bytes).substr(0, n));
      FAIL() << "prefix of " << n << " bytes parsed successfully";
    } catch (const Error&) {
      // expected: ParseError or InvalidArgument
    }
  }
}

TEST(BinaryDb, SingleByteMutationsNeverCrash) {
  const std::string bytes = to_binary(paper_experiment());
  const std::size_t stride = std::max<std::size_t>(1, bytes.size() / 211);
  for (std::size_t i = 0; i < bytes.size(); i += stride) {
    for (const unsigned char flip : {0x01u, 0x80u, 0xffu}) {
      std::string bad = bytes;
      bad[i] = static_cast<char>(static_cast<unsigned char>(bad[i]) ^ flip);
      try {
        const Experiment exp = from_binary(bad);
        // A mutation that still parses must at least yield a usable tree:
        // touching every label exercises the scope indices the parser
        // validated.
        for (prof::CctNodeId n = 0; n < exp.cct().size(); ++n)
          (void)exp.cct().label(n);
      } catch (const Error&) {
        // typed failure is the expected outcome
      }
    }
  }
}

TEST(BinaryDb, RejectsOutOfRangeEnumsAndIndices) {
  const std::string bytes = to_binary(paper_experiment());
  // A corrupt length prefix near 2^64 must not wrap the bounds check.
  std::string huge(bytes.substr(0, 6));
  for (int i = 0; i < 9; ++i) huge += static_cast<char>(0xff);
  huge += static_cast<char>(0x01);
  EXPECT_THROW(from_binary(huge), Error);
}

TEST(XmlDb, TruncationPrefixesThrowTypedErrors) {
  const std::string xml = to_xml(paper_experiment());
  const std::size_t stride = std::max<std::size_t>(1, xml.size() / 61);
  for (std::size_t n = 0; n < xml.size(); n += stride) {
    try {
      from_xml(std::string_view(xml).substr(0, n));
      FAIL() << "XML prefix of " << n << " bytes parsed successfully";
    } catch (const Error&) {
    }
  }
}

/// The paper experiment with one CCT node written twice: node 1's record is
/// appended again (append_child does not deduplicate), so both writers emit
/// a well-formed, checksummed file holding a duplicate record.
Experiment experiment_with_duplicate_record() {
  const Experiment exp = paper_experiment();
  auto tree = std::make_unique<structure::StructureTree>(exp.tree());
  prof::CanonicalCct cct = exp.cct().clone_with_tree(tree.get());
  const prof::CctNode n1 = cct.node(1);
  cct.append_child(n1.parent, n1.kind, n1.scope, n1.call_site);
  return Experiment(std::move(tree), std::move(cct), "dup", 1);
}

TEST(BinaryDb, RejectsDuplicateCctRecord) {
  // Folding the duplicate into node 1 would shift every later node id and
  // hang later records and samples off the wrong nodes.
  const std::string bytes = to_binary(experiment_with_duplicate_record());
  try {
    from_binary(bytes);
    FAIL() << "duplicate CCT record accepted";
  } catch (const ParseError& e) {
    EXPECT_NE(std::string(e.what()).find("duplicate cct record"),
              std::string::npos)
        << e.what();
  }
}

TEST(XmlDb, RejectsDuplicateCctRecord) {
  EXPECT_THROW(from_xml(to_xml(experiment_with_duplicate_record())),
               ParseError);
}

TEST(XmlDb, RejectsOutOfRangeParentAndSampleNode) {
  const std::string xml = to_xml(paper_experiment());
  const auto replace_first = [&xml](const std::string& from,
                                    const std::string& to) {
    std::string out = xml;
    const std::size_t at = out.find(from);
    EXPECT_NE(at, std::string::npos) << from;
    if (at != std::string::npos) out.replace(at, from.size(), to);
    return out;
  };
  // A <N> whose parent is past the end of the nodes decoded so far.
  EXPECT_THROW(from_xml(replace_first("<N k=\"1\" p=\"0\"",
                                      "<N k=\"1\" p=\"4000000\"")),
               ParseError);
  // A <V> naming a node past the end of the CCT.
  EXPECT_THROW(from_xml(replace_first("<V n=\"", "<V n=\"4000000")),
               ParseError);
  // Out-of-range kind, scope and call site take the same typed path.
  EXPECT_THROW(from_xml(replace_first("<N k=\"1\"", "<N k=\"9\"")),
               ParseError);
  EXPECT_THROW(from_xml(replace_first("\" s=\"", "\" s=\"4000000")),
               ParseError);
  EXPECT_THROW(from_xml(replace_first("\" cs=\"", "\" cs=\"4000000")),
               ParseError);
}

TEST(Db, MissingFilesThrowTypedErrors) {
  EXPECT_THROW(load_xml("/nonexistent/dir/exp.xml"), Error);
  EXPECT_THROW(load_binary("/nonexistent/dir/exp.pvdb"), Error);
}

}  // namespace
}  // namespace pathview::db
