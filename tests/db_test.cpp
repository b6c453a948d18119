// Tests for experiment databases: XML and compact binary round trips,
// parser error handling, and the size advantage of the binary format.
#include <gtest/gtest.h>

#include "pathview/support/error.hpp"

#include <algorithm>
#include <atomic>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <new>
#include <optional>
#include <string>
#include <vector>

#include "pathview/db/experiment.hpp"
#include "pathview/db/xml.hpp"
#include "pathview/prof/correlate.hpp"
#include "pathview/sim/engine.hpp"
#include "pathview/support/crc32c.hpp"
#include "pathview/support/prng.hpp"
#include "pathview/workloads/paper_example.hpp"
#include "pathview/workloads/random_program.hpp"
#include "cct_decode_oracle.hpp"

// The largest single allocation made while `g_track_allocs` is set: the
// footer test below bounds what a crafted section count can reserve.
namespace {
std::atomic<bool> g_track_allocs{false};
std::atomic<std::size_t> g_largest_alloc{0};
}  // namespace

// GCC pairs the builtin meaning of new/delete with malloc/free and warns on
// these replacements; they allocate and free consistently.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void* operator new(std::size_t n) {
  if (g_track_allocs.load(std::memory_order_relaxed)) {
    std::size_t seen = g_largest_alloc.load(std::memory_order_relaxed);
    while (n > seen && !g_largest_alloc.compare_exchange_weak(seen, n)) {
    }
  }
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
#pragma GCC diagnostic pop

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

TEST(XmlDb, MalformedStoredUserMetricIsAParseError) {
  // "$0 * 4 - $2" -> "$0 * 4 - *2": the file is well formed, the formula
  // is not. The error names the <D> element that holds it.
  std::string xml = to_xml(paper_experiment());
  const std::size_t f = xml.find("$0 * 4 - $2");
  ASSERT_NE(f, std::string::npos);
  xml[f + 9] = '*';
  const std::size_t d = xml.rfind("<D ", f);
  ASSERT_NE(d, std::string::npos);
  try {
    from_xml(xml);
    FAIL() << "malformed user metric formula accepted";
  } catch (const ParseError& e) {
    EXPECT_EQ(e.offset(), d) << e.what();
    EXPECT_NE(std::string(e.what()).find("formula error"), std::string::npos)
        << e.what();
  }
}

TEST(BinaryDb, MalformedStoredUserMetricIsAParseError) {
  // PVDB1 has no checksums, so the broken formula reaches the metric reader,
  // which reports it where the formula text starts.
  std::string bytes = to_binary(paper_experiment(), BinaryVersion::kV1);
  const std::size_t f = bytes.find("$0 * 4 - $2");
  ASSERT_NE(f, std::string::npos);
  bytes[f + 9] = '*';
  try {
    from_binary(bytes);
    FAIL() << "malformed user metric formula accepted";
  } catch (const ParseError& e) {
    EXPECT_EQ(e.offset(), f) << e.what();
  }
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

// --- the batch CCT decoder against the record-at-a-time reference ----------

Experiment random_experiment(std::uint64_t seed, std::uint32_t procs) {
  workloads::Workload w = workloads::make_random_program(
      {.seed = seed, .num_procs = procs, .max_body_stmts = 4});
  sim::ExecutionEngine eng(*w.program, *w.lowering, w.run);
  const prof::CanonicalCct cct = prof::correlate(eng.run(), *w.tree);
  return Experiment::capture(*w.tree, cct, "rand" + std::to_string(seed), 1);
}

/// Every node field, child list and sample bit.
void expect_same_cct(const prof::CanonicalCct& want,
                     const prof::CanonicalCct& got, const std::string& what) {
  ASSERT_EQ(want.size(), got.size()) << what;
  for (prof::CctNodeId n = 0; n < want.size(); ++n) {
    const prof::CctNode& a = want.node(n);
    const prof::CctNode& b = got.node(n);
    EXPECT_TRUE(a.kind == b.kind && a.parent == b.parent &&
                a.scope == b.scope && a.call_site == b.call_site &&
                a.children == b.children)
        << what << ": node " << n;
    EXPECT_EQ(std::memcmp(&want.samples(n), &got.samples(n),
                          sizeof(model::EventVector)),
              0)
        << what << ": samples of node " << n;
  }
}

TEST(CctDecodeOracle, BatchBuildMatchesRecordAtATimeDecode) {
  for (std::uint64_t seed = 11; seed <= 22; ++seed) {
    const Experiment exp =
        random_experiment(seed, 4 + static_cast<std::uint32_t>(seed % 12));
    const Experiment ref =
        oracle::reference_from_binary_v1(to_binary(exp, BinaryVersion::kV1));
    const std::string tag = "seed " + std::to_string(seed);
    const std::string v1 = to_binary(exp, BinaryVersion::kV1);
    const std::string v2 = to_binary(exp);
    const std::string xml = to_xml(exp);
    const Experiment from_v1 = from_binary(v1);
    const Experiment from_v2 = from_binary(v2);
    const Experiment from_x = from_xml(xml);
    expect_same_cct(ref.cct(), from_v1.cct(), tag + " PVDB1");
    expect_same_cct(ref.cct(), from_v2.cct(), tag + " PVDB2");
    expect_same_cct(ref.cct(), from_x.cct(), tag + " XML");
    std::string why;
    EXPECT_TRUE(Experiment::equivalent(exp, from_v2, &why)) << tag << why;
    EXPECT_TRUE(Experiment::equivalent(exp, from_x, &why)) << tag << why;
    EXPECT_EQ(to_binary(from_v1, BinaryVersion::kV1), v1) << tag;
    EXPECT_EQ(to_binary(from_v2), v2) << tag;
    EXPECT_EQ(to_xml(from_x), xml) << tag;
  }
}

TEST(CctDecodeOracle, DuplicateRecordsFailAtTheLowestDuplicate) {
  Prng rng(515);
  for (std::uint64_t seed = 31; seed <= 40; ++seed) {
    const Experiment exp = random_experiment(seed, 6);
    auto tree = std::make_unique<structure::StructureTree>(exp.tree());
    prof::CanonicalCct cct = exp.cct().clone_with_tree(tree.get());
    // Repeat one to three random records at the end, in random order, so
    // the lowest-id duplicate need not repeat the lowest-id original.
    const std::size_t dups = 1 + rng.next_below(3);
    for (std::size_t d = 0; d < dups; ++d) {
      const prof::CctNode n = cct.node(static_cast<prof::CctNodeId>(
          1 + rng.next_below(exp.cct().size() - 1)));
      cct.append_child(n.parent, n.kind, n.scope, n.call_site);
    }
    const Experiment bad(std::move(tree), std::move(cct), "dup", 1);
    const std::string bytes = to_binary(bad, BinaryVersion::kV1);
    std::string want;
    std::size_t want_at = 0;
    try {
      oracle::reference_from_binary_v1(bytes);
    } catch (const ParseError& e) {
      want = e.what();
      want_at = e.offset();
    }
    ASSERT_NE(want.find("duplicate cct record"), std::string::npos) << want;
    try {
      from_binary(bytes);
      ADD_FAILURE() << "seed " << seed << ": duplicate accepted";
    } catch (const ParseError& e) {
      EXPECT_EQ(e.what(), want) << "seed " << seed;
      EXPECT_EQ(e.offset(), want_at) << "seed " << seed;
    }
    EXPECT_THROW(from_binary(to_binary(bad)), ParseError);
    EXPECT_THROW(from_xml(to_xml(bad)), ParseError);
  }
}

/// LEB128 bytes of `v`, as the writer encodes varints.
std::string varint(std::uint64_t v) {
  std::string out;
  while (v >= 0x80) {
    out += static_cast<char>((v & 0x7f) | 0x80);
    v >>= 7;
  }
  out += static_cast<char>(v);
  return out;
}

TEST(BinaryDb, MutatedV1BytesDecodeOrThrowParseError) {
  // PVDB1 has no checksums, so every mutation reaches the decoders. Each
  // case must end the same way under the batch decoder and the reference:
  // both throw the same error class, or both return equivalent experiments.
  const Experiment exp = random_experiment(84, 3);  // 318 CCT nodes
  const std::string base = to_binary(exp, BinaryVersion::kV1);
  std::size_t cct_at = 0;
  (void)oracle::reference_from_binary_v1(base, &cct_at);
  ASSERT_LT(cct_at, base.size());
  Prng rng(0x5eed);
  // Most mutations land in the CCT and sample sections.
  const auto pos = [&] {
    return rng.next_bool(0.8) ? cct_at + rng.next_below(base.size() - cct_at)
                              : rng.next_below(base.size());
  };
  std::size_t decoded = 0;
  std::size_t rejected = 0;
  for (int i = 0; i < 3000; ++i) {
    std::string bad = base;
    switch (rng.next_below(3)) {
      case 0:  // one to three bit flips
        for (std::uint64_t f = 1 + rng.next_below(3); f > 0; --f)
          bad[pos()] ^= static_cast<char>(1u << rng.next_below(8));
        break;
      case 1:  // truncation
        bad.resize(pos());
        break;
      default: {  // replace up to three bytes with another varint
        // Every tenth splice rewrites the CCT record count itself.
        const std::size_t at = i % 10 == 0 ? cct_at : pos();
        const std::uint64_t pick = rng.next_below(3);
        const std::uint64_t v =
            pick == 0   ? rng.next_below(8)
            : pick == 1 ? rng.next_below(2 * exp.cct().size())
                        : rng.next_u64() >> rng.next_below(64);
        bad.replace(at, std::min<std::size_t>(rng.next_below(4), bad.size() - at),
                    varint(v));
      }
    }
    // The outcome: decoded, or a ParseError (a user metric whose formula
    // the mutation broke included); any other exception fails the test.
    const auto run = [&bad](auto decode, std::optional<Experiment>& out) {
      try {
        out.emplace(decode(bad));
        return std::string("decoded");
      } catch (const ParseError& e) {
        return std::string("ParseError");
      }
    };
    std::optional<Experiment> got;
    std::optional<Experiment> want;
    const std::string got_end =
        run([](std::string_view b) { return from_binary(b); }, got);
    const std::string want_end = run(
        [](std::string_view b) { return oracle::reference_from_binary_v1(b); },
        want);
    ASSERT_EQ(got_end, want_end) << "case " << i;
    if (got) {
      ++decoded;
      std::string why;
      EXPECT_TRUE(Experiment::equivalent(*want, *got, &why))
          << "case " << i << ": " << why;
    } else {
      ++rejected;
    }
  }
  EXPECT_GT(decoded, 100u);
  EXPECT_GT(rejected, 100u);
}

TEST(XmlDb, MutatedBytesDecodeOrThrowParseError) {
  // A structurally broken document (a missing or renamed attribute, a
  // stray element, a bad number) is a corrupt file, like a broken byte
  // stream: a ParseError that points at the element, never another error.
  Experiment exp = random_experiment(84, 3);
  exp.add_user_metric(metrics::MetricDesc{
      "WASTE", metrics::MetricKind::kDerived, model::Event::kCycles, true,
      "$0 * 4 - $2"});
  const std::string base = to_xml(exp);
  // Where each attribute name and element name starts.
  std::vector<std::size_t> attrs;
  std::vector<std::size_t> elems;
  for (std::size_t at = base.find('<'); at != std::string::npos;
       at = base.find('<', at + 1))
    if (base.compare(at, 2, "</") != 0 && base.compare(at, 2, "<?") != 0)
      elems.push_back(at + 1);
  for (std::size_t at = base.find("=\""); at != std::string::npos;
       at = base.find("=\"", at + 1)) {
    std::size_t name = at;
    while (base[name - 1] != ' ') --name;
    attrs.push_back(name);
  }
  ASSERT_GT(attrs.size(), 100u);
  Prng rng(0xc0de);
  const char* const names[] = {"k", "p", "s", "cs", "n", "e", "x", "f",
                               "l", "cl", "src", "name", "nranks", "zz"};
  const char* const tags[] = {"S", "N", "V", "D", "E", "Metrics", "CCT"};
  std::size_t decoded = 0;
  std::size_t rejected = 0;
  for (int i = 0; i < 2400; ++i) {
    std::string bad = base;
    switch (rng.next_below(4)) {
      case 0:  // one to three bit flips
        for (std::uint64_t f = 1 + rng.next_below(3); f > 0; --f)
          bad[rng.next_below(bad.size())] ^=
              static_cast<char>(1u << rng.next_below(8));
        break;
      case 1:  // truncation
        bad.resize(rng.next_below(bad.size()));
        break;
      case 2: {  // rename an attribute, to another valid one or not
        const std::size_t at = attrs[rng.next_below(attrs.size())];
        bad.replace(at, bad.find('=', at) - at,
                    names[rng.next_below(std::size(names))]);
        break;
      }
      default: {  // rename an element
        const std::size_t at = elems[rng.next_below(elems.size())];
        std::size_t end = at;
        while (bad[end] != ' ' && bad[end] != '>' && bad[end] != '/') ++end;
        bad.replace(at, end - at, tags[rng.next_below(std::size(tags))]);
        break;
      }
    }
    try {
      (void)from_xml(bad);
      ++decoded;
    } catch (const ParseError& e) {
      ++rejected;
      ASSERT_LE(e.offset(), bad.size()) << "case " << i << ": " << e.what();
    } catch (const std::exception& e) {
      FAIL() << "case " << i << ": not a ParseError: " << e.what();
    }
  }
  EXPECT_GT(decoded, 100u);
  EXPECT_GT(rejected, 1000u);

  // Numeric suffixes: text after an attribute value that is itself a
  // number. Every number the reader takes must be the whole value, so a
  // suffixed sample value (x=) is always rejected, at its <V>.
  const char* const suffixes[] = {"zz", "x", " ", "e", "e+", "-", ".5.5",
                                  "1e", "0x1", "nan", ",7", "\t"};
  std::size_t suffixed_samples = 0;
  for (int i = 0; i < 600; ++i) {
    const std::size_t at = attrs[rng.next_below(attrs.size())];
    const std::size_t open = base.find("=\"", at) + 2;
    const std::size_t close = base.find('"', open);
    const std::string value = base.substr(open, close - open);
    double number = 0.0;
    const auto [end, ec] =
        std::from_chars(value.data(), value.data() + value.size(), number);
    if (ec != std::errc() || end != value.data() + value.size()) continue;
    std::string bad = base;
    bad.insert(close, suffixes[rng.next_below(std::size(suffixes))]);
    const bool sample = base.compare(at, 2, "x=") == 0;
    try {
      (void)from_xml(bad);
      EXPECT_FALSE(sample) << "case " << i << ": suffixed x= accepted";
    } catch (const ParseError& e) {
      ASSERT_LE(e.offset(), bad.size()) << "case " << i << ": " << e.what();
      if (sample) {
        EXPECT_EQ(e.offset(), base.rfind("<V ", at)) << e.what();
        ++suffixed_samples;
      }
    } catch (const std::exception& e) {
      FAIL() << "case " << i << ": not a ParseError: " << e.what();
    }
  }
  EXPECT_GT(suffixed_samples, 10u);
}

TEST(XmlDb, NumberWithTrailingGarbageIsParseError) {
  const std::string xml = to_xml(paper_experiment());
  const std::size_t v = xml.find("<V ");
  ASSERT_NE(v, std::string::npos);
  const std::size_t close = xml.find('"', xml.find("x=\"", v) + 3);
  for (const char* suffix : {"zz", " ", "e", ".0.0"}) {
    std::string bad = xml;
    bad.insert(close, suffix);
    try {
      from_xml(bad);
      FAIL() << "sample value with suffix '" << suffix << "' accepted";
    } catch (const ParseError& e) {
      EXPECT_EQ(e.offset(), v) << e.what();
      EXPECT_NE(std::string(e.what()).find("bad number"), std::string::npos)
          << e.what();
    }
  }
  // The unmutated value still loads, bit for bit.
  EXPECT_EQ(to_xml(from_xml(xml)), xml);
}

TEST(XmlDb, StructuralErrorsCarryTheElementOffset) {
  // The two cases that used to fail as InvalidArgument with no offset.
  const std::string xml = to_xml(paper_experiment());
  const std::size_t n = xml.find("<N k=");
  ASSERT_NE(n, std::string::npos);
  std::string renamed = xml;
  renamed[n + 3] = 'q';  // <N q="..."
  std::string stray = xml;
  const std::size_t d = stray.find("<D ");
  ASSERT_NE(d, std::string::npos);
  stray[d + 1] = 'E';  // an <E> inside <Metrics>
  for (const auto& [text, at] : {std::pair{renamed, n}, std::pair{stray, d}}) {
    try {
      from_xml(text);
      FAIL() << "broken document accepted";
    } catch (const ParseError& e) {
      EXPECT_EQ(e.offset(), at) << e.what();
    }
  }
}

TEST(BinaryDb, FooterSectionCountIsBoundedByTheFooter) {
  // A sealed footer whose section count is below the file size but far
  // above what its own bytes can hold: the load must fail without reserving
  // space for that many section entries.
  const std::string bytes = to_binary(random_experiment(88, 12));
  // Walk the section headers to the footer's 'F'.
  std::size_t pos = 6;
  const auto read_varint = [&bytes, &pos] {
    std::uint64_t v = 0;
    for (int shift = 0;; shift += 7) {
      const auto b = static_cast<std::uint8_t>(bytes[pos++]);
      v |= static_cast<std::uint64_t>(b & 0x7f) << shift;
      if ((b & 0x80) == 0) return v;
    }
  };
  while (bytes[pos] == 'S') {
    ++pos;
    (void)read_varint();
    pos += read_varint() + 4;
  }
  ASSERT_EQ(bytes[pos], 'F');
  const std::size_t footer_at = pos++;
  (void)read_varint();  // the honest section count
  const std::string entries =
      bytes.substr(pos, bytes.size() - 8 - pos);  // up to crc + trailer
  std::string footer = "F" + varint(bytes.size() - 1) + entries;
  std::string crafted = bytes.substr(0, footer_at) + footer;
  const std::uint32_t crc = support::crc32c(footer);
  for (int i = 0; i < 4; ++i) crafted += static_cast<char>(crc >> (8 * i));
  crafted += "PVZ1";
  ASSERT_GT(crafted.size(), 10000u);

  g_largest_alloc = 0;
  g_track_allocs = true;
  bool threw = false;
  try {
    from_binary(crafted);
  } catch (const ParseError&) {
    threw = true;
  }
  g_track_allocs = false;
  EXPECT_TRUE(threw);
  EXPECT_LT(g_largest_alloc.load(), crafted.size());
}

TEST(Db, MissingFilesThrowTypedErrors) {
  EXPECT_THROW(load_xml("/nonexistent/dir/exp.xml"), Error);
  EXPECT_THROW(load_binary("/nonexistent/dir/exp.pvdb"), Error);
}

}  // namespace
}  // namespace pathview::db
