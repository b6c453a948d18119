// XML experiment-database writer and reader (the document-level logic; the
// generic XML subset parser lives in xml_parser.cpp).
#include <charconv>

#include "pathview/db/cct_records.hpp"
#include "pathview/db/experiment.hpp"
#include "pathview/db/xml.hpp"
#include "pathview/obs/obs.hpp"
#include "pathview/support/error.hpp"

namespace pathview::db {

namespace {

/// A structurally broken database is a ParseError at the element's '<'.
[[noreturn]] void bad_element(const std::string& what, const XmlNode& n) {
  throw ParseError("xml: " + what, n.offset);
}

std::uint64_t to_u64(const std::string& s, const XmlNode& n) {
  std::uint64_t v = 0;
  auto [p, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
  if (ec != std::errc() || p != s.data() + s.size())
    bad_element("bad integer '" + s + "'", n);
  return v;
}

std::uint64_t u64_attr(const XmlNode& n, std::string_view key) {
  return to_u64(n.attr(key), n);
}

double f64_attr(const XmlNode& n, std::string_view key) {
  const std::string& s = n.attr(key);
  double v = 0.0;
  auto [p, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
  if (ec != std::errc() || p != s.data() + s.size())
    bad_element("bad number '" + s + "'", n);
  return v;
}

std::string f64_str(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

std::string to_xml(const Experiment& exp) {
  PV_SPAN("db.xml.write");
  const structure::StructureTree& tree = exp.tree();
  const prof::CanonicalCct& cct = exp.cct();

  std::string out = "<?xml version=\"1.0\"?>\n";
  out += "<Experiment name=\"" + xml_escape(exp.name()) + "\" nranks=\"" +
         std::to_string(exp.nranks()) + "\"";
  // Degradation attributes are omitted for clean experiments so the output
  // stays byte-identical with older writers (and older parsers keep
  // working: they ignore unknown attributes).
  if (exp.degraded()) out += " degraded=\"1\"";
  if (!exp.dropped_ranks().empty()) {
    out += " dropped=\"";
    for (std::size_t i = 0; i < exp.dropped_ranks().size(); ++i) {
      if (i != 0) out += ',';
      out += std::to_string(exp.dropped_ranks()[i]);
    }
    out += "\"";
  }
  out += ">\n";

  out += " <Structure>\n";
  for (structure::SNodeId i = 1; i < tree.size(); ++i) {
    const structure::SNode& n = tree.node(i);
    out += "  <S k=\"" + std::to_string(static_cast<int>(n.kind)) +
           "\" p=\"" + std::to_string(n.parent) + "\" n=\"" +
           xml_escape(tree.names().str(n.name)) + "\" f=\"" +
           xml_escape(tree.names().str(n.file)) + "\" l=\"" +
           std::to_string(n.line) + "\" cl=\"" + std::to_string(n.call_line) +
           "\" e=\"" + std::to_string(n.entry) + "\" src=\"" +
           (n.has_source ? "1" : "0") + "\"/>\n";
  }
  out += " </Structure>\n";

  out += " <CCT>\n";
  for (prof::CctNodeId i = 1; i < cct.size(); ++i) {
    const prof::CctNode& n = cct.node(i);
    out += "  <N k=\"" + std::to_string(static_cast<int>(n.kind)) +
           "\" p=\"" + std::to_string(n.parent) + "\" s=\"" +
           std::to_string(n.scope) + "\" cs=\"" + std::to_string(n.call_site) +
           "\"/>\n";
  }
  out += " </CCT>\n";

  out += " <Samples>\n";
  for (prof::CctNodeId i = 0; i < cct.size(); ++i) {
    const model::EventVector& ev = cct.samples(i);
    for (std::size_t e = 0; e < model::kNumEvents; ++e)
      if (ev.v[e] != 0.0)
        out += "  <V n=\"" + std::to_string(i) + "\" e=\"" +
               std::to_string(e) + "\" x=\"" + f64_str(ev.v[e]) + "\"/>\n";
  }
  out += " </Samples>\n";

  out += " <Metrics>\n";
  for (const metrics::MetricDesc& d : exp.user_metrics())
    out += "  <D n=\"" + xml_escape(d.name) + "\" f=\"" +
           xml_escape(d.formula) + "\"/>\n";
  out += " </Metrics>\n";
  out += "</Experiment>\n";
  PV_COUNTER_ADD("db.xml_bytes_written", out.size());
  return out;
}

Experiment from_xml(std::string_view xml) {
  PV_SPAN("db.xml.read");
  PV_COUNTER_ADD("db.xml_bytes_read", xml.size());
  const XmlNode root = parse_xml(xml);
  if (root.name != "Experiment")
    bad_element("root element is not <Experiment>", root);

  auto tree = std::make_unique<structure::StructureTree>();
  for (const XmlNode& s : root.child("Structure").children) {
    if (s.name != "S") bad_element("expected <S>", s);
    const std::uint64_t kind = u64_attr(s, "k");
    const std::uint64_t parent = u64_attr(s, "p");
    if (kind > static_cast<std::uint64_t>(structure::SKind::kStmt))
      throw ParseError("xml: bad structure scope kind", s.offset);
    if (parent >= tree->size())
      throw ParseError("xml: dangling structure parent", s.offset);
    structure::SNode n;
    n.kind = static_cast<structure::SKind>(kind);
    n.parent = static_cast<structure::SNodeId>(parent);
    n.name = tree->names().intern(s.attr("n"));
    n.file = tree->names().intern(s.attr("f"));
    n.line = static_cast<int>(u64_attr(s, "l"));
    n.call_line = static_cast<int>(u64_attr(s, "cl"));
    n.entry = u64_attr(s, "e");
    n.has_source = s.attr("src") == "1";
    const structure::SNodeId id = tree->add_node(std::move(n));
    const structure::SNode& added = tree->node(id);
    if (added.kind == structure::SKind::kProc)
      tree->map_proc_entry(added.entry, id);
    if (added.kind == structure::SKind::kStmt) tree->map_addr(added.entry, id);
  }

  const std::vector<XmlNode>& records = root.child("CCT").children;
  detail::CctBuilder builder(tree.get(), records.size(), "xml");
  for (const XmlNode& c : records) {
    if (c.name != "N") bad_element("expected <N>", c);
    builder.add({u64_attr(c, "k"), u64_attr(c, "p"), u64_attr(c, "s"),
                 u64_attr(c, "cs")},
                c.offset);
  }
  prof::CanonicalCct cct = builder.build();

  for (const XmlNode& v : root.child("Samples").children) {
    if (v.name != "V") bad_element("expected <V>", v);
    detail::add_sample_record(cct, u64_attr(v, "n"), u64_attr(v, "e"),
                              f64_attr(v, "x"), "xml", v.offset);
  }

  Experiment exp(std::move(tree), std::move(cct), root.attr("name"),
                 static_cast<std::uint32_t>(u64_attr(root, "nranks")));
  if (root.attr_or("degraded", "0") == "1") exp.set_degraded(true);
  if (const std::string dropped = root.attr_or("dropped", "");
      !dropped.empty()) {
    std::vector<std::uint32_t> ranks;
    std::size_t start = 0;
    while (start <= dropped.size()) {
      const std::size_t comma = dropped.find(',', start);
      const std::string tok = dropped.substr(
          start, comma == std::string::npos ? std::string::npos
                                            : comma - start);
      if (!tok.empty())
        ranks.push_back(static_cast<std::uint32_t>(to_u64(tok, root)));
      if (comma == std::string::npos) break;
      start = comma + 1;
    }
    exp.set_dropped_ranks(std::move(ranks));
  }
  // <Metrics> is optional for backward compatibility with older files.
  for (const XmlNode& child : root.children) {
    if (child.name != "Metrics") continue;
    for (const XmlNode& d : child.children) {
      if (d.name != "D") bad_element("expected <D>", d);
      metrics::MetricDesc md;
      md.name = d.attr("n");
      md.kind = metrics::MetricKind::kDerived;
      md.formula = d.attr("f");
      // A stored formula that does not parse is a corrupt file.
      try {
        exp.add_user_metric(std::move(md));
      } catch (const InvalidArgument& e) {
        throw ParseError(std::string("xml: bad user metric: ") + e.what(),
                         d.offset);
      }
    }
  }
  return exp;
}

}  // namespace pathview::db
