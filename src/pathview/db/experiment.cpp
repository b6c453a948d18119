#include "pathview/db/experiment.hpp"

#include <algorithm>

#include "pathview/metrics/formula.hpp"
#include "pathview/obs/obs.hpp"
#include "pathview/support/error.hpp"
#include "pathview/support/io.hpp"

namespace pathview::db {

Experiment::Experiment(std::unique_ptr<structure::StructureTree> tree,
                       prof::CanonicalCct cct, std::string name,
                       std::uint32_t nranks)
    : tree_(std::move(tree)),
      cct_(std::make_unique<prof::CanonicalCct>(std::move(cct))),
      name_(std::move(name)),
      nranks_(nranks),
      degraded_(cct_->degraded()) {
  if (&cct_->tree() != tree_.get())
    throw InvalidArgument("Experiment: cct does not reference the given tree");
}

void Experiment::set_dropped_ranks(std::vector<std::uint32_t> ranks) {
  std::sort(ranks.begin(), ranks.end());
  ranks.erase(std::unique(ranks.begin(), ranks.end()), ranks.end());
  dropped_ranks_ = std::move(ranks);
  if (!dropped_ranks_.empty()) set_degraded(true);
}

Experiment Experiment::capture(const structure::StructureTree& tree,
                               const prof::CanonicalCct& cct, std::string name,
                               std::uint32_t nranks) {
  PV_SPAN("db.experiment.capture");
  auto tree_copy = std::make_unique<structure::StructureTree>(tree);
  prof::CanonicalCct cct_copy = cct.clone_with_tree(tree_copy.get());
  return Experiment(std::move(tree_copy), std::move(cct_copy),
                    std::move(name), nranks);
}

void Experiment::add_user_metric(metrics::MetricDesc desc) {
  if (desc.kind != metrics::MetricKind::kDerived)
    throw InvalidArgument("Experiment::add_user_metric: not a derived metric");
  // Validate the formula eagerly so corrupt definitions fail at save time.
  (void)metrics::Formula::parse(desc.formula);
  user_metrics_.push_back(std::move(desc));
}

bool Experiment::equivalent(const Experiment& a, const Experiment& b,
                            std::string* why) {
  auto fail = [&](const std::string& what) {
    if (why) *why = what;
    return false;
  };
  if (a.name() != b.name()) return fail("name mismatch");
  if (a.nranks() != b.nranks()) return fail("nranks mismatch");
  if (a.degraded() != b.degraded()) return fail("degraded flag mismatch");
  if (a.dropped_ranks() != b.dropped_ranks())
    return fail("dropped rank list mismatch");
  if (a.user_metrics().size() != b.user_metrics().size())
    return fail("user metric count mismatch");
  for (std::size_t i = 0; i < a.user_metrics().size(); ++i)
    if (a.user_metrics()[i].name != b.user_metrics()[i].name ||
        a.user_metrics()[i].formula != b.user_metrics()[i].formula)
      return fail("user metric " + std::to_string(i) + " mismatch");
  if (!structure::StructureTree::equivalent(a.tree(), b.tree(), why))
    return false;
  if (a.cct().size() != b.cct().size()) return fail("cct size mismatch");
  for (prof::CctNodeId n = 0; n < a.cct().size(); ++n) {
    const prof::CctNode& na = a.cct().node(n);
    const prof::CctNode& nb = b.cct().node(n);
    if (na.kind != nb.kind || na.parent != nb.parent ||
        na.scope != nb.scope || na.call_site != nb.call_site ||
        na.children != nb.children)
      return fail("cct node " + std::to_string(n) + " mismatch");
    for (std::size_t e = 0; e < model::kNumEvents; ++e)
      if (a.cct().samples(n).v[e] != b.cct().samples(n).v[e])
        return fail("cct samples " + std::to_string(n) + " mismatch");
  }
  return true;
}

void save_xml(const Experiment& exp, const std::string& path) {
  support::atomic_write_file(path, to_xml(exp), "db.experiment.save");
}
Experiment load_xml(const std::string& path) {
  return from_xml(support::read_file(path, "db.experiment.load"));
}

void save_binary(const Experiment& exp, const std::string& path) {
  support::atomic_write_file(path, to_binary(exp), "db.experiment.save");
}
Experiment load_binary(const std::string& path) {
  return from_binary(support::read_file(path, "db.experiment.load"));
}

OpenResult open(const std::string& path, const OpenOptions& opts) {
  PV_SPAN("db.open");
  const std::string bytes = support::read_file(path, "db.experiment.load");
  LoadReport report;
  if (sniff_binary(bytes)) {
    Experiment exp = from_binary(bytes, LoadOptions{opts.salvage}, &report);
    if (!report.clean()) PV_COUNTER_ADD("db.salvage.loads", 1);
    return OpenResult{std::move(exp), std::move(report)};
  }
  // XML prolog or bare root tag (the writer emits `<?xml` first, but accept
  // hand-edited files that start at the root element).
  std::size_t i = 0;
  while (i < bytes.size() &&
         (bytes[i] == ' ' || bytes[i] == '\t' || bytes[i] == '\r' ||
          bytes[i] == '\n'))
    ++i;
  if (i < bytes.size() && bytes[i] == '<')
    return OpenResult{from_xml(bytes), std::move(report)};
  throw ParseError("db::open: '" + path +
                       "' is neither a PVDB binary nor an XML experiment "
                       "database",
                   i);
}

Experiment load(const std::string& path, const LoadOptions& opts,
                LoadReport* report) {
  OpenResult r = open(path, OpenOptions{opts.salvage});
  if (report != nullptr) report->merge(r.report);
  return std::move(r.experiment);
}

}  // namespace pathview::db
