// Reference PVDB1 decoder for oracle tests. Its CCT section is decoded the
// record-at-a-time way the batch db::detail::CctBuilder replaced: each node
// record is range-checked against the nodes decoded so far and inserted
// with CanonicalCct::find_or_add_child, and a record the sibling index
// already holds is a duplicate. Everything else mirrors the PVDB1 layout
// (docs/file-formats.md) so the two decoders can be run on the same bytes.
#pragma once

#include <bit>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>

#include "pathview/db/experiment.hpp"
#include "pathview/support/error.hpp"

namespace pathview::db::oracle {

class RefReader {
 public:
  RefReader(std::string_view bytes, std::size_t pos)
      : bytes_(bytes), pos_(pos) {}

  std::uint64_t u64() {
    std::uint64_t v = 0;
    for (int shift = 0;; shift += 7) {
      if (pos_ >= bytes_.size()) fail("truncated varint");
      const auto b = static_cast<std::uint8_t>(bytes_[pos_++]);
      if (shift >= 63 && (b & 0x7e) != 0) fail("varint overflow");
      v |= static_cast<std::uint64_t>(b & 0x7f) << shift;
      if ((b & 0x80) == 0) return v;
    }
  }
  std::int64_t i64() {
    const std::uint64_t z = u64();
    return static_cast<std::int64_t>((z >> 1) ^ (~(z & 1) + 1));
  }
  double f64() {
    if (bytes_.size() - pos_ < 8) fail("truncated double");
    std::uint64_t bits = 0;
    for (int i = 0; i < 8; ++i)
      bits |= static_cast<std::uint64_t>(
                  static_cast<std::uint8_t>(bytes_[pos_ + i]))
              << (8 * i);
    pos_ += 8;
    return std::bit_cast<double>(bits);
  }
  std::string str() {
    const std::uint64_t n = u64();
    if (n > bytes_.size() - pos_) fail("truncated string");
    std::string s(bytes_.substr(pos_, n));
    pos_ += n;
    return s;
  }
  std::size_t pos() const { return pos_; }
  bool at_end() const { return pos_ == bytes_.size(); }
  [[noreturn]] void fail(const std::string& what) const {
    throw ParseError("binary db: " + what, pos_);
  }

 private:
  std::string_view bytes_;
  std::size_t pos_;
};

/// Decode PVDB1 `bytes`. `cct_offset`, when given, receives the offset of
/// the CCT section (the place to aim mutations at).
inline Experiment reference_from_binary_v1(std::string_view bytes,
                                           std::size_t* cct_offset = nullptr) {
  if (bytes.substr(0, 6) != "PVDB1\n")
    throw ParseError("binary db: bad magic", 0);
  RefReader r(bytes, 6);
  std::string name = r.str();
  const auto nranks = static_cast<std::uint32_t>(r.u64());

  auto tree = std::make_unique<structure::StructureTree>();
  const std::uint64_t tn = r.u64();
  for (std::uint64_t i = 0; i < tn; ++i) {
    structure::SNode n;
    const std::uint64_t kind = r.u64();
    if (kind > static_cast<std::uint64_t>(structure::SKind::kStmt))
      throw ParseError("binary db: bad structure scope kind", r.pos());
    n.kind = static_cast<structure::SKind>(kind);
    n.parent = static_cast<structure::SNodeId>(r.u64());
    n.name = tree->names().intern(r.str());
    n.file = tree->names().intern(r.str());
    n.line = static_cast<int>(r.i64());
    n.call_line = static_cast<int>(r.i64());
    n.entry = r.u64();
    n.has_source = r.u64() != 0;
    if (n.parent >= tree->size())
      throw ParseError("binary db: dangling structure parent", r.pos());
    const structure::SNodeId id = tree->add_node(std::move(n));
    const structure::SNode& added = tree->node(id);
    if (added.kind == structure::SKind::kProc)
      tree->map_proc_entry(added.entry, id);
    if (added.kind == structure::SKind::kStmt) tree->map_addr(added.entry, id);
  }

  if (cct_offset != nullptr) *cct_offset = r.pos();
  prof::CanonicalCct cct(tree.get());
  const auto scope_ok = [&tree](std::uint64_t s) {
    return s == structure::kSNull || s < tree->size();
  };
  const std::uint64_t cn = r.u64();
  for (std::uint64_t i = 0; i < cn; ++i) {
    const std::uint64_t kind = r.u64();
    const std::uint64_t parent = r.u64();
    const std::uint64_t scope = r.u64();
    const std::uint64_t cs = r.u64();
    const std::uint64_t call_site = cs == 0 ? structure::kSNull : cs - 1;
    if (kind > static_cast<std::uint64_t>(prof::CctKind::kStmt))
      r.fail("bad cct node kind");
    if (parent >= cct.size()) r.fail("dangling cct parent");
    if (!scope_ok(scope)) r.fail("cct scope out of range");
    if (!scope_ok(call_site)) r.fail("cct call site out of range");
    const std::size_t before = cct.size();
    cct.find_or_add_child(static_cast<prof::CctNodeId>(parent),
                          static_cast<prof::CctKind>(kind),
                          static_cast<structure::SNodeId>(scope),
                          static_cast<structure::SNodeId>(call_site));
    if (cct.size() == before) r.fail("duplicate cct record");
  }

  const std::uint64_t cells = r.u64();
  for (std::uint64_t i = 0; i < cells; ++i) {
    const std::uint64_t node = r.u64();
    const std::uint64_t e = r.u64();
    const double v = r.f64();
    if (node >= cct.size() || e >= model::kNumEvents)
      r.fail("bad sample cell");
    model::EventVector ev;
    ev.v[e] = v;
    cct.add_samples(static_cast<prof::CctNodeId>(node), ev);
  }

  Experiment exp(std::move(tree), std::move(cct), std::move(name), nranks);
  const std::uint64_t nmetrics = r.u64();
  for (std::uint64_t i = 0; i < nmetrics; ++i) {
    metrics::MetricDesc d;
    d.name = r.str();
    d.kind = metrics::MetricKind::kDerived;
    d.formula = r.str();
    const std::size_t at = r.pos() - d.formula.size();
    try {
      exp.add_user_metric(std::move(d));
    } catch (const InvalidArgument& e) {
      throw ParseError(std::string("binary db: bad user metric: ") + e.what(),
                       at);
    }
  }
  if (!r.at_end()) r.fail("trailing bytes");
  return exp;
}

}  // namespace pathview::db::oracle
