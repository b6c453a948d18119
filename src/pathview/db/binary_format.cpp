// The compact binary experiment format (the paper's stated future work:
// "replacing our XML format for profiles with a more compact binary
// format"). Two versions share one reader:
//
//   * PVDB1 — the legacy stream: magic, then LEB128 varints (zigzag for
//     signed values), length-prefixed strings, fixed 8-byte LE doubles.
//     No checksums; any torn write is undetectable. Still written on
//     request (BinaryVersion::kV1) and read forever.
//
//   * PVDB2 — the crash-safe sectioned layout. After the magic, the file
//     is a sequence of self-describing sections
//
//         'S' varint id, varint len, payload[len], u32-LE crc32c(payload)
//
//     followed by a sealed footer
//
//         'F' varint nsections, per section (varint id, offset, len),
//         u32-LE crc32c of the footer bytes, trailer magic "PVZ1"
//
//     The trailer proves the writer sealed the file; every payload and the
//     footer itself are independently checksummed. Strict loads reject any
//     damage. Salvage loads (LoadOptions::salvage) skip damaged *optional*
//     sections (metadata, samples, user metrics), rebuild the section map
//     by scanning when the footer is lost, drop a truncated tail, record
//     every decision in a LoadReport, and mark the result degraded when
//     measured data was lost. The structure and CCT sections are
//     load-bearing: without them there is no tree to hang anything on, so
//     damage there fails even a salvage load. Unknown section ids are
//     skipped in both modes (forward compatibility).
#include <algorithm>
#include <bit>
#include <cstring>
#include <optional>

#include "pathview/db/cct_records.hpp"
#include "pathview/db/experiment.hpp"
#include "pathview/obs/obs.hpp"
#include "pathview/support/crc32c.hpp"
#include "pathview/support/error.hpp"

namespace pathview::db {

namespace {

constexpr char kMagicV1[] = "PVDB1\n";
constexpr char kMagicV2[] = "PVDB2\n";
constexpr std::size_t kMagicLen = 6;
constexpr char kTrailer[] = "PVZ1";
constexpr std::size_t kTrailerLen = 4;

// PVDB2 section ids. Meta, samples, and user metrics are optional under
// salvage; structure and cct are load-bearing.
enum SectionId : std::uint64_t {
  kSecMeta = 1,
  kSecStructure = 2,
  kSecCct = 3,
  kSecSamples = 4,
  kSecMetrics = 5,
};

// Meta-section flag bits.
constexpr std::uint64_t kFlagDegraded = 1;

class Writer {
 public:
  void u64(std::uint64_t v) {
    while (v >= 0x80) {
      out_ += static_cast<char>((v & 0x7f) | 0x80);
      v >>= 7;
    }
    out_ += static_cast<char>(v);
  }
  void i64(std::int64_t v) {  // zigzag
    u64((static_cast<std::uint64_t>(v) << 1) ^
        static_cast<std::uint64_t>(v >> 63));
  }
  void f64(double v) {
    const auto bits = std::bit_cast<std::uint64_t>(v);
    char buf[8];
    for (int i = 0; i < 8; ++i) buf[i] = static_cast<char>(bits >> (8 * i));
    out_.append(buf, 8);
  }
  void u32le(std::uint32_t v) {
    char buf[4];
    for (int i = 0; i < 4; ++i) buf[i] = static_cast<char>(v >> (8 * i));
    out_.append(buf, 4);
  }
  void str(const std::string& s) {
    u64(s.size());
    out_ += s;
  }
  void raw(const char* p, std::size_t n) { out_.append(p, n); }
  std::size_t size() const { return out_.size(); }
  std::string take() { return std::move(out_); }

 private:
  std::string out_;
};

class Reader {
 public:
  explicit Reader(std::string_view bytes, std::size_t pos = 0)
      : bytes_(bytes), pos_(pos) {}

  std::uint64_t u64() {
    std::uint64_t v = 0;
    int shift = 0;
    for (;;) {
      if (pos_ >= bytes_.size()) fail("truncated varint");
      const auto b = static_cast<std::uint8_t>(bytes_[pos_++]);
      if (shift >= 63 && (b & 0x7e) != 0) fail("varint overflow");
      v |= static_cast<std::uint64_t>(b & 0x7f) << shift;
      if ((b & 0x80) == 0) return v;
      shift += 7;
    }
  }
  std::int64_t i64() {
    const std::uint64_t z = u64();
    return static_cast<std::int64_t>((z >> 1) ^ (~(z & 1) + 1));
  }
  double f64() {
    if (pos_ + 8 > bytes_.size()) fail("truncated double");
    std::uint64_t bits = 0;
    for (int i = 0; i < 8; ++i)
      bits |= static_cast<std::uint64_t>(
                  static_cast<std::uint8_t>(bytes_[pos_ + i]))
              << (8 * i);
    pos_ += 8;
    return std::bit_cast<double>(bits);
  }
  std::uint32_t u32le() {
    if (pos_ + 4 > bytes_.size()) fail("truncated u32");
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i)
      v |= static_cast<std::uint32_t>(
               static_cast<std::uint8_t>(bytes_[pos_ + i]))
           << (8 * i);
    pos_ += 4;
    return v;
  }
  std::string str() {
    const std::uint64_t n = u64();
    // Compare against the remaining bytes: pos_ + n could wrap for a
    // corrupt length near 2^64.
    if (n > bytes_.size() - pos_) fail("truncated string");
    std::string s(bytes_.substr(pos_, n));
    pos_ += n;
    return s;
  }
  bool at_end() const { return pos_ == bytes_.size(); }
  std::size_t pos() const { return pos_; }
  std::size_t remaining() const { return bytes_.size() - pos_; }

  [[noreturn]] void fail(const std::string& what) const {
    throw ParseError("binary db: " + what, pos_);
  }

 private:
  std::string_view bytes_;
  std::size_t pos_ = 0;
};

// ---------------------------------------------------------------------------
// Shared block encoders/decoders (identical byte layout in V1 and V2; V2
// wraps each block in a checksummed section).
// ---------------------------------------------------------------------------

void write_structure_block(Writer& w, const structure::StructureTree& tree) {
  w.u64(tree.size() - 1);
  for (structure::SNodeId i = 1; i < tree.size(); ++i) {
    const structure::SNode& n = tree.node(i);
    w.u64(static_cast<std::uint64_t>(n.kind));
    w.u64(n.parent);
    w.str(tree.names().str(n.name));
    w.str(tree.names().str(n.file));
    w.i64(n.line);
    w.i64(n.call_line);
    w.u64(n.entry);
    w.u64(n.has_source ? 1 : 0);
  }
}

void write_cct_block(Writer& w, const prof::CanonicalCct& cct) {
  w.u64(cct.size() - 1);
  for (prof::CctNodeId i = 1; i < cct.size(); ++i) {
    const prof::CctNode& n = cct.node(i);
    w.u64(static_cast<std::uint64_t>(n.kind));
    w.u64(n.parent);
    w.u64(n.scope);
    // kSNull (2^32-1) compresses poorly; bias call sites by one instead.
    w.u64(n.call_site == structure::kSNull
              ? 0
              : static_cast<std::uint64_t>(n.call_site) + 1);
  }
}

void write_samples_block(Writer& w, const prof::CanonicalCct& cct) {
  std::uint64_t cells = 0;
  for (prof::CctNodeId i = 0; i < cct.size(); ++i)
    for (std::size_t e = 0; e < model::kNumEvents; ++e)
      if (cct.samples(i).v[e] != 0.0) ++cells;
  w.u64(cells);
  for (prof::CctNodeId i = 0; i < cct.size(); ++i)
    for (std::size_t e = 0; e < model::kNumEvents; ++e)
      if (cct.samples(i).v[e] != 0.0) {
        w.u64(i);
        w.u64(e);
        w.f64(cct.samples(i).v[e]);
      }
}

void write_metrics_block(Writer& w, const Experiment& exp) {
  w.u64(exp.user_metrics().size());
  for (const metrics::MetricDesc& d : exp.user_metrics()) {
    w.str(d.name);
    w.str(d.formula);
  }
}

std::unique_ptr<structure::StructureTree> read_structure_block(Reader& r) {
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
  return tree;
}

prof::CanonicalCct read_cct_block(Reader& r,
                                  const structure::StructureTree* tree) {
  PV_SPAN("db.binary.cct");
  const std::uint64_t cn = r.u64();
  // A record is four varints of at least one byte each, so a count past
  // remaining / 4 cannot be honest; checking it first bounds the builder's
  // reservation by the input size.
  if (cn > r.remaining() / 4) r.fail("cct record count exceeds the input");
  detail::CctBuilder builder(tree, cn, "binary db");
  for (std::uint64_t i = 0; i < cn; ++i) {
    detail::CctRecord rec;
    rec.kind = r.u64();
    rec.parent = r.u64();
    rec.scope = r.u64();
    const std::uint64_t cs = r.u64();  // biased by one; 0 = none
    rec.call_site = cs == 0 ? structure::kSNull : cs - 1;
    builder.add(rec, r.pos());
  }
  return builder.build();
}

void read_samples_block(Reader& r, prof::CanonicalCct& cct) {
  const std::uint64_t cells = r.u64();
  for (std::uint64_t i = 0; i < cells; ++i) {
    const std::uint64_t node = r.u64();
    const std::uint64_t e = r.u64();
    const double v = r.f64();
    detail::add_sample_record(cct, node, e, v, "binary db", r.pos());
  }
}

void read_metrics_block(Reader& r, Experiment& exp) {
  const std::uint64_t nmetrics = r.u64();
  for (std::uint64_t i = 0; i < nmetrics; ++i) {
    metrics::MetricDesc d;
    d.name = r.str();
    d.kind = metrics::MetricKind::kDerived;
    d.formula = r.str();
    const std::size_t at = r.pos() - d.formula.size();
    // A stored formula that does not parse is a corrupt file, not a bad
    // argument: report it where the formula text starts.
    try {
      exp.add_user_metric(std::move(d));
    } catch (const InvalidArgument& e) {
      throw ParseError(std::string("binary db: bad user metric: ") + e.what(),
                       at);
    }
  }
}

// ---------------------------------------------------------------------------
// V1 (legacy stream).
// ---------------------------------------------------------------------------

std::string to_binary_v1(const Experiment& exp) {
  Writer w;
  w.raw(kMagicV1, kMagicLen);
  w.str(exp.name());
  w.u64(exp.nranks());
  write_structure_block(w, exp.tree());
  write_cct_block(w, exp.cct());
  write_samples_block(w, exp.cct());
  write_metrics_block(w, exp);
  return w.take();
}

Experiment from_binary_v1(std::string_view bytes) {
  Reader r(bytes, kMagicLen);
  std::string name = r.str();
  const auto nranks = static_cast<std::uint32_t>(r.u64());
  std::unique_ptr<structure::StructureTree> tree = read_structure_block(r);
  prof::CanonicalCct cct = read_cct_block(r, tree.get());
  read_samples_block(r, cct);
  Experiment exp(std::move(tree), std::move(cct), std::move(name), nranks);
  read_metrics_block(r, exp);
  if (!r.at_end()) throw ParseError("binary db: trailing bytes", r.pos());
  return exp;
}

// ---------------------------------------------------------------------------
// V2 (checksummed sections + sealed footer).
// ---------------------------------------------------------------------------

struct SectionRef {
  std::uint64_t id = 0;
  std::uint64_t offset = 0;  // file offset of the payload
  std::uint64_t len = 0;     // payload bytes
};

void append_section(Writer& w, std::vector<SectionRef>& index,
                    std::uint64_t id, Writer&& payload_writer) {
  const std::string payload = payload_writer.take();
  w.raw("S", 1);
  w.u64(id);
  w.u64(payload.size());
  index.push_back({id, w.size(), payload.size()});
  w.raw(payload.data(), payload.size());
  w.u32le(support::crc32c(payload));
}

std::string to_binary_v2(const Experiment& exp) {
  Writer w;
  w.raw(kMagicV2, kMagicLen);
  std::vector<SectionRef> index;

  Writer meta;
  meta.str(exp.name());
  meta.u64(exp.nranks());
  meta.u64(exp.degraded() ? kFlagDegraded : 0);
  meta.u64(exp.dropped_ranks().size());
  for (const std::uint32_t r : exp.dropped_ranks()) meta.u64(r);
  append_section(w, index, kSecMeta, std::move(meta));

  Writer st;
  write_structure_block(st, exp.tree());
  append_section(w, index, kSecStructure, std::move(st));

  Writer cct;
  write_cct_block(cct, exp.cct());
  append_section(w, index, kSecCct, std::move(cct));

  Writer samples;
  write_samples_block(samples, exp.cct());
  append_section(w, index, kSecSamples, std::move(samples));

  Writer metrics;
  write_metrics_block(metrics, exp);
  append_section(w, index, kSecMetrics, std::move(metrics));

  // The sealed footer: written last, so its presence proves every section
  // before it hit the file in full.
  Writer footer;
  footer.raw("F", 1);
  footer.u64(index.size());
  for (const SectionRef& s : index) {
    footer.u64(s.id);
    footer.u64(s.offset);
    footer.u64(s.len);
  }
  const std::string footer_bytes = footer.take();
  w.raw(footer_bytes.data(), footer_bytes.size());
  w.u32le(support::crc32c(footer_bytes));
  w.raw(kTrailer, kTrailerLen);
  return w.take();
}

/// A V2 load's working state: where each section's payload lives, plus the
/// salvage bookkeeping.
struct V2Index {
  std::vector<SectionRef> sections;
  bool sealed = false;  // trailer + footer verified
};

/// Parse the sealed footer. Returns nullopt (never throws) when the file is
/// unsealed or the footer is damaged — the caller decides whether that is
/// fatal (strict) or a scan trigger (salvage).
std::optional<V2Index> read_footer(std::string_view bytes) {
  if (bytes.size() < kMagicLen + kTrailerLen + 4 + 1) return std::nullopt;
  if (bytes.substr(bytes.size() - kTrailerLen) !=
      std::string_view(kTrailer, kTrailerLen))
    return std::nullopt;
  // Walk back: the footer starts at the 'F' marker; find it by scanning
  // from the end is ambiguous, so the footer records no length — instead
  // re-scan forward from each candidate 'F'. Cheaper and simpler: the
  // footer is small, so scan backwards for 'F' and verify the CRC, which
  // authenticates the choice.
  const std::size_t crc_end = bytes.size() - kTrailerLen;
  if (crc_end < 4) return std::nullopt;
  const std::size_t footer_end = crc_end - 4;  // footer bytes end here
  Reader crc_r(bytes, footer_end);
  const std::uint32_t want_crc = crc_r.u32le();
  // The footer is at most a few KiB for any real database; bound the scan.
  const std::size_t scan_limit =
      footer_end > (1u << 20) ? footer_end - (1u << 20) : kMagicLen;
  for (std::size_t f = footer_end; f-- > scan_limit;) {
    if (bytes[f] != 'F') continue;
    const std::string_view footer_bytes = bytes.substr(f, footer_end - f);
    if (support::crc32c(footer_bytes) != want_crc) continue;
    try {
      Reader r(bytes, f + 1);
      V2Index idx;
      const std::uint64_t n = r.u64();
      // Each entry is three varints of at least one byte, so a count past
      // the footer's own bytes / 3 is absurd; bounding it here keeps the
      // reservation below proportional to the footer, not the file.
      if (n > footer_bytes.size() / 3) continue;
      idx.sections.reserve(n);
      bool ok = true;
      for (std::uint64_t i = 0; i < n && ok; ++i) {
        SectionRef s;
        s.id = r.u64();
        s.offset = r.u64();
        s.len = r.u64();
        if (s.offset > bytes.size() || s.len > bytes.size() - s.offset)
          ok = false;
        idx.sections.push_back(s);
      }
      if (!ok || r.pos() != footer_end) continue;
      idx.sealed = true;
      return idx;
    } catch (const ParseError&) {
      continue;
    }
  }
  return std::nullopt;
}

/// Rebuild the section map by scanning section headers from the front —
/// the salvage path for unsealed/damaged footers (a crashed writer). A
/// malformed header or truncated payload ends the scan: everything after
/// it is dropped.
V2Index scan_sections(std::string_view bytes, LoadReport& report) {
  V2Index idx;
  std::size_t pos = kMagicLen;
  while (pos < bytes.size()) {
    if (bytes[pos] == 'F') break;  // reached an (unverified) footer
    if (bytes[pos] != 'S') {
      report.note("binary db: unrecognized byte at offset " +
                  std::to_string(pos) + "; dropping the tail");
      break;
    }
    try {
      Reader r(bytes, pos + 1);
      SectionRef s;
      s.id = r.u64();
      s.len = r.u64();
      s.offset = r.pos();
      if (s.len > bytes.size() - s.offset ||
          bytes.size() - s.offset - s.len < 4) {
        report.note("binary db: section " + std::to_string(s.id) +
                    " truncated at offset " + std::to_string(pos) +
                    "; dropping the tail");
        break;
      }
      idx.sections.push_back(s);
      pos = s.offset + s.len + 4;  // skip payload + crc
    } catch (const ParseError&) {
      report.note("binary db: damaged section header at offset " +
                  std::to_string(pos) + "; dropping the tail");
      break;
    }
  }
  return idx;
}

/// Fetch section `id`'s payload, CRC-verified. Returns nullopt when absent
/// or damaged; `damaged` distinguishes the two.
std::optional<std::string_view> section_payload(std::string_view bytes,
                                                const V2Index& idx,
                                                std::uint64_t id,
                                                bool* damaged) {
  *damaged = false;
  for (const SectionRef& s : idx.sections) {
    if (s.id != id) continue;
    const std::string_view payload = bytes.substr(s.offset, s.len);
    if (s.offset + s.len + 4 > bytes.size()) {
      *damaged = true;
      return std::nullopt;
    }
    Reader r(bytes, s.offset + s.len);
    const std::uint32_t want = r.u32le();
    if (support::crc32c(payload) != want) {
      *damaged = true;
      return std::nullopt;
    }
    return payload;
  }
  return std::nullopt;
}

Experiment from_binary_v2(std::string_view bytes, const LoadOptions& opts,
                          LoadReport& report) {
  std::optional<V2Index> idx = read_footer(bytes);
  if (!idx) {
    if (!opts.salvage)
      throw ParseError(
          "binary db: missing or damaged footer (file not sealed; "
          "crashed writer?) — retry with salvage to scan",
          bytes.size());
    report.note("binary db: footer missing or damaged; "
                "rebuilt the section map by scanning");
    idx = scan_sections(bytes, report);
  }

  const auto require = [&](std::uint64_t id,
                           const char* what) -> std::string_view {
    bool damaged = false;
    const auto payload = section_payload(bytes, *idx, id, &damaged);
    if (!payload) {
      const std::string why = std::string("binary db: ") + what +
                              (damaged ? " section failed its checksum"
                                       : " section is missing");
      report.note(why + " (unrecoverable)");
      throw ParseError(why, bytes.size());
    }
    return *payload;
  };
  /// Optional-section fetch: absent/damaged becomes a report entry.
  const auto optional = [&](std::uint64_t id, const char* what,
                            bool data_loss) -> std::optional<std::string_view> {
    bool damaged = false;
    const auto payload = section_payload(bytes, *idx, id, &damaged);
    if (payload) return payload;
    const std::string why = std::string("binary db: ") + what +
                            (damaged ? " section failed its checksum"
                                     : " section is missing");
    if (!opts.salvage)
      throw ParseError(why, bytes.size());
    report.note(why + "; dropped");
    if (data_loss) report.degraded = true;
    return std::nullopt;
  };

  // Load-bearing sections first: no tree, no database.
  Reader st(require(kSecStructure, "structure"));
  std::unique_ptr<structure::StructureTree> tree = read_structure_block(st);
  Reader cr(require(kSecCct, "cct"));
  prof::CanonicalCct cct = read_cct_block(cr, tree.get());

  if (const auto payload = optional(kSecSamples, "samples",
                                    /*data_loss=*/true)) {
    Reader r(*payload);
    read_samples_block(r, cct);
  }

  std::string name = "<damaged metadata>";
  std::uint32_t nranks = 1;
  std::uint64_t flags = 0;
  std::vector<std::uint32_t> dropped;
  if (const auto payload = optional(kSecMeta, "metadata",
                                    /*data_loss=*/false)) {
    Reader r(*payload);
    name = r.str();
    nranks = static_cast<std::uint32_t>(r.u64());
    flags = r.u64();
    const std::uint64_t nd = r.u64();
    for (std::uint64_t i = 0; i < nd; ++i)
      dropped.push_back(static_cast<std::uint32_t>(r.u64()));
  } else {
    // Without metadata we cannot prove the profile is complete.
    report.degraded = true;
  }

  Experiment exp(std::move(tree), std::move(cct), std::move(name), nranks);
  if (const auto payload = optional(kSecMetrics, "user metrics",
                                    /*data_loss=*/false)) {
    Reader r(*payload);
    try {
      read_metrics_block(r, exp);
    } catch (const Error& e) {
      if (!opts.salvage) throw;
      report.note(std::string("binary db: bad user metric dropped: ") +
                  e.what());
    }
  }
  if ((flags & kFlagDegraded) != 0 || report.degraded) exp.set_degraded(true);
  exp.set_dropped_ranks(std::move(dropped));
  for (const std::uint32_t r : exp.dropped_ranks())
    if (std::find(report.dropped_ranks.begin(), report.dropped_ranks.end(),
                  r) == report.dropped_ranks.end())
      report.dropped_ranks.push_back(r);
  if (exp.degraded()) report.degraded = true;
  if (!idx->sealed && opts.salvage)
    PV_COUNTER_ADD("db.salvage.unsealed_loads", 1);
  return exp;
}

}  // namespace

std::string to_binary(const Experiment& exp, BinaryVersion version) {
  PV_SPAN("db.binary.write");
  std::string out = version == BinaryVersion::kV1 ? to_binary_v1(exp)
                                                  : to_binary_v2(exp);
  PV_COUNTER_ADD("db.binary_bytes_written", out.size());
  return out;
}

Experiment from_binary(std::string_view bytes) {
  LoadReport report;
  return from_binary(bytes, LoadOptions{}, &report);
}

bool sniff_binary(std::string_view bytes) {
  return bytes.substr(0, kMagicLen) == std::string_view(kMagicV1, kMagicLen) ||
         bytes.substr(0, kMagicLen) == std::string_view(kMagicV2, kMagicLen);
}

Experiment from_binary(std::string_view bytes, const LoadOptions& opts,
                       LoadReport* report) {
  PV_SPAN("db.binary.read");
  PV_COUNTER_ADD("db.binary_bytes_read", bytes.size());
  LoadReport local;
  LoadReport& rep = report != nullptr ? *report : local;
  if (bytes.substr(0, kMagicLen) == std::string_view(kMagicV2, kMagicLen))
    return from_binary_v2(bytes, opts, rep);
  if (bytes.substr(0, kMagicLen) == std::string_view(kMagicV1, kMagicLen)) {
    // V1 has no checksums: nothing to salvage around, strict parse only.
    return from_binary_v1(bytes);
  }
  throw ParseError("binary db: bad magic (not a pathview binary database)",
                   0);
}

}  // namespace pathview::db
