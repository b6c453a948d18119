#include "pathview/db/measurement.hpp"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <cstdlib>
#include <dirent.h>
#include <exception>
#include <limits>
#include <optional>

#include "pathview/fault/fault.hpp"
#include "pathview/obs/obs.hpp"
#include "pathview/support/error.hpp"
#include "pathview/support/io.hpp"
#include "pathview/support/parallel.hpp"

namespace pathview::db {

namespace {

constexpr char kMagic[] = "PVMS1\n";
constexpr std::size_t kMagicLen = 6;

void put_u64(std::string& out, std::uint64_t v) {
  while (v >= 0x80) {
    out += static_cast<char>((v & 0x7f) | 0x80);
    v >>= 7;
  }
  out += static_cast<char>(v);
}

void put_f64(std::string& out, double v) {
  const auto bits = std::bit_cast<std::uint64_t>(v);
  for (int i = 0; i < 8; ++i) out += static_cast<char>(bits >> (8 * i));
}

struct Cursor {
  std::string_view bytes;
  std::size_t pos = 0;

  [[noreturn]] void fail(const char* what) const {
    throw ParseError(std::string("measurement: ") + what, pos);
  }
  std::uint64_t u64() {
    std::uint64_t v = 0;
    int shift = 0;
    for (;;) {
      if (pos >= bytes.size()) fail("truncated varint");
      const auto b = static_cast<std::uint8_t>(bytes[pos++]);
      if (shift >= 63 && (b & 0x7e) != 0) fail("varint overflow");
      v |= static_cast<std::uint64_t>(b & 0x7f) << shift;
      if ((b & 0x80) == 0) return v;
      shift += 7;
    }
  }
  /// Read an element count and reject one whose elements, each at least
  /// `min_bytes` long, cannot fit in the bytes that remain — so a crafted
  /// count never drives an allocation larger than the input.
  std::uint64_t count(std::size_t min_bytes, const char* what) {
    const std::uint64_t n = u64();
    if (n > (bytes.size() - pos) / min_bytes) fail(what);
    return n;
  }
  double f64() {
    if (pos + 8 > bytes.size()) fail("truncated double");
    std::uint64_t bits = 0;
    for (int i = 0; i < 8; ++i)
      bits |= static_cast<std::uint64_t>(
                  static_cast<std::uint8_t>(bytes[pos + i]))
              << (8 * i);
    pos += 8;
    return std::bit_cast<double>(bits);
  }
};

}  // namespace

std::string measurement_to_bytes(const sim::RawProfile& raw) {
  std::string out(kMagic, kMagicLen);
  put_u64(out, raw.rank);
  put_u64(out, raw.thread);

  const auto& nodes = raw.nodes();
  put_u64(out, nodes.size() - 1);  // root is implicit
  for (sim::NodeIndex i = 1; i < nodes.size(); ++i) {
    put_u64(out, nodes[i].parent);
    put_u64(out, nodes[i].call_site);
    put_u64(out, nodes[i].callee_entry);
  }

  const auto cells = raw.cells();
  put_u64(out, cells.size());
  for (const auto& cell : cells) {
    put_u64(out, cell.node);
    put_u64(out, cell.leaf);
    std::uint64_t mask = 0;
    for (std::size_t e = 0; e < model::kNumEvents; ++e)
      if (cell.counts.v[e] != 0.0) mask |= 1ull << e;
    put_u64(out, mask);
    for (std::size_t e = 0; e < model::kNumEvents; ++e)
      if (mask & (1ull << e)) put_f64(out, cell.counts.v[e]);
  }
  return out;
}

sim::RawProfile measurement_from_bytes(std::string_view bytes) {
  if (bytes.substr(0, kMagicLen) != std::string_view(kMagic, kMagicLen))
    throw ParseError("measurement: bad magic", 0);
  Cursor c{bytes, kMagicLen};

  sim::RawProfile raw;
  raw.rank = static_cast<std::uint32_t>(c.u64());
  raw.thread = static_cast<std::uint32_t>(c.u64());

  // A node is at least 3 varint bytes, a cell at least 3 (node, leaf, mask).
  const std::uint64_t nnodes = c.count(3, "node count exceeds the input");
  if (nnodes >= std::numeric_limits<sim::NodeIndex>::max())
    c.fail("node count overflows the node index");
  std::vector<sim::NodeIndex> map(nnodes + 1, sim::kRawRoot);
  for (std::uint64_t i = 1; i <= nnodes; ++i) {
    const auto parent = c.u64();
    const std::uint64_t call_site = c.u64();
    const std::uint64_t callee = c.u64();
    if (parent >= i) c.fail("node parent out of order");
    map[i] = raw.child(map[parent], call_site, callee);
  }

  const std::uint64_t ncells = c.count(3, "cell count exceeds the input");
  for (std::uint64_t i = 0; i < ncells; ++i) {
    const std::uint64_t node = c.u64();
    const std::uint64_t leaf = c.u64();
    const std::uint64_t mask = c.u64();
    if (node > nnodes) c.fail("cell node out of range");
    for (std::size_t e = 0; e < model::kNumEvents; ++e)
      if (mask & (1ull << e))
        raw.add_sample(map[node], leaf, static_cast<model::Event>(e), c.f64());
  }
  if (c.pos != bytes.size()) c.fail("trailing bytes");
  return raw;
}

std::string measurement_path(const std::string& dir, std::uint32_t rank) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "/rank-%05u.pvms", rank);
  return dir + buf;
}

void save_measurements(const std::vector<sim::RawProfile>& ranks,
                       const std::string& dir) {
  for (std::uint32_t r = 0; r < ranks.size(); ++r)
    support::atomic_write_file(measurement_path(dir, r),
                               measurement_to_bytes(ranks[r]),
                               "db.measurement.save");
}

namespace {

/// Every rank number with a "rank-NNNNN.pvms" file in `dir`, sorted;
/// nullopt when the directory cannot be opened.
std::optional<std::vector<std::uint32_t>> scan_rank_files(
    const std::string& dir) {
  std::vector<std::uint32_t> ranks;
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) return std::nullopt;
  while (const dirent* ent = ::readdir(d)) {
    const std::string_view name = ent->d_name;
    if (name.size() != 15 || !name.starts_with("rank-") ||
        !name.ends_with(".pvms"))
      continue;
    const std::string digits(name.substr(5, 5));
    char* end = nullptr;
    const unsigned long r = std::strtoul(digits.c_str(), &end, 10);
    if (end != digits.c_str() + digits.size()) continue;
    ranks.push_back(static_cast<std::uint32_t>(r));
  }
  ::closedir(d);
  std::sort(ranks.begin(), ranks.end());
  ranks.erase(std::unique(ranks.begin(), ranks.end()), ranks.end());
  return ranks;
}

/// The outcome of loading one rank file.
struct RankLoad {
  std::optional<sim::RawProfile> raw;
  std::exception_ptr error;  // why the file could not be read or decoded
  bool unreadable = false;   // the failure was reading it, not decoding it
};

RankLoad load_rank(const std::string& dir, std::uint32_t rank) {
  PV_SPAN("db.measurement.decode");
  RankLoad out;
  try {
    std::string bytes;
    try {
      bytes = support::read_file(measurement_path(dir, rank),
                                 "db.measurement.load");
    } catch (const Error&) {
      out.unreadable = true;
      throw;
    }
    out.raw = measurement_from_bytes(bytes);
  } catch (...) {
    out.error = std::current_exception();
  }
  return out;
}

/// Load the files of `ranks` into one slot each. Workers each read and
/// decode their own file, so the raw bytes of all ranks are never held at
/// once. With `stop_at_failure`, no rank after a failed one is started;
/// workers take ranks in ascending order, so every slot before the first
/// failure is still filled. A fault plan counts site hits in order, so with
/// one installed the files load on the calling thread and a replayed run
/// injects the same faults into the same ranks.
std::vector<RankLoad> load_ranks(const std::string& dir,
                                 const std::vector<std::uint32_t>& ranks,
                                 bool stop_at_failure) {
  std::vector<RankLoad> slots(ranks.size());
  struct Stop {};
  try {
    support::parallel_for(
        ranks.size(),
        [&](std::size_t i) {
          slots[i] = load_rank(dir, ranks[i]);
          if (stop_at_failure && slots[i].error) throw Stop{};
        },
        fault::active() ? 1 : 0);
  } catch (const Stop&) {
  }
  return slots;
}

}  // namespace

std::vector<sim::RawProfile> load_measurements(const std::string& dir) {
  return load_measurements(dir, LoadOptions{}, nullptr);
}

std::vector<sim::RawProfile> load_measurements(const std::string& dir,
                                               const LoadOptions& opts,
                                               LoadReport* report) {
  PV_SPAN("db.measurements.load");
  LoadReport local;
  LoadReport& rep = report != nullptr ? *report : local;
  std::vector<sim::RawProfile> out;
  const auto present = scan_rank_files(dir);

  if (!opts.salvage) {
    // Strict: dense rank sequence from 0. The first rank without a
    // readable file ends it; damage before that point is fatal, and the
    // lowest damaged rank's error is the one thrown. The listed files are
    // loaded in parallel; ranks past them are probed one at a time (a rank
    // of 100000 or more outgrows the listed five-digit names).
    std::vector<std::uint32_t> listed;
    while (present && listed.size() < present->size() &&
           (*present)[listed.size()] == listed.size())
      listed.push_back(static_cast<std::uint32_t>(listed.size()));
    std::vector<RankLoad> slots = load_ranks(dir, listed, true);
    for (std::uint32_t r = 0;; ++r) {
      RankLoad load =
          r < slots.size() ? std::move(slots[r]) : load_rank(dir, r);
      if (load.unreadable) break;
      if (load.error) std::rethrow_exception(load.error);
      out.push_back(std::move(*load.raw));
    }
    if (out.empty())
      throw InvalidArgument("no measurement files (rank-00000.pvms) in '" +
                            dir + "'");
    return out;
  }

  // Salvage: take every rank file present, drop the damaged ones, and
  // report both damage and gaps so the caller can mark the result degraded.
  if (!present)
    throw InvalidArgument("cannot open measurement directory '" + dir + "'");
  if (present->empty())
    throw InvalidArgument("no measurement files (rank-*.pvms) in '" + dir +
                          "'");
  std::vector<RankLoad> slots = load_ranks(dir, *present, false);
  for (std::size_t i = 0; i < slots.size(); ++i) {
    const std::uint32_t r = (*present)[i];
    try {
      if (slots[i].error) std::rethrow_exception(slots[i].error);
      out.push_back(std::move(*slots[i].raw));
    } catch (const Error& e) {
      rep.drop_rank(r, "rank " + std::to_string(r) + " dropped: " + e.what());
      PV_COUNTER_ADD("db.salvage.ranks_dropped", 1);
    }
  }
  // Gaps: ranks 0..max present should be dense.
  const std::uint32_t max_rank = present->back();
  std::size_t idx = 0;
  for (std::uint32_t r = 0; r <= max_rank; ++r) {
    if (idx < present->size() && (*present)[idx] == r) {
      ++idx;
      continue;
    }
    rep.drop_rank(r, "rank " + std::to_string(r) +
                         " dropped: measurement file missing");
    PV_COUNTER_ADD("db.salvage.ranks_dropped", 1);
  }
  if (out.empty())
    throw InvalidArgument("salvage found no loadable measurement files in '" +
                          dir + "': " + rep.summary());
  if (!rep.clean()) PV_COUNTER_ADD("db.salvage.loads", 1);
  return out;
}

}  // namespace pathview::db
