// Raw measurement files — hpcrun's on-disk artifact.
//
// pvrun writes one measurement file per rank (the raw address-based call
// path trie + sample cells, before any correlation); pvprof reads a
// directory of them and correlates against the recovered structure. The
// format is the same varint style as the binary experiment database, with
// its own magic.
#pragma once

#include <string>
#include <vector>

#include "pathview/db/load_report.hpp"
#include "pathview/sim/raw_profile.hpp"

namespace pathview::db {

/// Cells and totals round-trip exactly; the per-event *sample counts*
/// (diagnostics only) are collapsed to one recorded sample per cell.
std::string measurement_to_bytes(const sim::RawProfile& raw);
sim::RawProfile measurement_from_bytes(std::string_view bytes);

/// "<dir>/rank-00042.pvms"
std::string measurement_path(const std::string& dir, std::uint32_t rank);

/// Write one file per rank into `dir` (which must exist). Each file is
/// written crash-safely (temp + fsync + atomic rename, fault site
/// "db.measurement.save"), so a killed writer leaves whole old files or
/// whole new files, never torn ones.
void save_measurements(const std::vector<sim::RawProfile>& ranks,
                       const std::string& dir);

/// Load every rank file written by save_measurements (ranks 0..N-1 until a
/// file is missing). Throws when rank 0 is absent or any file is damaged;
/// the error thrown is the lowest damaged rank's. Files are read and
/// decoded in parallel (one worker per hardware thread); the result and
/// any error are the same as a serial load's.
std::vector<sim::RawProfile> load_measurements(const std::string& dir);

/// Load with per-rank damage policy. Strict (the default LoadOptions)
/// matches the overload above. With opts.salvage, the directory is scanned
/// for every rank-NNNNN.pvms present; unreadable or unparseable ranks are
/// dropped and recorded in `report` (degraded + dropped_ranks), and gaps in
/// the rank sequence are reported as drops too. Throws only when not a
/// single rank survives.
std::vector<sim::RawProfile> load_measurements(const std::string& dir,
                                               const LoadOptions& opts,
                                               LoadReport* report);

}  // namespace pathview::db
