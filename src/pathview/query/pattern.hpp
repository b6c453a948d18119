// Call-path patterns: '/'-separated segments matched against the chain of
// procedure-frame names from the CCT root down to a node.
//
//   main/solve/mpi_waitall   exact chain (each segment one frame)
//   main/**/mpi_*            '**' skips any number of frames (including 0);
//                            '*' and '?' glob within one segment
//   **/psm2_recv             any path ending in psm2_recv
//
// A pattern compiles to a tiny NFA whose state set fits one 64-bit word
// (state i = "the first i segments are matched"). A frame-like node's state
// set is its parent's advanced by the node's frame name; any other node
// passes its parent's on. Matching a whole CCT carries state sets down the
// tree in one of two ways (query::Plan picks):
//   * anchored patterns (segment 0 is not '**') walk a DFS from the root
//     and prune a subtree as soon as its state set goes empty, which skips
//     most of the tree;
//   * unanchored patterns (segment 0 is '**') can never go empty, so they
//     take one pass over the CCT's frame list in id order instead:
//     state[i] = advance(state of the nearest frame ancestor, or initial,
//     name). It yields matches already in id order, and a pattern of '**'
//     segments only matches every frame without running the NFA.
// Recursive chains work naturally: 'a/**/a' needs two distinct frames
// named a on the path.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace pathview::query {

struct PathPattern {
  struct Segment {
    bool any_depth = false;  // '**'
    std::string glob;        // per-segment glob ('*'/'?' wildcards)
  };
  std::vector<Segment> segments;
  std::string text;  // as written

  bool empty() const { return segments.empty(); }
  /// Segment 0 is '**': the match may start at any depth, so no subtree
  /// can be pruned.
  bool unanchored() const {
    return !segments.empty() && segments.front().any_depth;
  }
};

/// Split + validate a pattern. `offset` biases ParseError byte offsets so
/// errors inside `match '...'` point into the full query string. An empty
/// pattern is valid and matches every node.
PathPattern parse_pattern(std::string_view text, std::size_t offset = 0);

/// One-segment glob match ('*' any run, '?' any one char).
bool glob_match(std::string_view glob, std::string_view name);

/// NFA over a PathPattern. The state set is a bitmask: bit i set means the
/// first i segments have matched some prefix of the consumed frame chain;
/// bit segments.size() is the accept state.
class PatternMatcher {
 public:
  using StateSet = std::uint64_t;

  explicit PatternMatcher(const PathPattern& pattern);

  /// Start state (before consuming any frame name).
  StateSet initial() const { return closure(1); }

  /// Consume one frame name walking down the tree.
  StateSet advance(StateSet s, std::string_view name) const;

  /// True when the chain consumed so far matches the whole pattern.
  bool accepting(StateSet s) const { return (s >> nsegs_) & 1; }

  /// False when no descendant can ever match — prune the subtree.
  bool can_continue(StateSet s) const { return s != 0; }

 private:
  StateSet closure(StateSet s) const;  // epsilon: '**' matches zero frames

  std::vector<PathPattern::Segment> segs_;
  std::size_t nsegs_ = 0;
};

}  // namespace pathview::query
