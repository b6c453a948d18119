// The flat sibling index behind CanonicalCct::find_or_add_child and
// TraceResolver::find_child (private to pathview::prof).
//
// An open-addressing hash set of node ids keyed by the edge identity
// (parent, kind, scope, call site): linear probing over a power-of-two slot
// array kept at load factor <= 0.75. A slot is 8 bytes — a node id plus a
// 32-bit hash tag — and stores no key: a tag match is confirmed by reading
// the candidate node's own fields through the caller's `key_of(id)`. The
// home slot is derived from the tag alone, so growth rehashes without
// touching a single node.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

namespace pathview::prof::detail {

/// Identity of a CCT edge: the child's (parent, kind, scope, call site).
struct EdgeKey {
  std::uint32_t parent;
  std::uint8_t kind;
  std::uint32_t scope;
  std::uint32_t call_site;
  bool operator==(const EdgeKey&) const = default;
};

/// The key of a stored node (anything with CctNode's four identity fields).
template <class Node>
EdgeKey edge_key(const Node& n) {
  return {n.parent, static_cast<std::uint8_t>(n.kind), n.scope, n.call_site};
}

class EdgeIndex {
 public:
  static constexpr std::uint32_t kNone = 0xffffffffu;

  std::size_t size() const { return size_; }

  /// The id stored under `k`, or kNone. `key_of(id)` yields a stored id's key.
  template <class KeyOf>
  std::uint32_t find(const EdgeKey& k, KeyOf&& key_of) const {
    if (slots_.empty()) return kNone;
    const std::uint32_t t = tag(k);
    for (std::size_t i = home(t);; i = (i + 1) & mask()) {
      const Slot s = slots_[i];
      if (s.id == kNone) return kNone;
      if (s.tag == t && key_of(s.id) == k) return s.id;
    }
  }

  /// The id already stored under `k` (the first insert wins), or else `id`
  /// after recording it.
  template <class KeyOf>
  std::uint32_t insert(const EdgeKey& k, std::uint32_t id, KeyOf&& key_of) {
    if ((size_ + 1) * 4 > slots_.size() * 3)
      rehash(slots_.empty() ? 16 : slots_.size() * 2);
    const std::uint32_t t = tag(k);
    for (std::size_t i = home(t);; i = (i + 1) & mask()) {
      Slot& s = slots_[i];
      if (s.id == kNone) {
        s = Slot{id, t};
        ++size_;
        return id;
      }
      if (s.tag == t && key_of(s.id) == k) return s.id;
    }
  }

  /// Size the slot array for `n` entries up front (never shrinks).
  void reserve(std::size_t n) {
    std::size_t cap = 16;
    while (cap * 3 < n * 4) cap *= 2;
    if (cap > slots_.size()) rehash(cap);
  }

 private:
  struct Slot {
    std::uint32_t id = kNone;
    std::uint32_t tag = 0;
  };

  static std::uint32_t tag(const EdgeKey& k) {
    std::uint64_t h = k.parent;
    h = h * 0x9e3779b97f4a7c15ULL + k.kind;
    h = h * 0xbf58476d1ce4e5b9ULL + k.scope;
    h = h * 0x94d049bb133111ebULL + k.call_site;
    h ^= h >> 33;
    h *= 0xff51afd7ed558ccdULL;
    h ^= h >> 33;
    return static_cast<std::uint32_t>(h ^ (h >> 32));
  }
  // Fibonacci hashing of the tag: the top log2(capacity) bits of tag * phi.
  std::size_t home(std::uint32_t t) const {
    return static_cast<std::size_t>((t * 0x9e3779b9u) >> shift_);
  }
  std::size_t mask() const { return slots_.size() - 1; }

  void rehash(std::size_t cap) {
    std::vector<Slot> old(cap);
    old.swap(slots_);
    shift_ = 32;
    for (std::size_t c = cap; c > 1; c >>= 1) --shift_;
    for (const Slot& s : old) {
      if (s.id == kNone) continue;
      std::size_t i = home(s.tag);
      while (slots_[i].id != kNone) i = (i + 1) & mask();
      slots_[i] = s;
    }
  }

  std::vector<Slot> slots_;
  std::size_t size_ = 0;
  unsigned shift_ = 32;
};

}  // namespace pathview::prof::detail
