// Deterministic iteration over unordered containers.
//
// std::unordered_map/set are the right tool for O(1) membership and
// accumulation, but their *iteration order* is a function of the hash
// function, the bucket count and the insertion history — none of which the
// language pins down. Any decision-making loop (picking a "best" group,
// emitting findings, breaking ties) that ranges over an unordered container
// can therefore silently change behaviour across standard libraries,
// compiler versions, or even runs. The determinism contract (DESIGN.md §8)
// bans such loops; gl_analyze's GL001 enforces the ban.
//
// This header is the sanctioned escape hatch: keep the unordered container
// for accumulation, then iterate a sorted snapshot. The snapshot copies keys
// (and optionally values), which is fine at the sizes these maps reach in
// decision paths (tens to a few thousand entries) and is dwarfed by the work
// done per element.
#pragma once

#include <algorithm>
#include <utility>
#include <vector>

namespace gl {

// All keys of an associative container, sorted ascending. Works for any map
// or set whose key type is totally ordered (ints, strong Ids, strings).
template <typename Container>
[[nodiscard]] std::vector<typename Container::key_type> SortedKeys(
    const Container& c) {
  std::vector<typename Container::key_type> keys;
  keys.reserve(c.size());
  for (const auto& entry : c) {
    if constexpr (requires { entry.first; }) {
      keys.push_back(entry.first);
    } else {
      keys.push_back(entry);
    }
  }
  std::sort(keys.begin(), keys.end());
  return keys;
}

// All (key, value) pairs of a map, as a vector sorted by key ascending.
// Values are copied; use SortedKeys + lookup when values are heavy.
template <typename Map>
[[nodiscard]] std::vector<
    std::pair<typename Map::key_type, typename Map::mapped_type>>
SortedItems(const Map& m) {
  std::vector<std::pair<typename Map::key_type, typename Map::mapped_type>>
      items;
  items.reserve(m.size());
  for (const auto& [k, v] : m) {
    items.emplace_back(k, v);
  }
  std::sort(items.begin(), items.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  return items;
}

// Lookup in a SortedItems() snapshot: the value for `key`, or `fallback`.
template <typename Key, typename Value>
[[nodiscard]] Value ValueOr(const std::vector<std::pair<Key, Value>>& items,
                            const Key& key, Value fallback) {
  const auto it = std::lower_bound(
      items.begin(), items.end(), key,
      [](const auto& item, const Key& k) { return item.first < k; });
  return (it != items.end() && it->first == key) ? it->second : fallback;
}

}  // namespace gl
