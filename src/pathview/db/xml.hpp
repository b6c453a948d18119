// Minimal XML subset used by the experiment database: elements, attributes,
// self-closing tags, comments and an optional declaration. No text nodes,
// namespaces, CDATA or DTDs — exactly what the writer emits.
#pragma once

#include <string>
#include <string_view>
#include <vector>

namespace pathview::db {

struct XmlNode {
  std::string name;
  std::vector<std::pair<std::string, std::string>> attrs;
  std::vector<XmlNode> children;
  std::size_t offset = 0;  // byte offset of the element's '<'

  /// Attribute value; throws ParseError at `offset` when absent.
  const std::string& attr(std::string_view key) const;
  /// Attribute value or `fallback` when absent.
  std::string attr_or(std::string_view key, std::string fallback) const;
  /// First child element with the given name; throws ParseError at
  /// `offset` when absent.
  const XmlNode& child(std::string_view name) const;
};

/// Parse a document; returns its root element. Throws ParseError.
XmlNode parse_xml(std::string_view text);

/// Escape a string for use inside a double-quoted attribute value.
std::string xml_escape(std::string_view s);

}  // namespace pathview::db
