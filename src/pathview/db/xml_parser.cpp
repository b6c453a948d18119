#include "pathview/db/xml.hpp"

#include <cctype>

#include "pathview/support/error.hpp"

namespace pathview::db {

const std::string& XmlNode::attr(std::string_view key) const {
  for (const auto& [k, v] : attrs)
    if (k == key) return v;
  throw ParseError("xml: element <" + name + "> missing attribute '" +
                       std::string(key) + "'",
                   offset);
}

std::string XmlNode::attr_or(std::string_view key, std::string fallback) const {
  for (const auto& [k, v] : attrs)
    if (k == key) return v;
  return fallback;
}

const XmlNode& XmlNode::child(std::string_view cname) const {
  for (const XmlNode& c : children)
    if (c.name == cname) return c;
  throw ParseError("xml: element <" + name + "> missing child <" +
                       std::string(cname) + ">",
                   offset);
}

std::string xml_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '&':
        out += "&amp;";
        break;
      case '<':
        out += "&lt;";
        break;
      case '>':
        out += "&gt;";
        break;
      case '"':
        out += "&quot;";
        break;
      case '\'':
        out += "&apos;";
        break;
      default:
        out += c;
    }
  }
  return out;
}

namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  XmlNode parse_document() {
    skip_misc();
    XmlNode root = parse_element();
    skip_misc();
    if (pos_ != text_.size()) fail("trailing content after root element");
    return root;
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    throw ParseError("xml: " + what, pos_);
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_])))
      ++pos_;
  }

  bool starts_with(std::string_view s) const {
    return text_.substr(pos_, s.size()) == s;
  }

  void skip_misc() {
    for (;;) {
      skip_ws();
      if (starts_with("<?")) {
        const auto end = text_.find("?>", pos_);
        if (end == std::string_view::npos) fail("unterminated declaration");
        pos_ = end + 2;
      } else if (starts_with("<!--")) {
        const auto end = text_.find("-->", pos_);
        if (end == std::string_view::npos) fail("unterminated comment");
        pos_ = end + 3;
      } else {
        return;
      }
    }
  }

  std::string parse_name() {
    const std::size_t start = pos_;
    while (pos_ < text_.size() &&
           (std::isalnum(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '_' || text_[pos_] == '-' || text_[pos_] == ':'))
      ++pos_;
    if (pos_ == start) fail("expected a name");
    return std::string(text_.substr(start, pos_ - start));
  }

  std::string unescape(std::string_view s) {
    std::string out;
    out.reserve(s.size());
    for (std::size_t i = 0; i < s.size();) {
      if (s[i] != '&') {
        out += s[i++];
        continue;
      }
      auto tryref = [&](std::string_view ref, char ch) {
        if (s.substr(i, ref.size()) == ref) {
          out += ch;
          i += ref.size();
          return true;
        }
        return false;
      };
      if (tryref("&amp;", '&') || tryref("&lt;", '<') || tryref("&gt;", '>') ||
          tryref("&quot;", '"') || tryref("&apos;", '\''))
        continue;
      fail("unknown entity reference");
    }
    return out;
  }

  XmlNode parse_element() {
    if (!starts_with("<")) fail("expected '<'");
    XmlNode node;
    node.offset = pos_++;
    node.name = parse_name();
    for (;;) {
      skip_ws();
      if (starts_with("/>")) {
        pos_ += 2;
        return node;
      }
      if (starts_with(">")) {
        ++pos_;
        break;
      }
      // attribute
      std::string key = parse_name();
      skip_ws();
      if (!starts_with("=")) fail("expected '=' after attribute name");
      ++pos_;
      skip_ws();
      if (!starts_with("\"")) fail("expected '\"'");
      ++pos_;
      const auto end = text_.find('"', pos_);
      if (end == std::string_view::npos) fail("unterminated attribute value");
      node.attrs.emplace_back(std::move(key),
                              unescape(text_.substr(pos_, end - pos_)));
      pos_ = end + 1;
    }
    // children until the close tag
    for (;;) {
      skip_misc();
      if (starts_with("</")) {
        pos_ += 2;
        const std::string close = parse_name();
        if (close != node.name)
          fail("mismatched close tag </" + close + "> for <" + node.name + ">");
        skip_ws();
        if (!starts_with(">")) fail("expected '>' in close tag");
        ++pos_;
        return node;
      }
      if (pos_ >= text_.size()) fail("unterminated element <" + node.name + ">");
      node.children.push_back(parse_element());
    }
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

}  // namespace

XmlNode parse_xml(std::string_view text) { return Parser(text).parse_document(); }

}  // namespace pathview::db
