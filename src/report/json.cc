#include "report/json.hh"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>

#include "common/logging.hh"

namespace rat::report {

Json::Json(std::int64_t value)
{
    // Canonicalize: non-negative integers always store as Uint so that
    // Json(int64_t{5}) == Json(uint64_t{5}) and both print "5".
    if (value >= 0) {
        type_ = Type::Uint;
        uint_ = static_cast<std::uint64_t>(value);
    } else {
        type_ = Type::Int;
        int_ = value;
    }
}

Json
Json::array()
{
    Json j;
    j.type_ = Type::Array;
    return j;
}

Json
Json::object()
{
    Json j;
    j.type_ = Type::Object;
    return j;
}

bool
Json::isU64() const
{
    switch (type_) {
      case Type::Uint:
        return true;
      case Type::Double:
        // Exact integral doubles below 2^64 qualify (a parser may only
        // see "1e3"-style spellings).
        return double_ >= 0.0 && double_ < 18446744073709551616.0 &&
               std::nearbyint(double_) == double_;
      default:
        return false;
    }
}

bool
Json::isI64() const
{
    switch (type_) {
      case Type::Int:
        return true;
      case Type::Uint:
        return uint_ <=
               static_cast<std::uint64_t>(
                   std::numeric_limits<std::int64_t>::max());
      case Type::Double:
        return double_ >= -9223372036854775808.0 &&
               double_ < 9223372036854775808.0 &&
               std::nearbyint(double_) == double_;
      default:
        return false;
    }
}

std::int64_t
Json::asI64() const
{
    RAT_ASSERT(isI64(), "JSON value is not an int64");
    switch (type_) {
      case Type::Int:
        return int_;
      case Type::Uint:
        return static_cast<std::int64_t>(uint_);
      default:
        return static_cast<std::int64_t>(double_);
    }
}

bool
Json::asBool() const
{
    RAT_ASSERT(type_ == Type::Bool, "JSON value is not a bool");
    return bool_;
}

std::uint64_t
Json::asU64() const
{
    RAT_ASSERT(isU64(), "JSON value is not a uint64");
    return type_ == Type::Uint ? uint_
                               : static_cast<std::uint64_t>(double_);
}

double
Json::asDouble() const
{
    switch (type_) {
      case Type::Uint:
        return static_cast<double>(uint_);
      case Type::Int:
        return static_cast<double>(int_);
      case Type::Double:
        return double_;
      default:
        panic("JSON value is not a number");
    }
}

const std::string &
Json::asString() const
{
    RAT_ASSERT(type_ == Type::String, "JSON value is not a string");
    return str_;
}

Json &
Json::push(Json element)
{
    if (type_ == Type::Null)
        type_ = Type::Array;
    RAT_ASSERT(type_ == Type::Array, "push() on a non-array JSON value");
    arr_.push_back(std::move(element));
    return *this;
}

std::size_t
Json::size() const
{
    if (type_ == Type::Array)
        return arr_.size();
    if (type_ == Type::Object)
        return obj_.size();
    return 0;
}

const Json &
Json::at(std::size_t index) const
{
    RAT_ASSERT(type_ == Type::Array && index < arr_.size(),
               "JSON array index out of range");
    return arr_[index];
}

const std::vector<Json> &
Json::elements() const
{
    RAT_ASSERT(type_ == Type::Array, "elements() on a non-array");
    return arr_;
}

Json &
Json::operator[](const std::string &key)
{
    if (type_ == Type::Null)
        type_ = Type::Object;
    RAT_ASSERT(type_ == Type::Object,
               "operator[] on a non-object JSON value");
    for (auto &member : obj_) {
        if (member.first == key)
            return member.second;
    }
    obj_.emplace_back(key, Json());
    return obj_.back().second;
}

const Json *
Json::find(const std::string &key) const
{
    if (type_ != Type::Object)
        return nullptr;
    for (const auto &member : obj_) {
        if (member.first == key)
            return &member.second;
    }
    return nullptr;
}

const Json &
Json::at(const std::string &key) const
{
    const Json *value = find(key);
    RAT_ASSERT(value, "JSON object has no member '%s'", key.c_str());
    return *value;
}

const std::vector<std::pair<std::string, Json>> &
Json::members() const
{
    RAT_ASSERT(type_ == Type::Object, "members() on a non-object");
    return obj_;
}

bool
Json::operator==(const Json &other) const
{
    if (isNumber() && other.isNumber()) {
        // Numbers compare by value across storage subtypes; exact
        // uint64s compare exactly (beyond double precision).
        if (type_ == Type::Uint && other.type_ == Type::Uint)
            return uint_ == other.uint_;
        if (type_ == Type::Int && other.type_ == Type::Int)
            return int_ == other.int_;
        return asDouble() == other.asDouble();
    }
    if (type_ != other.type_)
        return false;
    switch (type_) {
      case Type::Null:
        return true;
      case Type::Bool:
        return bool_ == other.bool_;
      case Type::String:
        return str_ == other.str_;
      case Type::Array:
        return arr_ == other.arr_;
      case Type::Object:
        return obj_ == other.obj_;
      default:
        return false; // numbers handled above
    }
}

std::string
formatDouble(double value)
{
    if (!std::isfinite(value)) {
        // JSON has no Inf/NaN literal; null is the conventional stand-in.
        return "null";
    }
    char buf[32];
    const auto res = std::to_chars(buf, buf + sizeof(buf), value);
    RAT_ASSERT(res.ec == std::errc(), "to_chars failed for a double");
    std::string text(buf, res.ptr);
    // "1" would re-parse as an integer; keep the double type explicit.
    if (text.find_first_of(".eE") == std::string::npos)
        text += ".0";
    return text;
}

std::string
quoteJson(const std::string &text)
{
    std::string out;
    out.reserve(text.size() + 2);
    out += '"';
    for (const char c : text) {
        switch (c) {
          case '"':
            out += "\\\"";
            break;
          case '\\':
            out += "\\\\";
            break;
          case '\n':
            out += "\\n";
            break;
          case '\r':
            out += "\\r";
            break;
          case '\t':
            out += "\\t";
            break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x",
                              static_cast<unsigned>(
                                  static_cast<unsigned char>(c)));
                out += buf;
            } else {
                out += c;
            }
        }
    }
    out += '"';
    return out;
}

void
Json::dumpTo(std::string &out, unsigned indent, unsigned depth) const
{
    const auto newline = [&](unsigned level) {
        if (indent) {
            out += '\n';
            out.append(std::size_t{indent} * level, ' ');
        }
    };
    switch (type_) {
      case Type::Null:
        out += "null";
        break;
      case Type::Bool:
        out += bool_ ? "true" : "false";
        break;
      case Type::Uint:
        out += std::to_string(uint_);
        break;
      case Type::Int:
        out += std::to_string(int_);
        break;
      case Type::Double:
        out += formatDouble(double_);
        break;
      case Type::String:
        out += quoteJson(str_);
        break;
      case Type::Array:
        if (arr_.empty()) {
            out += "[]";
            break;
        }
        out += '[';
        for (std::size_t i = 0; i < arr_.size(); ++i) {
            if (i)
                out += indent ? "," : ",";
            newline(depth + 1);
            arr_[i].dumpTo(out, indent, depth + 1);
        }
        newline(depth);
        out += ']';
        break;
      case Type::Object:
        if (obj_.empty()) {
            out += "{}";
            break;
        }
        out += '{';
        for (std::size_t i = 0; i < obj_.size(); ++i) {
            if (i)
                out += ",";
            newline(depth + 1);
            out += quoteJson(obj_[i].first);
            out += indent ? ": " : ":";
            obj_[i].second.dumpTo(out, indent, depth + 1);
        }
        newline(depth);
        out += '}';
        break;
    }
}

std::string
Json::dump(unsigned indent) const
{
    std::string out;
    dumpTo(out, indent, 0);
    if (indent)
        out += '\n';
    return out;
}

namespace {

/** Recursive-descent parser over a raw character range. */
class Parser
{
  public:
    Parser(const std::string &text, std::string *error)
        : text_(text), error_(error)
    {}

    std::optional<Json>
    run()
    {
        auto value = parseValue();
        if (!value)
            return std::nullopt;
        skipWs();
        if (pos_ != text_.size()) {
            fail("trailing characters after JSON document");
            return std::nullopt;
        }
        return value;
    }

  private:
    void
    fail(const char *message)
    {
        if (error_ && error_->empty()) {
            *error_ = message;
            *error_ += " (at offset " + std::to_string(pos_) + ")";
        }
    }

    void
    skipWs()
    {
        while (pos_ < text_.size() &&
               (text_[pos_] == ' ' || text_[pos_] == '\t' ||
                text_[pos_] == '\n' || text_[pos_] == '\r'))
            ++pos_;
    }

    bool
    consume(char c)
    {
        if (pos_ < text_.size() && text_[pos_] == c) {
            ++pos_;
            return true;
        }
        return false;
    }

    bool
    literal(const char *word)
    {
        const std::size_t n = std::strlen(word);
        if (text_.compare(pos_, n, word) == 0) {
            pos_ += n;
            return true;
        }
        return false;
    }

    std::optional<std::string>
    parseString()
    {
        if (!consume('"')) {
            fail("expected '\"'");
            return std::nullopt;
        }
        std::string out;
        while (pos_ < text_.size()) {
            const char c = text_[pos_++];
            if (c == '"')
                return out;
            if (c == '\\') {
                if (pos_ >= text_.size())
                    break;
                const char esc = text_[pos_++];
                switch (esc) {
                  case '"':
                    out += '"';
                    break;
                  case '\\':
                    out += '\\';
                    break;
                  case '/':
                    out += '/';
                    break;
                  case 'b':
                    out += '\b';
                    break;
                  case 'f':
                    out += '\f';
                    break;
                  case 'n':
                    out += '\n';
                    break;
                  case 'r':
                    out += '\r';
                    break;
                  case 't':
                    out += '\t';
                    break;
                  case 'u': {
                    if (pos_ + 4 > text_.size()) {
                        fail("truncated \\u escape");
                        return std::nullopt;
                    }
                    unsigned code = 0;
                    for (int i = 0; i < 4; ++i) {
                        const char h = text_[pos_++];
                        code <<= 4;
                        if (h >= '0' && h <= '9')
                            code |= static_cast<unsigned>(h - '0');
                        else if (h >= 'a' && h <= 'f')
                            code |= static_cast<unsigned>(h - 'a' + 10);
                        else if (h >= 'A' && h <= 'F')
                            code |= static_cast<unsigned>(h - 'A' + 10);
                        else {
                            fail("bad hex digit in \\u escape");
                            return std::nullopt;
                        }
                    }
                    // Encode the code point as UTF-8 (BMP only; the
                    // writer never emits surrogate pairs).
                    if (code < 0x80) {
                        out += static_cast<char>(code);
                    } else if (code < 0x800) {
                        out += static_cast<char>(0xC0 | (code >> 6));
                        out += static_cast<char>(0x80 | (code & 0x3F));
                    } else {
                        out += static_cast<char>(0xE0 | (code >> 12));
                        out += static_cast<char>(0x80 |
                                                 ((code >> 6) & 0x3F));
                        out += static_cast<char>(0x80 | (code & 0x3F));
                    }
                    break;
                  }
                  default:
                    fail("unknown escape sequence");
                    return std::nullopt;
                }
            } else {
                out += c;
            }
        }
        fail("unterminated string");
        return std::nullopt;
    }

    std::optional<Json>
    parseNumber()
    {
        const std::size_t start = pos_;
        if (consume('-')) {}
        while (pos_ < text_.size() &&
               (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
                text_[pos_] == '.' || text_[pos_] == 'e' ||
                text_[pos_] == 'E' || text_[pos_] == '+' ||
                text_[pos_] == '-'))
            ++pos_;
        const std::string token = text_.substr(start, pos_ - start);
        if (token.empty() || token == "-") {
            fail("malformed number");
            return std::nullopt;
        }
        const bool integral =
            token.find_first_of(".eE") == std::string::npos;
        if (integral && token[0] != '-') {
            std::uint64_t u = 0;
            const auto res = std::from_chars(
                token.data(), token.data() + token.size(), u);
            if (res.ec == std::errc() &&
                res.ptr == token.data() + token.size())
                return Json(u);
        } else if (integral) {
            std::int64_t i = 0;
            const auto res = std::from_chars(
                token.data(), token.data() + token.size(), i);
            if (res.ec == std::errc() &&
                res.ptr == token.data() + token.size())
                return Json(i);
        }
        double d = 0.0;
        const auto res =
            std::from_chars(token.data(), token.data() + token.size(), d);
        if (res.ec != std::errc() ||
            res.ptr != token.data() + token.size()) {
            fail("malformed number");
            return std::nullopt;
        }
        return Json(d);
    }

    /** The value at pos_, inside @p depth containers. */
    std::optional<Json>
    parseValue(unsigned depth = 0)
    {
        skipWs();
        if (pos_ >= text_.size()) {
            fail("unexpected end of input");
            return std::nullopt;
        }
        const char c = text_[pos_];
        if ((c == '{' || c == '[') && depth == Json::kMaxDepth) {
            fail("containers nested deeper than 64");
            return std::nullopt;
        }
        if (c == '{') {
            ++pos_;
            Json obj = Json::object();
            skipWs();
            if (consume('}'))
                return obj;
            for (;;) {
                skipWs();
                auto key = parseString();
                if (!key)
                    return std::nullopt;
                skipWs();
                if (!consume(':')) {
                    fail("expected ':' in object");
                    return std::nullopt;
                }
                auto value = parseValue(depth + 1);
                if (!value)
                    return std::nullopt;
                obj[*key] = std::move(*value);
                skipWs();
                if (consume(','))
                    continue;
                if (consume('}'))
                    return obj;
                fail("expected ',' or '}' in object");
                return std::nullopt;
            }
        }
        if (c == '[') {
            ++pos_;
            Json arr = Json::array();
            skipWs();
            if (consume(']'))
                return arr;
            for (;;) {
                auto value = parseValue(depth + 1);
                if (!value)
                    return std::nullopt;
                arr.push(std::move(*value));
                skipWs();
                if (consume(','))
                    continue;
                if (consume(']'))
                    return arr;
                fail("expected ',' or ']' in array");
                return std::nullopt;
            }
        }
        if (c == '"') {
            auto s = parseString();
            if (!s)
                return std::nullopt;
            return Json(std::move(*s));
        }
        if (literal("true"))
            return Json(true);
        if (literal("false"))
            return Json(false);
        if (literal("null"))
            return Json();
        return parseNumber();
    }

    const std::string &text_;
    std::string *error_;
    std::size_t pos_ = 0;
};

} // namespace

std::optional<Json>
Json::parse(const std::string &text, std::string *error)
{
    return Parser(text, error).run();
}

} // namespace rat::report
