/**
 * @file
 * Dependency-free JSON document model, writer and parser for the
 * report subsystem. Design goals, in order:
 *
 *  1. **Deterministic output.** Objects keep insertion order, integers
 *     print as exact decimals, doubles print in shortest
 *     round-trippable form (std::to_chars). Serializing the same
 *     document twice — or serializing, parsing and serializing again —
 *     yields byte-identical text. The on-disk result cache relies on
 *     this (see DESIGN.md, "Result-cache keying").
 *  2. **Exact numeric round-trips.** uint64 counters and IEEE doubles
 *     survive dump -> parse -> dump without loss.
 *  3. No third-party dependencies (container constraint).
 */

#ifndef RAT_REPORT_JSON_HH
#define RAT_REPORT_JSON_HH

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace rat::report {

/** One JSON value: null, bool, number, string, array or object. */
class Json
{
  public:
    enum class Type : std::uint8_t {
        Null,
        Bool,
        Uint,   ///< number stored as uint64 (exact)
        Int,    ///< negative integer stored as int64 (exact)
        Double, ///< any other number
        String,
        Array,
        Object,
    };

    Json() = default; ///< null
    Json(bool value) : type_(Type::Bool), bool_(value) {}
    Json(std::uint64_t value) : type_(Type::Uint), uint_(value) {}
    Json(std::uint32_t value) : Json(std::uint64_t{value}) {}
    Json(std::int64_t value);
    Json(int value) : Json(std::int64_t{value}) {}
    Json(double value) : type_(Type::Double), double_(value) {}
    Json(std::string value) : type_(Type::String), str_(std::move(value)) {}
    Json(const char *value) : Json(std::string(value)) {}

    /** An empty array (distinct from null). */
    static Json array();
    /** An empty object (distinct from null). */
    static Json object();

    Type type() const { return type_; }
    bool isNull() const { return type_ == Type::Null; }
    bool isBool() const { return type_ == Type::Bool; }
    bool isNumber() const
    {
        return type_ == Type::Uint || type_ == Type::Int ||
               type_ == Type::Double;
    }
    /** True for a number exactly representable as uint64. */
    bool isU64() const;
    /** True for a number exactly representable as int64. */
    bool isI64() const;
    bool isString() const { return type_ == Type::String; }
    bool isArray() const { return type_ == Type::Array; }
    bool isObject() const { return type_ == Type::Object; }

    /** Typed accessors; panic on type mismatch (caller checks first). */
    bool asBool() const;
    std::uint64_t asU64() const;
    std::int64_t asI64() const;
    double asDouble() const; ///< any number type
    const std::string &asString() const;

    // --- Array interface ---
    /** Append an element (value must be an array or null; null becomes
     * an array). Returns *this for chaining. */
    Json &push(Json element);
    /** Element count of an array or object (0 otherwise). */
    std::size_t size() const;
    /** Array element (panics when out of range / not an array). */
    const Json &at(std::size_t index) const;
    const std::vector<Json> &elements() const;

    // --- Object interface ---
    /**
     * Fetch-or-insert a member (value must be an object or null; null
     * becomes an object). New keys append at the end: insertion order
     * is serialization order.
     */
    Json &operator[](const std::string &key);
    /** Member lookup; nullptr when absent or not an object. */
    const Json *find(const std::string &key) const;
    /** Member access (panics when absent). */
    const Json &at(const std::string &key) const;
    const std::vector<std::pair<std::string, Json>> &members() const;

    bool operator==(const Json &other) const;
    bool operator!=(const Json &other) const { return !(*this == other); }

    /**
     * Serialize. @p indent > 0 pretty-prints with that many spaces per
     * level; 0 yields the canonical compact form used for cache keys.
     */
    std::string dump(unsigned indent = 0) const;

    /**
     * Containers a parsed document may nest (ratsim's reports nest 7).
     * The parser recurses per level, so deeper input fails the parse
     * instead of overflowing the stack.
     */
    static constexpr unsigned kMaxDepth = 64;

    /**
     * Parse a complete JSON document. Returns std::nullopt on malformed
     * input or nesting past kMaxDepth and, when @p error is non-null,
     * stores a diagnostic.
     */
    static std::optional<Json> parse(const std::string &text,
                                     std::string *error = nullptr);

  private:
    void dumpTo(std::string &out, unsigned indent, unsigned depth) const;

    Type type_ = Type::Null;
    bool bool_ = false;
    std::uint64_t uint_ = 0;
    std::int64_t int_ = 0;
    double double_ = 0.0;
    std::string str_;
    std::vector<Json> arr_;
    std::vector<std::pair<std::string, Json>> obj_;
};

/** Canonical shortest-round-trip text for a double (std::to_chars). */
std::string formatDouble(double value);

/** JSON string escaping (quotes included). */
std::string quoteJson(const std::string &text);

} // namespace rat::report

#endif // RAT_REPORT_JSON_HH
