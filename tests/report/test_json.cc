/**
 * @file
 * Unit tests of the dependency-free JSON document model and the CSV
 * writer: deterministic output, exact numeric round-trips, escaping,
 * and parse-error reporting.
 */

#include <cstdint>
#include <limits>
#include <string>

#include <gtest/gtest.h>

#include "report/csv.hh"
#include "report/json.hh"

namespace rat::report {
namespace {

TEST(Json, PrimitivesDumpCanonically)
{
    EXPECT_EQ(Json().dump(), "null");
    EXPECT_EQ(Json(true).dump(), "true");
    EXPECT_EQ(Json(false).dump(), "false");
    EXPECT_EQ(Json(std::uint64_t{42}).dump(), "42");
    EXPECT_EQ(Json(-7).dump(), "-7");
    EXPECT_EQ(Json("hi").dump(), "\"hi\"");
    EXPECT_EQ(Json::array().dump(), "[]");
    EXPECT_EQ(Json::object().dump(), "{}");
}

TEST(Json, NonNegativeIntegersCanonicalizeToUint)
{
    // Signed and unsigned spellings of the same value are one value.
    EXPECT_EQ(Json(std::int64_t{5}), Json(std::uint64_t{5}));
    EXPECT_EQ(Json(std::int64_t{5}).dump(), "5");
}

TEST(Json, StringEscaping)
{
    EXPECT_EQ(Json("a\"b\\c\nd").dump(), "\"a\\\"b\\\\c\\nd\"");
    EXPECT_EQ(Json(std::string("ctrl\x01")).dump(), "\"ctrl\\u0001\"");
}

TEST(Json, Uint64MaxRoundTripsExactly)
{
    const std::uint64_t max = std::numeric_limits<std::uint64_t>::max();
    const std::string text = Json(max).dump();
    EXPECT_EQ(text, "18446744073709551615");
    const auto parsed = Json::parse(text);
    ASSERT_TRUE(parsed);
    EXPECT_TRUE(parsed->isU64());
    EXPECT_EQ(parsed->asU64(), max);
}

TEST(Json, DoublesRoundTripExactly)
{
    for (const double v : {0.1, -3.5, 1e-9, 12345.6789, 2.5e300}) {
        const auto parsed = Json::parse(Json(v).dump());
        ASSERT_TRUE(parsed) << v;
        EXPECT_EQ(parsed->asDouble(), v);
        // Dump -> parse -> dump is byte-stable (cache determinism).
        EXPECT_EQ(parsed->dump(), Json(v).dump());
    }
}

TEST(Json, IntegralDoubleKeepsDoubleSpelling)
{
    // 2.0 must not re-parse as the integer 2 and change its dump.
    EXPECT_EQ(Json(2.0).dump(), "2.0");
    const auto parsed = Json::parse("2.0");
    ASSERT_TRUE(parsed);
    EXPECT_EQ(parsed->dump(), "2.0");
}

TEST(Json, ObjectPreservesInsertionOrder)
{
    Json j = Json::object();
    j["zebra"] = Json(std::uint64_t{1});
    j["alpha"] = Json(std::uint64_t{2});
    j["mid"] = Json(std::uint64_t{3});
    EXPECT_EQ(j.dump(), "{\"zebra\":1,\"alpha\":2,\"mid\":3}");
    // Re-assignment updates in place, no reordering.
    j["zebra"] = Json(std::uint64_t{9});
    EXPECT_EQ(j.dump(), "{\"zebra\":9,\"alpha\":2,\"mid\":3}");
}

TEST(Json, NestedDocumentRoundTripIsByteIdentical)
{
    Json doc = Json::object();
    doc["name"] = Json("sweep");
    doc["count"] = Json(std::uint64_t{3});
    doc["ratio"] = Json(0.375);
    Json arr = Json::array();
    arr.push(Json(std::uint64_t{1}))
        .push(Json("two"))
        .push(Json())
        .push(Json(true));
    doc["items"] = std::move(arr);
    Json inner = Json::object();
    inner["deep"] = Json(-42);
    doc["nested"] = std::move(inner);

    for (const unsigned indent : {0u, 2u}) {
        const std::string text = doc.dump(indent);
        const auto parsed = Json::parse(text);
        ASSERT_TRUE(parsed);
        EXPECT_EQ(*parsed, doc);
        EXPECT_EQ(parsed->dump(indent), text);
    }
}

TEST(Json, ParseHandlesWhitespaceAndEscapes)
{
    const auto parsed =
        Json::parse(" { \"a\" : [ 1 , 2.5 ] , \"b\\n\" : \"\\u0041\" } ");
    ASSERT_TRUE(parsed);
    EXPECT_EQ(parsed->at("a").at(0).asU64(), 1u);
    EXPECT_EQ(parsed->at("a").at(1).asDouble(), 2.5);
    EXPECT_EQ(parsed->at("b\n").asString(), "A");
}

TEST(Json, ParseRejectsMalformedInput)
{
    std::string error;
    EXPECT_FALSE(Json::parse("", &error));
    EXPECT_FALSE(Json::parse("{", &error));
    EXPECT_FALSE(Json::parse("[1,]", &error));
    EXPECT_FALSE(Json::parse("{\"a\":}", &error));
    EXPECT_FALSE(Json::parse("nul", &error));
    EXPECT_FALSE(Json::parse("1 2", &error));
    EXPECT_FALSE(Json::parse("\"unterminated", &error));
    EXPECT_FALSE(error.empty());
}

TEST(Json, ParseRefusesNestingPastTheDepthLimit)
{
    // The parser recurses once per container: 100,000 of them used to
    // overflow the stack (SIGSEGV) instead of failing the parse.
    constexpr std::size_t kDeep = 100000;
    std::string error;
    EXPECT_FALSE(Json::parse(std::string(kDeep, '['), &error));
    EXPECT_NE(error.find("nested deeper than 64"), std::string::npos)
        << error;

    std::string chain;
    for (std::size_t i = 0; i < kDeep; ++i)
        chain += "{\"a\":";
    error.clear();
    EXPECT_FALSE(Json::parse(chain, &error));
    EXPECT_NE(error.find("nested deeper than 64"), std::string::npos)
        << error;
}

TEST(Json, DocumentAtTheDepthLimitParses)
{
    const std::size_t limit = Json::kMaxDepth;
    const std::string arrays =
        std::string(limit, '[') + std::string(limit, ']');
    const auto parsed = Json::parse(arrays);
    ASSERT_TRUE(parsed);
    EXPECT_EQ(parsed->dump(), arrays);
    // One more level is refused.
    EXPECT_FALSE(Json::parse("[" + arrays + "]"));

    std::string objects;
    for (std::size_t i = 0; i + 1 < limit; ++i)
        objects += "{\"a\":";
    objects += "{}" + std::string(limit - 1, '}');
    const auto nested = Json::parse(objects);
    ASSERT_TRUE(nested);
    EXPECT_EQ(nested->dump(), objects);
}

TEST(Json, FindAndTypePredicates)
{
    Json j = Json::object();
    j["x"] = Json(std::uint64_t{1});
    EXPECT_NE(j.find("x"), nullptr);
    EXPECT_EQ(j.find("y"), nullptr);
    EXPECT_TRUE(j.at("x").isNumber());
    EXPECT_FALSE(Json("1").isNumber());
    EXPECT_FALSE(Json(-1).isU64());
    EXPECT_TRUE(Json(2.0).isU64()); // integral double qualifies
    EXPECT_FALSE(Json(2.5).isU64());
}

TEST(Csv, EscapesOnlyWhenNeeded)
{
    EXPECT_EQ(csvEscape("plain"), "plain");
    EXPECT_EQ(csvEscape("a,b"), "\"a,b\"");
    EXPECT_EQ(csvEscape("say \"hi\""), "\"say \"\"hi\"\"\"");
    EXPECT_EQ(csvEscape("two\nlines"), "\"two\nlines\"");
}

TEST(Csv, TableDumpsHeaderAndRows)
{
    CsvTable csv;
    csv.setHeader({"name", "count", "ratio"});
    CsvTable::Row row;
    row.add("art,mcf").add(std::uint64_t{12}).add(0.5);
    csv.addRow(row.take());
    EXPECT_EQ(csv.rows(), 1u);
    EXPECT_EQ(csv.dump(), "name,count,ratio\n\"art,mcf\",12,0.5\n");
}

} // namespace
} // namespace rat::report
