/**
 * @file
 * Tests of the util substrate: math helpers, table printer, units,
 * fingerprint formatting.
 */
#include <gtest/gtest.h>

#include <cfloat>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "util/fingerprint.hpp"
#include "util/logging.hpp"
#include "util/math.hpp"
#include "util/table.hpp"
#include "util/units.hpp"

namespace meshslice {
namespace {

TEST(MathUtil, CeilDivAndRoundUp)
{
    EXPECT_EQ(ceilDiv(10, 3), 4);
    EXPECT_EQ(ceilDiv(9, 3), 3);
    EXPECT_EQ(ceilDiv(1, 128), 1);
    EXPECT_EQ(roundUp(10, 8), 16);
    EXPECT_EQ(roundUp(16, 8), 16);
}

TEST(MathUtil, IsPow2)
{
    EXPECT_TRUE(isPow2(1));
    EXPECT_TRUE(isPow2(256));
    EXPECT_FALSE(isPow2(0));
    EXPECT_FALSE(isPow2(3));
    EXPECT_FALSE(isPow2(-4));
}

TEST(MathUtil, DivisorsSortedAndComplete)
{
    EXPECT_EQ(divisorsOf(12),
              (std::vector<std::int64_t>{1, 2, 3, 4, 6, 12}));
    EXPECT_EQ(divisorsOf(1), (std::vector<std::int64_t>{1}));
    EXPECT_EQ(divisorsOf(16),
              (std::vector<std::int64_t>{1, 2, 4, 8, 16}));
}

TEST(MathUtil, MeshShapesCoverAllFactorizations)
{
    auto shapes = meshShapesOf(256);
    EXPECT_EQ(shapes.size(), 9u); // 1,2,4,...,256
    for (auto [r, c] : shapes)
        EXPECT_EQ(r * c, 256);
    EXPECT_EQ(shapes.front().first, 1);
    EXPECT_EQ(shapes.back().first, 256);
}

TEST(Units, LiteralsScaleCorrectly)
{
    EXPECT_DOUBLE_EQ(us(1.0), 1e-6);
    EXPECT_DOUBLE_EQ(ms(2.0), 2e-3);
    EXPECT_EQ(MB(1.0), 1000000);
    EXPECT_EQ(MiB(1.0), 1048576);
    EXPECT_DOUBLE_EQ(GBps(45.0), 45e9);
    EXPECT_DOUBLE_EQ(TFLOPS(272.0), 272e12);
}

TEST(TableUtil, AlignsColumnsAndCountsRows)
{
    Table t({"a", "long_header"});
    t.addRow({"xxxx", "1"});
    t.addRow({"y", "22"});
    EXPECT_EQ(t.rowCount(), 2u);
    std::ostringstream os;
    t.print(os);
    const std::string out = os.str();
    EXPECT_NE(out.find("long_header"), std::string::npos);
    EXPECT_NE(out.find("xxxx"), std::string::npos);
}

TEST(TableUtil, CsvOutput)
{
    Table t({"x", "y"});
    t.addRow({"1", "2"});
    std::ostringstream os;
    t.printCsv(os);
    EXPECT_EQ(os.str(), "x,y\n1,2\n");
}

TEST(TableUtil, NumberFormatting)
{
    EXPECT_EQ(Table::num(3.14159, 2), "3.14");
    EXPECT_EQ(Table::pct(0.123, 1), "12.3%");
}

TEST(TableUtilDeath, RejectsArityMismatch)
{
    Table t({"a", "b"});
    EXPECT_DEATH(t.addRow({"only one"}), "arity");
}

TEST(Logging, StrprintfFormats)
{
    EXPECT_EQ(strprintf("%d-%s", 42, "x"), "42-x");
    EXPECT_EQ(strprintf("%.2f", 1.5), "1.50");
}

// Fingerprint fields are formatted without printf; their text must stay
// the `%a` / `%lld` / `%zu` text, or every persisted key would move.

std::string
printfDoubleField(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%a", v);
    return std::string("x=") + buf + ";";
}

TEST(FingerprintFormat, DoublesMatchPrintfHexFloat)
{
    const double specials[] = {
        0.0,
        -0.0,
        1.0,
        -1.0,
        0.1,
        DBL_MAX,
        -DBL_MAX,
        DBL_MIN,
        std::numeric_limits<double>::denorm_min(),
        -std::numeric_limits<double>::denorm_min(),
        DBL_MIN / 3.0,
        std::numeric_limits<double>::infinity(),
        -std::numeric_limits<double>::infinity(),
        std::numeric_limits<double>::quiet_NaN(),
        -std::numeric_limits<double>::quiet_NaN()};
    for (double v : specials)
        EXPECT_EQ(Fingerprint().field("x", v).str(), printfDoubleField(v));

    // Random bit patterns cover every exponent, subnormals and NaN
    // payloads included.
    std::uint64_t state = 20240521;
    int mismatches = 0;
    for (int i = 0; i < (1 << 20) && mismatches < 5; ++i) {
        const std::uint64_t bits = splitmix64(state);
        double v;
        std::memcpy(&v, &bits, sizeof(v));
        const std::string want = printfDoubleField(v);
        const std::string got = Fingerprint().field("x", v).str();
        if (got != want) {
            ++mismatches;
            ADD_FAILURE() << "bits " << std::hex << bits << ": " << got
                          << " != " << want;
        }
    }
}

TEST(FingerprintFormat, IntegersAndLengthsMatchPrintf)
{
    const auto printf_int = [](std::int64_t v) {
        return strprintf("i=%lld;", static_cast<long long>(v));
    };
    for (std::int64_t v :
         {std::int64_t{0}, std::int64_t{1}, std::int64_t{-1},
          std::int64_t{9}, std::int64_t{10}, std::int64_t{-10},
          std::numeric_limits<std::int64_t>::max(),
          std::numeric_limits<std::int64_t>::min()})
        EXPECT_EQ(Fingerprint().field("i", v).str(), printf_int(v));
    EXPECT_EQ(Fingerprint().field("i", -7).str(), "i=-7;");

    // Random bit patterns, shifted so every magnitude shows up.
    std::uint64_t state = 7;
    int mismatches = 0;
    for (int i = 0; i < (1 << 20) && mismatches < 5; ++i) {
        const std::int64_t v =
            static_cast<std::int64_t>(splitmix64(state)) >> (i % 64);
        const std::string got = Fingerprint().field("i", v).str();
        if (got != printf_int(v)) {
            ++mismatches;
            ADD_FAILURE() << got << " != " << printf_int(v);
        }
    }

    const std::string text(100000, 'a');
    for (size_t len : {0, 1, 9, 10, 99, 100, 12345, 100000}) {
        const std::string_view v(text.data(), len);
        EXPECT_EQ(Fingerprint().field("s", v).str(),
                  strprintf("s=%zu:", len) + std::string(v) + ";");
    }
}

TEST(FingerprintFormat, DigestIsSixteenHexDigits)
{
    EXPECT_EQ(fnv1a64Hex(""), "cbf29ce484222325");
    EXPECT_EQ(fnv1a64Hex("a"), "af63dc4c8601ec8c");
    EXPECT_EQ(Fingerprint().field("x", 1.0).digest(), fnv1a64Hex("x=0x1p+0;"));
}

} // namespace
} // namespace meshslice
