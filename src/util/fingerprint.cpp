#include "util/fingerprint.hpp"

#include <algorithm>
#include <bit>
#include <charconv>

namespace meshslice {

namespace {

constexpr char kHexDigits[] = "0123456789abcdef";

} // namespace

Fingerprint &
Fingerprint::append(std::string_view name, std::string_view value)
{
    text_.append(name);
    text_ += '=';
    text_.append(value);
    text_ += ';';
    return *this;
}

Fingerprint &
Fingerprint::field(std::string_view name, double v)
{
    // glibc's `%a`, written from the bits. Not `std::to_chars` hex:
    // newer libstdc++ releases print subnormals normalized (`1p-1074`
    // for `0.0000000000001p-1022`), so its text would depend on the
    // runtime library a process loads.
    constexpr int kMantissaBits = 52;
    constexpr std::uint64_t kMantissaMask =
        (std::uint64_t{1} << kMantissaBits) - 1;
    const auto bits = std::bit_cast<std::uint64_t>(v);
    const int biased = static_cast<int>(bits >> kMantissaBits & 0x7ff);
    std::uint64_t mantissa = bits & kMantissaMask;
    char buf[32];
    char *p = buf;
    if (bits >> 63 != 0)
        *p++ = '-';
    if (biased == 0x7ff) {
        p = std::copy_n(mantissa != 0 ? "nan" : "inf", 3, p);
        return append(name, std::string_view(buf, p - buf));
    }
    // Normal 0x1.<hex>p<e>, subnormal 0x0.<hex>p-1022, zero 0x0p+0.
    const int exponent = biased != 0    ? biased - 1023
                         : mantissa != 0 ? -1022
                                         : 0;
    *p++ = '0';
    *p++ = 'x';
    *p++ = biased == 0 ? '0' : '1';
    if (mantissa != 0) {
        // Thirteen hex digits, trailing zeros dropped.
        *p++ = '.';
        for (int shift = kMantissaBits - 4; mantissa != 0; shift -= 4) {
            *p++ = kHexDigits[mantissa >> shift & 0xf];
            mantissa &= (std::uint64_t{1} << shift) - 1;
        }
    }
    *p++ = 'p';
    if (exponent >= 0)
        *p++ = '+';
    p = std::to_chars(p, buf + sizeof(buf), exponent).ptr;
    return append(name, std::string_view(buf, p - buf));
}

Fingerprint &
Fingerprint::field(std::string_view name, std::int64_t v)
{
    char buf[24];
    const char *end = std::to_chars(buf, buf + sizeof(buf), v).ptr;
    return append(name, std::string_view(buf, end - buf));
}

Fingerprint &
Fingerprint::field(std::string_view name, int v)
{
    return field(name, static_cast<std::int64_t>(v));
}

Fingerprint &
Fingerprint::field(std::string_view name, bool v)
{
    return append(name, v ? "1" : "0");
}

Fingerprint &
Fingerprint::field(std::string_view name, std::string_view v)
{
    char buf[24];
    const char *end = std::to_chars(buf, buf + sizeof(buf), v.size()).ptr;
    text_.append(name);
    text_ += '=';
    text_.append(buf, end - buf);
    text_ += ':';
    text_.append(v);
    text_ += ';';
    return *this;
}

Fingerprint &
Fingerprint::sub(std::string_view name, const Fingerprint &fp)
{
    return field(name, std::string_view(fp.text_));
}

std::string
Fingerprint::digest() const
{
    return fnv1a64Hex(text_);
}

std::string
fnv1a64Hex(std::string_view s)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (unsigned char c : s) {
        h ^= c;
        h *= 0x100000001b3ULL;
    }
    std::string hex(16, '0');
    for (size_t i = hex.size(); i-- > 0; h >>= 4)
        hex[i] = kHexDigits[h & 0xf];
    return hex;
}

} // namespace meshslice
