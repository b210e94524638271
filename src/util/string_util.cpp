#include "util/string_util.hpp"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace sievestore {
namespace util {

std::string
toLower(std::string_view sv)
{
    std::string out;
    out.reserve(sv.size());
    for (char c : sv)
        out.push_back(
            static_cast<char>(std::tolower(static_cast<unsigned char>(c))));
    return out;
}

std::string
formatBytes(uint64_t bytes)
{
    static const char *units[] = {"B", "KiB", "MiB", "GiB", "TiB", "PiB"};
    double value = static_cast<double>(bytes);
    size_t unit = 0;
    while (value >= 1024.0 && unit + 1 < sizeof(units) / sizeof(units[0])) {
        value /= 1024.0;
        ++unit;
    }
    char buf[32];
    if (unit == 0)
        std::snprintf(buf, sizeof(buf), "%llu B",
                      static_cast<unsigned long long>(bytes));
    else
        std::snprintf(buf, sizeof(buf), "%.1f %s", value, units[unit]);
    return buf;
}

std::string
formatCount(uint64_t value)
{
    std::string digits = std::to_string(value);
    std::string out;
    out.reserve(digits.size() + digits.size() / 3);
    const size_t n = digits.size();
    for (size_t i = 0; i < n; ++i) {
        out.push_back(digits[i]);
        const size_t rem = n - 1 - i;
        if (rem > 0 && rem % 3 == 0)
            out.push_back(',');
    }
    return out;
}

bool
parseDouble(const char *text, double &out)
{
    char *end = nullptr;
    errno = 0;
    const double value = std::strtod(text, &end);
    if (end == text || *end != '\0' || errno == ERANGE ||
        !std::isfinite(value))
        return false;
    out = value;
    return true;
}

bool
parseUint64(const char *text, uint64_t &out)
{
    char *end = nullptr;
    errno = 0;
    const unsigned long long value = std::strtoull(text, &end, 0);
    if (!std::isdigit(static_cast<unsigned char>(text[0])) ||
        *end != '\0' || errno == ERANGE)
        return false;
    out = value;
    return true;
}

} // namespace util
} // namespace sievestore
