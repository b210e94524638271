/**
 * @file
 * Small string utilities used by trace writers, table output and
 * command-line parsing.
 */

#ifndef SIEVESTORE_UTIL_STRING_UTIL_HPP
#define SIEVESTORE_UTIL_STRING_UTIL_HPP

#include <cstdint>
#include <string>
#include <string_view>

namespace sievestore {
namespace util {

/** ASCII lower-casing (locale independent). */
std::string toLower(std::string_view sv);

/** Render a byte count using binary units ("16.0 GiB"). */
std::string formatBytes(uint64_t bytes);

/** Render a count with thousands separators ("434,226,711"). */
std::string formatCount(uint64_t value);

/** Parse all of `text` as a finite double. False (leaving `out`
 * alone) on an empty string, trailing characters or overflow. */
bool parseDouble(const char *text, double &out);

/** Parse all of `text` as a uint64_t, in strtoull's base-0 syntax
 * (decimal, 0x hex, leading-0 octal). False on a sign, junk, trailing
 * characters or overflow. */
bool parseUint64(const char *text, uint64_t &out);

} // namespace util
} // namespace sievestore

#endif // SIEVESTORE_UTIL_STRING_UTIL_HPP
