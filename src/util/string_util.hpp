/**
 * @file
 * Small string utilities used by trace writers and table output.
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

} // namespace util
} // namespace sievestore

#endif // SIEVESTORE_UTIL_STRING_UTIL_HPP
