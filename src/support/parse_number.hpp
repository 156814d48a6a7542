#ifndef IMS_SUPPORT_PARSE_NUMBER_HPP
#define IMS_SUPPORT_PARSE_NUMBER_HPP

#include <charconv>
#include <cmath>
#include <cstdlib>
#include <iostream>
#include <string_view>
#include <system_error>
#include <type_traits>

namespace ims::support {

/**
 * Parse all of `text` as a T with std::from_chars: no leading space or
 * '+', no sign for unsigned T, no trailing bytes, no overflow, and a
 * finite value for floating-point T. Returns false (leaving `value`
 * unspecified) on anything else.
 */
template <typename T>
bool
parseNumber(std::string_view text, T& value)
{
    const char* end = text.data() + text.size();
    const auto [stop, error] = std::from_chars(text.data(), end, value);
    if (error != std::errc() || stop != end)
        return false;
    if constexpr (std::is_floating_point_v<T>)
        return std::isfinite(value);
    return true;
}

/**
 * The value of command-line flag `flag`: parseNumber(text), or a message
 * naming the flag on stderr and exit status 2 (a usage error).
 */
template <typename T>
T
numberArg(std::string_view flag, std::string_view text)
{
    T value{};
    if (!parseNumber(text, value)) {
        std::cerr << flag << ": bad number '" << text << "'\n";
        std::exit(2);
    }
    return value;
}

} // namespace ims::support

#endif // IMS_SUPPORT_PARSE_NUMBER_HPP
