#pragma once
// Small text helpers shared by the .g/.sg parsers and table printers.

#include <string>
#include <string_view>
#include <vector>

namespace sitm {

/// Strip leading/trailing whitespace.
std::string_view trim(std::string_view s);

/// Split on any run of whitespace; no empty tokens.
std::vector<std::string_view> split_ws(std::string_view s);

/// True if `s` starts with `prefix`.
bool starts_with(std::string_view s, std::string_view prefix);

/// printf-style formatting into a std::string.
std::string strfmt(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

}  // namespace sitm
