// The one JSON string escaper: ResultTable's JSON writer
// (engine/report.cpp) and rsbd's line protocol (service/json.cpp) both
// quote strings through it.
#pragma once

#include <string>
#include <string_view>

namespace rsb {

/// Appends `text` to `out` as a JSON string literal, quotes included: '"',
/// '\\', '\n', '\r' and '\t' take their two-character escapes, every other
/// byte below 0x20 a \u00XX escape, and all other bytes pass unchanged.
void append_json_string(std::string& out, std::string_view text);

}  // namespace rsb
