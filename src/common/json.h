// JSON string rendering shared by every JSON writer: traces, telemetry,
// health pages, event-ring dumps and bench reports. Names that reach these
// documents can come from clients (a keyspace name is embedded in its
// device.ks.<name>.* gauges), so every writer escapes them.
#pragma once

#include <string>
#include <string_view>

namespace kvcsd {

// Appends `s` to `out` as a quoted JSON string. `"` and `\` are
// backslash-escaped, newline, tab and carriage return take their short
// forms, and every other control byte becomes \u00XX; all other bytes pass
// through unchanged.
void AppendJsonString(std::string* out, std::string_view s);

}  // namespace kvcsd
