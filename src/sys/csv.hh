/**
 * @file
 * RFC-4180 CSV field quoting, shared by every CSV writer (Table::csv
 * and the griffin compare / pages / prof subcommands). Sweep
 * labels routinely embed the flag syntax that produced them (e.g.
 * "fabric=a,b"), so unquoted emission would silently shift columns.
 */

#ifndef GRIFFIN_SYS_CSV_HH
#define GRIFFIN_SYS_CSV_HH

#include <string>

namespace griffin::sys {

/**
 * Quote @p field for a CSV cell if (and only if) it needs it: fields
 * containing a comma, a double quote, or a line break are wrapped in
 * double quotes with embedded quotes doubled (RFC 4180 §2.5–2.7).
 * Anything else passes through unchanged, so existing plain-value
 * output keeps its exact bytes.
 */
inline std::string
csvEscape(const std::string &field)
{
    const bool needs_quoting =
        field.find_first_of(",\"\r\n") != std::string::npos;
    if (!needs_quoting)
        return field;
    std::string out;
    out.reserve(field.size() + 2);
    out += '"';
    for (const char c : field) {
        if (c == '"')
            out += '"';
        out += c;
    }
    out += '"';
    return out;
}

} // namespace griffin::sys

#endif // GRIFFIN_SYS_CSV_HH
