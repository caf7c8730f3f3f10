#ifndef KANON_COMMON_NAME_TABLE_H_
#define KANON_COMMON_NAME_TABLE_H_

#include <array>
#include <cstddef>
#include <string>

#include "kanon/common/check.h"
#include "kanon/common/result.h"

namespace kanon {

/// One row of a name table: an enumerator and every spelling of it. The
/// tables (kMethodNames, kDistanceNames, kNotionNames) are the only place
/// these strings are written; kanon_cli, kanond, kanon_check and the
/// benches all read them from there.
template <typename Enum>
struct NameRow {
  Enum value;
  /// What users type: the kanon_cli flag value, the kanond param value and
  /// the .repro token.
  const char* flag;
  /// What the library prints: logs, reports, stats JSON, verify replies.
  const char* display;
  /// Methods only: the literal of the pipeline's root trace span (spans
  /// store const char*, so it must be a literal, not a concatenation).
  const char* span = nullptr;
};

/// True when row i names enumerator i, which NameOf relies on.
template <typename Enum, size_t N>
constexpr bool InEnumOrder(const NameRow<Enum> (&rows)[N]) {
  for (size_t i = 0; i < N; ++i) {
    if (static_cast<size_t>(rows[i].value) != i) return false;
  }
  return true;
}

/// The enumerators of a table, in its order: the list sweeps and tests
/// iterate.
template <typename Enum, size_t N>
constexpr std::array<Enum, N> ValuesOf(const NameRow<Enum> (&rows)[N]) {
  std::array<Enum, N> values{};
  for (size_t i = 0; i < N; ++i) values[i] = rows[i].value;
  return values;
}

template <typename Enum, size_t N>
const NameRow<Enum>& NameOf(const NameRow<Enum> (&rows)[N], Enum value) {
  const size_t index = static_cast<size_t>(value);
  KANON_CHECK(index < N, "enumerator outside its name table");
  return rows[index];
}

/// InvalidArgument("unknown <what> '<flag>'"), out of line so that each
/// table's ParseFlagName stays a plain loop.
Status UnknownName(const char* what, const std::string& flag);

/// The enumerator whose flag name is `flag`; `what` names the vocabulary in
/// the error ("unknown method 'x'").
template <typename Enum, size_t N>
Result<Enum> ParseFlagName(const NameRow<Enum> (&rows)[N],
                           const std::string& flag, const char* what) {
  for (const NameRow<Enum>& row : rows) {
    if (flag == row.flag) return row.value;
  }
  return UnknownName(what, flag);
}

}  // namespace kanon

#endif  // KANON_COMMON_NAME_TABLE_H_
