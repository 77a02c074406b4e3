#ifndef CCFP_TESTS_REFERENCE_PARSER_H_
#define CCFP_TESTS_REFERENCE_PARSER_H_

#include <string_view>

#include "core/database.h"
#include "util/status.h"

namespace ccfp::reference {

/// The splitting database parser: `SplitAndTrim` copies every line and
/// then every token into a `std::string`, each token goes through
/// strtoll/strtoull, and every line looks its relation up by name.
/// `ParseDatabase` walks string_views in one pass instead and must return
/// an equal Database, or the same Status code and error text
/// (tests/parser_property_test.cc).
Result<Database> ParseDatabaseSplit(SchemePtr scheme, std::string_view text);

}  // namespace ccfp::reference

#endif  // CCFP_TESTS_REFERENCE_PARSER_H_
