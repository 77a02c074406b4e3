#ifndef CCFP_TESTS_REFERENCE_BOUNDED_H_
#define CCFP_TESTS_REFERENCE_BOUNDED_H_

#include <vector>

#include "core/database.h"
#include "core/dependency.h"
#include "search/bounded.h"
#include "util/status.h"

namespace ccfp::reference {

/// The materializing bounded search: it builds every tuple of every
/// relation's domain^arity space as heap Value tuples and every subset of
/// at most `max_tuples_per_relation` of them up front, then model-checks
/// each complete candidate database with the Value-hashing `Satisfies`
/// engine. Same pre-order enumeration as `FindCounterexample`, so when
/// both find a counterexample it is the same database
/// (tests/bounded_cross_oracle_test.cc). `max_candidates` counts complete
/// candidates; `max_bytes` and `workspace` are ignored, so call it only on
/// shapes whose subsets fit in memory.
Result<BoundedSearchResult> FindCounterexampleMaterialized(
    SchemePtr scheme, const std::vector<Dependency>& premises,
    const Dependency& conclusion, const BoundedSearchOptions& options = {});

}  // namespace ccfp::reference

#endif  // CCFP_TESTS_REFERENCE_BOUNDED_H_
