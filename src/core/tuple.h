#ifndef CCFP_CORE_TUPLE_H_
#define CCFP_CORE_TUPLE_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/schema.h"
#include "core/value.h"

namespace ccfp {

/// A tuple over R[A1,...,Am] is a sequence (a1,...,am) of the same length m
/// (Section 2 of the paper: tuples are sequences, not attribute maps).
using Tuple = std::vector<Value>;

/// t[X]: the projection of `t` onto the attribute sequence `cols`
/// (paper notation t[X] for X = (A_{i1},...,A_{ik})).
Tuple ProjectTuple(const Tuple& t, const std::vector<AttrId>& cols);

/// Convenience constructors for test/example literals.
Tuple TupleOfInts(const std::vector<std::int64_t>& values);
Tuple TupleOfStrs(const std::vector<std::string>& values);

/// "(1, 2, \"x\")"
std::string TupleToString(const Tuple& t);

struct TupleHash {
  std::size_t operator()(const Tuple& t) const {
    std::size_t h = 0xCBF29CE484222325ULL;
    for (const Value& v : t) {
      h ^= v.Hash();
      h *= 0x100000001B3ULL;
    }
    return h;
  }
};

/// An *interned* tuple: the same sequence, but with every Value replaced by
/// a dense uint32 id (see core/intern.h). The delta-driven chase engine and
/// the interned model checker (core/workspace.h) work exclusively on these —
/// hashing is FNV-1a over raw ids, an order of magnitude cheaper than
/// TupleHash's per-Value hashing. (Projection lives with the engine, which
/// must canonicalize ids through its union-find.)
using IdTuple = std::vector<std::uint32_t>;

/// A read-only view of one interned row, such as an InternedWorkspace
/// tuple slot (core/workspace.h); valid until that workspace next appends.
using IdRow = std::span<const std::uint32_t>;

struct IdTupleHash {
  std::size_t operator()(const IdTuple& t) const {
    std::size_t h = 0xCBF29CE484222325ULL;
    for (std::uint32_t v : t) {
      h ^= v;
      h *= 0x100000001B3ULL;
    }
    return h;
  }
};

/// Packs two dense ids (partition group ids, value ids) into one hashable
/// word — the EMVD checkers' and the id-space EMVD chase's pair key.
inline std::uint64_t PackIdPair(std::uint32_t a, std::uint32_t b) {
  return (static_cast<std::uint64_t>(a) << 32) | b;
}

}  // namespace ccfp

#endif  // CCFP_CORE_TUPLE_H_
