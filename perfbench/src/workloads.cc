#include "workloads.h"

#include <algorithm>
#include <map>
#include <set>

#include "util/strings.h"

namespace perfbench {
namespace {

using ccfp::SplitMix64;
using ccfp::StrCat;

/// A relation of a template, in canonical names.
struct RelSpec {
  std::string name;
  std::vector<std::string> attrs;
};

/// Seeded renaming of a template: fresh relation and attribute names, and
/// a shuffled attribute order inside every relation. The variant is
/// isomorphic to the template, so its queries cost the same work; only the
/// text and the column positions differ.
struct Variant {
  std::map<std::string, std::string> names;
  ccfp::SchemePtr scheme;

  std::string Render(const std::string& text) const {
    std::string out;
    std::size_t i = 0;
    while (i < text.size()) {
      if (std::isalpha(static_cast<unsigned char>(text[i]))) {
        std::size_t j = i;
        while (j < text.size() &&
               (std::isalnum(static_cast<unsigned char>(text[j])) ||
                text[j] == '_')) {
          ++j;
        }
        std::string token = text.substr(i, j - i);
        auto it = names.find(token);
        out += it == names.end() ? token : it->second;
        i = j;
      } else {
        out += text[i++];
      }
    }
    return out;
  }
};

template <typename T>
void Shuffle(std::vector<T>& v, SplitMix64& rng) {
  for (std::size_t i = v.size(); i > 1; --i) {
    std::swap(v[i - 1], v[rng.Below(i)]);
  }
}

Variant MakeVariant(const std::vector<RelSpec>& rels, SplitMix64& rng) {
  Variant v;
  std::set<std::string> used;
  auto fresh = [&](const std::string& prefix) {
    for (;;) {
      std::string name = StrCat(prefix, rng.Between(10, 999));
      if (used.insert(name).second) return name;
    }
  };
  std::vector<std::pair<std::string, std::vector<std::string>>> scheme;
  for (const RelSpec& rel : rels) {
    std::string rel_name = fresh(rel.name);
    v.names[rel.name] = rel_name;
    std::vector<std::string> attrs;
    for (const std::string& a : rel.attrs) {
      std::string attr = fresh(StrCat(rel.name, "_", a, "_"));
      v.names[a] = attr;
      attrs.push_back(attr);
    }
    Shuffle(attrs, rng);
    scheme.emplace_back(rel_name, std::move(attrs));
  }
  v.scheme = ccfp::MakeScheme(scheme);
  return v;
}

std::string FdText(const std::string& rel, const std::vector<std::string>& lhs,
                   const std::vector<std::string>& rhs) {
  return StrCat(rel, ": ", ccfp::JoinStrings(lhs, ", "), " -> ",
                ccfp::JoinStrings(rhs, ", "));
}

std::string IndText(const std::string& r1, const std::vector<std::string>& x,
                    const std::string& r2, const std::vector<std::string>& y) {
  return StrCat(r1, "[", ccfp::JoinStrings(x, ", "), "] <= ", r2, "[",
                ccfp::JoinStrings(y, ", "), "]");
}

/// k distinct attributes of `attrs`, in random order.
std::vector<std::string> Pick(const std::vector<std::string>& attrs,
                              std::size_t k, SplitMix64& rng) {
  std::vector<std::string> all = attrs;
  Shuffle(all, rng);
  all.resize(std::min(k, all.size()));
  return all;
}

// --- mixed_solve ------------------------------------------------------------

/// R/S: a recursive IND cycle (R[B,C] <= R[C,A] feeds itself), so the chase
/// from many targets' canonical seeds never reaches a fixpoint and burns
/// its whole budget share. T/U: INDs only point from T into U, so every
/// chase there terminates within a few steps.
const std::vector<RelSpec> kMixedRels = {{"R", {"A", "B", "C"}},
                                         {"S", {"D", "E", "F"}},
                                         {"T", {"G", "H", "I", "J"}},
                                         {"U", {"K", "L", "M"}}};

const char* kMixedSigma =
    "R: A -> B\n"
    "R[B, C] <= R[C, A]\n"
    "S: D -> E\n"
    "R[A, B] <= S[D, E]\n"
    "S[E, F] <= R[A, C]\n"
    "T: G -> H\n"
    "T[G, H] <= U[K, L]\n"
    "U: K -> M\n"
    "T[I, J] <= U[L, M]\n"
    "U: L, M -> K\n";

/// The R/S targets the stream asks, in three pools.
///
/// Decided at once by the sound derivation rules (kImplied).
const std::vector<std::string> kMixedDerivable = {
    "R: A -> B",          "R: A, C -> B",       "S: D -> E",
    "S: D, F -> E",       "R[A, B] <= S[D, E]", "R[B, A] <= S[E, D]",
    "S[E, F] <= R[A, C]", "S[F, E] <= R[C, A]", "R[B, C] <= R[C, A]",
    "R[C, B] <= R[A, C]"};

/// Divergent, and the refutation portfolio finds nothing either: the chase
/// spends its whole budget share and the verdict is kUnknown.
const std::vector<std::string> kMixedUnknown = {
    "S: E -> F",          "R[C, B] <= R[B, C]", "R[C, B] <= R[C, A]",
    "S[E, F] <= R[C, B]", "S[F, E] <= R[B, C]", "R: B -> C",
    "S: D -> F",          "S[F, E] <= R[C, B]", "R: C -> B",
    "S[F, E] <= R[A, C]"};

/// Divergent, but the portfolio refutes them at once — the verdict
/// (kNotImplied) still waits until the chase has spent its share. A
/// witness cached from an earlier refutation can answer them first.
const std::vector<std::string> kMixedRefutable = {
    "R[B, A] <= R[C, A]", "R[A, C] <= S[D, E]", "R[C, A] <= R[A, B]",
    "S[D, F] <= R[B, C]", "S[E, D] <= R[A, C]", "R[A, C] <= R[C, A]",
    "S[E, D] <= R[A, B]", "R[A, C] <= R[B, C]", "R[A, B] <= S[F, E]",
    "S[D, F] <= R[A, B]"};

// Each divergent pool holds targets that took 580-630 ms alone on a 4-core
// host (the whole divergent range is 475-730 ms), so a run samples one cost
// level whatever the seed.

/// Every FD with one or two lhs attributes and one rhs attribute on `rel`.
void AddFdTargets(const RelSpec& rel, std::vector<std::string>& out) {
  const std::vector<std::string>& a = rel.attrs;
  for (std::size_t x = 0; x < a.size(); ++x) {
    for (std::size_t y = 0; y < a.size(); ++y) {
      if (x != y) out.push_back(FdText(rel.name, {a[x]}, {a[y]}));
    }
  }
  for (std::size_t x = 0; x < a.size(); ++x) {
    for (std::size_t x2 = x + 1; x2 < a.size(); ++x2) {
      for (std::size_t y = 0; y < a.size(); ++y) {
        if (y != x && y != x2) {
          out.push_back(FdText(rel.name, {a[x], a[x2]}, {a[y]}));
        }
      }
    }
  }
}

/// Every non-trivial width-2 IND from `r1` into `r2`.
void AddIndTargets(const RelSpec& r1, const RelSpec& r2,
                   std::vector<std::string>& out) {
  const std::vector<std::string>& a = r1.attrs;
  const std::vector<std::string>& b = r2.attrs;
  for (std::size_t i = 0; i < a.size(); ++i) {
    for (std::size_t j = 0; j < a.size(); ++j) {
      if (i == j) continue;
      for (std::size_t k = 0; k < b.size(); ++k) {
        for (std::size_t l = 0; l < b.size(); ++l) {
          if (k == l || (r1.name == r2.name && i == k && j == l)) continue;
          out.push_back(IndText(r1.name, {a[i], a[j]}, r2.name, {b[k], b[l]}));
        }
      }
    }
  }
}

SolveFamily MakeMixedFamily(SplitMix64& rng) {
  std::vector<std::string> tu;
  AddFdTargets(kMixedRels[2], tu);
  AddFdTargets(kMixedRels[3], tu);
  AddIndTargets(kMixedRels[2], kMixedRels[3], tu);
  AddIndTargets(kMixedRels[3], kMixedRels[2], tu);
  AddIndTargets(kMixedRels[2], kMixedRels[2], tu);
  // Every T/U target, in a seeded order the stream draws from with a skew
  // toward the front: the witness cache sees repeats, and far more distinct
  // refutations than its 8 entries hold.
  Shuffle(tu, rng);

  Variant v = MakeVariant(kMixedRels, rng);
  SolveFamily f;
  f.kind = "mixed";
  f.scheme = v.scheme;
  f.sigma_text = v.Render(kMixedSigma);
  const std::vector<std::string>& hot = tu;
  for (const std::vector<std::string>* pool :
       {&kMixedDerivable, &kMixedUnknown, &kMixedRefutable, &hot}) {
    f.pools.emplace_back();
    for (const std::string& text : *pool) {
      f.pools.back().push_back(f.targets.size());
      f.targets.push_back(v.Render(text));
    }
  }
  return f;
}

// --- exact_solve ------------------------------------------------------------

// Each exact family draws its shape (the dependencies, the target pools)
// from `rng` and its names and column order from `names`.

SolveFamily MakePureFdFamily(SplitMix64& rng, SplitMix64& names) {
  RelSpec w{"W", {}};
  for (int i = 0; i < 14; ++i) w.attrs.push_back(StrCat("a", i));
  Variant v = MakeVariant({w}, names);
  SolveFamily f;
  f.kind = "pure-fd";
  f.scheme = v.scheme;
  for (int i = 0; i < 20; ++i) {
    std::vector<std::string> lhs = Pick(w.attrs, 1 + rng.Below(2), rng);
    std::vector<std::string> rhs;
    for (const std::string& a : Pick(w.attrs, 3, rng)) {
      if (rhs.empty() && std::find(lhs.begin(), lhs.end(), a) == lhs.end()) {
        rhs.push_back(a);
      }
    }
    f.sigma_text += v.Render(FdText("W", lhs, rhs)) + "\n";
  }
  f.pools.resize(1);
  for (int i = 0; i < 96; ++i) {
    std::vector<std::string> picked = Pick(w.attrs, 2 + rng.Below(3), rng);
    std::size_t split = 1 + rng.Below(picked.size() - 1);
    std::vector<std::string> lhs(picked.begin(), picked.begin() + split);
    std::vector<std::string> rhs(picked.begin() + split, picked.end());
    f.pools[0].push_back(f.targets.size());
    f.targets.push_back(v.Render(FdText("W", lhs, rhs)));
  }
  return f;
}

SolveFamily MakePureIndFamily(SplitMix64& rng, SplitMix64& names) {
  std::vector<RelSpec> rels = {{"P", {"p1", "p2", "p3", "p4"}},
                               {"Q", {"q1", "q2", "q3", "q4"}},
                               {"V", {"v1", "v2", "v3", "v4"}},
                               {"X", {"x1", "x2", "x3", "x4"}}};
  Variant v = MakeVariant(rels, names);
  SolveFamily f;
  f.kind = "pure-ind";
  f.scheme = v.scheme;
  struct RawInd {
    std::size_t r1, r2;
    std::vector<std::string> x, y;
  };
  std::vector<RawInd> sigma;
  for (int i = 0; i < 10; ++i) {
    std::size_t width = 2 + rng.Below(2);
    std::size_t r1 = rng.Below(rels.size());
    std::size_t r2 = (r1 + 1 + rng.Below(rels.size() - 1)) % rels.size();
    sigma.push_back({r1, r2, Pick(rels[r1].attrs, width, rng),
                     Pick(rels[r2].attrs, width, rng)});
    const RawInd& ind = sigma.back();
    f.sigma_text += v.Render(IndText(rels[r1].name, ind.x, rels[r2].name,
                                     ind.y)) +
                    "\n";
  }
  f.pools.resize(1);
  for (int i = 0; i < 96; ++i) {
    std::string text;
    if (i % 2 == 0) {
      // A projection/permutation of a member (IND2), or a two-step chain
      // through the relation it lands in (IND3): implied, with a proof.
      const RawInd& a = sigma[rng.Below(sigma.size())];
      std::vector<std::size_t> pos(a.x.size());
      for (std::size_t p = 0; p < pos.size(); ++p) pos[p] = p;
      Shuffle(pos, rng);
      pos.resize(1 + rng.Below(pos.size()));
      std::vector<std::string> x, y;
      for (std::size_t p : pos) {
        x.push_back(a.x[p]);
        y.push_back(a.y[p]);
      }
      for (const RawInd& b : sigma) {
        if (b.r1 != a.r2 || i % 4 != 0) continue;
        std::vector<std::string> z;
        for (const std::string& attr : y) {
          auto it = std::find(b.x.begin(), b.x.end(), attr);
          if (it == b.x.end()) break;
          z.push_back(b.y[static_cast<std::size_t>(it - b.x.begin())]);
        }
        if (z.size() == y.size() && b.r2 != a.r1) {
          text = IndText(rels[a.r1].name, x, rels[b.r2].name, z);
          break;
        }
      }
      if (text.empty()) text = IndText(rels[a.r1].name, x, rels[a.r2].name, y);
    } else {
      std::size_t width = 2 + rng.Below(2);
      std::size_t r1 = rng.Below(rels.size());
      std::size_t r2 = (r1 + 1 + rng.Below(rels.size() - 1)) % rels.size();
      text = IndText(rels[r1].name, Pick(rels[r1].attrs, width, rng),
                     rels[r2].name, Pick(rels[r2].attrs, width, rng));
    }
    f.pools[0].push_back(f.targets.size());
    f.targets.push_back(v.Render(text));
  }
  return f;
}

/// Unary FDs and INDs around the Theorem 4.4 core {R: A -> B, R[A] <= R[B]}:
/// R: B -> A and R[B] <= R[A] hold in every finite database but not in
/// every database, so the two semantics disagree on them.
SolveFamily MakeUnaryFamily(SplitMix64& rng, SplitMix64& names,
                            bool finite) {
  std::vector<RelSpec> rels = {{"R", {"A", "B", "C"}}, {"S", {"D", "E"}}};
  Variant v = MakeVariant(rels, names);
  SolveFamily f;
  f.kind = "unary";
  f.finite = finite;
  f.scheme = v.scheme;
  std::vector<std::pair<std::string, std::string>> cols;
  for (const RelSpec& rel : rels) {
    for (const std::string& a : rel.attrs) cols.emplace_back(rel.name, a);
  }
  std::string sigma = "R: A -> B\nR[A] <= R[B]\n";
  for (int i = 0; i < 3; ++i) {
    const auto& c1 = cols[rng.Below(cols.size())];
    const auto& c2 = cols[rng.Below(cols.size())];
    if (c1 == c2) continue;
    if (c1.first == c2.first && rng.Chance(1, 2)) {
      sigma += FdText(c1.first, {c1.second}, {c2.second}) + "\n";
    } else {
      sigma += IndText(c1.first, {c1.second}, c2.first, {c2.second}) + "\n";
    }
  }
  f.sigma_text = v.Render(sigma);
  f.pools.resize(1);
  for (const auto& c1 : cols) {
    for (const auto& c2 : cols) {
      if (c1 == c2) continue;
      if (c1.first == c2.first) {
        f.pools[0].push_back(f.targets.size());
        f.targets.push_back(
            v.Render(FdText(c1.first, {c1.second}, {c2.second})));
      }
      f.pools[0].push_back(f.targets.size());
      f.targets.push_back(
          v.Render(IndText(c1.first, {c1.second}, c2.first, {c2.second})));
    }
  }
  return f;
}

}  // namespace

SolveOp SolveCorpus::Next(std::size_t c, std::uint64_t k,
                          SplitMix64& rng) const {
  const std::vector<std::size_t>& sessions = callers[c];
  if (mixed) {
    const SolveFamily& f = families[sessions[0]];
    // Every 24th op asks an R/S target whose chase diverges — alternately
    // one that stays kUnknown and one the portfolio refutes once the
    // chase's share is spent. The callers walk each of these pools round
    // robin, so every run covers the pool's slow targets evenly. The rest
    // are fast: derivable R/S targets (30%) and the skewed T/U hot set
    // (70%).
    const std::vector<std::size_t>* pool;
    if (k % 24 == 23) {
      std::uint64_t slot = k / 24;
      pool = &f.pools[slot % 2 == 0 ? 1 : 2];
      std::uint64_t turn = (slot / 2) * callers.size() + c + offset;
      return {0, (*pool)[turn % pool->size()]};
    }
    if (rng.Below(10) < 3) {
      pool = &f.pools[0];
      return {0, (*pool)[rng.Below(pool->size())]};
    }
    pool = &f.pools[3];
    std::size_t n = pool->size();
    return {0, (*pool)[std::min(rng.Below(n), rng.Below(n))]};
  }
  // exact_solve: pure FD 30%, pure IND 30%, unary |= 20%, unary |=fin 20%.
  std::uint64_t r = rng.Below(10);
  std::size_t session = r < 3 ? 0 : r < 6 ? 1 : r < 8 ? 2 : 3;
  const SolveFamily& f = families[sessions[session]];
  return {session, f.pools[0][rng.Below(f.pools[0].size())]};
}

SolveCorpus MakeMixedCorpus(std::uint64_t seed, std::size_t callers) {
  SolveCorpus corpus;
  corpus.mixed = true;
  corpus.seed = seed;
  corpus.offset = ccfp::SplitMix64(seed).Below(1000);
  for (std::size_t c = 0; c < callers; ++c) {
    SplitMix64 rng(seed * 7777 + c);
    corpus.callers.push_back({corpus.families.size()});
    corpus.families.push_back(MakeMixedFamily(rng));
  }
  return corpus;
}

SolveCorpus MakeExactCorpus(std::uint64_t seed, std::size_t callers) {
  SolveCorpus corpus;
  corpus.seed = seed;
  for (std::size_t c = 0; c < callers; ++c) {
    // The shapes are the same for every seed — randomly drawn families
    // differ several-fold in cost, which would swamp every comparison
    // across seeds — and the seed renames them, reorders their columns,
    // and drives the stream.
    SplitMix64 rng(5555 + c);
    SplitMix64 names(seed * 5555 + c);
    std::size_t base = corpus.families.size();
    corpus.families.push_back(MakePureFdFamily(rng, names));
    corpus.families.push_back(MakePureIndFamily(rng, names));
    SplitMix64 unary_rng = rng, unary_names = names;  // one sigma, twice
    corpus.families.push_back(MakeUnaryFamily(rng, names, /*finite=*/false));
    corpus.families.push_back(
        MakeUnaryFamily(unary_rng, unary_names, /*finite=*/true));
    corpus.callers.push_back({base, base + 1, base + 2, base + 3});
  }
  return corpus;
}

// --- session_churn ----------------------------------------------------------

ChurnCorpus MakeChurnCorpus(std::uint64_t seed) {
  ChurnCorpus c;
  SplitMix64 rng(seed * 3333 + 1);
  c.mine_scheme =
      ccfp::MakeScheme({{"R", {"A", "B", "C", "D"}}, {"S", {"E", "F"}}});
  // R: A -> B and C -> D hold on the warm data, S[E] <= R[B] too; deltas
  // mostly keep them and now and then break one.
  auto r_tuple = [&](std::uint64_t a, std::uint64_t cval, bool breaks) {
    std::uint64_t b = breaks ? 97 + rng.Below(5) : a % 97;
    return StrCat("R(", a, ", ", b, ", ", cval, ", ", (cval * 3) % 41, ")\n");
  };
  for (std::uint64_t i = 0; i < 1200; ++i) {
    c.warm_text += r_tuple(i, rng.Below(50), false);
  }
  for (std::uint64_t i = 0; i < 400; ++i) {
    std::uint64_t e = rng.Below(97);
    c.warm_text += StrCat("S(", e, ", ", e % 13, ")\n");
  }
  for (int d = 0; d < 16; ++d) {
    std::string text;
    for (int i = 0; i < 12; ++i) {
      text += r_tuple(rng.Below(1500), rng.Below(50), rng.Chance(1, 40));
    }
    text += StrCat("S(", rng.Below(97), ", ", rng.Below(13), ")\n");
    c.delta_texts.push_back(std::move(text));
  }

  c.arm_scheme =
      ccfp::MakeScheme({{"Q", {"A", "B", "C", "D"}}, {"P", {"E", "F"}}});
  std::vector<std::string> q = {"A", "B", "C", "D"};
  std::vector<std::string> p = {"E", "F"};
  // Three sigma shapes, the same for every seed (as for exact_solve).
  SplitMix64 shape(3333);
  for (int variant = 0; variant < 3; ++variant) {
    std::string sigma;
    for (int i = 0; i < 2; ++i) {
      std::vector<std::string> picked = Pick(q, 2 + (i == 0 ? 0 : 1), shape);
      std::vector<std::string> lhs(picked.begin(), picked.end() - 1);
      sigma += FdText("Q", lhs, {picked.back()}) + "\n";
    }
    sigma +=
        IndText("Q", {q[shape.Below(4)]}, "P", {p[shape.Below(2)]}) + "\n";
    sigma += "P: E -> F\n";
    c.arm_sigma_texts.push_back(std::move(sigma));
  }
  for (const std::string& x : q) {
    for (const std::string& y : q) {
      if (x != y) c.universe_texts.push_back(FdText("Q", {x}, {y}));
    }
    for (const std::string& y : p) {
      c.universe_texts.push_back(IndText("Q", {x}, "P", {y}));
      c.universe_texts.push_back(IndText("P", {y}, "Q", {x}));
    }
  }
  c.universe_texts.push_back("P: F -> E");
  Shuffle(c.universe_texts, rng);
  return c;
}

}  // namespace perfbench
