// mixed_solve and exact_solve: solve sessions over SolverService, their
// output checks, and the traced layer replay of the same op streams.
#include <algorithm>
#include <memory>
#include <thread>

#include "chase/chase.h"
#include "chase/ind_chase.h"
#include "chase/workspace_chase.h"
#include "core/parser.h"
#include "core/satisfies.h"
#include "core/workspace.h"
#include "fd/closure.h"
#include "ind/implication.h"
#include "interact/derivation.h"
#include "interact/unary_finite.h"
#include "runners.h"
#include "search/portfolio.h"
#include "service/service.h"
#include "service/shared_core.h"
#include "util/strings.h"
#include "verify/witness_cache.h"
#include "workloads.h"

namespace perfbench {
namespace {

using ccfp::Dependency;
using ccfp::ImplicationFragment;
using ccfp::ImplicationVerdict;
using ccfp::SolverService;
using ccfp::StrCat;
using ccfp::Verdict;

/// A family's sigma, parsed once at set-up, with the derived views the
/// checks and the replay need.
struct ParsedFamily {
  const SolveFamily* family = nullptr;
  std::vector<Dependency> sigma;
  std::vector<Dependency> nontrivial;
  std::vector<ccfp::Fd> fds;
  std::vector<ccfp::Ind> inds;
};

ParsedFamily ParseFamily(const SolveFamily& f) {
  ParsedFamily p;
  p.family = &f;
  ccfp::Result<std::vector<Dependency>> sigma =
      ccfp::ParseDependencies(*f.scheme, f.sigma_text);
  if (!sigma.ok()) {
    std::fprintf(stderr, "sigma does not parse: %s\n",
                 sigma.status().ToString().c_str());
    std::exit(2);
  }
  p.sigma = std::move(*sigma);
  for (const Dependency& d : p.sigma) {
    if (ccfp::IsTrivial(*f.scheme, d)) continue;
    p.nontrivial.push_back(d);
    if (d.is_fd()) p.fds.push_back(d.fd());
    if (d.is_ind()) p.inds.push_back(d.ind());
  }
  return p;
}

/// Services, parsed sigmas, and one open session per (caller, family).
struct Deployment {
  std::unique_ptr<SolverService> unrestricted;
  std::unique_ptr<SolverService> finite;
  std::vector<ParsedFamily> families;
  std::vector<std::vector<SolverService::SessionId>> sessions;
  std::vector<double> open_ms;

  SolverService& service(const ParsedFamily& p) {
    return p.family->finite ? *finite : *unrestricted;
  }
};

std::unique_ptr<Deployment> Deploy(const SolveCorpus& corpus) {
  auto d = std::make_unique<Deployment>();
  SolverService::Options options;
  d->unrestricted = std::make_unique<SolverService>(options);
  if (std::any_of(corpus.families.begin(), corpus.families.end(),
                  [](const SolveFamily& f) { return f.finite; })) {
    options.solve.semantics = ccfp::ImplicationSemantics::kFinite;
    d->finite = std::make_unique<SolverService>(options);
  }
  for (const SolveFamily& f : corpus.families) {
    d->families.push_back(ParseFamily(f));
  }
  for (const std::vector<std::size_t>& caller : corpus.callers) {
    std::vector<SolverService::SessionId> ids;
    for (std::size_t fi : caller) {
      const ParsedFamily& p = d->families[fi];
      Clock::time_point t0 = Clock::now();
      ccfp::Result<SolverService::SessionId> id =
          d->service(p).OpenSolve(p.family->scheme, p.sigma);
      d->open_ms.push_back(MsBetween(t0, Clock::now()));
      if (!id.ok()) {
        std::fprintf(stderr, "OpenSolve failed: %s\n",
                     id.status().ToString().c_str());
        std::exit(2);
      }
      ids.push_back(*id);
    }
    d->sessions.push_back(std::move(ids));
  }
  return d;
}

ImplicationFragment ExpectedFragment(const SolveFamily& f) {
  if (f.kind == "pure-fd") return ImplicationFragment::kPureFd;
  if (f.kind == "pure-ind") return ImplicationFragment::kPureInd;
  if (f.kind == "unary") return ImplicationFragment::kUnary;
  return ImplicationFragment::kMixed;
}

/// Re-checks one verdict by routes independent of the one that produced
/// it. Returns "" when the verdict holds up, else what failed.
std::string CheckVerdict(const ParsedFamily& p, const Dependency& target,
                         const Verdict& v) {
  const ccfp::DatabaseScheme& scheme = *p.family->scheme;
  ccfp::SatisfiesOptions legacy;
  legacy.engine = ccfp::SatisfiesEngine::kLegacy;
  if (v.engine == "trivial") {
    return ccfp::IsTrivial(scheme, target) && v.implied()
               ? ""
               : "non-trivial target answered as trivial";
  }
  if (v.fragment != ExpectedFragment(*p.family)) {
    return StrCat("routed to ", ccfp::ImplicationFragmentToString(v.fragment));
  }
  if (v.counterexample.has_value()) {
    if (!v.not_implied() || !v.counterexample_verified) {
      return "counterexample attached to a verdict that is not a verified "
             "refutation";
    }
    if (!ccfp::SatisfiesAll(*v.counterexample, p.nontrivial, legacy)) {
      return "counterexample violates sigma (reference Satisfies)";
    }
    if (ccfp::Satisfies(*v.counterexample, target, legacy)) {
      return "counterexample satisfies the target (reference Satisfies)";
    }
  }
  switch (v.fragment) {
    case ImplicationFragment::kPureFd: {
      bool implied = ccfp::FdImplies(scheme, p.fds, target.fd());
      if (implied != v.implied() || v.unknown()) {
        return "FdImplies disagrees";
      }
      if (!implied && !v.counterexample.has_value()) {
        return "FD refutation without a counterexample";
      }
      return "";
    }
    case ImplicationFragment::kPureInd: {
      ccfp::IndDecisionOptions options;
      options.want_proof = true;
      ccfp::Result<ccfp::IndDecision> second = ccfp::DecideIndImplication(
          p.family->scheme, p.inds, target.ind(), options);
      if (!second.ok()) return "DecideIndImplication failed";
      if (second->implied != v.implied() || v.unknown()) {
        return "DecideIndImplication disagrees";
      }
      if (v.implied() &&
          (!v.ind_proof.has_value() || !v.ind_proof->Check().ok() ||
           !second->proof.has_value() || !second->proof->Check().ok())) {
        return "IND proof does not Check()";
      }
      if (v.not_implied() && !v.counterexample.has_value()) {
        return "IND refutation without a Rule (*) counterexample";
      }
      return "";
    }
    case ImplicationFragment::kUnary: {
      bool finite =
          ccfp::UnaryFiniteImplication(p.family->scheme, p.fds, p.inds)
              .Implies(target);
      bool unrestricted =
          ccfp::UnaryUnrestrictedImplication(p.family->scheme, p.fds, p.inds)
              .Implies(target);
      if (unrestricted && !finite) return "|= holds but |=fin does not";
      bool expected = p.family->finite ? finite : unrestricted;
      if (expected != v.implied() || v.unknown()) {
        return "the other unary route disagrees";
      }
      if (finite && v.counterexample.has_value()) {
        return "finite counterexample to a finitely implied target";
      }
      return "";
    }
    case ImplicationFragment::kMixed:
      if (v.implied() && v.derivation_trace.empty() &&
          !v.chase_stats.has_value()) {
        return "mixed kImplied without a derivation trace or chase evidence";
      }
      if (v.not_implied() && !v.counterexample.has_value()) {
        return "mixed refutation without a counterexample";
      }
      return "";
    default:
      return "unexpected fragment";
  }
}

std::uint8_t OutcomeCode(ImplicationVerdict o) {
  return static_cast<std::uint8_t>(o);
}
constexpr std::uint8_t kErrorCode = 255;

/// One caller's record of a phase.
struct CallerLog {
  std::vector<double> latency_ms;
  std::vector<std::uint8_t> outcome;
  std::uint64_t failed = 0;
  std::uint64_t unknown = 0;
  Digest digest;
};

/// The untraced closed loop: every caller drives its sessions through the
/// service until the deadline, checking each output between ops.
std::vector<CallerLog> RunService(const SolveCorpus& corpus, Deployment& d,
                                  double seconds, CheckLog& checks) {
  std::vector<CallerLog> logs(corpus.callers.size());
  Clock::time_point deadline = After(seconds);
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < corpus.callers.size(); ++c) {
    threads.emplace_back([&, c] {
      CallerLog& log = logs[c];
      ccfp::SplitMix64 rng = corpus.StreamRng(c);
      for (std::uint64_t k = 0; Clock::now() < deadline; ++k) {
        SolveOp op = corpus.Next(c, k, rng);
        const ParsedFamily& p =
            d.families[corpus.callers[c][op.session]];
        const std::string& text = p.family->targets[op.target];
        Clock::time_point t0 = Clock::now();
        ccfp::Result<Dependency> target =
            ccfp::ParseDependency(*p.family->scheme, text);
        ccfp::Result<Verdict> v =
            target.ok() ? d.service(p).Solve(d.sessions[c][op.session],
                                              *target)
                        : ccfp::Result<Verdict>(target.status());
        std::string rendered =
            v.ok() ? v->ToString(*p.family->scheme) : std::string();
        log.latency_ms.push_back(MsBetween(t0, Clock::now()));
        std::string problem =
            !v.ok() ? StrCat("op failed: ", v.status().ToString())
            : rendered.empty() ? std::string("empty rendering")
                               : CheckVerdict(p, *target, *v);
        std::uint8_t code = v.ok() ? OutcomeCode(v->outcome) : kErrorCode;
        if (!problem.empty()) {
          ++log.failed;
          checks.Fail(StrCat("caller ", c, " op ", k, " [", text,
                             "]: ", problem));
        }
        if (v.ok() && v->unknown()) ++log.unknown;
        log.outcome.push_back(code);
        if (k < kDigestOps) {
          log.digest.Add(code);
          log.digest.Add(v.ok() ? v->engine : std::string("error"));
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  return logs;
}

// --- traced replay ----------------------------------------------------------

/// Per-layer counters the replay gathers besides span times.
struct LayerCounts {
  std::uint64_t ind_expressions = 0;
  std::uint64_t derivation_runs = 0, derivation_decided = 0;
  std::uint64_t chase_runs = 0, chase_fixpoints = 0, chase_steps = 0;
  double chase_wasted_ms = 0;
  std::uint64_t portfolio_runs = 0, portfolio_finds = 0, candidates = 0;
  std::uint64_t rungs_run = 0, rungs_skipped = 0;

  void Add(const LayerCounts& o) {
    ind_expressions += o.ind_expressions;
    derivation_runs += o.derivation_runs;
    derivation_decided += o.derivation_decided;
    chase_runs += o.chase_runs;
    chase_fixpoints += o.chase_fixpoints;
    chase_steps += o.chase_steps;
    chase_wasted_ms += o.chase_wasted_ms;
    portfolio_runs += o.portfolio_runs;
    portfolio_finds += o.portfolio_finds;
    candidates += o.candidates;
    rungs_run += o.rungs_run;
    rungs_skipped += o.rungs_skipped;
  }
};

/// What a service solve session holds, rebuilt from public parts: the
/// shared core (its search tables), and the session's private witness
/// cache (capacity 8, over the core's sigma — as the service provisions).
struct MirrorSession {
  const ParsedFamily* family = nullptr;
  std::shared_ptr<const ccfp::SolverCore> core;
  std::unique_ptr<ccfp::WitnessCache> cache;
};

ccfp::PortfolioOptions PortfolioFor(const MirrorSession& s) {
  ccfp::SolveOptions defaults;
  ccfp::PortfolioOptions o;
  o.base.max_tuples_per_relation = defaults.search_max_tuples_per_relation;
  o.base.domain_size = defaults.search_domain_size;
  o.tuple_growth = defaults.search_tuple_growth;
  o.domain_growth = defaults.search_domain_growth;
  o.max_rungs = defaults.search_max_rungs;
  o.workspace = &s.core->search_tables();
  return o;
}

/// The solver's pure-FD counterexample: two tuples agreeing exactly on the
/// lhs closure.
ccfp::Database FdCounterexample(const ccfp::SchemePtr& scheme,
                                const ccfp::Fd& fd,
                                const std::vector<ccfp::AttrId>& closure) {
  ccfp::Database db(scheme);
  std::size_t arity = scheme->relation(fd.rel).arity();
  ccfp::Tuple t1(arity), t2(arity);
  for (ccfp::AttrId a = 0; a < arity; ++a) {
    bool shared = std::binary_search(closure.begin(), closure.end(), a);
    t1[a] = ccfp::Value::Int(static_cast<std::int64_t>(a));
    t2[a] = shared ? t1[a]
                   : ccfp::Value::Int(static_cast<std::int64_t>(arity + a));
  }
  db.Insert(fd.rel, std::move(t1));
  db.Insert(fd.rel, std::move(t2));
  return db;
}

bool Admit(ThreadTrace& tr, MirrorSession& s, const ccfp::Database& db,
           const Dependency& target) {
  ScopedSpan span(tr, Layer::kVerify);
  return s.cache->Admit(db, target).genuine;
}

bool ProbeCache(ThreadTrace& tr, MirrorSession& s, const Dependency& target) {
  ScopedSpan span(tr, Layer::kVerify);
  return s.cache->size() > 0 && s.cache->Refute(target) != nullptr;
}

/// The refutation portfolio stage; true iff a verified counterexample.
bool Portfolio(ThreadTrace& tr, MirrorSession& s, const Dependency& target,
               const ccfp::Budget& budget, LayerCounts& n) {
  ccfp::Result<ccfp::PortfolioResult> run = [&] {
    ScopedSpan span(tr, Layer::kSearch);
    ccfp::RefutationPortfolio portfolio(s.family->family->scheme,
                                        s.family->nontrivial, target,
                                        PortfolioFor(s));
    return portfolio.Run(budget);
  }();
  ++n.portfolio_runs;
  if (!run.ok()) return false;
  n.candidates += run->candidates_tested;
  n.rungs_skipped += run->rungs_skipped;
  for (const ccfp::RungReport& r : run->rungs) {
    if (r.status == ccfp::RungStatus::kFullScan ||
        r.status == ccfp::RungStatus::kBudget ||
        r.status == ccfp::RungStatus::kFound) {
      ++n.rungs_run;
    }
  }
  if (!run->counterexample.has_value()) return false;
  ++n.portfolio_finds;
  return Admit(tr, s, *run->counterexample, target);
}

/// One solve op, routed stage by stage as ImplicationSolver::Solve routes
/// it (the sequential pipeline; the service's raced route returns the same
/// verdict). Returns the outcome.
ImplicationVerdict ReplaySolve(ThreadTrace& tr, MirrorSession& s,
                               const std::string& text, LayerCounts& n) {
  const ParsedFamily& p = *s.family;
  const ccfp::SchemePtr& scheme = p.family->scheme;
  ccfp::Result<Dependency> parsed = [&] {
    ScopedSpan span(tr, Layer::kParser);
    return ccfp::ParseDependency(*scheme, text);
  }();
  if (!parsed.ok()) return ImplicationVerdict::kUnknown;
  const Dependency& target = *parsed;
  if (ccfp::IsTrivial(*scheme, target)) return ImplicationVerdict::kImplied;
  ccfp::SolveOptions defaults;
  ccfp::Budget budget;
  switch (ccfp::ClassifyImplicationFragment(*scheme, p.sigma, target)) {
    case ImplicationFragment::kPureFd: {
      std::vector<ccfp::AttrId> closure;
      {
        ScopedSpan span(tr, Layer::kFdClosure);
        closure = ccfp::AttributeClosure(*scheme, target.fd().rel, p.fds,
                                         target.fd().lhs);
      }
      for (ccfp::AttrId a : target.fd().rhs) {
        if (!std::binary_search(closure.begin(), closure.end(), a)) {
          Admit(tr, s, FdCounterexample(scheme, target.fd(), closure), target);
          return ImplicationVerdict::kNotImplied;
        }
      }
      return ImplicationVerdict::kImplied;
    }
    case ImplicationFragment::kPureInd: {
      ccfp::Result<ccfp::IndDecision> decision = [&] {
        ScopedSpan span(tr, Layer::kIndDecide);
        return ccfp::IndImplication(scheme, p.inds)
            .Decide(target.ind(), budget, defaults.want_proof);
      }();
      if (!decision.ok()) return ImplicationVerdict::kUnknown;
      n.ind_expressions += decision->expressions_visited;
      if (decision->implied) return ImplicationVerdict::kImplied;
      ccfp::IndChaseOptions copts;
      copts.max_tuples = budget.tuples;
      ccfp::Result<ccfp::IndChaseResult> witness = [&] {
        ScopedSpan span(tr, Layer::kIndRuleStar);
        return ccfp::IndChaseDecide(scheme, p.inds, target.ind(), copts);
      }();
      if (witness.ok() && !witness->implied) {
        Admit(tr, s, witness->db, target);
      }
      return ImplicationVerdict::kNotImplied;
    }
    case ImplicationFragment::kUnary: {
      bool implied = false;
      bool separated = false;
      {
        ScopedSpan span(tr, Layer::kUnary);
        if (p.family->finite) {
          implied = ccfp::UnaryFiniteImplication(scheme, p.fds, p.inds)
                        .Implies(target);
        } else {
          implied = ccfp::UnaryUnrestrictedImplication(scheme, p.fds, p.inds)
                        .Implies(target);
          separated = !implied &&
                      ccfp::UnaryFiniteImplication(scheme, p.fds, p.inds)
                          .Implies(target);
        }
      }
      if (implied) return ImplicationVerdict::kImplied;
      if (!separated && !ProbeCache(tr, s, target)) {
        Portfolio(tr, s, target, budget.Split(defaults.evidence_garnish_split),
                  n);
      }
      return ImplicationVerdict::kNotImplied;
    }
    case ImplicationFragment::kMixed: {
      if (ProbeCache(tr, s, target)) return ImplicationVerdict::kNotImplied;
      ccfp::Budget slice = budget.Split(defaults.mixed_stage_split);
      ++n.derivation_runs;
      bool derived = false;
      {
        ScopedSpan span(tr, Layer::kDerivation);
        ccfp::MixedDerivation derivation(
            scheme, p.nontrivial,
            ccfp::MixedDerivation::Options::FromBudget(slice));
        derived = derivation.Saturate().ok() && derivation.Derives(target);
      }
      if (derived) {
        ++n.derivation_decided;
        return ImplicationVerdict::kImplied;
      }
      ccfp::Result<ccfp::Database> seed =
          ccfp::MakeCanonicalSeed(scheme, target);
      if (seed.ok()) {
        bool fixpoint = false;
        bool holds = false;
        std::optional<ccfp::Database> fixpoint_db;
        Clock::time_point t0 = Clock::now();
        {
          // The span also covers tearing the chase's workspace down: after
          // a divergent run that is a large share of the stage's cost.
          ScopedSpan span(tr, Layer::kChase);
          ccfp::InternedWorkspace ws(scheme);
          ws.AppendDatabase(*seed);
          {
            ccfp::WorkspaceChase chase(&ws, p.fds, p.inds);
            ccfp::Result<ccfp::WorkspaceChaseStats> run =
                chase.Run(ccfp::ChaseOptions::FromBudget(slice));
            fixpoint = run.ok() &&
                       run->outcome == ccfp::ChaseOutcome::kFixpoint;
            // An exhausted chase reports no counters; it spent its share.
            n.chase_steps += run.ok() ? run->steps : slice.steps;
          }
          if (fixpoint) holds = ws.Satisfies(target);
          if (fixpoint && !holds) fixpoint_db = ws.Materialize();
        }
        double chase_ms = MsBetween(t0, Clock::now());
        ++n.chase_runs;
        if (fixpoint) {
          ++n.chase_fixpoints;
          if (holds) return ImplicationVerdict::kImplied;
          Admit(tr, s, *fixpoint_db, target);
          return ImplicationVerdict::kNotImplied;
        }
        n.chase_wasted_ms += chase_ms;
      }
      return Portfolio(tr, s, target, slice, n)
                 ? ImplicationVerdict::kNotImplied
                 : ImplicationVerdict::kUnknown;
    }
    default:
      return ImplicationVerdict::kUnknown;
  }
}

struct ReplayLog {
  std::vector<double> layer_ms;  ///< per op: traced layer time under it
  std::vector<double> op_ms;     ///< per op: the op span
  std::vector<std::uint8_t> outcome;
  LayerCounts counts;
  ccfp::WitnessCache::Stats witness;
};

/// The traced replay: callers rebuild their sessions from public parts,
/// then run their op streams (the same as the service loop's) until the
/// deadline or `max_ops`, each op and layer call inside a span.
std::vector<ReplayLog> RunReplay(const SolveCorpus& corpus,
                                 const std::vector<ParsedFamily>& families,
                                 double seconds, std::size_t max_ops,
                                 std::vector<ThreadTrace>& traces) {
  std::vector<ReplayLog> logs(corpus.callers.size());
  ReplayCores cores;
  Clock::time_point deadline = After(seconds);
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < corpus.callers.size(); ++c) {
    threads.emplace_back([&, c] {
      ThreadTrace& tr = traces[c];
      ReplayLog& log = logs[c];
      std::vector<MirrorSession> sessions;
      for (std::size_t fi : corpus.callers[c]) {
        const ParsedFamily& p = families[fi];
        ScopedSpan open(tr, Layer::kServiceOpen);
        MirrorSession s;
        s.family = &p;
        s.core = cores.Acquire(tr, p.family->scheme, p.sigma, nullptr,
                               p.family->finite);
        s.cache = std::make_unique<ccfp::WitnessCache>(p.family->scheme,
                                                       s.core->sigma(), 8);
        sessions.push_back(std::move(s));
      }
      ccfp::SplitMix64 rng = corpus.StreamRng(c);
      for (std::uint64_t k = 0; k < max_ops && Clock::now() < deadline;
           ++k) {
        SolveOp op = corpus.Next(c, k, rng);
        MirrorSession& s = sessions[op.session];
        tr.set_op((static_cast<std::uint64_t>(c) << 40) | k);
        double before = tr.LayerMs();
        Clock::time_point t0 = Clock::now();
        ImplicationVerdict outcome;
        {
          ScopedSpan span(tr, Layer::kOp);
          outcome = ReplaySolve(tr, s, s.family->family->targets[op.target],
                                log.counts);
        }
        log.op_ms.push_back(MsBetween(t0, Clock::now()));
        log.layer_ms.push_back(tr.LayerMs() - before);
        log.outcome.push_back(OutcomeCode(outcome));
      }
      for (const MirrorSession& s : sessions) {
        ccfp::WitnessCache::Stats w = s.cache->stats();
        log.witness.probes += w.probes;
        log.witness.hits += w.hits;
        log.witness.evicted += w.evicted;
      }
    });
  }
  for (std::thread& t : threads) t.join();
  return logs;
}

/// ops_per_s windows: ten mixed_solve slow-slot periods (five kUnknown and
/// five refutable divergent ops, so a window averages over whether the
/// witness cache answered the refutable ones), or a few thousand exact ops.
std::size_t ThroughputWindow(bool mixed) { return mixed ? 240 : 4096; }

}  // namespace

RunResult RunSolveWorkload(const Args& args, bool mixed,
                           const std::string& spans_path) {
  SolveCorpus corpus = mixed ? MakeMixedCorpus(args.seed, kCallers)
                             : MakeExactCorpus(args.seed, kCallers);
  // Set-up: services, sigma parsing, core builds, session opens. Repeated;
  // the last deployment serves the loop.
  std::vector<double> setup_s;
  std::unique_ptr<Deployment> d;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    d.reset();
    Clock::time_point t0 = Clock::now();
    d = Deploy(corpus);
    setup_s.push_back(MsBetween(t0, Clock::now()) / 1e3);
  }

  // Warm-up, untimed: a throwaway deployment serves a second of the same
  // streams, so the timed loop and the traced replay both start from a
  // process whose allocator already holds chase-sized memory, as a
  // long-running service would.
  CheckLog checks;
  {
    std::unique_ptr<Deployment> warm = Deploy(corpus);
    RunService(corpus, *warm, 1.0, checks);
  }

  double service_seconds = args.trace ? args.seconds / 2 : args.seconds;
  std::vector<CallerLog> logs =
      RunService(corpus, *d, service_seconds, checks);

  RunResult result;
  std::vector<double> all_latency;
  std::vector<std::vector<double>> per_caller;
  std::uint64_t ops = 0, unknown = 0, failed = 0;
  Digest digest;
  for (const CallerLog& log : logs) {
    ops += log.latency_ms.size();
    unknown += log.unknown;
    failed += log.failed;
    all_latency.insert(all_latency.end(), log.latency_ms.begin(),
                       log.latency_ms.end());
    per_caller.push_back(log.latency_ms);
    digest.Add(log.digest.h);
  }
  double ops_per_s = WindowedOpsPerSecond(per_caller, ThroughputWindow(mixed));

  if (!args.trace) {
    result.metrics = {
        {"setup_s", Median(setup_s)},
        {"ops_per_s", ops_per_s},
        {"latency_p50_ms", Percentile(all_latency, 0.5)},
        {"latency_p99_ms", Percentile(all_latency, 0.99)},
        {"decided_frac", 1.0 - Ratio(unknown, ops)},
        {"ok_frac", 1.0 - Ratio(failed, ops)},
        {"peak_rss_mb", PeakRssMb()},
    };
  } else {
    ccfp::SolverService::ServiceStats u = d->unrestricted->stats();
    ccfp::SolverService::ServiceStats f =
        d->finite ? d->finite->stats() : ccfp::SolverService::ServiceStats{};
    std::vector<ThreadTrace> traces;
    for (std::size_t c = 0; c < corpus.callers.size(); ++c) {
      traces.emplace_back(static_cast<std::uint32_t>(c));
    }
    std::vector<ReplayLog> replay = RunReplay(
        corpus, d->families, args.seconds / 2, SIZE_MAX, traces);

    LayerCounts n;
    ccfp::WitnessCache::Stats w;
    std::array<double, kLayerCount> self{};
    std::array<std::uint64_t, kLayerCount> calls{};
    std::vector<double> overhead;
    std::vector<std::vector<double>> traced_latency;
    double op_total = 0, layer_total = 0;
    std::uint64_t traced_ops = 0;
    for (std::size_t c = 0; c < replay.size(); ++c) {
      const ReplayLog& r = replay[c];
      n.Add(r.counts);
      w.probes += r.witness.probes;
      w.hits += r.witness.hits;
      w.evicted += r.witness.evicted;
      for (std::size_t l = 0; l < kLayerCount; ++l) {
        self[l] += traces[c].self_ms[l];
        calls[l] += traces[c].calls[l];
      }
      traced_ops += r.op_ms.size();
      traced_latency.push_back(r.op_ms);
      std::size_t common = std::min(r.op_ms.size(), logs[c].outcome.size());
      for (std::size_t k = 0; k < r.op_ms.size(); ++k) {
        op_total += r.op_ms[k];
        layer_total += r.layer_ms[k];
      }
      for (std::size_t k = 0; k < common; ++k) {
        overhead.push_back(logs[c].latency_ms[k] - r.layer_ms[k]);
        if (r.outcome[k] != logs[c].outcome[k]) {
          ++failed;
          checks.Fail(StrCat("caller ", c, " op ", k,
                             ": traced replay outcome differs from the "
                             "service's"));
        }
      }
    }
    ops += traced_ops;
    auto per_op = [&](double total) {
      return Ratio(total, static_cast<double>(traced_ops));
    };
    auto ms = [&](Layer l) { return per_op(self[static_cast<std::size_t>(l)]); };
    std::vector<double> open_ms = d->open_ms;
    double rejected = static_cast<double>(
        u.rejected_inflight + u.rejected_capacity + u.rejected_budget +
        f.rejected_inflight + f.rejected_capacity + f.rejected_budget);
    double opened = static_cast<double>(u.sessions_opened + f.sessions_opened);
    double reuses = static_cast<double>(u.core_reuses + f.core_reuses);
    double open_mean = 0;
    for (double x : open_ms) open_mean += x;
    open_mean = Ratio(open_mean, static_cast<double>(open_ms.size()));
    double traced_ops_per_s =
        WindowedOpsPerSecond(traced_latency, ThroughputWindow(mixed));
    result.metrics = {
        {"service.open.ms", open_mean},
        {"service.core_build.ms",
         Ratio(self[static_cast<std::size_t>(Layer::kCoreBuild)],
               calls[static_cast<std::size_t>(Layer::kCoreBuild)])},
        {"service.core_reuse_frac", Ratio(reuses, opened)},
        {"service.overhead.ms", Median(overhead)},
        {"service.rejected", rejected},
        {"core.parser.ms", ms(Layer::kParser)},
        {"fd.closure.ms", ms(Layer::kFdClosure)},
        {"ind.decide.ms", ms(Layer::kIndDecide)},
        {"ind.expressions", per_op(n.ind_expressions)},
        {"ind.rule_star.ms", ms(Layer::kIndRuleStar)},
        {"interact.unary.ms", ms(Layer::kUnary)},
        {"interact.derivation.ms", ms(Layer::kDerivation)},
        {"interact.derivation.decided_frac",
         Ratio(n.derivation_decided, n.derivation_runs)},
        {"chase.ms", ms(Layer::kChase)},
        {"chase.steps", per_op(n.chase_steps)},
        {"chase.fixpoint_frac", Ratio(n.chase_fixpoints, n.chase_runs)},
        {"chase.wasted_ms", per_op(n.chase_wasted_ms)},
        {"search.portfolio.ms", ms(Layer::kSearch)},
        {"search.candidates", per_op(n.candidates)},
        {"search.rungs_run", per_op(n.rungs_run)},
        {"search.rungs_skipped", per_op(n.rungs_skipped)},
        {"search.find_frac", Ratio(n.portfolio_finds, n.portfolio_runs)},
        {"verify.counterexample.ms", ms(Layer::kVerify)},
        {"verify.witness_cache.hit_frac", Ratio(w.hits, w.probes)},
        {"verify.witness_cache.evictions", static_cast<double>(w.evicted)},
        {"trace.coverage", Ratio(layer_total, op_total)},
        {"trace.overhead_frac", 1.0 - Ratio(traced_ops_per_s, ops_per_s)},
    };
    if (!spans_path.empty()) WriteSpans(spans_path, traces);
  }
  result.attempted = ops;
  result.failed = checks.failed();  // warm-up failures count too
  result.digest = digest.h;
  result.errors = checks.messages();
  return result;
}

AttributionSample MeasureAttribution(std::uint64_t seed, InjectedDelay delay,
                                     std::size_t ops) {
  SolveCorpus corpus = MakeExactCorpus(seed, 1);
  std::vector<ParsedFamily> families;
  for (const SolveFamily& f : corpus.families) {
    families.push_back(ParseFamily(f));
  }
  // A warm-up pass, then base and delayed passes alternating; each layer
  // reports its median over the passes of one kind.
  constexpr int kPasses = 5;
  std::array<std::vector<double>, kLayerCount> base, delayed;
  AttributionSample sample;
  for (int pass = -1; pass < 2 * kPasses; ++pass) {
    bool inject = pass >= 0 && pass % 2 == 1;
    SetInjectedDelay(inject ? delay : InjectedDelay{});
    std::vector<ThreadTrace> traces;
    traces.emplace_back(0);
    std::vector<ReplayLog> logs = RunReplay(corpus, families, 1e9, ops, traces);
    if (pass < 0) continue;
    double n = static_cast<double>(logs[0].op_ms.size());
    for (std::size_t l = 0; l < kLayerCount; ++l) {
      (inject ? delayed : base)[l].push_back(traces[0].self_ms[l] / n);
    }
    sample.calls_per_op =
        static_cast<double>(traces[0].calls[static_cast<std::size_t>(
            delay.layer)]) /
        n;
  }
  SetInjectedDelay(InjectedDelay{});
  for (std::size_t l = 0; l < kLayerCount; ++l) {
    sample.base_ms[l] = Median(base[l]);
    sample.delayed_ms[l] = Median(delayed[l]);
  }
  return sample;
}

}  // namespace perfbench
