// session_churn: mining and Armstrong sessions cycling through open,
// writes, eviction to their snapshot chains, revival, and close — the
// service's write side. Output checks re-derive every mined dependency and
// every Armstrong database by a second route; the traced replay rebuilds
// each service op from public parts (core registry, forked workspace,
// snapshot chain, ArmstrongSession) with a span around every call.
#include <algorithm>
#include <filesystem>
#include <memory>
#include <numeric>
#include <thread>

#include "armstrong/builder.h"
#include "core/parser.h"
#include "core/satisfies.h"
#include "core/snapshot.h"
#include "mine/discovery.h"
#include "runners.h"
#include "service/service.h"
#include "service/shared_core.h"
#include "solve/solver.h"
#include "util/strings.h"
#include "workloads.h"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using ccfp::Database;
using ccfp::Dependency;
using ccfp::SolverService;
using ccfp::StrCat;

/// Op kinds of a churn cycle; each has its own latency sample.
enum Kind : std::size_t {
  kOpen = 0,
  kAppend,
  kMine,
  kEvict,
  kRevive,
  kExtend,
  kClose,
  kKinds
};

/// One Armstrong sigma variant, parsed, with its universe classified by a
/// second route (the implication solver, not the session's chase oracle).
struct ArmVariant {
  std::vector<ccfp::Fd> fds;
  std::vector<ccfp::Ind> inds;
  std::vector<Dependency> sigma;
  std::vector<bool> expected;  ///< parallel to Parsed::universe
};

/// Everything parsed once per run.
struct Parsed {
  std::unique_ptr<Database> warm;
  std::vector<Dependency> universe;
  std::vector<ArmVariant> variants;
};

Database ParseData(const ccfp::SchemePtr& scheme, const std::string& text) {
  ccfp::Result<Database> db = ccfp::ParseDatabase(scheme, text);
  if (!db.ok()) {
    std::fprintf(stderr, "data does not parse: %s\n",
                 db.status().ToString().c_str());
    std::exit(2);
  }
  return std::move(*db);
}

Dependency ParseDep(const ccfp::DatabaseScheme& scheme,
                    const std::string& text) {
  ccfp::Result<Dependency> dep = ccfp::ParseDependency(scheme, text);
  if (!dep.ok()) {
    std::fprintf(stderr, "dependency does not parse: %s\n", text.c_str());
    std::exit(2);
  }
  return *dep;
}

std::vector<Dependency> SigmaOf(const ArmVariant& v) {
  std::vector<Dependency> sigma;
  for (const ccfp::Fd& fd : v.fds) sigma.emplace_back(fd);
  for (const ccfp::Ind& ind : v.inds) sigma.emplace_back(ind);
  return sigma;
}

/// Set-up proper (timed): warm data and Armstrong sigmas parsed, the
/// service built, and every core built once by a first open.
std::unique_ptr<SolverService> Deploy(const ChurnCorpus& corpus,
                                      const std::string& spill_dir,
                                      Parsed& parsed) {
  SolverService::Options options;
  options.spill_dir = spill_dir;
  auto service = std::make_unique<SolverService>(options);
  parsed.warm = std::make_unique<Database>(
      ParseData(corpus.mine_scheme, corpus.warm_text));
  parsed.variants.clear();
  for (const std::string& text : corpus.arm_sigma_texts) {
    ccfp::Result<std::vector<Dependency>> sigma =
        ccfp::ParseDependencies(*corpus.arm_scheme, text);
    if (!sigma.ok()) std::exit(2);
    ArmVariant v;
    for (const Dependency& d : *sigma) {
      if (d.is_fd()) v.fds.push_back(d.fd());
      if (d.is_ind()) v.inds.push_back(d.ind());
    }
    v.sigma = SigmaOf(v);
    parsed.variants.push_back(std::move(v));
  }
  auto first = service->OpenMine(corpus.mine_scheme, *parsed.warm);
  if (!first.ok() || !service->Close(*first).ok()) std::exit(2);
  for (const ArmVariant& v : parsed.variants) {
    auto id = service->OpenArmstrong(corpus.arm_scheme, v.fds, v.inds);
    if (!id.ok() || !service->Close(*id).ok()) std::exit(2);
  }
  return service;
}

/// Session shape. A mining session appends and re-mines kMineRounds times
/// before it is evicted; an Armstrong session extends kExtendRounds times.
/// With these counts about 2% of all ops are evictions (an fsync'd
/// snapshot write each), so latency_p99_ms lands mid-way into the eviction
/// mode rather than in its tail. It still follows the host's fsync latency,
/// which drifts with the host's I/O load.
constexpr std::size_t kMineRounds = 40;
constexpr std::size_t kExtendRounds = 16;
constexpr std::size_t kMembersPerExtend = 2;

/// The op stream of one caller: which deltas and universe slices a cycle
/// uses. Cycles alternate mining and Armstrong sessions.
struct Cycle {
  bool mining;
  std::vector<std::size_t> deltas;  ///< one per mining round
  std::size_t variant;
  std::size_t universe_start;
};

Cycle NextCycle(std::size_t c, std::uint64_t j, ccfp::SplitMix64& rng,
                const ChurnCorpus& corpus) {
  Cycle cycle;
  cycle.mining = (j + c) % 2 == 0;
  for (std::size_t r = 0; r < kMineRounds; ++r) {
    cycle.deltas.push_back(rng.Below(corpus.delta_texts.size()));
  }
  cycle.variant = rng.Below(corpus.arm_sigma_texts.size());
  cycle.universe_start = rng.Below(corpus.universe_texts.size());
  return cycle;
}

std::vector<std::string> ExtendSlice(const ChurnCorpus& corpus,
                                     const Cycle& cycle, std::size_t round) {
  std::vector<std::string> out;
  for (std::size_t i = 0; i < kMembersPerExtend; ++i) {
    std::size_t at = cycle.universe_start + round * kMembersPerExtend + i;
    out.push_back(corpus.universe_texts[at % corpus.universe_texts.size()]);
  }
  return out;
}

/// The revival op's delta: one tuple, so its latency is the revival.
const char* kReviveDelta = "S(1, 1)\n";

/// Bytes of a session's snapshot chain on disk (records only).
std::uint64_t ChainBytes(const std::string& prefix) {
  std::uint64_t bytes = 0;
  fs::path p(prefix);
  std::string stem = p.filename().string() + ".";
  std::error_code ec;
  for (const fs::directory_entry& e :
       fs::directory_iterator(p.parent_path(), ec)) {
    std::string name = e.path().filename().string();
    if (name.rfind(stem, 0) == 0 && name.find(".lock") == std::string::npos &&
        name.find(".tmp") == std::string::npos) {
      bytes += e.file_size(ec);
    }
  }
  return bytes;
}

void RemoveChain(const std::string& prefix) {
  fs::path p(prefix);
  std::string stem = p.filename().string() + ".";
  std::error_code ec;
  std::vector<fs::path> doomed;
  for (const fs::directory_entry& e :
       fs::directory_iterator(p.parent_path(), ec)) {
    if (e.path().filename().string().rfind(stem, 0) == 0) {
      doomed.push_back(e.path());
    }
  }
  for (const fs::path& f : doomed) fs::remove(f, ec);
}

/// Second route for mining: the reference miners over the plain Database,
/// and each mined dependency re-checked there by reference Satisfies.
template <typename Dep>
std::string CheckMined(const Database& plain, const std::vector<Dep>& mined,
                       const std::vector<Dep>& reference) {
  ccfp::SatisfiesOptions legacy;
  legacy.engine = ccfp::SatisfiesEngine::kLegacy;
  for (const Dep& d : mined) {
    if (!ccfp::Satisfies(plain, Dependency(d), legacy)) {
      return "mined dependency fails on the plain database";
    }
  }
  return mined == reference ? "" : "mined set differs from the plain-database miner";
}

struct CallerLog {
  std::array<std::vector<double>, kKinds> latency_ms;
  std::vector<double> all_ms;
  std::uint64_t ops = 0;
  std::uint64_t failed = 0;
  std::uint64_t spill_bytes = 0;
  std::uint64_t spill_tuples = 0;
  Digest digest;
};

/// What an op's check reports: a problem ("" when the output holds up) and
/// a word for the outcome digest.
using Checked = std::pair<std::string, std::uint64_t>;

/// Times `call` (text in, service op, result out; returns "" or the op's
/// error) into the caller's log, then runs `check` on its output untimed.
template <typename Call, typename Check>
void TimedOp(CallerLog& log, Kind kind, CheckLog& checks, std::size_t c,
             Call&& call, Check&& check) {
  Clock::time_point t0 = Clock::now();
  std::string error = call();
  double ms = MsBetween(t0, Clock::now());
  log.latency_ms[kind].push_back(ms);
  log.all_ms.push_back(ms);
  Checked outcome = error.empty() ? check() : Checked{error, 0};
  if (!outcome.first.empty()) {
    ++log.failed;
    checks.Fail(StrCat("caller ", c, " op ", log.ops, ": ", outcome.first));
  }
  if (log.ops < kDigestOps) {
    log.digest.Add(kind);
    log.digest.Add(outcome.second);
  }
  ++log.ops;
}

Checked NoCheck() { return {"", 0}; }

std::string StatusText(const ccfp::Status& st) {
  return st.ok() ? "" : st.ToString();
}

void MiningCycle(SolverService& service, const ChurnCorpus& corpus,
                 const Parsed& parsed, const Cycle& cycle,
                 const std::string& spill_dir, std::size_t c, CallerLog& log,
                 CheckLog& checks) {
  const ccfp::SchemePtr& scheme = corpus.mine_scheme;
  SolverService::SessionId id = 0;
  bool opened = false;
  TimedOp(
      log, kOpen, checks, c,
      [&] {
        auto r = service.OpenMine(scheme, *parsed.warm);
        opened = r.ok();
        if (opened) id = *r;
        return opened ? std::string() : r.status().ToString();
      },
      NoCheck);
  if (!opened) return;
  Database plain = *parsed.warm;
  auto append = [&](Kind kind, const std::string& text) {
    ccfp::Result<Database> delta = ccfp::Status::FailedPrecondition("not run");
    TimedOp(
        log, kind, checks, c,
        [&] {
          delta = ccfp::ParseDatabase(scheme, text);
          return delta.ok() ? StatusText(service.Append(id, *delta))
                            : delta.status().ToString();
        },
        [&] {
          for (ccfp::RelId rel = 0; rel < scheme->size(); ++rel) {
            for (const ccfp::Tuple& t : delta->relation(rel).tuples()) {
              plain.Insert(rel, t);
            }
          }
          return Checked{"", delta->TotalTuples()};
        });
  };
  // Mines through the session, then re-derives the result on `plain`.
  auto mine = [&](auto session_op, auto reference) {
    decltype(session_op()) mined = ccfp::Status::FailedPrecondition("not run");
    TimedOp(
        log, kMine, checks, c,
        [&] {
          mined = session_op();
          return mined.ok() ? std::string() : mined.status().ToString();
        },
        [&] {
          return Checked{CheckMined(plain, *mined, reference()),
                         mined->size()};
        });
  };
  auto mine_fds = [&] {
    mine([&] { return service.MineSessionFds(id, 0); },
         [&] { return ccfp::MineFds(plain, 0); });
  };
  for (std::size_t delta : cycle.deltas) {
    append(kAppend, corpus.delta_texts[delta]);
    mine_fds();
  }
  mine([&] { return service.MineSessionInds(id); },
       [&] { return ccfp::MineInds(plain); });
  mine([&] { return service.MineSessionRds(id); },
       [&] { return ccfp::MineRds(plain); });
  std::string prefix = StrCat(spill_dir, "/session_", id);
  TimedOp(
      log, kEvict, checks, c, [&] { return StatusText(service.Evict(id)); },
      [&] {
        log.spill_bytes += ChainBytes(prefix);
        log.spill_tuples += plain.TotalTuples();
        return Checked{"", 1};
      });
  append(kRevive, kReviveDelta);
  mine_fds();
  TimedOp(
      log, kClose, checks, c, [&] { return StatusText(service.Close(id)); },
      NoCheck);
  RemoveChain(prefix);
}

void ArmstrongCycle(SolverService& service, const ChurnCorpus& corpus,
                    const Parsed& parsed, const Cycle& cycle,
                    const std::string& spill_dir, std::size_t c,
                    CallerLog& log, CheckLog& checks) {
  const ccfp::SchemePtr& scheme = corpus.arm_scheme;
  const ArmVariant& v = parsed.variants[cycle.variant];
  SolverService::SessionId id = 0;
  bool opened = false;
  TimedOp(
      log, kOpen, checks, c,
      [&] {
        auto r = service.OpenArmstrong(scheme, v.fds, v.inds);
        opened = r.ok();
        if (opened) id = *r;
        return opened ? std::string() : r.status().ToString();
      },
      NoCheck);
  if (!opened) return;
  // The universe grown so far and its members sigma implies (by the
  // reference classification), for the exactness check.
  std::vector<Dependency> universe, expected;
  for (std::size_t round = 0; round < kExtendRounds; ++round) {
    std::vector<std::string> texts = ExtendSlice(corpus, cycle, round);
    std::vector<Dependency> delta;
    TimedOp(
        log, kExtend, checks, c,
        [&] {
          for (const std::string& t : texts) {
            delta.push_back(ParseDep(*scheme, t));
          }
          return StatusText(service.Extend(id, delta));
        },
        [&] {
          for (const Dependency& d : delta) {
            if (std::find(universe.begin(), universe.end(), d) !=
                universe.end()) {
              continue;
            }
            universe.push_back(d);
            std::size_t at = static_cast<std::size_t>(
                std::find(parsed.universe.begin(), parsed.universe.end(), d) -
                parsed.universe.begin());
            if (v.expected[at]) expected.push_back(d);
          }
          return Checked{"", delta.size()};
        });
  }
  std::string prefix = StrCat(spill_dir, "/session_", id);
  std::uint64_t chain_bytes = 0;
  TimedOp(
      log, kEvict, checks, c, [&] { return StatusText(service.Evict(id)); },
      [&] {
        chain_bytes = ChainBytes(prefix);
        return Checked{"", 1};
      });
  ccfp::Result<Database> db = ccfp::Status::FailedPrecondition("not run");
  TimedOp(
      log, kRevive, checks, c,
      [&] {
        db = service.ArmstrongDatabase(id);
        return db.ok() ? std::string() : db.status().ToString();
      },
      [&] {
        log.spill_bytes += chain_bytes;
        log.spill_tuples += db->TotalTuples();
        ccfp::SatisfiesOptions legacy;
        legacy.engine = ccfp::SatisfiesEngine::kLegacy;
        std::optional<std::string> bad =
            ccfp::ObeysExactly(*db, universe, expected, legacy);
        return Checked{bad.has_value() ? "Armstrong database: " + *bad : "",
                       db->TotalTuples()};
      });
  TimedOp(
      log, kClose, checks, c, [&] { return StatusText(service.Close(id)); },
      NoCheck);
  RemoveChain(prefix);
}

// --- traced replay ----------------------------------------------------------

/// The session's chase oracle with a span around every call, so the chase
/// time inside ArmstrongSession::Extend is attributed to the chase layer.
class TracedOracle : public ccfp::ImplicationOracle {
 public:
  TracedOracle(ccfp::SchemePtr scheme, ThreadTrace& trace)
      : inner_(std::move(scheme)), trace_(&trace) {}
  ccfp::ImplicationVerdict Implies(const std::vector<Dependency>& premises,
                                   const Dependency& conclusion) const override {
    ScopedSpan span(*trace_, Layer::kChase);
    return inner_.Implies(premises, conclusion);
  }
  std::string name() const override { return inner_.name(); }

 private:
  ccfp::ChaseOracle inner_;
  ThreadTrace* trace_;
};

struct ReplayCounts {
  std::uint64_t ops = 0;
  std::uint64_t values_interned = 0;
  std::uint64_t partitions_built = 0;
  std::uint64_t max_workspace_bytes = 0;
  std::uint64_t snapshot_bytes = 0;
  std::uint64_t saves = 0;
  std::uint64_t armstrong_tuples = 0;
  std::uint64_t armstrong_dbs = 0;
  std::vector<double> op_ms, layer_ms;
};

/// Runs one replayed op inside an op span, recording its time split.
template <typename Fn>
void ReplayOp(ThreadTrace& tr, ReplayCounts& n, std::size_t c, Fn&& fn) {
  tr.set_op((static_cast<std::uint64_t>(c) << 40) | n.ops);
  double before = tr.LayerMs();
  Clock::time_point t0 = Clock::now();
  {
    ScopedSpan span(tr, Layer::kOp);
    fn();
  }
  n.op_ms.push_back(MsBetween(t0, Clock::now()));
  n.layer_ms.push_back(tr.LayerMs() - before);
  ++n.ops;
}

void ReplayMining(ThreadTrace& tr, ReplayCores& cores,
                  const ChurnCorpus& corpus, const Parsed& parsed,
                  const Cycle& cycle, const std::string& prefix,
                  std::size_t c, ReplayCounts& n) {
  const ccfp::SchemePtr& scheme = corpus.mine_scheme;
  std::shared_ptr<const ccfp::SolverCore> core;
  std::unique_ptr<ccfp::InternedWorkspace> ws;
  ReplayOp(tr, n, c, [&] {
    ScopedSpan open(tr, Layer::kServiceOpen);
    core = cores.Acquire(tr, scheme, {}, parsed.warm.get());
    ws = std::make_unique<ccfp::InternedWorkspace>(core->ForkWorkspace());
  });
  auto append = [&](const std::string& text) {
    ccfp::Result<Database> delta = [&] {
      ScopedSpan span(tr, Layer::kParser);
      return ccfp::ParseDatabase(scheme, text);
    }();
    std::uint64_t before = ws->stats().values_interned;
    {
      ScopedSpan span(tr, Layer::kWorkspaceAppend);
      ws->AppendDatabase(*delta);
    }
    n.values_interned += ws->stats().values_interned - before;
    n.max_workspace_bytes =
        std::max<std::uint64_t>(n.max_workspace_bytes, ws->MemoryUsage().Total());
  };
  auto mine = [&](int what) {
    std::uint64_t before = ws->stats().partitions_built;
    {
      ScopedSpan span(tr, Layer::kMine);
      if (what == 0) (void)ccfp::MineFds(*ws, 0);
      if (what == 1) (void)ccfp::MineInds(*ws);
      if (what == 2) (void)ccfp::MineRds(*ws);
    }
    n.partitions_built += ws->stats().partitions_built - before;
  };
  for (std::size_t delta : cycle.deltas) {
    ReplayOp(tr, n, c, [&] { append(corpus.delta_texts[delta]); });
    ReplayOp(tr, n, c, [&] { mine(0); });
  }
  ReplayOp(tr, n, c, [&] { mine(1); });
  ReplayOp(tr, n, c, [&] { mine(2); });
  ccfp::SnapshotChainPolicy policy;
  policy.exclusive = true;
  auto chain = std::make_unique<ccfp::SnapshotChainWriter>(prefix, policy);
  ReplayOp(tr, n, c, [&] {
    ScopedSpan span(tr, Layer::kSnapshotSave);
    if (!chain->Save(*ws).ok()) std::exit(2);
    ws.reset();
  });
  n.snapshot_bytes += ChainBytes(prefix);
  ++n.saves;
  ReplayOp(tr, n, c, [&] {
    {
      ScopedSpan span(tr, Layer::kSnapshotLoad);
      ccfp::Result<ccfp::RestoredChain> restored =
          ccfp::LoadSnapshotChain(scheme, prefix);
      if (!restored.ok()) std::exit(2);
      ws = std::make_unique<ccfp::InternedWorkspace>(
          std::move(restored->restored.ws));
      chain->Adopt(*restored);
    }
    append(kReviveDelta);
  });
  ReplayOp(tr, n, c, [&] { mine(0); });
  ReplayOp(tr, n, c, [&] {
    ws.reset();
    chain.reset();
  });
  RemoveChain(prefix);
}

void ReplayArmstrong(ThreadTrace& tr, ReplayCores& cores,
                     const ChurnCorpus& corpus, const Parsed& parsed,
                     const Cycle& cycle, const std::string& prefix,
                     std::size_t c, ReplayCounts& n) {
  const ccfp::SchemePtr& scheme = corpus.arm_scheme;
  const ArmVariant& v = parsed.variants[cycle.variant];
  ccfp::ArmstrongBuildOptions build;
  std::unique_ptr<TracedOracle> oracle;
  std::unique_ptr<ccfp::ArmstrongSession> session;
  ReplayOp(tr, n, c, [&] {
    ScopedSpan open(tr, Layer::kServiceOpen);
    (void)cores.Acquire(tr, scheme, v.sigma, nullptr);
    oracle = std::make_unique<TracedOracle>(scheme, tr);
    session = std::make_unique<ccfp::ArmstrongSession>(scheme, v.fds, v.inds,
                                                       oracle.get(), build);
  });
  for (std::size_t round = 0; round < kExtendRounds; ++round) {
    std::vector<std::string> texts = ExtendSlice(corpus, cycle, round);
    ReplayOp(tr, n, c, [&] {
      std::vector<Dependency> delta;
      {
        ScopedSpan span(tr, Layer::kParser);
        for (const std::string& t : texts) delta.push_back(ParseDep(*scheme, t));
      }
      ScopedSpan span(tr, Layer::kArmstrong);
      if (!session->Extend(delta).ok()) std::exit(2);
    });
  }
  ccfp::SnapshotChainPolicy policy;
  policy.exclusive = true;
  ccfp::SnapshotChainWriter chain(prefix, policy);
  ReplayOp(tr, n, c, [&] {
    ccfp::SessionClassificationRecord record;
    record.universe = session->universe();
    const std::vector<Dependency>& expected = session->expected();
    for (const Dependency& member : record.universe) {
      record.expected.push_back(std::find(expected.begin(), expected.end(),
                                          member) != expected.end());
    }
    ScopedSpan span(tr, Layer::kSnapshotSave);
    if (!chain.Save(session->workspace(), {},
                    ccfp::SerializeSessionRecord(record))
             .ok()) {
      std::exit(2);
    }
    session.reset();
    oracle.reset();
  });
  n.snapshot_bytes += ChainBytes(prefix);
  ++n.saves;
  ReplayOp(tr, n, c, [&] {
    ccfp::Result<ccfp::RestoredChain> restored = [&] {
      ScopedSpan span(tr, Layer::kSnapshotLoad);
      return ccfp::LoadSnapshotChain(scheme, prefix);
    }();
    if (!restored.ok()) std::exit(2);
    ScopedSpan span(tr, Layer::kArmstrong);
    ccfp::Result<ccfp::SessionClassificationRecord> record =
        ccfp::DeserializeSessionRecord(*scheme, restored->restored.aux);
    if (!record.ok()) std::exit(2);
    chain.Adopt(*restored);
    oracle = std::make_unique<TracedOracle>(scheme, tr);
    session = std::make_unique<ccfp::ArmstrongSession>(
        std::move(restored->restored.ws), std::move(*record), v.fds, v.inds,
        oracle.get(), build);
    Database db = session->Snapshot();
    n.armstrong_tuples += db.TotalTuples();
    ++n.armstrong_dbs;
  });
  ReplayOp(tr, n, c, [&] {
    session.reset();
    oracle.reset();
  });
  RemoveChain(prefix);
}

/// ops_per_s window: one mining cycle plus one Armstrong cycle (callers
/// alternate the two, so every window holds two evictions).
constexpr std::size_t kOpsPerCyclePair =
    (1 + 2 * kMineRounds + 2 + 1 + 1 + 1 + 1) + (1 + kExtendRounds + 3);

}  // namespace

RunResult RunChurnWorkload(const Args& args, const std::string& spans_path) {
  ChurnCorpus corpus = MakeChurnCorpus(args.seed);
  Parsed parsed;
  std::vector<double> setup_s;
  std::unique_ptr<SolverService> service;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    service.reset();
    Clock::time_point t0 = Clock::now();
    service = Deploy(corpus, args.spill_dir, parsed);
    setup_s.push_back(MsBetween(t0, Clock::now()) / 1e3);
  }
  // The checks' reference classification of the Armstrong universe.
  for (const std::string& text : corpus.universe_texts) {
    parsed.universe.push_back(ParseDep(*corpus.arm_scheme, text));
  }
  for (ArmVariant& v : parsed.variants) {
    for (const Dependency& member : parsed.universe) {
      ccfp::Result<ccfp::Verdict> verdict =
          ccfp::SolveImplication(corpus.arm_scheme, v.sigma, member);
      if (!verdict.ok() || verdict->unknown()) {
        std::fprintf(stderr, "Armstrong universe member left undecided\n");
        std::exit(2);
      }
      v.expected.push_back(verdict->implied());
    }
  }

  CheckLog checks;
  std::vector<CallerLog> logs(kCallers);
  double service_seconds = args.trace ? args.seconds / 2 : args.seconds;
  {
    Clock::time_point deadline = After(service_seconds);
    std::vector<std::thread> threads;
    for (std::size_t c = 0; c < kCallers; ++c) {
      threads.emplace_back([&, c] {
        ccfp::SplitMix64 rng(args.seed * 424243ull + c);
        for (std::uint64_t j = 0; Clock::now() < deadline; ++j) {
          Cycle cycle = NextCycle(c, j, rng, corpus);
          if (cycle.mining) {
            MiningCycle(*service, corpus, parsed, cycle, args.spill_dir, c,
                        logs[c], checks);
          } else {
            ArmstrongCycle(*service, corpus, parsed, cycle, args.spill_dir, c,
                           logs[c], checks);
          }
        }
      });
    }
    for (std::thread& t : threads) t.join();
  }

  RunResult result;
  std::array<std::vector<double>, kKinds> by_kind;
  std::vector<double> all;
  std::vector<std::vector<double>> per_caller;
  std::uint64_t ops = 0, failed = 0, spill_bytes = 0, spill_tuples = 0;
  Digest digest;
  for (const CallerLog& log : logs) {
    for (std::size_t k = 0; k < kKinds; ++k) {
      by_kind[k].insert(by_kind[k].end(), log.latency_ms[k].begin(),
                        log.latency_ms[k].end());
    }
    all.insert(all.end(), log.all_ms.begin(), log.all_ms.end());
    per_caller.push_back(log.all_ms);
    ops += log.ops;
    failed += log.failed;
    spill_bytes += log.spill_bytes;
    spill_tuples += log.spill_tuples;
    digest.Add(log.digest.h);
  }
  double ops_per_s = WindowedOpsPerSecond(per_caller, kOpsPerCyclePair);
  if (!args.trace) {
    result.metrics = {
        {"setup_s", Median(setup_s)},
        {"ops_per_s", ops_per_s},
        {"latency_p50_ms", Percentile(all, 0.5)},
        {"latency_p99_ms", Percentile(all, 0.99)},
        {"decided_frac", 1.0},
        {"ok_frac", 1.0 - Ratio(failed, ops)},
        {"peak_rss_mb", PeakRssMb()},
    };
  } else {
    ccfp::SolverService::ServiceStats stats = service->stats();
    std::vector<ThreadTrace> traces;
    for (std::size_t c = 0; c < kCallers; ++c) {
      traces.emplace_back(static_cast<std::uint32_t>(c));
    }
    std::vector<ReplayCounts> counts(kCallers);
    ReplayCores cores;
    std::string replay_dir = args.spill_dir + "/replay";
    fs::create_directories(replay_dir);
    Clock::time_point deadline = After(args.seconds / 2);
    std::vector<std::thread> threads;
    for (std::size_t c = 0; c < kCallers; ++c) {
      threads.emplace_back([&, c] {
        ccfp::SplitMix64 rng(args.seed * 424243ull + c);
        for (std::uint64_t j = 0; Clock::now() < deadline; ++j) {
          Cycle cycle = NextCycle(c, j, rng, corpus);
          std::string prefix = StrCat(replay_dir, "/c", c, "_", j);
          if (cycle.mining) {
            ReplayMining(traces[c], cores, corpus, parsed, cycle, prefix, c,
                         counts[c]);
          } else {
            ReplayArmstrong(traces[c], cores, corpus, parsed, cycle, prefix, c,
                            counts[c]);
          }
        }
      });
    }
    for (std::thread& t : threads) t.join();

    ReplayCounts n;
    std::array<double, kLayerCount> self{};
    std::array<std::uint64_t, kLayerCount> calls{};
    std::vector<std::vector<double>> traced_latency;
    std::vector<double> overhead;
    double op_total = 0, layer_total = 0;
    for (std::size_t c = 0; c < kCallers; ++c) {
      const ReplayCounts& r = counts[c];
      n.ops += r.ops;
      n.values_interned += r.values_interned;
      n.partitions_built += r.partitions_built;
      n.max_workspace_bytes =
          std::max(n.max_workspace_bytes, r.max_workspace_bytes);
      n.snapshot_bytes += r.snapshot_bytes;
      n.saves += r.saves;
      n.armstrong_tuples += r.armstrong_tuples;
      n.armstrong_dbs += r.armstrong_dbs;
      for (std::size_t l = 0; l < kLayerCount; ++l) {
        self[l] += traces[c].self_ms[l];
        calls[l] += traces[c].calls[l];
      }
      traced_latency.push_back(r.op_ms);
      std::size_t common = std::min(r.op_ms.size(), logs[c].all_ms.size());
      for (std::size_t k = 0; k < r.op_ms.size(); ++k) {
        op_total += r.op_ms[k];
        layer_total += r.layer_ms[k];
      }
      for (std::size_t k = 0; k < common; ++k) {
        overhead.push_back(logs[c].all_ms[k] - r.layer_ms[k]);
      }
    }
    ops += n.ops;
    auto per_op = [&](double total) {
      return Ratio(total, static_cast<double>(n.ops));
    };
    auto ms = [&](Layer l) { return per_op(self[static_cast<std::size_t>(l)]); };
    result.metrics = {
        {"service.open.ms",
         Ratio(std::accumulate(by_kind[kOpen].begin(), by_kind[kOpen].end(),
                               0.0),
               by_kind[kOpen].size())},
        {"service.core_build.ms",
         Ratio(self[static_cast<std::size_t>(Layer::kCoreBuild)],
               calls[static_cast<std::size_t>(Layer::kCoreBuild)])},
        {"service.core_reuse_frac",
         Ratio(stats.core_reuses, stats.sessions_opened)},
        {"service.overhead.ms", Median(overhead)},
        {"service.rejected",
         static_cast<double>(stats.rejected_inflight + stats.rejected_capacity +
                             stats.rejected_budget)},
        {"core.parser.ms", ms(Layer::kParser)},
        {"chase.ms", ms(Layer::kChase)},
        {"core.workspace.append.ms", ms(Layer::kWorkspaceAppend)},
        {"core.workspace.values_interned", per_op(n.values_interned)},
        {"core.workspace.partitions_built", per_op(n.partitions_built)},
        {"core.workspace.bytes", static_cast<double>(n.max_workspace_bytes)},
        {"core.snapshot.save.ms", ms(Layer::kSnapshotSave)},
        {"core.snapshot.load.ms", ms(Layer::kSnapshotLoad)},
        {"core.snapshot.bytes", Ratio(n.snapshot_bytes, n.saves)},
        {"mine.ms", ms(Layer::kMine)},
        {"armstrong.extend.ms", ms(Layer::kArmstrong)},
        {"armstrong.tuples", Ratio(n.armstrong_tuples, n.armstrong_dbs)},
        {"trace.coverage", Ratio(layer_total, op_total)},
        {"trace.overhead_frac",
         1.0 - Ratio(WindowedOpsPerSecond(traced_latency, kOpsPerCyclePair),
                     ops_per_s)},
        {"open_p50_ms", Median(by_kind[kOpen])},
        {"append_p50_ms", Median(by_kind[kAppend])},
        {"mine_p50_ms", Median(by_kind[kMine])},
        {"evict_p50_ms", Median(by_kind[kEvict])},
        {"revive_p50_ms", Median(by_kind[kRevive])},
        {"extend_p50_ms", Median(by_kind[kExtend])},
        {"spill_bytes_per_tuple", Ratio(spill_bytes, spill_tuples)},
    };
    if (!spans_path.empty()) WriteSpans(spans_path, traces);
  }
  result.attempted = ops;
  result.failed = failed;
  result.digest = digest.h;
  result.errors = checks.messages();
  return result;
}

}  // namespace perfbench
