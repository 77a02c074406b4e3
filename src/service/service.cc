#include "service/service.h"

#include <algorithm>
#include <optional>
#include <utility>

#include "util/strings.h"

namespace ccfp {

namespace {

WitnessCache::Stats SumWitness(const WitnessCache::Stats& a,
                               const WitnessCache::Stats& b) {
  WitnessCache::Stats s = a;
  s.admitted += b.admitted;
  s.rejected += b.rejected;
  s.evicted += b.evicted;
  s.probes += b.probes;
  s.hits += b.hits;
  s.misses += b.misses;
  s.watcher_resets += b.watcher_resets;
  s.byte_evictions += b.byte_evictions;
  return s;
}

/// Loads a session's spill chain (onto `root` when it is core-rooted)
/// and checks that it reaches the last record the session wrote: a chain
/// that ends early, at a lost or foreign record, would revive stale state.
Result<RestoredChain> LoadSpill(const SolverCore& core,
                                const SnapshotChainWriter& writer,
                                std::optional<InternedWorkspace> root) {
  CCFP_ASSIGN_OR_RETURN(
      RestoredChain chain,
      LoadSnapshotChain(core.scheme_ptr(), writer.prefix(), std::move(root)));
  if (chain.restored.snapshot_id != writer.tip_id()) {
    return Status::InvalidArgument(
        StrCat("spill chain ", writer.prefix(), " ends at record ",
               chain.restored.snapshot_id, ", not at the session's last spill ",
               writer.tip_id()));
  }
  return chain;
}

}  // namespace

/// Bounded in-flight op count: admission is an atomic increment checked
/// against the ceiling; over-admission immediately backs out. No queueing
/// — the caller gets ResourceExhausted and decides whether to retry.
class SolverService::InflightGuard {
 public:
  InflightGuard(std::atomic<std::size_t>& count, std::size_t limit)
      : count_(count) {
    admitted_ = count_.fetch_add(1, std::memory_order_relaxed) < limit;
    if (!admitted_) count_.fetch_sub(1, std::memory_order_relaxed);
  }
  ~InflightGuard() {
    if (admitted_) count_.fetch_sub(1, std::memory_order_relaxed);
  }
  InflightGuard(const InflightGuard&) = delete;
  InflightGuard& operator=(const InflightGuard&) = delete;
  bool admitted() const { return admitted_; }

 private:
  std::atomic<std::size_t>& count_;
  bool admitted_ = false;
};

SolverService::SolverService() : SolverService(Options()) {}

SolverService::SolverService(Options options) : options_(std::move(options)) {}

SolverService::~SolverService() = default;

std::size_t SolverService::ShardOf(const DatabaseScheme& scheme) const {
  return SchemeFingerprint(scheme) % kShards;
}

std::string SolverService::ChainPrefix(SessionId id) const {
  return StrCat(options_.spill_dir, "/session_", id);
}

Result<std::shared_ptr<const SolverCore>> SolverService::AcquireCore(
    SchemePtr scheme, std::vector<Dependency> sigma, const Database* warm) {
  // Validate before Identity, which renders every sigma member.
  for (const Dependency& dep : sigma) {
    CCFP_RETURN_NOT_OK(Validate(*scheme, dep));
  }
  std::uint64_t identity = SolverCore::Identity(*scheme, sigma, warm);
  {
    std::lock_guard<std::mutex> lock(cores_mu_);
    auto it = cores_.find(identity);
    if (it != cores_.end()) {
      std::lock_guard<std::mutex> stats_lock(stats_mu_);
      ++stats_.core_reuses;
      return it->second;
    }
  }
  // Build outside the registry lock (warm-up can be expensive); a racing
  // duplicate build is wasted work, not a correctness problem — first
  // insert wins and both callers share it.
  CCFP_ASSIGN_OR_RETURN(std::shared_ptr<const SolverCore> core,
                        SolverCore::Build(identity, std::move(scheme),
                                          std::move(sigma), warm));
  std::lock_guard<std::mutex> lock(cores_mu_);
  auto [it, inserted] = cores_.emplace(identity, core);
  if (!inserted) {
    std::lock_guard<std::mutex> stats_lock(stats_mu_);
    ++stats_.core_reuses;
  }
  return it->second;
}

Result<SolverService::SessionId> SolverService::Admit(
    std::shared_ptr<Session> session) {
  if (resident_.fetch_add(1, std::memory_order_relaxed) >=
      options_.max_sessions) {
    resident_.fetch_sub(1, std::memory_order_relaxed);
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++stats_.rejected_capacity;
    return Status::ResourceExhausted(
        StrCat("session capacity (", options_.max_sessions,
               ") reached; close or evict a session first"));
  }
  std::size_t shard_index = session->core->fingerprint() % kShards;
  Shard& shard = shards_[shard_index];
  SessionId id;
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    id = shard.next++ * kShards + shard_index;
    shard.sessions.emplace(id, std::move(session));
  }
  std::lock_guard<std::mutex> lock(stats_mu_);
  ++stats_.sessions_opened;
  return id;
}

Result<std::shared_ptr<SolverService::Session>> SolverService::Find(
    SessionId id) const {
  const Shard& shard = shards_[id % kShards];
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.sessions.find(id);
  if (it == shard.sessions.end()) {
    return Status::NotFound(StrCat("no session ", id));
  }
  return it->second;
}

void SolverService::ProvisionSolver(Session& s) {
  SolveOptions o = options_.solve;
  o.shared_search_tables = &s.core->search_tables();
  s.solver = std::make_unique<ImplicationSolver>(s.core->scheme_ptr(),
                                                 s.core->sigma(), o);
}

Result<SolverService::SessionId> SolverService::OpenSolve(
    SchemePtr scheme, std::vector<Dependency> sigma) {
  CCFP_ASSIGN_OR_RETURN(std::shared_ptr<const SolverCore> core,
                        AcquireCore(std::move(scheme), std::move(sigma),
                                    nullptr));
  auto session = std::make_shared<Session>();
  session->kind = SessionKind::kSolve;
  session->stats.kind = SessionKind::kSolve;
  session->core = std::move(core);
  ProvisionSolver(*session);
  return Admit(std::move(session));
}

Result<SolverService::SessionId> SolverService::OpenMine(
    SchemePtr scheme, const Database& data) {
  CCFP_ASSIGN_OR_RETURN(std::shared_ptr<const SolverCore> core,
                        AcquireCore(std::move(scheme), {}, &data));
  auto session = std::make_shared<Session>();
  session->kind = SessionKind::kMine;
  session->stats.kind = SessionKind::kMine;
  session->core = std::move(core);
  session->mine_ws =
      std::make_unique<InternedWorkspace>(session->core->ForkWorkspace());
  // The sealed base is record 0 of the session's spill chain: journal the
  // overlay from here, so an eviction writes only the session's own delta.
  session->mine_ws->EnableJournal();
  session->mine_ws->MarkJournalPersisted(session->core->identity());
  session->mine_life_base = session->core->base_stats();
  return Admit(std::move(session));
}

Result<SolverService::SessionId> SolverService::OpenArmstrong(
    SchemePtr scheme, std::vector<Fd> fds, std::vector<Ind> inds,
    ArmstrongBuildOptions build) {
  std::vector<Dependency> sigma;
  sigma.reserve(fds.size() + inds.size());
  for (const Fd& fd : fds) sigma.emplace_back(fd);
  for (const Ind& ind : inds) sigma.emplace_back(ind);
  CCFP_ASSIGN_OR_RETURN(std::shared_ptr<const SolverCore> core,
                        AcquireCore(scheme, std::move(sigma), nullptr));
  auto session = std::make_shared<Session>();
  session->kind = SessionKind::kArmstrong;
  session->stats.kind = SessionKind::kArmstrong;
  session->core = std::move(core);
  session->fds = std::move(fds);
  session->inds = std::move(inds);
  session->build = build;
  // The session owns its oracle (the builder only borrows it).
  session->oracle = std::make_unique<ChaseOracle>(scheme);
  session->armstrong = std::make_unique<ArmstrongSession>(
      std::move(scheme), session->fds, session->inds, session->oracle.get(),
      session->build);
  return Admit(std::move(session));
}

void SolverService::ChargeLocked(Session& s, std::uint64_t steps) {
  ++s.stats.ops;
  s.stats.steps_used += std::max<std::uint64_t>(steps, 1);
  if (s.stats.steps_used > options_.session_step_ceiling) {
    s.stats.budget_exhausted = true;
  }
}

SolverService::SessionStats SolverService::LiveStatsLocked(
    const Session& s) const {
  SessionStats out = s.stats;
  out.evicted = s.evicted;
  out.resident_bytes = 0;
  // Witness counters do not survive a dropped solver; accumulate.
  if (s.solver != nullptr) {
    out.witness = SumWitness(out.witness, s.solver->witness_cache_stats());
  }
  // A mining session's substrate work is summed over its lives: a
  // revival replays its overlay onto a fresh fork, so the fork's counters
  // restart from `mine_life_base` (and partitions the core did not compile
  // are compiled, and counted, again when next needed).
  if (s.mine_ws != nullptr) {
    out.values_interned += s.mine_ws->stats().values_interned -
                           s.mine_life_base.values_interned;
    out.partitions_built += s.mine_ws->stats().partitions_built -
                            s.mine_life_base.partitions_built;
    // The frozen value table is the core's, shared by every fork.
    out.resident_bytes = s.mine_ws->MemoryUsage().Total() -
                         s.mine_ws->SharedInternerBytes();
  }
  // An Armstrong session's workspace stats ride its full snapshot, so
  // they are overwritten, not summed.
  if (s.armstrong != nullptr) {
    out.values_interned = s.armstrong->workspace_stats().values_interned;
    out.partitions_built = s.armstrong->workspace_stats().partitions_built;
    out.resident_bytes = s.armstrong->workspace().MemoryUsage().Total();
  }
  return out;
}

Status SolverService::ReviveLocked(Session& s) {
  switch (s.kind) {
    case SessionKind::kSolve:
      // Pure capital: rebuild the engines over the shared core. The
      // solver's witness cache restarts cold (its counters were folded).
      ProvisionSolver(s);
      break;
    case SessionKind::kMine: {
      // Fork + replay: a fresh overlay over the shared core, rooted at the
      // core's identity, plus the session's own delta records.
      InternedWorkspace fork = s.core->ForkWorkspace();
      fork.MarkJournalPersisted(s.core->identity());
      CCFP_ASSIGN_OR_RETURN(RestoredChain chain,
                            LoadSpill(*s.core, *s.chain, std::move(fork)));
      s.mine_ws =
          std::make_unique<InternedWorkspace>(std::move(chain.restored.ws));
      s.mine_life_base = s.mine_ws->stats();
      s.chain->Adopt(chain);
      break;
    }
    case SessionKind::kArmstrong: {
      CCFP_ASSIGN_OR_RETURN(RestoredChain chain,
                            LoadSpill(*s.core, *s.chain, std::nullopt));
      CCFP_ASSIGN_OR_RETURN(
          SessionClassificationRecord record,
          DeserializeSessionRecord(s.core->scheme(), chain.restored.aux));
      s.chain->Adopt(chain);
      s.oracle = std::make_unique<ChaseOracle>(s.core->scheme_ptr());
      // Warm start without replay: workspace + classification adopted,
      // zero oracle calls, zero re-interning.
      s.armstrong = std::make_unique<ArmstrongSession>(
          std::move(chain.restored.ws), std::move(record), s.fds, s.inds,
          s.oracle.get(), s.build);
      break;
    }
  }
  s.evicted = false;
  ++s.stats.revivals;
  std::lock_guard<std::mutex> lock(stats_mu_);
  ++stats_.sessions_revived;
  return Status::OK();
}

template <typename Op>
auto SolverService::RunOp(SessionId id, SessionKind kind, Op op)
    -> decltype(op(std::declval<Session&>())) {
  CCFP_ASSIGN_OR_RETURN(std::shared_ptr<Session> s, Find(id));
  if (s->kind != kind) {
    static constexpr const char* kKindNames[] = {
        "a solve session", "a mining session", "an Armstrong session"};
    return Status::FailedPrecondition(StrCat(
        "session ", id, " is not ", kKindNames[static_cast<int>(kind)]));
  }
  InflightGuard guard(inflight_, options_.max_inflight);
  if (!guard.admitted()) {
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++stats_.rejected_inflight;
    return Status::ResourceExhausted(
        StrCat("in-flight op ceiling (", options_.max_inflight,
               ") reached; retry"));
  }
  std::lock_guard<std::mutex> lock(s->mu);
  if (s->evicted) CCFP_RETURN_NOT_OK(ReviveLocked(*s));
  if (s->stats.budget_exhausted) {
    std::lock_guard<std::mutex> stats_lock(stats_mu_);
    ++stats_.rejected_budget;
    return Status::ResourceExhausted(
        StrCat("session ", id, " exhausted its lifetime step ceiling"));
  }
  return op(*s);
}

Result<Verdict> SolverService::Solve(SessionId id, const Dependency& target,
                                     const Budget& budget) {
  return RunOp(id, SessionKind::kSolve, [&](Session& s) -> Result<Verdict> {
    CCFP_ASSIGN_OR_RETURN(Verdict v, s.solver->Solve(target, budget));
    ChargeLocked(s, v.used.steps);
    return v;
  });
}

Status SolverService::Append(SessionId id, const Database& delta) {
  return RunOp(id, SessionKind::kMine, [&](Session& s) {
    std::uint64_t before = s.mine_ws->stats().tuples_appended;
    s.mine_ws->AppendDatabase(delta);
    ChargeLocked(s, s.mine_ws->stats().tuples_appended - before);
    return Status::OK();
  });
}

Result<std::vector<Fd>> SolverService::MineSessionFds(
    SessionId id, RelId rel, const FdMiningOptions& fd) {
  return RunOp(id, SessionKind::kMine,
               [&](Session& s) -> Result<std::vector<Fd>> {
                 if (rel >= s.core->scheme().size()) {
                   return Status::InvalidArgument(StrCat("no relation ", rel));
                 }
                 std::vector<Fd> out = MineFds(*s.mine_ws, rel, fd);
                 ChargeLocked(s, s.mine_ws->TotalAliveTuples());
                 return out;
               });
}

Result<std::vector<Ind>> SolverService::MineSessionInds(
    SessionId id, const IndMiningOptions& ind) {
  return RunOp(id, SessionKind::kMine,
               [&](Session& s) -> Result<std::vector<Ind>> {
                 std::vector<Ind> out = MineInds(*s.mine_ws, ind);
                 ChargeLocked(s, s.mine_ws->TotalAliveTuples());
                 return out;
               });
}

Result<std::vector<Rd>> SolverService::MineSessionRds(SessionId id) {
  return RunOp(id, SessionKind::kMine,
               [&](Session& s) -> Result<std::vector<Rd>> {
                 std::vector<Rd> out = MineRds(*s.mine_ws);
                 ChargeLocked(s, s.mine_ws->TotalAliveTuples());
                 return out;
               });
}

Status SolverService::Extend(SessionId id,
                             const std::vector<Dependency>& delta) {
  return RunOp(id, SessionKind::kArmstrong, [&](Session& s) {
    std::uint64_t before = s.armstrong->workspace_stats().tuples_appended;
    CCFP_RETURN_NOT_OK(s.armstrong->Extend(delta));
    ChargeLocked(s, delta.size() +
                        s.armstrong->workspace_stats().tuples_appended -
                        before);
    return Status::OK();
  });
}

Result<Database> SolverService::ArmstrongDatabase(SessionId id) {
  CCFP_ASSIGN_OR_RETURN(std::shared_ptr<Session> s, Find(id));
  if (s->kind != SessionKind::kArmstrong) {
    return Status::FailedPrecondition(
        StrCat("session ", id, " is not an Armstrong session"));
  }
  std::lock_guard<std::mutex> lock(s->mu);
  if (s->evicted) CCFP_RETURN_NOT_OK(ReviveLocked(*s));
  return s->armstrong->Snapshot();
}

Status SolverService::Evict(SessionId id) {
  CCFP_ASSIGN_OR_RETURN(std::shared_ptr<Session> s, Find(id));
  std::lock_guard<std::mutex> lock(s->mu);
  if (s->evicted) return Status::OK();
  bool needs_spill = s->kind != SessionKind::kSolve;
  if (needs_spill) {
    if (options_.spill_dir.empty()) {
      return Status::FailedPrecondition(
          "session eviction needs Options::spill_dir");
    }
    if (s->chain == nullptr) {
      // A mining session's chain is rooted at its core; an Armstrong
      // session owns its workspace, so its chain starts from a base file.
      // Two service processes must never interleave one session's chain.
      const SnapshotChainPolicy exclusive{.exclusive = true};
      s->chain = std::make_unique<SnapshotChainWriter>(
          s->kind == SessionKind::kMine
              ? SnapshotChainWriter::RootedAt(ChainPrefix(id),
                                              s->core->identity(), exclusive)
              : SnapshotChainWriter(ChainPrefix(id), exclusive));
    }
  }
  switch (s->kind) {
    case SessionKind::kSolve:
      break;  // pure capital; nothing to persist
    case SessionKind::kMine: {
      // After a read-only life the chain tip already holds this state, so
      // there is nothing to write. A first spill always writes: it clears
      // stale files under the prefix.
      const InternedWorkspace& ws = *s->mine_ws;
      bool unchanged = s->chain->delta_count() > 0 && ws.journal().empty() &&
                       ws.JournalValuesBase() == ws.interner().size();
      if (!unchanged) CCFP_RETURN_NOT_OK(s->chain->Save(ws));
      break;
    }
    case SessionKind::kArmstrong:
      // Workspace AND universe classification: revival replays zero
      // oracle calls.
      CCFP_RETURN_NOT_OK(s->armstrong->Checkpoint(*s->chain));
      break;
  }
  s->stats = LiveStatsLocked(*s);  // fold before the engines go
  s->solver.reset();
  s->mine_ws.reset();
  s->armstrong.reset();
  s->oracle.reset();
  s->evicted = true;
  ++s->stats.evictions;
  std::lock_guard<std::mutex> stats_lock(stats_mu_);
  ++stats_.sessions_evicted;
  return Status::OK();
}

Status SolverService::Close(SessionId id) {
  Shard& shard = shards_[id % kShards];
  std::shared_ptr<Session> s;
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.sessions.find(id);
    if (it == shard.sessions.end()) {
      return Status::NotFound(StrCat("no session ", id));
    }
    s = std::move(it->second);
    shard.sessions.erase(it);
  }
  resident_.fetch_sub(1, std::memory_order_relaxed);
  // An in-flight op on another thread still holds its shared_ptr; the
  // session object dies when the last op returns.
  return Status::OK();
}

Result<SolverService::SessionStats> SolverService::Stats(
    SessionId id) const {
  CCFP_ASSIGN_OR_RETURN(std::shared_ptr<Session> s, Find(id));
  std::lock_guard<std::mutex> lock(s->mu);
  return LiveStatsLocked(*s);
}

SolverService::ServiceStats SolverService::stats() const {
  ServiceStats out;
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    out = stats_;
  }
  {
    std::lock_guard<std::mutex> lock(cores_mu_);
    out.cores = cores_.size();
  }
  out.sessions_resident = resident_.load(std::memory_order_relaxed);
  return out;
}

}  // namespace ccfp
