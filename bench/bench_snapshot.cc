// E14: the snapshot layer (core/snapshot.h). BENCH_snapshot.json records
// a full-vs-delta entry pair per workload size: the full path serializes
// the whole substrate (interner + union-find + slots + occurrences +
// compiled partitions), the delta path serializes only the in-flight
// mutation journal linked to the last persisted record — the tentpole's
// cost model is that checkpointing a live session scales with the batch,
// not the state. Load-side pairs compare a one-record full restore with
// a base-plus-deltas chain restore (LoadSnapshotChain replay).
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include <benchmark/benchmark.h>

#include "bench/bench_main.h"
#include "bench/reporter.h"
#include "core/snapshot.h"
#include "core/workspace.h"
#include "util/check.h"
#include "util/rng.h"
#include "util/strings.h"

namespace ccfp {
namespace {

SchemePtr BenchScheme() {
  return MakeScheme({{"R", {"A", "B", "C"}}, {"S", {"D", "E"}}});
}

void AppendOne(InternedWorkspace& ws, SplitMix64& rng,
               std::vector<ValueId>& pool) {
  RelId rel = static_cast<RelId>(rng.Below(ws.scheme().size()));
  std::size_t arity = ws.scheme().relation(rel).arity();
  IdTuple t(arity, 0);
  for (std::size_t a = 0; a < arity; ++a) {
    if (pool.empty() || rng.Chance(1, 4)) {
      pool.push_back(rng.Chance(1, 3)
                         ? ws.InternFreshNull()
                         : ws.Intern(Value::Int(static_cast<std::int64_t>(
                               rng.Below(64)))));
    }
    t[a] = ws.Canon(pool[rng.Below(pool.size())]);
  }
  ws.Append(rel, std::move(t));
}

// The chase-protocol merge sequence (MergeValues, reroute, then
// re-canonicalize every stale occurrence), so merged ids are journaled
// exactly the way a live session journals them.
void MergeOne(InternedWorkspace& ws, SplitMix64& rng,
              const std::vector<ValueId>& pool) {
  if (pool.size() < 2) return;
  ValueId a = ws.Canon(pool[rng.Below(pool.size())]);
  ValueId b = ws.Canon(pool[rng.Below(pool.size())]);
  InternedWorkspace::MergeResult m = ws.MergeValues(a, b);
  if (!m.merged) return;
  OccurrenceRange occ = ws.occurrences(m.loser);
  std::vector<WorkspaceTupleRef> stale(occ.begin(), occ.end());
  ws.RerouteOccurrences(m.loser, m.winner);
  for (const WorkspaceTupleRef& ref : stale) {
    ws.CanonicalizeTuple(ref.rel, ref.idx);
  }
}

void MutateBatch(InternedWorkspace& ws, SplitMix64& rng,
                 std::vector<ValueId>& pool, std::size_t ops) {
  for (std::size_t i = 0; i < ops; ++i) {
    if (rng.Chance(5, 6)) {
      AppendOne(ws, rng, pool);
    } else {
      MergeOne(ws, rng, pool);
    }
  }
}

// A lived-in workspace: `n` mutation ops plus compiled partitions (the
// capital a full snapshot carries and a delta deliberately does not).
InternedWorkspace BuildWorkspace(const SchemePtr& scheme, std::size_t n,
                                 SplitMix64& rng,
                                 std::vector<ValueId>& pool) {
  InternedWorkspace ws(scheme);
  MutateBatch(ws, rng, pool, n);
  ws.Satisfies(Dependency(Fd{0, {0}, {1}}));
  ws.Satisfies(Dependency(Fd{0, {1}, {2}}));
  ws.Satisfies(Dependency(Fd{1, {0}, {1}}));
  ws.Satisfies(Dependency(Ind{0, {0}, 1, {0}}));
  return ws;
}

constexpr std::size_t kDeltaBatchOps = 16;

void EmitJsonReport(bool smoke) {
  BenchReporter reporter("snapshot");
  SchemePtr scheme = BenchScheme();
  for (std::size_t n : {256u, 1024u, 4096u}) {
    if (smoke && n != 256) continue;
    SplitMix64 rng(n * 9176 + 5);
    std::vector<ValueId> pool;
    InternedWorkspace ws = BuildWorkspace(scheme, n, rng, pool);

    // Full pair: serialize / restore the whole substrate.
    std::string full = SerializeWorkspace(ws);
    WallNs full_save_ns = MeasureWallNs(smoke ? 1 : 5, [&] {
      benchmark::DoNotOptimize(SerializeWorkspace(ws));
    });
    WallNs full_load_ns = MeasureWallNs(smoke ? 1 : 5, [&] {
      Result<RestoredWorkspace> r = DeserializeWorkspace(scheme, full);
      CCFP_CHECK(r.ok());
    });
    reporter.Add(StrCat("full_save/", n), n, full_save_ns, full.size());
    reporter.Add(StrCat("full_load/", n), n, full_load_ns, full.size());

    // Delta pair: persist the base, run one in-flight batch, serialize
    // just the journal. Same batch size at every n — the delta cost
    // should track the batch while the full cost tracks the state.
    Result<RestoredWorkspace> restored = DeserializeWorkspace(scheme, full);
    CCFP_CHECK(restored.ok());
    ws.MarkJournalPersisted(restored->snapshot_id);
    ws.EnableJournal();
    MutateBatch(ws, rng, pool, kDeltaBatchOps);
    Result<std::string> delta = SerializeWorkspaceDelta(ws);
    CCFP_CHECK(delta.ok());
    WallNs delta_save_ns = MeasureWallNs(smoke ? 1 : 5, [&] {
      benchmark::DoNotOptimize(SerializeWorkspaceDelta(ws));
    });
    reporter.Add(StrCat("delta_save/", n), n, delta_save_ns, delta->size());

    // Chain restore: base plus four batch deltas, replayed by LoadChain.
    std::string prefix = StrCat("/tmp/ccfp_bench_snapshot_", n);
    SnapshotChainWriter writer(prefix);
    std::vector<ValueId> chain_pool;  // ids are per-workspace
    InternedWorkspace chain_ws = BuildWorkspace(scheme, n, rng, chain_pool);
    CCFP_CHECK(writer.Save(chain_ws).ok());
    std::uint64_t chain_bytes = 0;
    for (int k = 0; k < 4; ++k) {
      MutateBatch(chain_ws, rng, chain_pool, kDeltaBatchOps);
      CCFP_CHECK(writer.Save(chain_ws).ok());
    }
    WallNs chain_load_ns = MeasureWallNs(smoke ? 1 : 5, [&] {
      Result<RestoredChain> chain = LoadSnapshotChain(scheme, prefix);
      CCFP_CHECK(chain.ok());
      chain_bytes = chain->base_bytes + chain->delta_bytes;
    });
    reporter.Add(StrCat("chain_load/", n), n, chain_load_ns, chain_bytes);

    std::fprintf(stderr,
                 "n=%zu: full save %.1f us (%zu B), delta save %.1f us "
                 "(%zu B, %.0fx smaller), full load %.1f us, chain load "
                 "%.1f us\n",
                 n, full_save_ns.median / 1e3, full.size(),
                 delta_save_ns.median / 1e3,
                 delta->size(),
                 static_cast<double>(full.size()) /
                     static_cast<double>(delta->size() ? delta->size() : 1),
                 full_load_ns.median / 1e3, chain_load_ns.median / 1e3);
  }
  reporter.WriteFile();
}

void BM_FullSerialize(benchmark::State& state) {
  SchemePtr scheme = BenchScheme();
  SplitMix64 rng(42);
  std::vector<ValueId> pool;
  InternedWorkspace ws = BuildWorkspace(
      scheme, static_cast<std::size_t>(state.range(0)), rng, pool);
  std::uint64_t bytes = 0;
  for (auto _ : state) {
    std::string blob = SerializeWorkspace(ws);
    bytes = blob.size();
    benchmark::DoNotOptimize(blob);
  }
  state.counters["bytes"] = static_cast<double>(bytes);
}

BENCHMARK(BM_FullSerialize)->Range(256, 4096);

void BM_DeltaSerialize(benchmark::State& state) {
  SchemePtr scheme = BenchScheme();
  SplitMix64 rng(43);
  std::vector<ValueId> pool;
  InternedWorkspace ws = BuildWorkspace(
      scheme, static_cast<std::size_t>(state.range(0)), rng, pool);
  Result<RestoredWorkspace> restored =
      DeserializeWorkspace(scheme, SerializeWorkspace(ws));
  CCFP_CHECK(restored.ok());
  ws.MarkJournalPersisted(restored->snapshot_id);
  ws.EnableJournal();
  MutateBatch(ws, rng, pool, kDeltaBatchOps);
  std::uint64_t bytes = 0;
  for (auto _ : state) {
    Result<std::string> blob = SerializeWorkspaceDelta(ws);
    CCFP_CHECK(blob.ok());
    bytes = blob->size();
    benchmark::DoNotOptimize(blob);
  }
  state.counters["bytes"] = static_cast<double>(bytes);
}

BENCHMARK(BM_DeltaSerialize)->Range(256, 4096);

}  // namespace
}  // namespace ccfp

int main(int argc, char** argv) {
  return ccfp::RunBenchMain(argc, argv,
                            [](bool smoke) { ccfp::EmitJsonReport(smoke); });
}
