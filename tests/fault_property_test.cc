// Deterministic fault-injection properties (util/fault.h): a seeded
// injector forces the exhaustion paths of every engine at reproducible
// instants, and the suite pins the degradation contract — a degraded
// answer is ResourceExhausted / kUnknown, never a wrong verdict, and a
// resumed run converges to exactly the answers of a fault-free control
// run over the same trace (tests/trace_util.h).
#include <gtest/gtest.h>

#include <chrono>
#include <vector>

#include "chase/workspace_chase.h"
#include "core/workspace.h"
#include "tests/trace_util.h"
#include "util/budget.h"
#include "util/fault.h"
#include "util/rng.h"
#include "verify/verifier.h"

namespace ccfp {
namespace {

using testutil::AppendRandomTuple;
using testutil::CheckAgreement;
using testutil::MergeRandomValues;
using testutil::RandomScheme;
using testutil::RandomUniverse;

class FaultPropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

/// Sigma with a terminating chase: FDs plus an acyclic IND chain.
void RandomSigma(const SchemePtr& scheme, SplitMix64& rng,
                 std::vector<Fd>* fds, std::vector<Ind>* inds) {
  for (const Dependency& dep : RandomUniverse(scheme, rng, 8)) {
    if (dep.is_fd() && !dep.fd().lhs.empty()) fds->push_back(dep.fd());
    if (dep.is_ind() && dep.ind().lhs_rel < dep.ind().rhs_rel) {
      inds->push_back(dep.ind());
    }
  }
}

TEST_P(FaultPropertyTest, ChaseWithInjectedFaultsConvergesToControlAnswers) {
  // Periodic kEngineExhaust + kArenaAppend faults interrupt the faulted
  // chase over and over; every interruption must be ResourceExhausted,
  // and the resumed fixpoint must answer exactly like the fault-free
  // control chase over the identical trace.
  SplitMix64 rng(GetParam() * 6364136223846793005ULL + 29);
  SchemePtr scheme = RandomScheme(rng);
  std::vector<Dependency> universe = RandomUniverse(scheme, rng, 10);
  std::vector<Fd> fds;
  std::vector<Ind> inds;
  RandomSigma(scheme, rng, &fds, &inds);
  if (universe.empty() || (fds.empty() && inds.empty())) return;

  InternedWorkspace control(scheme);
  InternedWorkspace faulted(scheme);
  WorkspaceChase control_chaser(&control, fds, inds);
  WorkspaceChase faulted_chaser(&faulted, fds, inds);
  std::vector<ValueId> control_pool;
  std::vector<ValueId> faulted_pool;

  FaultInjector fi(GetParam());
  fi.ArmEvery(FaultSite::kEngineExhaust, 5);
  fi.ArmEvery(FaultSite::kArenaAppend, 3);

  for (int round = 0; round < 4; ++round) {
    // Identical appends on both sides (cloned rng stream, id-exact pools).
    SplitMix64 rng2 = rng;
    for (int i = 0; i < 4; ++i) AppendRandomTuple(control, rng, control_pool);
    for (int i = 0; i < 4; ++i) AppendRandomTuple(faulted, rng2, faulted_pool);

    Result<WorkspaceChaseStats> control_run = control_chaser.Run({});
    ASSERT_TRUE(control_run.ok()) << control_run.status();

    Result<WorkspaceChaseStats> faulted_run = Status::Internal("never ran");
    int interruptions = 0;
    {
      ScopedFaultInjector scope(&fi);
      for (int attempt = 0; attempt < 500; ++attempt) {
        faulted_run = faulted_chaser.Run({});
        if (faulted_run.ok()) break;
        ASSERT_EQ(faulted_run.status().code(),
                  StatusCode::kResourceExhausted)
            << faulted_run.status();
        ++interruptions;
      }
    }
    ASSERT_TRUE(faulted_run.ok())
        << "faulted chase failed to converge after " << interruptions
        << " resumable interruptions: " << faulted_run.status();
    ASSERT_EQ(faulted_run->outcome, control_run->outcome);
    if (control_run->outcome == ChaseOutcome::kFailed) return;

    // Verdicts are renaming-invariant, so they must match even though the
    // interleaving of fresh-null creation may differ across interruptions.
    for (const Dependency& dep : universe) {
      EXPECT_EQ(faulted.Satisfies(dep), control.Satisfies(dep))
          << dep.ToString(*scheme) << " after " << interruptions
          << " interruptions";
    }
  }
}

TEST_P(FaultPropertyTest, BudgetedCatchUpDegradesToExhaustedNeverWrong) {
  // A kWatcherGrow fault (or a byte ceiling already exceeded) makes the
  // budgeted CatchUp report ResourceExhausted mid-replay; verdicts asked
  // for afterwards — which complete the replay unbudgeted — must still
  // agree with the sweep and a fresh re-intern at every position.
  SplitMix64 rng(GetParam() * 40503 + 101);
  SchemePtr scheme = RandomScheme(rng);
  std::vector<Dependency> deps = RandomUniverse(scheme, rng, 10);
  if (deps.empty()) return;

  InternedWorkspace ws(scheme);
  std::vector<ValueId> pool;
  for (int i = 0; i < 5; ++i) AppendRandomTuple(ws, rng, pool);

  IncrementalVerifier verifier(&ws);
  std::vector<WatchId> ids;
  for (const Dependency& dep : deps) ids.push_back(verifier.Watch(dep));
  CheckAgreement(ws, verifier, deps, ids);

  std::vector<std::uint64_t> seen;
  for (RelId rel = 0; rel < scheme->size(); ++rel) {
    seen.push_back(ws.EventCount(rel));
  }
  FaultInjector fi(GetParam() ^ 0xF00D);
  for (int batch = 0; batch < 6; ++batch) {
    std::size_t ops = 1 + rng.Below(4);
    for (std::size_t op = 0; op < ops; ++op) {
      if (rng.Chance(2, 3)) {
        AppendRandomTuple(ws, rng, pool);
      } else {
        MergeRandomValues(ws, rng, pool);
      }
    }
    bool pending = false;
    for (RelId rel = 0; rel < scheme->size(); ++rel) {
      if (ws.EventCount(rel) != seen[rel]) pending = true;
    }

    if (batch % 2 == 0) {
      // Injected growth failure on the next pending relation.
      fi.Arm(FaultSite::kWatcherGrow, 0);
      ScopedFaultInjector scope(&fi);
      Status st = verifier.CatchUp(Budget());
      if (pending) {
        ASSERT_FALSE(st.ok());
        EXPECT_EQ(st.code(), StatusCode::kResourceExhausted);
      } else {
        EXPECT_TRUE(st.ok()) << st;
      }
    } else {
      // A byte ceiling below the live state: same degradation, no fault.
      Status st = verifier.CatchUp(Budget::WithByteCeiling(1));
      if (pending) {
        ASSERT_FALSE(st.ok());
        EXPECT_EQ(st.code(), StatusCode::kResourceExhausted);
      } else {
        EXPECT_TRUE(st.ok()) << st;
      }
    }

    // Degraded, not wrong: the unbudgeted resume inside CheckAgreement
    // completes the replay and every verdict/witness is exact.
    CheckAgreement(ws, verifier, deps, ids);
    // A caught-up verifier passes the same budgeted call untouched.
    EXPECT_TRUE(verifier.CatchUp(Budget::WithByteCeiling(1)).ok());
    for (RelId rel = 0; rel < scheme->size(); ++rel) {
      seen[rel] = ws.EventCount(rel);
    }
  }
}

TEST_P(FaultPropertyTest, ChaseDeadlineAndByteCeilingAreResumable) {
  // Satellite contract for Budget inside the chase inner loops: an
  // already-expired deadline or an already-exceeded byte ceiling stops
  // the run with ResourceExhausted, and re-running with headroom reaches
  // the same answers as an unconstrained control.
  SplitMix64 rng(GetParam() * 7129 + 41);
  SchemePtr scheme = RandomScheme(rng);
  std::vector<Dependency> universe = RandomUniverse(scheme, rng, 8);
  std::vector<Fd> fds;
  std::vector<Ind> inds;
  RandomSigma(scheme, rng, &fds, &inds);
  if (universe.empty() || (fds.empty() && inds.empty())) return;

  InternedWorkspace control(scheme);
  InternedWorkspace limited(scheme);
  WorkspaceChase control_chaser(&control, fds, inds);
  WorkspaceChase limited_chaser(&limited, fds, inds);
  std::vector<ValueId> control_pool;
  std::vector<ValueId> limited_pool;
  SplitMix64 rng2 = rng;
  for (int i = 0; i < 6; ++i) AppendRandomTuple(control, rng, control_pool);
  for (int i = 0; i < 6; ++i) AppendRandomTuple(limited, rng2, limited_pool);

  Result<WorkspaceChaseStats> control_run = control_chaser.Run({});
  ASSERT_TRUE(control_run.ok()) << control_run.status();

  ChaseOptions expired;
  expired.deadline = std::chrono::steady_clock::now() -
                     std::chrono::milliseconds(1);
  Result<WorkspaceChaseStats> run = limited_chaser.Run(expired);
  if (!run.ok()) {
    EXPECT_EQ(run.status().code(), StatusCode::kResourceExhausted);
  }

  ChaseOptions squeezed;
  squeezed.max_bytes = 1;  // any live state exceeds this
  run = limited_chaser.Run(squeezed);
  if (!run.ok()) {
    EXPECT_EQ(run.status().code(), StatusCode::kResourceExhausted);
  }

  run = limited_chaser.Run({});  // headroom restored
  ASSERT_TRUE(run.ok()) << run.status();
  ASSERT_EQ(run->outcome, control_run->outcome);
  if (run->outcome == ChaseOutcome::kFailed) return;
  for (const Dependency& dep : universe) {
    EXPECT_EQ(limited.Satisfies(dep), control.Satisfies(dep))
        << dep.ToString(*scheme);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FaultPropertyTest,
                         ::testing::Range<std::uint64_t>(1, 41));

}  // namespace
}  // namespace ccfp
