#ifndef CCFP_UTIL_FAULT_H_
#define CCFP_UTIL_FAULT_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>

namespace ccfp {

/// Where a deterministic fault can be injected. Each site is a named
/// decision point on a recovery path the test suites must be able to force:
/// the library consults the installed injector there and, when it fires,
/// behaves exactly as if the real resource had run out (or the real bytes
/// had been damaged) — same status codes, same resumability contract.
enum class FaultSite : std::uint8_t {
  /// Tuple-store admission of a chase-generated tuple: the arena refuses
  /// to grow. WorkspaceChase::ProbeInd consults it after the IND's rhs
  /// lookup misses and before it registers the key, reserves null labels
  /// or appends, so a firing leaves nothing to undo. Surfaces as a
  /// resumable ResourceExhausted from the chase (the workspace itself
  /// never throws or aborts).
  kArenaAppend = 0,
  /// Watcher/counter growth (IncrementalVerifier budgeted CatchUp).
  kWatcherGrow = 1,
  /// Mid-engine budget exhaustion (WorkspaceChase inner loops, bounded
  /// search, solver stages): forces the ResourceExhausted/kUnknown path at
  /// a seeded instant even when the genuine budget is plentiful.
  kEngineExhaust = 2,
  /// Snapshot serialization: the written bytes are corrupted (one seeded
  /// byte flipped), so the restore path must detect and reject them.
  kSnapshotCorrupt = 3,
  /// Snapshot serialization: the written bytes are truncated at a seeded
  /// offset — the partial-write crash a restore must survive.
  kSnapshotTruncate = 4,
  /// Atomic snapshot write (core/snapshot.h SnapshotWriter): the process
  /// dies before the temp file is fsynced — the temp file may be torn,
  /// the target path still holds the previous snapshot.
  kSnapshotFsync = 5,
  /// Atomic snapshot write: the process dies immediately *after* the
  /// rename lands — the target path holds the complete new snapshot, but
  /// the saver never observed success.
  kSnapshotRename = 6,
};

inline constexpr std::size_t kFaultSiteCount = 7;

const char* FaultSiteToString(FaultSite site);

/// A seeded, deterministic fault source. Tests arm one or more sites with
/// a probe countdown; the library consults `ShouldFail` at the matching
/// decision points. Replaying the same seed + arming yields byte-identical
/// failure schedules, so every recovery path is reproducible under ctest
/// and the sanitizers.
///
/// The injector is process-global: install one with ScopedFaultInjector
/// for the duration of a test body. When none is installed every
/// `FaultFires` check is one atomic pointer load. Probes are thread-safe
/// (concurrent service sessions hit the same sites from many threads):
/// counters are atomics, and schedule state is advanced under a
/// per-injector mutex, so a one-shot site fires on exactly one thread.
class FaultInjector {
 public:
  explicit FaultInjector(std::uint64_t seed) : state_(seed ^ kGolden) {}

  /// Arms `site` to fire exactly once, after `countdown` more probes reach
  /// it (0 = the very next probe). Re-arming replaces the schedule.
  void Arm(FaultSite site, std::uint64_t countdown);

  /// Arms `site` to fire every `period`-th probe, forever (period >= 1).
  void ArmEvery(FaultSite site, std::uint64_t period);

  /// Disarms `site`.
  void Disarm(FaultSite site);

  /// True iff the site is armed and its schedule says "now". Advances the
  /// site's probe counter either way.
  bool ShouldFail(FaultSite site);

  /// Probes seen / faults fired at `site` so far (test assertions).
  std::uint64_t probes(FaultSite site) const {
    return slots_[Index(site)].probes.load(std::memory_order_relaxed);
  }
  std::uint64_t fired(FaultSite site) const {
    return slots_[Index(site)].fired.load(std::memory_order_relaxed);
  }

  /// Deterministically damages a serialized blob: flips one bit of one
  /// seeded byte. No-op on an empty blob.
  void CorruptBytes(std::string& bytes);

  /// Deterministically truncates a serialized blob to a seeded strictly
  /// shorter length. No-op on an empty blob.
  void TruncateBytes(std::string& bytes);

  /// Next value of the injector's own SplitMix64 stream (schedule jitter,
  /// corruption offsets).
  std::uint64_t NextRandom();

 private:
  static constexpr std::uint64_t kGolden = 0x9E3779B97F4A7C15ULL;

  struct Slot {
    /// Fast-path gate: unarmed probes take one relaxed load + one relaxed
    /// increment and never touch the mutex.
    std::atomic<bool> armed{false};
    bool periodic = false;
    std::uint64_t remaining = 0;  ///< probes until the next firing
    std::uint64_t period = 0;
    std::atomic<std::uint64_t> probes{0};
    std::atomic<std::uint64_t> fired{0};
  };

  static std::size_t Index(FaultSite site) {
    return static_cast<std::size_t>(site);
  }

  /// Guards schedule mutation (arming and countdown advance) and the
  /// SplitMix64 stream.
  std::mutex mu_;
  std::uint64_t state_;
  std::array<Slot, kFaultSiteCount> slots_;
};

/// The currently installed injector, or nullptr (the fast path).
FaultInjector* InstalledFaultInjector();

/// True iff an injector is installed and fires at `site` on this probe.
/// The one-liner every instrumented decision point calls.
inline bool FaultFires(FaultSite site) {
  FaultInjector* fi = InstalledFaultInjector();
  return fi != nullptr && fi->ShouldFail(site);
}

/// Installs `injector` for this scope (restores the previous one — usually
/// nullptr — on destruction). Non-copyable, non-movable; nest freely.
class ScopedFaultInjector {
 public:
  explicit ScopedFaultInjector(FaultInjector* injector);
  ~ScopedFaultInjector();

  ScopedFaultInjector(const ScopedFaultInjector&) = delete;
  ScopedFaultInjector& operator=(const ScopedFaultInjector&) = delete;

 private:
  FaultInjector* previous_;
};

}  // namespace ccfp

#endif  // CCFP_UTIL_FAULT_H_
