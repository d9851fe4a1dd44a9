// Canned multi-threaded scenarios for votm-check.
//
// A Scenario owns everything one run needs (fresh engine/view/controller
// state per run, a deterministic workload derived from a fixed seed) and
// knows how to judge the run afterwards (opacity oracle, admission
// invariants, stats conservation). The exploration driver (explore.hpp)
// calls run_once() with different schedule options — random seeds, PCT
// priorities, replay prefixes — and every run of a scenario executes the
// identical logical workload, so a failing schedule is a complete
// reproducer on its own.
#pragma once

#include "check/scheduler.hpp"

#if defined(VOTM_SCHED_POINTS) && VOTM_SCHED_POINTS

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "check/oracle.hpp"
#include "stm/factory.hpp"

namespace votm::check {

class Scenario {
 public:
  struct Outcome {
    SchedResult sched;
    std::optional<Violation> violation;
  };

  virtual ~Scenario() = default;
  virtual std::string name() const = 0;
  virtual Outcome run_once(const SchedOptions& opts) = 0;
};

// Random mixed read/write transactions over a small word array, run
// directly on one engine instance; checked with the opacity oracle.
struct StmRandomConfig {
  stm::Algo algo = stm::Algo::kNOrec;
  unsigned threads = 2;
  unsigned vars = 4;
  unsigned txs_per_thread = 2;
  unsigned ops_per_tx = 3;
  unsigned write_pct = 50;
  // Probability (percent) that an op re-touches the PREVIOUS op's variable
  // instead of drawing a fresh one. Nonzero values drive the duplicate
  // paths — the adjacent-read collapse of the orec and value read logs —
  // under schedule exploration. 0 keeps the legacy op stream.
  unsigned reread_pct = 0;
  // Version-clock policy for the orec engines (stm/clock.hpp); ignored by
  // NOrec/TML/CGL. Named in the scenario string when not GV1, so repro
  // lines stay complete.
  stm::ClockPolicy clock_policy = stm::ClockPolicy::kGv1;
  // Orec-table granularity (orec engines; ignored elsewhere). Coarse
  // granularity makes distinct variables share stripes, so the explored
  // conflict graph changes shape — named in the scenario string when
  // non-default, like the clock policy.
  unsigned orec_granularity_shift = stm::OrecTable::kDefaultGranularityShift;
  // Wait-based contention management (stm/contention.hpp). Under the
  // cooperative harness the wait is kCmWaitCoopBound yield points, so the
  // explored state machine gains park/re-check interleavings while staying
  // finite. Named "+wait" in the scenario string. The max_attempts loop
  // doubles as the starvation-freedom oracle: a wait-CM deadlock or
  // unbounded park would exhaust it and surface as a livelock-guard
  // failure instead of hanging the exploration.
  stm::ContentionMode contention_mode = stm::ContentionMode::kAbortRetry;
  // Victim-choice policy (stm/cm_policy.hpp, DESIGN.md §20). Non-default
  // policies add the priority-table publish/read/yield interleavings to the
  // explored state machine; the opacity oracle must stay clean under every
  // one of them (victim choice decides WHO retries, never what a committed
  // history may read). Named "+<policy>" in the scenario string.
  stm::CmPolicy cm_policy = stm::CmPolicy::kAbortSelf;
  std::uint64_t workload_seed = 42;
  unsigned max_attempts = 256;  // per transaction; livelock guard
};

class StmRandomScenario final : public Scenario {
 public:
  explicit StmRandomScenario(StmRandomConfig cfg) : cfg_(cfg) {}
  std::string name() const override;
  Outcome run_once(const SchedOptions& opts) override;

 private:
  StmRandomConfig cfg_;
};

// The classic snapshot-consistency shape: thread 0 repeatedly reads every
// variable in one read-only transaction while the other threads write ALL
// variables to a fresh unique value per transaction. Any torn snapshot —
// e.g. NOrec skipping revalidation between two reads — is an immediate
// opacity violation.
struct StmSnapshotConfig {
  stm::Algo algo = stm::Algo::kNOrec;
  unsigned writers = 1;
  unsigned vars = 2;
  unsigned reads_per_reader = 2;   // read-only transactions by thread 0
  unsigned txs_per_writer = 2;
  stm::ClockPolicy clock_policy = stm::ClockPolicy::kGv1;
  // See StmRandomConfig — same knobs, same naming convention.
  unsigned orec_granularity_shift = stm::OrecTable::kDefaultGranularityShift;
  unsigned max_attempts = 256;
};

class StmSnapshotScenario final : public Scenario {
 public:
  explicit StmSnapshotScenario(StmSnapshotConfig cfg) : cfg_(cfg) {}
  std::string name() const override;
  Outcome run_once(const SchedOptions& opts) override;

 private:
  StmSnapshotConfig cfg_;
};

// Intruder's queue pop (intruder::TxQueue::pop) on one engine instance:
// read head through the read-for-write barrier, read tail, read the slot,
// write head + 1, over a prefilled ring, judged by the opacity oracle.
// Two pops on an encounter-time engine cover the first-touch wait (one pop
// parks on the other's head lock, DESIGN.md §22); it takes a third pop for
// a read of head that was never locked to become a double pop, which is
// what the kRfwSkipRevalidation mutation produces.
struct StmQueuePopConfig {
  stm::Algo algo = stm::Algo::kOrecEagerRedo;
  unsigned threads = 2;  // one pop each
  unsigned items = 4;    // prefilled; pops past this find the ring empty
  unsigned max_attempts = 256;
};

class StmQueuePopScenario final : public Scenario {
 public:
  explicit StmQueuePopScenario(StmQueuePopConfig cfg) : cfg_(cfg) {}
  std::string name() const override;
  Outcome run_once(const SchedOptions& opts) override;

 private:
  StmQueuePopConfig cfg_;
};

// Admission-controller churn: workers admit/leave (a deterministic mix of
// admit and try_admit) while a mutator thread walks a fixed program of
// set_quota / pause / resume steps. Checks, exactly at each grant (the
// cooperative scheduler makes the checks atomic with the grant):
//   * residents after the grant <= the quota snapshot the grant returned,
//   * a lock-mode grant (quota snapshot 1) admits an otherwise empty view,
//     and no transactional grant lands while a lock-mode holder is inside,
//   * pause() returns only with the view empty (slot ledgers drained),
//   * after the run: ledger conservation — admitted() == 0, all leaves
//     matched their admits.
struct AdmissionChurnStep {
  enum class Op : std::uint8_t { kSetQuota, kPause } op;
  unsigned quota = 0;  // kSetQuota argument
};

struct AdmissionChurnConfig {
  unsigned workers = 3;
  unsigned max_threads = 3;
  unsigned initial_quota = 3;
  unsigned rounds = 3;          // admissions per worker
  unsigned try_admit_every = 3; // every k-th round uses try_admit
  std::vector<AdmissionChurnStep> program;  // mutator steps, in order
};

// The default mutator program: open-mode close (set_quota away from N with
// residents inside, exercising DRAIN+RESIDUE), lock mode and back (drain
// protocols), and a pause/resume quiesce.
AdmissionChurnConfig default_admission_churn(unsigned workers);

class AdmissionChurnScenario final : public Scenario {
 public:
  explicit AdmissionChurnScenario(AdmissionChurnConfig cfg)
      : cfg_(std::move(cfg)) {}
  std::string name() const override;
  Outcome run_once(const SchedOptions& opts) override;

 private:
  AdmissionChurnConfig cfg_;
};

// Full View-layer scenario: threads increment a shared counter through
// View::execute under a fixed quota; thread 0 optionally throws a user
// exception out of some transactions. Oracles: the counter is exact, the
// view's epoch stats conserve events (commits == recorded commits, aborts
// == body attempts - commits — this is what catches an exception-path
// that forgets to account its abort), and the admission ledger drains to
// zero.
struct ViewStatsConfig {
  stm::Algo algo = stm::Algo::kNOrec;
  unsigned threads = 3;
  unsigned max_threads = 3;
  unsigned fixed_quota = 2;
  unsigned txs_per_thread = 3;
  // Thread 0 throws out of every k-th of its transactions (0 = never).
  // Keep 0 when fixed_quota == 1: CGL applies writes in place, so a
  // thrown-out-of lock-mode section keeps its increment (mutex semantics)
  // and the exact-counter oracle would need to model that.
  unsigned throw_every = 2;
};

class ViewStatsScenario final : public Scenario {
 public:
  explicit ViewStatsScenario(ViewStatsConfig cfg) : cfg_(cfg) {}
  std::string name() const override;
  Outcome run_once(const SchedOptions& opts) override;

 private:
  ViewStatsConfig cfg_;
};

// Lock mode under a moving quota (DESIGN.md §11). Lock mode takes no lock
// of its own: its exclusion rests on admission alone, since a grant whose
// quota snapshot is 1 admits nobody else. Workers increment one word
// through View::execute as vread, a schedule point, then vwrite — lock-mode
// accesses have no schedule points of their own, so without the explicit
// one a lost update could not show — while a mutator walks the quota
// through `quota_walk` from Q = workers. Oracles:
//   * the counter is exact;
//   * bodies count themselves in and out by mode: at most one lock-mode
//     body runs at a time, and no speculative body runs beside one;
//   * stats conservation and a drained admission ledger after the run.
// Under the kLockModeStaleQuota mutation (View::enter picks the mode from a
// fresh quota load) these oracles must fire.
struct LockModeConfig {
  stm::Algo algo = stm::Algo::kNOrec;  // a speculative engine
  unsigned workers = 3;                // also max_threads and the first Q
  unsigned txs_per_worker = 2;
  std::vector<unsigned> quota_walk = {1, 3, 1};  // the mutator's set_quota
};

class LockModeScenario final : public Scenario {
 public:
  explicit LockModeScenario(LockModeConfig cfg) : cfg_(std::move(cfg)) {}
  std::string name() const override;
  Outcome run_once(const SchedOptions& opts) override;

  // Whole-campaign count of lock-mode bodies (vacuity check: a campaign in
  // which no body ran in lock mode proved nothing).
  std::uint64_t lock_mode_bodies() const noexcept { return lock_bodies_; }

 private:
  LockModeConfig cfg_;
  std::uint64_t lock_bodies_ = 0;
};

// Grace-period reclamation race (DESIGN.md §17): thread 0 — the freer —
// repeatedly unlinks the head node of a shared list in view memory, frees
// it (commit-time retire through the epoch layer) and links a fresh
// replacement, all in one committing transaction, while reader threads
// walk the list. With reclaim_threshold = 1 every freer exit runs a
// reclaim pass, so the explorer interleaves doomed readers between the
// unlink commit, the era advance (kEpochAdvance) and the arena free.
// Oracles:
//   * every value a reader observes is one the workload ever wrote — a
//     block reclaimed under a live reader gets scribbled by the arena
//     free-list (or poisoned under ASan) and fails the range check;
//   * walks terminate within the structural bound (a reclaimed-and-reused
//     node would let the walk escape the list or cycle);
//   * after quiescence: one forced pass drains limbo completely, the
//     arena allocation level returns to the post-setup baseline, and
//     retired == reclaimed (no block leaks in limbo, none freed twice —
//     the arena magic check turns a double free into a worker exception).
struct ReclaimRaceConfig {
  stm::Algo algo = stm::Algo::kNOrec;
  unsigned readers = 2;      // threads 1..readers walk; thread 0 frees
  unsigned rounds = 3;       // unlink+free+relink transactions by thread 0
  unsigned reads_per_reader = 3;
  unsigned list_len = 3;     // nodes in the initial list
  stm::ClockPolicy clock_policy = stm::ClockPolicy::kGv1;
};

class ReclaimRaceScenario final : public Scenario {
 public:
  explicit ReclaimRaceScenario(ReclaimRaceConfig cfg) : cfg_(cfg) {}
  std::string name() const override;
  Outcome run_once(const SchedOptions& opts) override;

  // Whole-campaign: blocks that ever sat in limbo (vacuity check — a
  // campaign where nothing was retired proved nothing).
  std::uint64_t total_retired() const noexcept { return total_retired_; }

 private:
  ReclaimRaceConfig cfg_;
  std::uint64_t total_retired_ = 0;
};

// Escalation-ladder starvation scenario (DESIGN.md §14). Thread 0 — the
// victim — carries a marked commit-tail fault so every one of its ordinary
// commit attempts conflicts, while the peers run unfaulted. Without the
// ladder the victim starves forever; with it the serial rung must kick in.
// Oracles:
//   * starvation freedom: the victim's body runs at most serial_after + 1
//     times (serial_after losing attempts + one irrevocable commit). One
//     attempt past the bound disarms the fault and reports, so a broken
//     ladder fails loudly instead of hanging the exploration;
//   * serial mutual exclusion: the serial rung admits exactly the holder
//     (checked from inside the serial body), and no peer body runs while
//     another thread holds the token (checked from the peer bodies). The
//     drop_serial_token variant arms kSerialTokenDrop and EXPECTS these
//     oracles to fire — the mutation campaign's detectability proof;
//   * counter exactness, stats conservation and drained admission/serial
//     ledgers after the run.
struct EscalationScenarioConfig {
  stm::Algo algo = stm::Algo::kNOrec;
  unsigned threads = 2;      // thread 0 is the victim
  unsigned max_threads = 2;  // also the fixed quota: peers stay admitted
  std::uint64_t aging_after = 1;
  std::uint64_t serial_after = 3;
  unsigned peer_rounds = 4;  // transactions per peer (stop early when the
                             // victim finishes)
  bool drop_serial_token = false;  // arm the token-drop mutation
};

class EscalationScenario final : public Scenario {
 public:
  explicit EscalationScenario(EscalationScenarioConfig cfg) : cfg_(cfg) {}
  std::string name() const override;
  Outcome run_once(const SchedOptions& opts) override;

  // Whole-campaign sum of commit-tail fault triggers. Vacuity is a
  // campaign-level property, not a per-run one: on any engine a natural
  // conflict (e.g. TML read validation against a peer commit) can abort
  // the victim before it reaches the injected site, so individual runs may
  // legitimately escalate without the fault ever firing.
  std::uint64_t commit_tail_triggers() const noexcept {
    return commit_tail_triggers_;
  }

 private:
  EscalationScenarioConfig cfg_;
  std::uint64_t commit_tail_triggers_ = 0;
};

// Bounded-time transactions under schedule exploration (DESIGN.md §19).
// Thread 0 walks a fixed program of three deadline cases per round while
// peers run ordinary increments:
//   * expired entry — run_until with a deadline already in the past must
//     throw DeadlineExceeded without running the body, admitting, or
//     touching the serial token;
//   * escalation to serial — a pre-seeded abort streak >= serial_after
//     (with no deadline) must take the serial rung: the body observes
//     tx.serial and itself as the token holder, and no peer body runs
//     while any other thread holds the token (token visibility, like
//     EscalationScenario);
//   * expired entry WITH the streak pre-seeded — the deadline check
//     outranks escalation: DeadlineExceeded again, the serial token is
//     never acquired, and the streak is reset so the budget failure does
//     not leak an escalation into the thread's next run.
// End-of-run oracles: both counters exact, stats conservation (expired
// entries contribute neither commits nor aborts — the body never ran),
// admission ledger drained, serial token free. The deadline-expires-
// DURING-the-serial-drain release path is wall-clock timing and is pinned
// by the real-thread test in tests/test_deadline.cpp instead.
struct DeadlineScenarioConfig {
  stm::Algo algo = stm::Algo::kNOrec;
  unsigned threads = 2;      // thread 0 runs the deadline program
  unsigned max_threads = 2;  // fixed quota: peers stay admitted
  std::uint64_t serial_after = 2;
  unsigned rounds = 2;       // program repetitions by thread 0
  unsigned peer_rounds = 3;  // plain increments per peer
};

class DeadlineScenario final : public Scenario {
 public:
  explicit DeadlineScenario(DeadlineScenarioConfig cfg) : cfg_(cfg) {}
  std::string name() const override;
  Outcome run_once(const SchedOptions& opts) override;

 private:
  DeadlineScenarioConfig cfg_;
};

// Victim-choice fairness scenario (DESIGN.md §20). Thread 0 — the victim —
// blind-writes one hot word while peers blind-write the same word and then
// linger over pad reads, so (on the encounter-locking engines) the hot
// orec is foreign-locked for most of every peer transaction. A marked
// commit-tail fault with a FINITE budget seeds exactly seed_aborts losses
// into the victim, pumping its karma / aging its timestamp; after the
// budget drains, a working victim-choice policy must let the victim through:
//   * fairness bound: the victim's body runs at most seed_aborts + slack
//     times (the seeded losses, a handful of early-churn conflicts from
//     before its priority pulled ahead, and the final commit). One attempt
//     past the bound disarms the faults and reports, so a starved victim
//     fails loudly instead of burning the exploration budget;
//   * stats conservation and drained admission/serial ledgers, as usual.
// The bound is only armed for policies that CAN prioritize (kAbortSelf has
// nothing to defend — a blind abort-self victim legitimately loses every
// race the schedule lines up). NOrec holds the bound trivially: blind
// writers have no reads to invalidate and no orecs to collide on, so the
// victim commits on its first unfaulted attempt — the campaign still
// drives the pre-commit arbitration path. The `invert` variant arms the
// kCmVictimChoice mutation on the victim (its victim-choice decisions
// collapse to baseline abort-self) and EXPECTS the bound oracle to fire —
// the mutation campaign's detectability proof.
struct CmFairnessConfig {
  stm::Algo algo = stm::Algo::kOrecEagerRedo;
  stm::CmPolicy cm_policy = stm::CmPolicy::kKarma;
  unsigned peers = 2;
  unsigned peer_rounds = 6;     // transactions per peer (stop early when
                                // the victim finishes)
  unsigned peer_pad_reads = 2;  // pad reads AFTER the hot write: lengthens
                                // the peer's lock window on the hot orec
  std::uint64_t seed_aborts = 6;  // finite commit-tail fault budget
  // Extra attempts the bound tolerates beyond the seeded losses: early-tie
  // churn before the victim's priority pulls ahead, plus winner-waits that
  // time out at kCmWaitCoopBound coop yields when the scheduler starves
  // the lock owner. Sized empirically: the worst clean tail observed over
  // 300-schedule campaigns across all engines x policies is 23 attempts
  // (window_greedy on the encounter-locking engines), while the inverted
  // mutation reaches 60+ — the default bound of seed_aborts + 24 = 30
  // separates the two with margin on both sides.
  std::uint64_t slack = 24;
  bool invert = false;            // arm the priority-inversion mutation
};

class CmFairnessScenario final : public Scenario {
 public:
  explicit CmFairnessScenario(CmFairnessConfig cfg) : cfg_(cfg) {}
  std::string name() const override;
  Outcome run_once(const SchedOptions& opts) override;

  // Whole-campaign fault-trigger sums (vacuity checks; per-run counts may
  // legitimately be zero — a natural conflict can abort the victim before
  // the injected site, and the inversion site only evaluates when the
  // victim actually meets a foreign lock).
  std::uint64_t seed_triggers() const noexcept { return seed_triggers_; }
  std::uint64_t invert_triggers() const noexcept { return invert_triggers_; }
  // Worst victim-attempt count seen across the campaign — the empirical
  // margin between a passing bound and the observed tail (tuning + failure
  // diagnostics; explore reports only the first bound crossing).
  std::uint64_t max_victim_attempts() const noexcept {
    return max_victim_attempts_;
  }

 private:
  CmFairnessConfig cfg_;
  std::uint64_t seed_triggers_ = 0;
  std::uint64_t invert_triggers_ = 0;
  std::uint64_t max_victim_attempts_ = 0;
};

}  // namespace votm::check

#endif  // VOTM_SCHED_POINTS
