#include "stm/engine.hpp"

#include <stdexcept>

#include "check/sched_point.hpp"
#include "stm/abort.hpp"

namespace votm::stm {

const char* to_string(ConflictKind kind) noexcept {
  switch (kind) {
    case ConflictKind::kReadLocked:
      return "read-locked";
    case ConflictKind::kWriteLocked:
      return "write-locked";
    case ConflictKind::kValidationFail:
      return "validation-fail";
    case ConflictKind::kCommitFail:
      return "commit-fail";
    case ConflictKind::kExplicit:
      return "explicit";
    case ConflictKind::kDeadline:
      return "deadline";
    case ConflictKind::kCmYield:
      return "cm-yield";
  }
  return "unknown";
}

void TxThread::conflict(ConflictKind kind) {
  // Roll back engine state (release encounter-time locks etc.), account the
  // wasted cycles, notify the admission layer, then transfer control.
  engine->rollback(*this);
  clear_logs();
  last_tx_cycles = collect_cycles ? tx_elapsed_cycles(*this) : 0;
  if (stats != nullptr) {
    stats->add_abort(last_tx_cycles);
  }
  end_common(*this);
  ++consecutive_aborts;
  // Karma (DESIGN.md §20): work thrown away is priority earned. The +1
  // keeps the rank moving when cycle collection is off; under the
  // cooperative harness the cycle counts are wall-clock noise that would
  // make schedule replay diverge, so only the deterministic +1 counts.
  cm.karma += votm::check::thread_intercepted()
                  ? 1
                  : last_tx_cycles + 1;
  if (on_rollback != nullptr) {
    on_rollback(*this);
  }
  if (abort_mode == AbortMode::kLongjmp) {
    std::longjmp(*checkpoint, 1);
  }
  throw TxConflict{kind};
}

void TxThread::misuse(const char* what) {
  engine->rollback(*this);
  clear_logs();
  end_common(*this);
  cm.end_run();  // the run dies here; its priority must not leak
  if (on_misuse != nullptr) {
    on_misuse(*this);
  } else if (on_rollback != nullptr) {
    on_rollback(*this);
  }
  throw std::logic_error(what);
}

}  // namespace votm::stm
