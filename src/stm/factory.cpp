#include "stm/factory.hpp"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <stdexcept>

#include "stm/cgl.hpp"
#include "stm/norec.hpp"
#include "stm/orec_eager_redo.hpp"
#include "stm/orec_eager_undo.hpp"
#include "stm/orec_lazy.hpp"
#include "stm/tml.hpp"

namespace votm::stm {

namespace {

std::atomic<std::uint64_t> g_orec_size_roundups{0};
std::atomic<std::uint64_t> g_orec_granularity_clamps{0};
std::atomic<std::uint64_t> g_cm_wait_clamps{0};
std::atomic<std::uint64_t> g_deadline_clamps{0};
std::atomic<std::uint64_t> g_watermark_clamps{0};
std::atomic<std::uint64_t> g_cm_policy_fallbacks{0};
std::atomic<std::uint64_t> g_cm_karma_clamps{0};
std::atomic<std::uint64_t> g_cm_window_clamps{0};

std::size_t round_up_pow2(std::size_t n) noexcept {
  if (n <= 1) return 1;
  // Highest settable bit without overflow: above it, clamp down instead
  // of wrapping to 0.
  constexpr std::size_t kTop = std::size_t{1}
                               << (sizeof(std::size_t) * 8 - 1);
  if (n > kTop) return kTop;
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

}  // namespace

OrecTableConfig sanitized_orec_table_config(const EngineConfig& config) {
  OrecTableConfig table;
  table.size = config.orec_table_size;
  table.granularity_shift = config.orec_granularity_shift;
  if (table.size == 0 || (table.size & (table.size - 1)) != 0) {
    const std::size_t rounded = round_up_pow2(table.size);
    g_orec_size_roundups.fetch_add(1, std::memory_order_relaxed);
    std::fprintf(stderr,
                 "votm: orec_table_size %zu is not a power of two; "
                 "rounded up to %zu\n",
                 table.size, rounded);
    table.size = rounded;
  }
  if (table.granularity_shift < OrecTableConfig::kMinGranularityShift ||
      table.granularity_shift > OrecTableConfig::kMaxGranularityShift) {
    const unsigned clamped =
        std::clamp(table.granularity_shift,
                   OrecTableConfig::kMinGranularityShift,
                   OrecTableConfig::kMaxGranularityShift);
    g_orec_granularity_clamps.fetch_add(1, std::memory_order_relaxed);
    std::fprintf(stderr,
                 "votm: orec_granularity_shift %u out of [3, 12]; "
                 "clamped to %u\n",
                 table.granularity_shift, clamped);
    table.granularity_shift = clamped;
  }
  return table;
}

std::uint32_t sanitized_cm_wait_spin_limit(std::int64_t requested) {
  if (requested >= static_cast<std::int64_t>(kCmWaitSpinsMin) &&
      requested <= static_cast<std::int64_t>(kCmWaitSpinsMax)) {
    return static_cast<std::uint32_t>(requested);
  }
  const std::uint32_t clamped =
      requested < static_cast<std::int64_t>(kCmWaitSpinsMin)
          ? kCmWaitSpinsMin
          : kCmWaitSpinsMax;
  g_cm_wait_clamps.fetch_add(1, std::memory_order_relaxed);
  std::fprintf(stderr,
               "votm: cm_wait_spin_limit %lld out of [%u, %u]; clamped "
               "to %u\n",
               static_cast<long long>(requested), kCmWaitSpinsMin,
               kCmWaitSpinsMax, clamped);
  return clamped;
}

CmPolicy sanitized_cm_policy(CmPolicy requested) {
  if (static_cast<std::uint8_t>(requested) < kCmPolicyCount) return requested;
  g_cm_policy_fallbacks.fetch_add(1, std::memory_order_relaxed);
  std::fprintf(stderr,
               "votm: cm_policy %u is not a known policy; falling back to "
               "abort_self\n",
               static_cast<unsigned>(requested));
  return CmPolicy::kAbortSelf;
}

std::uint64_t sanitized_cm_karma_cap(std::int64_t requested) {
  if (requested >= static_cast<std::int64_t>(kCmKarmaCapMin) &&
      static_cast<std::uint64_t>(requested) <= kCmKarmaCapMax) {
    return static_cast<std::uint64_t>(requested);
  }
  const std::uint64_t clamped =
      requested < static_cast<std::int64_t>(kCmKarmaCapMin) ? kCmKarmaCapMin
                                                            : kCmKarmaCapMax;
  g_cm_karma_clamps.fetch_add(1, std::memory_order_relaxed);
  std::fprintf(stderr,
               "votm: cm_karma_cap %lld out of [%llu, %llu]; clamped to "
               "%llu\n",
               static_cast<long long>(requested),
               static_cast<unsigned long long>(kCmKarmaCapMin),
               static_cast<unsigned long long>(kCmKarmaCapMax),
               static_cast<unsigned long long>(clamped));
  return clamped;
}

std::uint32_t sanitized_cm_window_size(std::int64_t requested) {
  if (requested >= static_cast<std::int64_t>(kCmWindowMin) &&
      requested <= static_cast<std::int64_t>(kCmWindowMax)) {
    return static_cast<std::uint32_t>(requested);
  }
  const std::uint32_t clamped =
      requested < static_cast<std::int64_t>(kCmWindowMin) ? kCmWindowMin
                                                          : kCmWindowMax;
  g_cm_window_clamps.fetch_add(1, std::memory_order_relaxed);
  std::fprintf(stderr,
               "votm: cm_window_size %lld out of [%u, %u]; clamped to %u\n",
               static_cast<long long>(requested), kCmWindowMin, kCmWindowMax,
               clamped);
  return clamped;
}

CmRuntime sanitized_cm_runtime(const EngineConfig& config) {
  CmRuntime cm;
  cm.mode = config.contention_mode;
  cm.wait_spins = sanitized_cm_wait_spin_limit(config.cm_wait_spin_limit);
  cm.policy = sanitized_cm_policy(config.cm_policy);
  cm.karma_cap = sanitized_cm_karma_cap(config.cm_karma_cap);
  cm.window_size = sanitized_cm_window_size(config.cm_window_size);
  return cm;
}

std::int64_t sanitized_tx_deadline_ns(std::int64_t requested) {
  if (requested >= 0) return requested;
  g_deadline_clamps.fetch_add(1, std::memory_order_relaxed);
  std::fprintf(stderr,
               "votm: tx_deadline_ns %lld is negative; deadline disabled\n",
               static_cast<long long>(requested));
  return 0;
}

std::size_t sanitized_limbo_hard_watermark(std::size_t soft,
                                           std::size_t hard) {
  // Both enabled with hard < soft would shed quota before a reclaim pass
  // ever ran; raise the hard mark so soft always triggers first.
  if (soft == 0 || hard == 0 || hard >= soft) return hard;
  g_watermark_clamps.fetch_add(1, std::memory_order_relaxed);
  std::fprintf(stderr,
               "votm: limbo_hard_watermark %zu below soft watermark %zu; "
               "raised to %zu\n",
               hard, soft, soft);
  return soft;
}

FactoryStats factory_stats() noexcept {
  return FactoryStats{
      g_orec_size_roundups.load(std::memory_order_relaxed),
      g_orec_granularity_clamps.load(std::memory_order_relaxed),
      g_cm_wait_clamps.load(std::memory_order_relaxed),
      g_deadline_clamps.load(std::memory_order_relaxed),
      g_watermark_clamps.load(std::memory_order_relaxed),
      g_cm_policy_fallbacks.load(std::memory_order_relaxed),
      g_cm_karma_clamps.load(std::memory_order_relaxed),
      g_cm_window_clamps.load(std::memory_order_relaxed),
  };
}

std::unique_ptr<TxEngine> make_engine(Algo algo, const EngineConfig& config) {
  switch (algo) {
    case Algo::kNOrec:
      return std::make_unique<NOrecEngine>(sanitized_cm_runtime(config));
    case Algo::kOrecEagerRedo:
      return std::make_unique<OrecEagerRedoEngine>(
          sanitized_orec_table_config(config), config.clock_policy,
          sanitized_cm_runtime(config));
    case Algo::kOrecLazy:
      return std::make_unique<OrecLazyEngine>(
          sanitized_orec_table_config(config), config.clock_policy,
          sanitized_cm_runtime(config));
    case Algo::kOrecEagerUndo:
      return std::make_unique<OrecEagerUndoEngine>(
          sanitized_orec_table_config(config), config.clock_policy,
          sanitized_cm_runtime(config));
    case Algo::kTml:
      return std::make_unique<TmlEngine>();
    case Algo::kCgl:
      return std::make_unique<CglEngine>();
  }
  throw std::invalid_argument("unknown STM algorithm");
}

Algo algo_from_string(const std::string& name) {
  std::string lower(name.size(), '\0');
  std::transform(name.begin(), name.end(), lower.begin(),
                 [](unsigned char c) { return static_cast<char>(std::tolower(c)); });
  if (lower == "norec") return Algo::kNOrec;
  if (lower == "oer" || lower == "oreceagerredo") return Algo::kOrecEagerRedo;
  if (lower == "lazy" || lower == "oreclazy") return Algo::kOrecLazy;
  if (lower == "undo" || lower == "oreceagerundo") return Algo::kOrecEagerUndo;
  if (lower == "tml") return Algo::kTml;
  if (lower == "cgl" || lower == "lock") return Algo::kCgl;
  throw std::invalid_argument("unknown STM algorithm: " + name);
}

const char* to_string(Algo algo) noexcept {
  switch (algo) {
    case Algo::kNOrec:
      return "NOrec";
    case Algo::kOrecEagerRedo:
      return "OrecEagerRedo";
    case Algo::kOrecLazy:
      return "OrecLazy";
    case Algo::kOrecEagerUndo:
      return "OrecEagerUndo";
    case Algo::kTml:
      return "TML";
    case Algo::kCgl:
      return "CGL";
  }
  return "?";
}

}  // namespace votm::stm
