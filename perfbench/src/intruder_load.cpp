// Intruder workload: STAMP-style intruder with the packet queue and the
// reassembly dictionary in separate views, OrecEagerRedo, Q = (N, N) (the
// quotas the paper's Table VI settles on). Transactions touch a few to a
// few tens of words, so begin/commit/exit bookkeeping, the view arena and
// epoch/limbo reclaim dominate rather than the barriers.
//
// Setup generates kStreams streams of kFlowsPerStream flows (-a10 -l128,
// with -n at 1/16 of STAMP's 262144) and gives each stream its own range
// of flow ids. A pass queues the streams back to back, so the dictionary
// holds about one stream's flows at a time. The timed phase replays the
// pass: workers pop until the queue is empty, then meet at a barrier whose
// completion checks the pass and queues the next one, until the main
// thread asks them to stop. Every pass boundary waits for the slowest
// worker, so a pass holds all the streams rather than one: at one stream
// per pass those waits took 3-9% of the workers' time on a 4-vCPU Xeon VM.
#include <barrier>
#include <cstring>

#include "intruder/detector.hpp"
#include "intruder/dictionary.hpp"
#include "intruder/generator.hpp"
#include "intruder/tx_queue.hpp"
#include "util/rng.hpp"
#include "workload.hpp"

namespace perfbench {
namespace {

using votm::intruder::Detector;
using votm::intruder::GeneratedStream;
using votm::intruder::GeneratorConfig;
using votm::intruder::Packet;
using votm::intruder::TxDictionary;
using votm::intruder::TxQueue;
using votm::stm::Word;

constexpr std::uint64_t kFlowsPerStream = 16384;
constexpr unsigned kMaxFlowBytes = 128;
constexpr std::size_t kStreams = 4;
constexpr std::size_t kQueue = 0;
constexpr std::size_t kDict = 1;

class IntruderLoad final : public Workload {
 public:
  explicit IntruderLoad(std::uint64_t seed) {
    votm::SplitMix64 seeder(seed);
    std::size_t max_node_words = 0;
    for (std::size_t s = 0; s < kStreams; ++s) {
      GeneratorConfig gen;
      gen.attack_percent = 10;
      gen.max_length = kMaxFlowBytes;
      gen.num_flows = kFlowsPerStream;
      gen.seed = seeder.next();
      GeneratedStream stream = votm::intruder::generate_stream(gen, detector_);
      std::size_t node_words = 0;
      for (const auto& p : stream.packets) {
        p->flow_id += s * kFlowsPerStream;
        if (p->fragment_id == 0) node_words += 4 + p->num_fragments;
      }
      for (const Packet* p : stream.shuffled) {
        arrivals_.push_back(reinterpret_cast<Word>(p));
      }
      max_node_words = std::max(max_node_words, node_words);
      pass_flows_expected_ += stream.flows.size();
      pass_attacks_expected_ += stream.attack_flows;
      streams_.push_back(std::move(stream));
    }

    // Arena sizes as IntruderWorld computes them: queue slots and
    // counters; dictionary buckets plus one node per resident flow, where
    // two adjacent streams can overlap at their boundary.
    const std::size_t buckets = 2 * kFlowsPerStream;
    queue_view_ = make_view(2 * arrivals_.size() + 16);
    dict_view_ = make_view(buckets + 2 * max_node_words);
    queue_ = std::make_unique<TxQueue>(*queue_view_, arrivals_.size() + 1);
    dict_ = std::make_unique<TxDictionary>(*dict_view_, buckets);
    queue_->prefill(arrivals_);
  }

  std::array<const char*, kOpTypes> op_types() const override {
    return {"queue", "dict"};
  }
  votm::core::View& view(std::size_t type) override {
    return type == kQueue ? *queue_view_ : *dict_view_;
  }

  void work(WorkerLog& log, bool traced,
            const std::atomic<bool>& stop) override {
    // A flow has at most max(length, longest signature) fragments.
    std::vector<const Packet*> fragments(kMaxFlowBytes + 64);
    std::vector<std::uint8_t> assembled;
    Tally tally;
    for (;;) {
      const std::int64_t start = now_ns();
      bool drained = false;
      try {
        drained = traced ? !traced_op(log, fragments, assembled, tally)
                         : !plain_op(log, fragments, assembled, tally);
      } catch (const std::exception& e) {
        if (log.failed++ == 0) log.error = e.what();
        continue;
      }
      if (drained) {
        // One empty pop per worker per pass: publish this pass's tally and
        // meet the others at the pass boundary.
        publish(tally, stop);
        pass_end_.arrive_and_wait();
        if (done_) break;
        continue;
      }
      log.complete_op(now_ns() - start);
    }
  }

  void check(Checks& checks) override {
    checks.expect(passes_ > 0, "no pass completed");
    checks.expect(bad_passes_ == 0,
                  std::to_string(bad_passes_) + " of " +
                      std::to_string(passes_) +
                      " passes lost packets, flows or attacks");
    checks.expect(dict_->resident_flows() == 0,
                  "dictionary holds flows at the end");
  }

  void layer_metrics(const std::vector<WorkerLog>& traced,
                     std::map<std::string, double>& out) override {
    LayerTotals queue, dict;
    std::uint64_t scans = 0, scan_ns = 0;
    for (const WorkerLog& log : traced) {
      queue.merge(log.layers[kQueue]);
      dict.merge(log.layers[kDict]);
      scans += log.outside_calls;
      scan_ns += log.outside_ns;
    }
    out["intruder.pop_ns"] = ratio(queue.call_ns, queue.calls);
    out["intruder.insert_ns"] = ratio(dict.call_ns, dict.calls);
    out["intruder.scan_ns"] = ratio(scan_ns, scans);
    const votm::stm::ReclaimStats rs = dict_view_->reclaim_stats();
    out["stm.reclaim_passes.dict"] = static_cast<double>(rs.passes);
    out["stm.limbo_depth_hwm.dict"] = static_cast<double>(rs.depth_hwm);
  }

  void describe(JsonObject& meta) const override {
    std::vector<std::uint64_t> packets, attacks;
    for (const GeneratedStream& s : streams_) {
      packets.push_back(s.shuffled.size());
      attacks.push_back(s.attack_flows);
    }
    meta.add("flows_per_stream", kFlowsPerStream);
    meta.add_array("packets_per_stream", packets);
    meta.add_array("attack_flows_per_stream", attacks);
    meta.add("passes", passes_);
  }

 private:
  // One worker's counts within the current pass.
  struct Tally {
    std::uint64_t packets = 0, flows = 0, attacks = 0;
  };

  // Runs each pass boundary on exactly one thread, before any is released.
  struct PassEnd {
    IntruderLoad* self;
    void operator()() noexcept { self->end_pass(); }
  };

  static std::unique_ptr<votm::core::View> make_view(std::size_t words) {
    votm::core::ViewConfig vc;
    vc.algo = votm::stm::Algo::kOrecEagerRedo;
    vc.max_threads = kWorkers;
    vc.rac = votm::core::RacMode::kFixed;
    vc.fixed_quota = kWorkers;
    vc.initial_bytes = words * sizeof(Word) * 2 + (1u << 16);
    return std::make_unique<votm::core::View>(vc);
  }

  void publish(Tally& tally, const std::atomic<bool>& stop) {
    pass_packets_.fetch_add(tally.packets, std::memory_order_relaxed);
    pass_flows_.fetch_add(tally.flows, std::memory_order_relaxed);
    pass_attacks_.fetch_add(tally.attacks, std::memory_order_relaxed);
    if (stop.load(std::memory_order_relaxed)) {
      stop_seen_.store(true, std::memory_order_relaxed);
    }
    tally = Tally{};
  }

  // Checks the pass that just ended, queues the next one and decides for
  // every worker at once whether the timed phase is over.
  void end_pass() noexcept {
    ++passes_;
    const std::uint64_t packets = pass_packets_.exchange(0);
    const std::uint64_t flows = pass_flows_.exchange(0);
    const std::uint64_t attacks = pass_attacks_.exchange(0);
    if (packets != arrivals_.size() || flows != pass_flows_expected_ ||
        attacks != pass_attacks_expected_ || dict_->resident_flows() != 0) {
      ++bad_passes_;
    }
    try {
      queue_->prefill(arrivals_);
    } catch (const std::exception&) {
      ++bad_passes_;
      stop_seen_.store(true);
    }
    done_ = stop_seen_.exchange(false);
  }

  // Pop and insert through plain View::execute calls; returns false once
  // the queue is empty.
  bool plain_op(WorkerLog& log, std::vector<const Packet*>& fragments,
                std::vector<std::uint8_t>& assembled, Tally& tally) {
    const Packet* packet = nullptr;
    queue_view_->execute(
        [&] { packet = reinterpret_cast<const Packet*>(queue_->pop()); });
    ++log.view_tx[kQueue];
    if (packet == nullptr) return false;
    unsigned n = 0;
    dict_view_->execute([&] {
      n = dict_->insert(packet, fragments.data(),
                        static_cast<unsigned>(fragments.size()));
    });
    ++log.view_tx[kDict];
    ++tally.packets;
    if (n != 0) scan(fragments, n, assembled, tally);
    return true;
  }

  bool traced_op(WorkerLog& log, std::vector<const Packet*>& fragments,
                 std::vector<std::uint8_t>& assembled, Tally& tally) {
    log.begin_traced_op();
    const std::uint32_t op_span = log.spans.open("op.packet", 0, now_ns());
    const Packet* packet = nullptr;
    {
      ExecuteStamps q(log.layers[kQueue], log.spans, "view.queue", op_span);
      queue_view_->execute([&] {
        q.begin_attempt();
        AttemptGuard guard(q);
        const std::int64_t t = now_ns();
        packet = reinterpret_cast<const Packet*>(queue_->pop());
        q.add_call(t, now_ns(), "intruder.pop");
      });
      q.finish();
    }
    ++log.view_tx[kQueue];
    if (packet != nullptr) {
      unsigned n = 0;
      ExecuteStamps d(log.layers[kDict], log.spans, "view.dict", op_span);
      dict_view_->execute([&] {
        d.begin_attempt();
        AttemptGuard guard(d);
        const std::int64_t t = now_ns();
        n = dict_->insert(packet, fragments.data(),
                          static_cast<unsigned>(fragments.size()));
        d.add_call(t, now_ns(), "intruder.insert");
      });
      d.finish();
      ++log.view_tx[kDict];
      ++tally.packets;
      if (n != 0) {
        const std::int64_t t = now_ns();
        scan(fragments, n, assembled, tally);
        const std::int64_t end = now_ns();
        ++log.outside_calls;
        log.outside_ns += static_cast<std::uint64_t>(end - t);
        log.spans.add("intruder.scan", op_span, t, end);
      }
    }
    log.spans.close(op_span, now_ns());
    log.spans.end_op();
    return packet != nullptr;
  }

  // Outside any transaction: reassemble the completed flow (payloads are
  // immutable) and scan it for attack signatures.
  void scan(const std::vector<const Packet*>& fragments, unsigned n,
            std::vector<std::uint8_t>& assembled, Tally& tally) const {
    std::size_t bytes = 0;
    for (unsigned i = 0; i < n; ++i) bytes += fragments[i]->payload.size();
    assembled.resize(bytes);
    for (unsigned i = 0; i < n; ++i) {
      const Packet& f = *fragments[i];
      std::memcpy(assembled.data() + f.offset, f.payload.data(),
                  f.payload.size());
    }
    ++tally.flows;
    if (detector_.scan(assembled.data(), assembled.size())) ++tally.attacks;
  }

  Detector detector_;
  std::vector<GeneratedStream> streams_;
  std::vector<Word> arrivals_;  // one pass's packet pointers, queue order
  std::uint64_t pass_flows_expected_ = 0;
  std::uint64_t pass_attacks_expected_ = 0;
  std::unique_ptr<votm::core::View> queue_view_;
  std::unique_ptr<votm::core::View> dict_view_;
  std::unique_ptr<TxQueue> queue_;
  std::unique_ptr<TxDictionary> dict_;

  // Pass-boundary state. The barrier completion writes done_ and the pass
  // counters while every worker waits, and workers read done_ only after
  // the barrier released them.
  std::barrier<PassEnd> pass_end_{kWorkers, PassEnd{this}};
  std::atomic<std::uint64_t> pass_packets_{0};
  std::atomic<std::uint64_t> pass_flows_{0};
  std::atomic<std::uint64_t> pass_attacks_{0};
  std::atomic<bool> stop_seen_{false};
  bool done_ = false;
  std::uint64_t passes_ = 0;
  std::uint64_t bad_passes_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_intruder(std::uint64_t seed) {
  return std::make_unique<IntruderLoad>(seed);
}

}  // namespace perfbench
