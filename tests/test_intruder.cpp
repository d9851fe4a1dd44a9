// Tests of the Intruder substrate: detector correctness, generator
// round-trip properties, the transactional queue and dictionary, and the
// end-to-end pipeline invariants (every flow reassembled byte-exactly,
// every injected attack detected, nothing else flagged).
#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <thread>

#include "intruder/intruder.hpp"

namespace votm::intruder {
namespace {

// ---------------- Detector -------------------------------------------------

TEST(DetectorTest, FindsSignatureAnywhere) {
  Detector det;
  const std::string& sig = det.signatures()[0];
  for (std::size_t pad_front : {0u, 1u, 7u, 100u}) {
    std::string hay(pad_front, 'x');
    hay += sig;
    hay += std::string(13, 'y');
    EXPECT_TRUE(det.scan(reinterpret_cast<const std::uint8_t*>(hay.data()),
                         hay.size()))
        << "pad " << pad_front;
  }
}

TEST(DetectorTest, CleanPayloadNotFlagged) {
  Detector det;
  std::string hay(500, 'a');
  for (std::size_t i = 0; i < hay.size(); ++i) {
    hay[i] = static_cast<char>('a' + i % 26);
  }
  EXPECT_FALSE(det.scan(reinterpret_cast<const std::uint8_t*>(hay.data()),
                        hay.size()));
}

TEST(DetectorTest, ShortPayloadHandled) {
  Detector det;
  const std::uint8_t byte = 'q';
  EXPECT_FALSE(det.scan(&byte, 1));
  EXPECT_FALSE(det.scan(&byte, 0));
}

TEST(DetectorTest, AllDefaultSignaturesDetectable) {
  Detector det;
  for (const std::string& sig : det.signatures()) {
    std::string hay = "prefix" + sig + "suffix";
    EXPECT_TRUE(det.scan(reinterpret_cast<const std::uint8_t*>(hay.data()),
                         hay.size()))
        << sig;
  }
}

TEST(DetectorTest, SignaturesContainNonLowercaseByte) {
  // The generator fills non-attack flows with bytes in [a-z]; every default
  // signature must contain at least one byte outside that range so clean
  // flows can never be flagged.
  for (const std::string& sig : Detector::default_signatures()) {
    bool has_non_lower = false;
    for (char ch : sig) has_non_lower |= (ch < 'a' || ch > 'z');
    EXPECT_TRUE(has_non_lower) << sig;
  }
}

// ---------------- Generator ------------------------------------------------

GeneratorConfig small_gen(std::uint64_t flows = 200, std::uint64_t seed = 1) {
  GeneratorConfig g;
  g.num_flows = flows;
  g.max_length = 64;
  g.attack_percent = 10;
  g.seed = seed;
  return g;
}

TEST(GeneratorTest, FragmentsReassembleToOriginal) {
  Detector det;
  const GeneratedStream s = generate_stream(small_gen(), det);
  // Group fragments per flow and rebuild.
  std::map<std::uint64_t, std::vector<const Packet*>> by_flow;
  for (const auto& p : s.packets) by_flow[p->flow_id].push_back(p.get());
  ASSERT_EQ(by_flow.size(), s.flows.size());
  for (const Flow& flow : s.flows) {
    auto& frags = by_flow[flow.id];
    std::vector<std::uint8_t> rebuilt(flow.data.size(), 0);
    std::size_t bytes = 0;
    for (const Packet* p : frags) {
      ASSERT_LE(p->offset + p->payload.size(), rebuilt.size());
      std::memcpy(rebuilt.data() + p->offset, p->payload.data(),
                  p->payload.size());
      bytes += p->payload.size();
      EXPECT_EQ(p->num_fragments, frags.size());
    }
    EXPECT_EQ(bytes, flow.data.size());
    EXPECT_EQ(rebuilt, flow.data);
  }
}

TEST(GeneratorTest, AttackRateApproximatesParameter) {
  Detector det;
  const GeneratedStream s = generate_stream(small_gen(5000, 3), det);
  EXPECT_NEAR(static_cast<double>(s.attack_flows), 500.0, 120.0);
  // Every attack flow actually contains a signature; no clean flow does.
  for (const Flow& f : s.flows) {
    EXPECT_EQ(det.scan(f.data.data(), f.data.size()), f.is_attack) << f.id;
  }
}

TEST(GeneratorTest, DeterministicForSeed) {
  Detector det;
  const GeneratedStream a = generate_stream(small_gen(100, 9), det);
  const GeneratedStream b = generate_stream(small_gen(100, 9), det);
  ASSERT_EQ(a.packets.size(), b.packets.size());
  for (std::size_t i = 0; i < a.shuffled.size(); ++i) {
    EXPECT_EQ(a.shuffled[i]->flow_id, b.shuffled[i]->flow_id);
    EXPECT_EQ(a.shuffled[i]->fragment_id, b.shuffled[i]->fragment_id);
    EXPECT_EQ(a.shuffled[i]->payload, b.shuffled[i]->payload);
  }
}

TEST(GeneratorTest, FragmentSizesRespectBound) {
  Detector det;
  GeneratorConfig g = small_gen(300, 5);
  g.max_fragment_bytes = 8;
  const GeneratedStream s = generate_stream(g, det);
  for (const auto& p : s.packets) {
    EXPECT_GE(p->payload.size(), 1u);
    EXPECT_LE(p->payload.size(), 8u);
  }
}

// ---------------- TxQueue ---------------------------------------------------

core::ViewConfig queue_view_config() {
  core::ViewConfig vc;
  vc.algo = stm::Algo::kNOrec;
  vc.max_threads = 8;
  vc.rac = core::RacMode::kDisabled;
  vc.initial_bytes = 1 << 20;
  return vc;
}

TEST(TxQueueTest, FifoOrderSingleThread) {
  core::View view(queue_view_config());
  TxQueue q(view, 64);
  view.execute([&] {
    for (stm::Word v = 1; v <= 10; ++v) EXPECT_TRUE(q.push(v));
  });
  view.execute([&] {
    for (stm::Word v = 1; v <= 10; ++v) EXPECT_EQ(q.pop(), v);
    EXPECT_EQ(q.pop(), 0u);  // empty
  });
}

TEST(TxQueueTest, FullQueueRejectsPush) {
  core::View view(queue_view_config());
  TxQueue q(view, 4);  // rounds to 4
  view.execute([&] {
    for (stm::Word v = 1; v <= q.capacity(); ++v) EXPECT_TRUE(q.push(v));
    EXPECT_FALSE(q.push(999));
  });
}

// Every engine, admitted at Q = N, so transactional pops really overlap:
// on the encounter-time engines they race through pop's read-for-write
// barrier and its first-touch wait.
class TxQueueDrainTest : public ::testing::TestWithParam<stm::Algo> {};

TEST_P(TxQueueDrainTest, PrefillThenConcurrentDrainPopsEachElementOnce) {
  constexpr unsigned kThreads = 6;
  core::ViewConfig vc = queue_view_config();
  vc.algo = GetParam();
  vc.max_threads = kThreads;
  vc.rac = core::RacMode::kFixed;
  vc.fixed_quota = kThreads;
  core::View view(vc);
  constexpr std::size_t kItems = 2000;
  TxQueue q(view, kItems);
  std::vector<stm::Word> values;
  for (std::size_t i = 1; i <= kItems; ++i) values.push_back(i);
  q.prefill(values);

  std::vector<std::vector<stm::Word>> popped(kThreads);
  std::vector<std::thread> pool;
  for (unsigned t = 0; t < kThreads; ++t) {
    pool.emplace_back([&, t] {
      for (;;) {
        stm::Word v = 0;
        view.execute([&] { v = q.pop(); });
        if (v == 0) break;
        popped[t].push_back(v);
      }
    });
  }
  for (auto& th : pool) th.join();

  std::vector<bool> seen(kItems + 1, false);
  std::size_t total = 0;
  for (const auto& vec : popped) {
    for (stm::Word v : vec) {
      ASSERT_LE(v, kItems);
      EXPECT_FALSE(seen[v]) << "duplicate pop of " << v;
      seen[v] = true;
      ++total;
    }
  }
  EXPECT_EQ(total, kItems);
}

INSTANTIATE_TEST_SUITE_P(AllAlgorithms, TxQueueDrainTest,
                         ::testing::Values(stm::Algo::kNOrec,
                                           stm::Algo::kOrecEagerRedo,
                                           stm::Algo::kOrecLazy,
                                           stm::Algo::kOrecEagerUndo,
                                           stm::Algo::kTml, stm::Algo::kCgl),
                         [](const auto& info) {
                           return stm::to_string(info.param);
                         });

TEST(TxQueueTest, WrapsAroundTheRing) {
  core::View view(queue_view_config());
  TxQueue q(view, 8);
  // Push/pop more than the capacity so indices wrap.
  view.execute([&] {
    for (stm::Word v = 1; v <= 50; ++v) {
      ASSERT_TRUE(q.push(v));
      ASSERT_EQ(q.pop(), v);
    }
    EXPECT_EQ(q.size(), 0u);
  });
}

// ---------------- TxDictionary ----------------------------------------------

TEST(TxDictionaryTest, SingleFlowCompletes) {
  core::View view(queue_view_config());
  TxDictionary dict(view, 16);
  Packet p1{.flow_id = 7, .fragment_id = 0, .num_fragments = 2, .offset = 0,
            .payload = {'a', 'b'}};
  Packet p2{.flow_id = 7, .fragment_id = 1, .num_fragments = 2, .offset = 2,
            .payload = {'c'}};
  const Packet* out[4] = {};
  unsigned n = 99;
  view.execute([&] { n = dict.insert(&p1, out, 4); });
  EXPECT_EQ(n, 0u);
  view.execute([&] { n = dict.insert(&p2, out, 4); });
  ASSERT_EQ(n, 2u);
  EXPECT_EQ(out[0], &p1);  // ordered by fragment_id
  EXPECT_EQ(out[1], &p2);
  view.execute([&] { EXPECT_EQ(dict.resident_flows(), 0u); });
}

TEST(TxDictionaryTest, OutOfOrderFragments) {
  core::View view(queue_view_config());
  TxDictionary dict(view, 16);
  Packet frags[3];
  for (std::uint32_t i = 0; i < 3; ++i) {
    frags[i] = Packet{.flow_id = 1, .fragment_id = i, .num_fragments = 3,
                      .offset = i, .payload = {static_cast<std::uint8_t>(i)}};
  }
  const Packet* out[4] = {};
  unsigned n = 0;
  view.execute([&] { n = dict.insert(&frags[2], out, 4); });
  EXPECT_EQ(n, 0u);
  view.execute([&] { n = dict.insert(&frags[0], out, 4); });
  EXPECT_EQ(n, 0u);
  view.execute([&] { n = dict.insert(&frags[1], out, 4); });
  ASSERT_EQ(n, 3u);
  for (std::uint32_t i = 0; i < 3; ++i) EXPECT_EQ(out[i], &frags[i]);
}

TEST(TxDictionaryTest, ManyFlowsShareBucketsViaChaining) {
  core::View view(queue_view_config());
  TxDictionary dict(view, 4);  // tiny bucket array forces chains
  constexpr std::uint64_t kFlows = 64;
  std::vector<Packet> packets;
  packets.reserve(kFlows);
  for (std::uint64_t f = 0; f < kFlows; ++f) {
    packets.push_back(Packet{.flow_id = f, .fragment_id = 0, .num_fragments = 2,
                             .offset = 0, .payload = {1}});
  }
  const Packet* out[4] = {};
  for (auto& p : packets) {
    view.execute([&] { EXPECT_EQ(dict.insert(&p, out, 4), 0u); });
  }
  view.execute([&] { EXPECT_EQ(dict.resident_flows(), kFlows); });
  // Complete them all.
  std::vector<Packet> second;
  second.reserve(kFlows);
  for (std::uint64_t f = 0; f < kFlows; ++f) {
    second.push_back(Packet{.flow_id = f, .fragment_id = 1, .num_fragments = 2,
                            .offset = 1, .payload = {2}});
  }
  for (auto& p : second) {
    unsigned n = 0;
    view.execute([&] { n = dict.insert(&p, out, 4); });
    EXPECT_EQ(n, 2u);
  }
  view.execute([&] { EXPECT_EQ(dict.resident_flows(), 0u); });
}

TEST(TxDictionaryTest, DuplicateFragmentRejected) {
  core::View view(queue_view_config());
  TxDictionary dict(view, 16);
  Packet p{.flow_id = 1, .fragment_id = 0, .num_fragments = 2, .offset = 0,
           .payload = {1}};
  const Packet* out[4] = {};
  view.execute([&] { dict.insert(&p, out, 4); });
  EXPECT_THROW(view.execute([&] { dict.insert(&p, out, 4); }),
               std::logic_error);
}

// ---------------- End-to-end pipeline ---------------------------------------

struct PipelineCase {
  Layout layout;
  stm::Algo algo;
  core::RacMode rac;
  const char* name;
};

class IntruderPipeline : public ::testing::TestWithParam<PipelineCase> {};

TEST_P(IntruderPipeline, AllFlowsReassembledAllAttacksDetected) {
  const PipelineCase& c = GetParam();
  IntruderConfig ic;
  ic.gen = small_gen(400, 11);
  ic.layout = c.layout;
  ic.n_threads = 4;
  ic.algo = c.algo;
  ic.rac = c.rac;
  if (c.rac == core::RacMode::kFixed) {
    ic.fixed_quotas.assign(c.layout == Layout::kSingleView ? 1 : 2, 2);
  }
  IntruderWorld world(ic);
  const IntruderReport report = world.run();

  EXPECT_FALSE(report.livelocked);
  EXPECT_EQ(report.flows_completed, ic.gen.num_flows);
  EXPECT_EQ(report.attacks_detected, report.attacks_expected);
  EXPECT_EQ(report.packets_processed, world.stream().shuffled.size());
  EXPECT_EQ(report.views.size(), c.layout == Layout::kSingleView ? 1u : 2u);
  EXPECT_GT(report.total.commits, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, IntruderPipeline,
    ::testing::Values(
        PipelineCase{Layout::kMultiView, stm::Algo::kNOrec,
                     core::RacMode::kAdaptive, "multi_norec_adaptive"},
        PipelineCase{Layout::kSingleView, stm::Algo::kNOrec,
                     core::RacMode::kAdaptive, "single_norec_adaptive"},
        PipelineCase{Layout::kMultiView, stm::Algo::kOrecEagerRedo,
                     core::RacMode::kAdaptive, "multi_oer_adaptive"},
        PipelineCase{Layout::kSingleView, stm::Algo::kOrecEagerRedo,
                     core::RacMode::kFixed, "single_oer_fixed2"},
        PipelineCase{Layout::kMultiView, stm::Algo::kNOrec,
                     core::RacMode::kDisabled, "multiTM_norec"},
        PipelineCase{Layout::kSingleView, stm::Algo::kNOrec,
                     core::RacMode::kDisabled, "plainTM_norec"}),
    [](const auto& info) { return info.param.name; });

TEST(IntruderWorldTest, LockModeQuotaOneStillCorrect) {
  IntruderConfig ic;
  ic.gen = small_gen(200, 4);
  ic.layout = Layout::kMultiView;
  ic.n_threads = 4;
  ic.algo = stm::Algo::kOrecEagerRedo;
  ic.rac = core::RacMode::kFixed;
  ic.fixed_quotas = {1, 1};
  IntruderWorld world(ic);
  const IntruderReport report = world.run();
  EXPECT_EQ(report.flows_completed, ic.gen.num_flows);
  EXPECT_EQ(report.attacks_detected, report.attacks_expected);
  EXPECT_EQ(report.total.aborts, 0u);
}

TEST(IntruderWorldTest, SingleThreadBaseline) {
  IntruderConfig ic;
  ic.gen = small_gen(150, 2);
  ic.layout = Layout::kSingleView;
  ic.n_threads = 1;
  ic.algo = stm::Algo::kNOrec;
  ic.rac = core::RacMode::kDisabled;
  IntruderWorld world(ic);
  const IntruderReport report = world.run();
  EXPECT_EQ(report.flows_completed, ic.gen.num_flows);
  EXPECT_EQ(report.attacks_detected, report.attacks_expected);
  EXPECT_EQ(report.total.aborts, 0u);  // no concurrency, no conflicts
}

TEST(IntruderWorldTest, RejectsBadQuotaVector) {
  IntruderConfig ic;
  ic.gen = small_gen(10, 1);
  ic.layout = Layout::kMultiView;
  ic.rac = core::RacMode::kFixed;
  ic.fixed_quotas = {1};  // needs 2
  EXPECT_THROW(IntruderWorld{ic}, std::invalid_argument);
}

}  // namespace
}  // namespace votm::intruder
