// Property tests for the pooled event engine's building blocks
// (sim/event_queue.h): the radix-heap event queue over its slot arena, the
// ring queue, and the out-of-order bitmap. These are the structures the
// packet simulator's correctness rests on, so each is fuzzed against the
// obvious oracle (std::priority_queue over (time, push sequence) /
// std::deque / std::set) under deterministic Rng streams — run under
// ASan/UBSan/TSan via scripts/ci.sh.
#include "sim/event_queue.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <deque>
#include <queue>
#include <set>
#include <vector>

#include "net/rng.h"

namespace flattree::sim {
namespace {

using Queue = EventQueue<std::uint32_t>;

// The oracle: a binary heap over (time, push sequence), compared as
// doubles, so -0.0 and +0.0 tie and break on sequence.
class Oracle {
 public:
  void push(double t, std::uint32_t payload) {
    heap_.push(Ref{t, seq_++, payload});
  }
  [[nodiscard]] bool empty() const { return heap_.empty(); }
  [[nodiscard]] std::size_t size() const { return heap_.size(); }
  [[nodiscard]] double top_time() const { return heap_.top().t; }
  std::uint32_t pop() {
    const std::uint32_t payload = heap_.top().payload;
    heap_.pop();
    return payload;
  }

 private:
  struct Ref {
    double t;
    std::uint64_t seq;
    std::uint32_t payload;
    bool operator>(const Ref& o) const {
      if (t != o.t) return t > o.t;
      return seq > o.seq;
    }
  };
  std::priority_queue<Ref, std::vector<Ref>, std::greater<>> heap_;
  std::uint64_t seq_{0};
};

// Pushes the same event into both queues, tracking the live peak.
struct Pair {
  Queue q;
  Oracle ref;
  std::uint32_t next_payload{0};
  std::size_t peak_live{0};

  void push(double t) {
    q.emplace(t) = next_payload;
    ref.push(t, next_payload);
    ++next_payload;
    peak_live = std::max(peak_live, ref.size());
  }
  // Pops one event from both and checks they agree; returns its time.
  double pop() {
    double t = -1.0;
    const std::uint32_t got = q.pop(&t);
    EXPECT_EQ(t, ref.top_time());
    EXPECT_EQ(got, ref.pop());
    return t;
  }
  void check_top() {
    ASSERT_EQ(q.empty(), ref.empty());
    if (!ref.empty()) {
      ASSERT_EQ(q.top_time(), ref.top_time());
    }
    ASSERT_EQ(q.size(), ref.size());
    ASSERT_EQ(q.arena_slots(), peak_live)
        << "the arena must grow only to the live-event high-water mark";
  }
};

TEST(EventQueue, PopsInTimeOrder) {
  Queue q;
  Rng rng{1};
  for (std::uint32_t i = 0; i < 1000; ++i) q.emplace(rng.next_double()) = i;
  double last = -1.0;
  while (!q.empty()) {
    EXPECT_GE(q.top_time(), last);
    last = q.top_time();
    (void)q.pop();
  }
}

TEST(EventQueue, EqualTimestampsPopInPushOrder) {
  // The engine's tie-break contract: (time, push sequence) is a total
  // order, so same-time events come back FIFO regardless of interleaving.
  Queue q;
  q.emplace(2.0) = 100;
  for (std::uint32_t i = 0; i < 64; ++i) q.emplace(1.0) = i;
  q.emplace(0.5) = 200;
  EXPECT_EQ(q.pop(), 200u);
  for (std::uint32_t i = 0; i < 64; ++i) {
    EXPECT_EQ(q.pop(), i) << "equal-time events must pop in push order";
  }
  EXPECT_EQ(q.pop(), 100u);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, SignedZerosTieAndBreakOnPushOrder) {
  // -0.0 == +0.0 as doubles, so the two are one time: push order decides.
  // Both orders of the pair, from an empty queue and below a peeked base.
  for (const bool peek_first : {false, true}) {
    Queue q;
    if (peek_first) {
      q.emplace(1.0) = 9;
      EXPECT_EQ(q.top_time(), 1.0);  // base moves to 1.0; the zeros rebase
    }
    q.emplace(0.0) = 0;
    q.emplace(-0.0) = 1;
    q.emplace(-0.0) = 2;
    q.emplace(0.0) = 3;
    for (std::uint32_t i = 0; i < 4; ++i) {
      double t = -1.0;
      EXPECT_EQ(q.pop(&t), i) << "peek_first=" << peek_first;
      EXPECT_EQ(t, 0.0);
    }
    if (peek_first) {
      EXPECT_EQ(q.pop(), 9u);
    }
    EXPECT_TRUE(q.empty());
  }
}

TEST(EventQueue, FuzzSimulatorDisciplineAgainstPriorityQueue) {
  // The packet simulator's push discipline, cross-checked op by op:
  //  - handlers push at or after the last popped time: same-time (ties),
  //    microsecond serialization/propagation offsets, 0.2 s RTO timers;
  //  - equal-time bursts (flow starts, a conversion re-sending every flow);
  //  - run_until's final peek moves the queue to the next event, then a
  //    conversion/failure pushes at `now`, below the peeked time;
  //  - add_flow back-dates a start below the last pop.
  Rng rng{20170821};
  Pair p;
  double now = 0.0;
  std::uint64_t pops = 0;
  for (int op = 0; op < 600000; ++op) {
    // Around a thousand live events, as in the simulator's steady state.
    const std::uint64_t roll =
        p.ref.size() > 1000 ? 50 : rng.next_below(100);
    if (roll < 45 || p.ref.empty()) {
      double t = now;
      const std::uint64_t kind = rng.next_below(8);
      if (kind < 4) {
        t = now + 1.2e-6 * static_cast<double>(rng.next_below(16));
      } else if (kind < 6) {
        t = now + 5e-6 + 1.2e-5 * static_cast<double>(rng.next_below(4));
      } else if (kind == 6) {
        t = now + 0.2 + 1e-6 * static_cast<double>(rng.next_below(3));
      }
      p.push(t);
    } else if (roll < 85) {
      now = p.pop();
      ++pops;
    } else if (roll < 92) {
      // Peek, then push at or above `now` but below the peeked time.
      p.check_top();
      const double peeked = p.q.top_time();
      const double stop = now + (peeked - now) * rng.next_double();
      const auto n = rng.next_below(6);
      for (std::uint64_t i = 0; i < n; ++i) {
        p.push(stop + (peeked - stop) * rng.next_double() * 0.5);
      }
      now = stop;
    } else if (roll < 98) {
      // Equal-time burst.
      const double t = now + 1e-6 * static_cast<double>(rng.next_below(4));
      const auto n = 1 + rng.next_below(48);
      for (std::uint64_t i = 0; i < n; ++i) p.push(t);
    } else {
      // Back-dated push below the last pop.
      p.check_top();
      p.push(now * rng.next_double());
    }
    if (op % 64 == 0) p.check_top();
    if (::testing::Test::HasFailure()) return;
  }
  while (!p.ref.empty()) (void)p.pop();
  p.check_top();
  EXPECT_GT(pops, 200000u);
  EXPECT_GT(p.peak_live, 100u);
}

TEST(EventQueue, FuzzRandomTimesAgainstPriorityQueue) {
  // Fully random times (negative, both zeros, huge and tiny magnitudes,
  // repeats), so pushes fall below the base all the time. Each such push
  // costs a rebase; the live set is kept small.
  Rng rng{7};
  Pair p;
  std::vector<double> seen{0.0, -0.0};
  for (int op = 0; op < 200000; ++op) {
    const std::uint64_t roll = rng.next_below(16);
    if ((roll < 8 && p.ref.size() < 48) || p.ref.empty()) {
      double t = 0.0;
      switch (rng.next_below(5)) {
        case 0:  // a repeat of an earlier time (ties)
          t = seen[rng.next_below(seen.size())];
          break;
        case 1:
          t = rng.next_below(2) == 0 ? 0.0 : -0.0;
          break;
        case 2:
          t = (rng.next_double() - 0.5) * 1e-300;
          break;
        case 3:
          t = (rng.next_double() - 0.5) * 1e300;
          break;
        default:
          t = (rng.next_double() - 0.5) * 8.0;
          break;
      }
      if (seen.size() < 256) seen.push_back(t);
      p.push(t);
    } else if (roll < 14) {
      (void)p.pop();
    } else {
      p.check_top();
    }
    if (::testing::Test::HasFailure()) return;
  }
  p.check_top();
}

TEST(EventQueue, ArenaRecyclesSlots) {
  // Churn at a steady live count: the arena stays at the live high-water
  // mark instead of growing with total pushes.
  Pair p;
  for (int i = 0; i < 100; ++i) p.push(static_cast<double>(i));
  for (int i = 100; i < 100000; ++i) {
    (void)p.pop();
    p.push(static_cast<double>(i));
  }
  p.check_top();
  EXPECT_EQ(p.q.arena_slots(), 100u);
}

TEST(RingQueue, FuzzAgainstDeque) {
  Rng rng{3};
  RingQueue<std::uint64_t> ring;
  std::deque<std::uint64_t> ref;
  for (int op = 0; op < 200000; ++op) {
    const std::uint64_t roll = rng.next_below(16);
    if (roll < 9 || ref.empty()) {
      const std::uint64_t v = rng();
      ring.push_back(v);
      ref.push_back(v);
    } else if (roll < 15) {
      ASSERT_EQ(ring.front(), ref.front());
      ring.pop_front();
      ref.pop_front();
    } else {
      ring.clear();
      ref.clear();
    }
    ASSERT_EQ(ring.size(), ref.size());
    ASSERT_EQ(ring.empty(), ref.empty());
    if (!ref.empty()) {
      ASSERT_EQ(ring.front(), ref.front());
    }
  }
}

TEST(SeqWindow, FuzzAgainstSet) {
  // The receiver access pattern, including the advancing-ack erase loop
  // and far-ahead inserts after the window drained.
  Rng rng{11};
  SeqWindow window;
  std::set<std::uint32_t> ref;
  std::uint32_t base = 0;
  for (int op = 0; op < 200000; ++op) {
    const std::uint64_t roll = rng.next_below(8);
    if (roll < 5) {
      const std::uint32_t s =
          base + 1 + static_cast<std::uint32_t>(rng.next_below(512));
      window.insert(s);
      ref.insert(s);
    } else if (roll < 7) {
      // Advance the ack point as on_data_at_receiver does.
      ++base;
      while (true) {
        const bool had = ref.erase(base) > 0;
        ASSERT_EQ(window.erase(base), had);
        if (!had) break;
        ++base;
      }
    } else {
      const std::uint32_t probe =
          base + static_cast<std::uint32_t>(rng.next_below(600));
      ASSERT_EQ(window.contains(probe), ref.count(probe) > 0);
    }
    ASSERT_EQ(window.size(), ref.size());
    ASSERT_EQ(window.empty(), ref.empty());
    if (rng.next_below(1024) == 0) {
      // Occasionally leap far ahead (mimics a conversion restarting the
      // stream): drain everything, then jump the base.
      for (const std::uint32_t s : ref) ASSERT_TRUE(window.erase(s));
      ref.clear();
      ASSERT_TRUE(window.empty());
      base += 1u << 20;
    }
  }
}

}  // namespace
}  // namespace flattree::sim
