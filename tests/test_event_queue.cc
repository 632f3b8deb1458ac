// Property tests for the pooled event engine's building blocks
// (sim/event_queue.h): the event queue (FIFO lanes in front of a binary
// heap, over one slot arena), the ring queue, and the out-of-order
// bitmap. These are the structures the packet simulator's correctness
// rests on, so each is fuzzed against the obvious oracle
// (std::priority_queue over (time, push sequence) / std::deque /
// std::set) under deterministic Rng streams — run under ASan/UBSan/TSan
// via scripts/ci.sh.
#include "sim/event_queue.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstddef>
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
// doubles, so -0.0 and +0.0 tie and break on sequence. Each entry also
// records where the model below placed it (a lane, or kHeap).
class Oracle {
 public:
  static constexpr std::size_t kHeap = ~std::size_t{0};

  void push(double t, std::uint32_t payload, std::size_t where) {
    heap_.push(Ref{t, seq_++, payload, where});
  }
  [[nodiscard]] bool empty() const { return heap_.empty(); }
  [[nodiscard]] std::size_t size() const { return heap_.size(); }
  [[nodiscard]] double top_time() const { return heap_.top().t; }
  std::uint32_t pop(std::size_t* where) {
    const std::uint32_t payload = heap_.top().payload;
    *where = heap_.top().where;
    heap_.pop();
    return payload;
  }

 private:
  struct Ref {
    double t;
    std::uint64_t seq;
    std::uint32_t payload;
    std::size_t where;
    bool operator>(const Ref& o) const {
      if (t != o.t) return t > o.t;
      return seq > o.seq;
    }
  };
  std::priority_queue<Ref, std::vector<Ref>, std::greater<>> heap_;
  std::uint64_t seq_{0};
};

// Pushes the same event into both queues, tracking the live peak. A model
// of the lanes (live count and tail time of each) predicts which pushes
// the queue sends to its heap: one naming no lane, or one below its
// non-empty lane's tail. The oracle's pop order is the queue's, so popping
// an entry the model placed in a lane is popping that lane's head.
struct Pair {
  static constexpr std::size_t kLanes = Queue::kLanes;
  Queue q;
  Oracle ref;
  std::uint32_t next_payload{0};
  std::size_t peak_live{0};
  std::array<std::size_t, kLanes> lane_live{};
  std::array<double, kLanes> lane_tail{};
  std::uint64_t heap_pushes{0};
  std::uint64_t order_breaks{0};  // lane pushes the model sent to the heap
  std::uint64_t lane_reuses{0};   // pushes into a lane that had drained

  void push(double t, std::size_t lane = Queue::kNoLane) {
    q.emplace(t, lane) = next_payload;
    std::size_t where = Oracle::kHeap;
    if (lane < kLanes) {
      if (lane_live[lane] == 0 || lane_tail[lane] <= t) {
        if (lane_live[lane] == 0 && lane_tail[lane] != 0.0) ++lane_reuses;
        where = lane;
        ++lane_live[lane];
        lane_tail[lane] = t;
      } else {
        ++order_breaks;
      }
    }
    if (where == Oracle::kHeap) ++heap_pushes;
    ref.push(t, next_payload, where);
    ++next_payload;
    peak_live = std::max(peak_live, ref.size());
  }
  // Pops one event from both and checks they agree; returns its time.
  double pop() {
    double t = -1.0;
    const std::uint32_t got = q.pop(&t);
    EXPECT_EQ(t, ref.top_time());
    std::size_t where = Oracle::kHeap;
    EXPECT_EQ(got, ref.pop(&where));
    if (where != Oracle::kHeap) --lane_live[where];
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
    ASSERT_EQ(q.heap_pushes(), heap_pushes)
        << "a push went to the heap iff it named no lane or broke its "
           "lane's order";
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
  // Both orders of the pair, from an empty queue and below a peeked time.
  for (const bool peek_first : {false, true}) {
    Queue q;
    if (peek_first) {
      q.emplace(1.0) = 9;
      EXPECT_EQ(q.top_time(), 1.0);  // the zeros go below the peeked top
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
      now = std::max(now, p.pop());  // as run_until keeps now_
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
  // repeats), so pushes fall below the heap's top all the time; the live
  // set is kept small.
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

TEST(EventQueue, FuzzLanesAgainstPriorityQueue) {
  // The lanes in front of the heap, under the packet simulator's lane
  // discipline and against it:
  //  - in-order lane pushes at now plus the lane's constant delay, and
  //    lane pushes at random times that break the lane's order;
  //  - heap pushes (no lane) for timers;
  //  - equal-time bursts spread over the lanes and the heap;
  //  - pushes below a peeked time, into any lane or the heap;
  //  - +0.0 and -0.0 into any lane or the heap, from time zero;
  //  - full drains, so lanes empty out and take any time again.
  // The simulator's four delays on 1 Gb/s links: data and ACK, pipe-free
  // and arrival.
  constexpr std::size_t kLanes = Queue::kLanes;
  constexpr double kDelay[kLanes] = {1.2e-5, 1.7e-5, 5.12e-7, 5.512e-6};
  Rng rng{20260415};
  Pair p;
  double now = 0.0;
  const auto any_lane = [&] {
    return static_cast<std::size_t>(rng.next_below(kLanes + 1));
  };
  for (int op = 0; op < 400000; ++op) {
    const std::uint64_t roll =
        p.ref.size() > 600 ? 50 : rng.next_below(100);
    if (roll < 40 || p.ref.empty()) {
      const std::size_t lane = any_lane();
      const std::uint64_t kind = rng.next_below(16);
      if (lane == kLanes) {
        p.push(now + 0.2 * rng.next_double());
      } else if (kind < 15) {
        p.push(now + kDelay[lane], lane);
      } else {
        p.push(now + 2.0 * kDelay[lane] * rng.next_double(), lane);
      }
    } else if (roll < 80) {
      now = std::max(now, p.pop());  // as run_until keeps now_
    } else if (roll < 86) {
      // Peek, then push at or above `now` but below the peeked time.
      p.check_top();
      const double peeked = p.q.top_time();
      const double stop = now + (peeked - now) * rng.next_double();
      const auto n = rng.next_below(6);
      for (std::uint64_t i = 0; i < n; ++i) {
        p.push(stop + (peeked - stop) * rng.next_double() * 0.5, any_lane());
      }
      now = stop;
    } else if (roll < 94) {
      // Equal-time burst across the lanes and the heap, at one lane's
      // delay: that lane stays in order, the others may not.
      const double t = now + kDelay[rng.next_below(kLanes)];
      const auto n = 1 + rng.next_below(8);
      for (std::uint64_t i = 0; i < n; ++i) p.push(t, any_lane());
    } else if (roll < 99) {
      // Signed zeros: below every lane tail once time has moved on.
      const auto n = 1 + rng.next_below(4);
      for (std::uint64_t i = 0; i < n; ++i) {
        p.push(rng.next_below(2) == 0 ? 0.0 : -0.0, any_lane());
      }
    } else {
      // Drain everything, then start again from time zero.
      while (!p.ref.empty()) (void)p.pop();
      now = 0.0;
    }
    if (op % 64 == 0) p.check_top();
    if (::testing::Test::HasFailure()) return;
  }
  while (!p.ref.empty()) (void)p.pop();
  p.check_top();
  // Every path must have been taken for the agreement to mean anything.
  EXPECT_GT(p.order_breaks, 10000u);
  EXPECT_GT(p.lane_reuses, 1000u);
  EXPECT_GT(p.heap_pushes - p.order_breaks, 10000u);  // named no lane
  EXPECT_GT(p.next_payload - p.heap_pushes, 50000u);  // stayed in a lane
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
