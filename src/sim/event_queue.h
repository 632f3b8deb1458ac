// Pooled discrete-event substrate for the packet simulator hot path.
//
// Three allocation-free building blocks: the event queue, the per-pipe
// packet queues and the receiver's out-of-order set.
//
//   EventQueue<Payload>   four FIFO lanes in front of a binary heap, over
//                         an event arena with freelist recycling. Pop
//                         order is the engine's total event order: (time,
//                         push sequence) strictly non-decreasing. A
//                         payload is written exactly once (at emplace) and
//                         read exactly once (at pop).
//   RingQueue<T>          a power-of-two ring buffer with deque semantics
//                         (push_back/front/back/pop_front) and
//                         amortized-zero allocation; the per-pipe drop-tail
//                         queues and the event queue's lanes.
//   SeqWindow             a sliding bitmap over out-of-order sequence
//                         numbers above the receiver's cumulative-ack
//                         point; word-granular front trimming keeps it
//                         proportional to the reorder window, not the
//                         stream length.
//
// All three are single-writer structures (one simulator shard owns its
// engine); cross-shard parallelism lives in ShardedPacketSim, which gives
// every shard a private engine and merges results commutatively.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <queue>
#include <utility>
#include <vector>

namespace flattree::sim {

// Power-of-two ring buffer with the std::deque surface the pipe queues
// and the event queue's lanes use. Grows by doubling (amortized
// allocation-free) and allocates nothing before its first push; clear()
// keeps the storage for reuse.
template <typename T>
class RingQueue {
 public:
  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] std::size_t size() const { return size_; }

  [[nodiscard]] T& front() { return buf_[head_]; }
  [[nodiscard]] const T& front() const { return buf_[head_]; }
  [[nodiscard]] const T& back() const {
    return buf_[(head_ + size_ - 1) & (buf_.size() - 1)];
  }

  void push_back(const T& value) {
    if (size_ == buf_.size()) grow();
    buf_[(head_ + size_) & (buf_.size() - 1)] = value;
    ++size_;
  }

  void pop_front() {
    head_ = (head_ + 1) & (buf_.size() - 1);
    --size_;
  }

  void clear() {
    head_ = 0;
    size_ = 0;
  }

 private:
  void grow() {
    const std::size_t cap = buf_.empty() ? 8 : buf_.size() * 2;
    std::vector<T> next(cap);
    for (std::size_t i = 0; i < size_; ++i) {
      next[i] = std::move(buf_[(head_ + i) & (buf_.size() - 1)]);
    }
    buf_ = std::move(next);
    head_ = 0;
  }

  std::vector<T> buf_;
  std::size_t head_{0};
  std::size_t size_{0};
};

// FIFO lanes in front of a binary heap, over an arena of recycled slots.
// Payload must be movable and default-constructible. The queue is a strict
// total order: equal times pop in push order, so simulation results never
// depend on its internals — in particular not on which lane a push names.
// Times must not be NaN.
//
// emplace(t, lane) appends to lane `lane` (< kLanes) when that lane is
// empty or its tail time is <= t, and otherwise pushes to the heap; a push
// naming no lane goes to the heap. A lane is therefore sorted by (time,
// push sequence), and every entry, in a lane or in the heap, carries its
// push sequence: top_time()/pop() take the (time, sequence) minimum over
// the lane heads and the heap top, which is the minimum of the whole
// queue. A lane pays off when its pushes arrive in time order — "now plus
// a constant delay" from a caller whose now never decreases — and costs a
// heap push whenever that order breaks.
template <typename Payload>
class EventQueue {
 public:
  static constexpr std::size_t kLanes = 4;
  // The lane argument that names no lane: the push goes to the heap.
  static constexpr std::size_t kNoLane = kLanes;

  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] std::size_t size() const { return size_; }
  // Arena high-water mark: slots ever live at once (freelist recycling
  // means this is max concurrent events, not total events pushed).
  [[nodiscard]] std::size_t arena_slots() const { return arena_.size(); }
  // Pushes that went to the heap: those naming no lane plus those that
  // would have broken their lane's time order.
  [[nodiscard]] std::uint64_t heap_pushes() const { return heap_pushes_; }

  // Time of the next event. Precondition: !empty().
  [[nodiscard]] double top_time() {
    if (top_ == kStale) select_top();
    return top_time_;
  }

  // Vends the slot for an event at time `t` and returns its payload for the
  // caller to fill in place — one write instead of construct-then-move. The
  // payload may hold stale contents from a recycled slot; the caller must
  // assign every field. The reference is valid until the next emplace.
  Payload& emplace(double t, std::size_t lane = kNoLane) {
    std::uint32_t slot;
    if (free_head_ != kNone) {
      slot = free_head_;
      free_head_ = arena_[slot].next_free;
    } else {
      slot = static_cast<std::uint32_t>(arena_.size());
      arena_.emplace_back();
    }
    // Adding +0.0 turns -0.0 into +0.0, so a popped time is never -0.0;
    // the two compare equal either way and break on push order.
    const Entry e{t + 0.0, next_seq_++, slot};
    if (lane < kLanes &&
        (lanes_[lane].empty() || lanes_[lane].back().t <= e.t)) {
      lanes_[lane].push_back(e);
    } else {
      heap_.push(e);
      ++heap_pushes_;
    }
    ++size_;
    top_ = kStale;
    return arena_[slot].payload;
  }

  // Pops the minimum (time, seq) event. Precondition: !empty(). A pushed
  // -0.0 comes back as +0.0.
  Payload pop(double* t = nullptr) {
    if (top_ == kStale) select_top();
    std::uint32_t slot;
    if (top_ == kHeap) {
      slot = heap_.top().slot;
      heap_.pop();
    } else {
      slot = lanes_[top_].front().slot;
      lanes_[top_].pop_front();
    }
    top_ = kStale;
    if (t != nullptr) *t = top_time_;
    Slot& s = arena_[slot];
    Payload out = std::move(s.payload);
    s.next_free = free_head_;
    free_head_ = slot;
    --size_;
    return out;
  }

 private:
  static constexpr std::uint32_t kNone = 0xffffffffu;
  // top_ values besides a lane index.
  static constexpr std::size_t kHeap = kLanes;
  static constexpr std::size_t kStale = kLanes + 1;

  struct Slot {
    Payload payload{};
    std::uint32_t next_free{kNone};
  };

  struct Entry {
    double t;
    std::uint64_t seq;
    std::uint32_t slot;
  };
  // The heap's "less" is "pops later", so its top is the minimum.
  struct PopsLater {
    bool operator()(const Entry& a, const Entry& b) const {
      return a.t > b.t || (a.t == b.t && a.seq > b.seq);
    }
  };

  // Points top_/top_time_ at the (time, sequence) minimum over the heap
  // top and the lane heads. Starting from (+inf, ~0) is safe: no entry
  // carries sequence ~0, so every entry compares below it.
  void select_top() {
    Entry best{std::numeric_limits<double>::infinity(), ~0ull, 0};
    std::size_t best_at = kHeap;
    if (!heap_.empty()) best = heap_.top();
    for (std::size_t i = 0; i < kLanes; ++i) {
      if (lanes_[i].empty()) continue;
      const Entry& e = lanes_[i].front();
      if (PopsLater{}(best, e)) {
        best = e;
        best_at = i;
      }
    }
    top_ = best_at;
    top_time_ = best.t;
  }

  std::vector<Slot> arena_;
  // Unallocated until each lane's first push: reserving 64 entries per
  // lane up front raised packet_convert's setup_s from ~2.0 to ~3.2 us.
  std::array<RingQueue<Entry>, kLanes> lanes_{};
  std::priority_queue<Entry, std::vector<Entry>, PopsLater> heap_;
  std::uint64_t next_seq_{0};
  std::uint64_t heap_pushes_{0};
  double top_time_{0.0};
  std::size_t top_{kStale};  // a lane index, kHeap, or kStale
  std::uint32_t free_head_{kNone};
  std::size_t size_{0};
};

// Sliding bitmap of out-of-order sequence numbers. Semantically a
// std::set<uint32_t> restricted to the access pattern of a cumulative-ack
// receiver: insert above the ack point, erase at the advancing ack point.
// Storage is one bit per sequence across the live reorder window; fully
// cleared leading words are trimmed as the window slides.
class SeqWindow {
 public:
  // Records `seq`; duplicates are ignored (set semantics).
  void insert(std::uint32_t seq) {
    const std::uint64_t w = seq >> 6;
    if (words_.empty()) {
      word0_ = w;
      words_.push_back(0);
    } else if (w < word0_) {
      words_.insert(words_.begin(), static_cast<std::size_t>(word0_ - w), 0);
      word0_ = w;
    } else if (w - word0_ >= words_.size()) {
      words_.resize(static_cast<std::size_t>(w - word0_) + 1, 0);
    }
    const std::uint64_t bit = 1ull << (seq & 63);
    std::uint64_t& word = words_[static_cast<std::size_t>(w - word0_)];
    if ((word & bit) == 0) {
      word |= bit;
      ++count_;
    }
  }

  // Removes `seq` if present; returns whether it was. The receiver calls
  // this with its advancing expected sequence, so erasure trims the front.
  bool erase(std::uint32_t seq) {
    const std::uint64_t w = seq >> 6;
    if (words_.empty() || w < word0_ || w - word0_ >= words_.size()) {
      return false;
    }
    const std::uint64_t bit = 1ull << (seq & 63);
    std::uint64_t& word = words_[static_cast<std::size_t>(w - word0_)];
    if ((word & bit) == 0) return false;
    word &= ~bit;
    --count_;
    std::size_t lead = 0;
    while (lead < words_.size() && words_[lead] == 0) ++lead;
    if (lead > 0) {
      words_.erase(words_.begin(),
                   words_.begin() + static_cast<std::ptrdiff_t>(lead));
      word0_ += lead;
    }
    return true;
  }

  [[nodiscard]] bool contains(std::uint32_t seq) const {
    const std::uint64_t w = seq >> 6;
    if (words_.empty() || w < word0_ || w - word0_ >= words_.size()) {
      return false;
    }
    return (words_[static_cast<std::size_t>(w - word0_)] >>
            (seq & 63)) & 1u;
  }

  [[nodiscard]] bool empty() const { return count_ == 0; }
  [[nodiscard]] std::size_t size() const { return count_; }
  void clear() {
    words_.clear();
    word0_ = 0;
    count_ = 0;
  }

 private:
  std::vector<std::uint64_t> words_;
  std::uint64_t word0_{0};  // word index of words_[0] (seq / 64)
  std::size_t count_{0};
};

}  // namespace flattree::sim
