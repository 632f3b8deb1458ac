// Pooled discrete-event substrate for the packet simulator hot path.
//
// Three allocation-free building blocks: the event queue, the per-pipe
// packet queues and the receiver's out-of-order set.
//
//   EventQueue<Payload>   four FIFO lanes in front of a monotone radix heap,
//                         over a preallocated event arena with freelist
//                         recycling. Pop order is the engine's total event
//                         order: (time, push sequence) strictly
//                         non-decreasing. A payload is written exactly once
//                         (at emplace) and read exactly once (at pop);
//                         bucket links live in the arena slots.
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
#include <bit>
#include <cstddef>
#include <cstdint>
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

// FIFO lanes in front of a radix heap, over an arena of recycled slots.
// Payload must be movable and default-constructible. The queue is a strict
// total order: equal times pop in push order, so simulation results never
// depend on its internals — in particular not on which lane a push names.
//
// Lanes. emplace(t, lane) appends to lane `lane` (< kLanes) when that
// lane is empty or its tail key is <= key(t), and otherwise pushes to the
// heap; a push naming no lane goes to the heap. A lane is therefore
// sorted by (key, push sequence), and every entry, in a lane or in the
// heap, carries its push sequence: top_time()/pop() take the (key,
// sequence) minimum over the lane heads and the heap top, which is the
// minimum of the whole queue. A lane pays off when its pushes arrive in
// key order — "now plus a constant delay" from a caller whose now never
// decreases — and costs a heap push whenever that order breaks.
//
// Heap. Each time maps to a 64-bit key whose unsigned order is the time
// order (key()). An entry with key k lives in bucket bit_width(k ^ base):
// bucket 0 holds k == base, bucket i > 0 the keys that first differ from
// base at bit i - 1. `base` is never above a stored heap key. Each bucket
// is a singly linked list through the arena slots, and every list keeps
// equal keys in push order: pushes append, a refill moves one list's
// entries in list order into empty lower buckets, and a rebase appends
// whole lists, which never splits a run of equal keys (equal keys share a
// bucket). So bucket 0, all keys equal, is in push order, and its head is
// the heap's (key, sequence) minimum.
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
  // would have broken their lane's key order.
  [[nodiscard]] std::uint64_t heap_pushes() const { return heap_pushes_; }

  // Time of the next event. Finding it may refill the heap, moving `base`
  // up to the heap's minimum, so a later heap push below it pays a rebase.
  // Precondition: !empty().
  [[nodiscard]] double top_time() {
    if (top_ == kStale) select_top();
    return time_of(top_key_);
  }

  // Vends the slot for an event at time `t` and returns its payload for the
  // caller to fill in place — one write instead of construct-then-move. The
  // payload may hold stale contents from a recycled slot; the caller must
  // assign every field. The reference is valid until the next emplace.
  Payload& emplace(double t, std::size_t lane = kNoLane) {
    const std::uint64_t k = key(t);
    std::uint32_t slot;
    if (free_head_ != kNone) {
      slot = free_head_;
      free_head_ = arena_[slot].next;
    } else {
      slot = static_cast<std::uint32_t>(arena_.size());
      arena_.emplace_back();
    }
    const std::uint64_t seq = next_seq_++;
    if (lane < kLanes &&
        (lanes_[lane].empty() || lanes_[lane].back().key <= k)) {
      lanes_[lane].push_back(LaneEntry{k, seq, slot});
    } else {
      heap_push(k, seq, slot);
    }
    ++size_;
    top_ = kStale;
    return arena_[slot].payload;
  }

  // Pops the minimum (time, seq) event. Precondition: !empty(). A pushed
  // -0.0 comes back as +0.0 (the two tie, see key()).
  Payload pop(double* t = nullptr) {
    if (top_ == kStale) select_top();
    std::uint32_t slot;
    if (top_ == kHeap) {
      slot = head_[0];
      head_[0] = arena_[slot].next;
      --heap_size_;
    } else {
      slot = lanes_[top_].front().slot;
      lanes_[top_].pop_front();
    }
    top_ = kStale;
    if (t != nullptr) *t = time_of(top_key_);
    Slot& s = arena_[slot];
    Payload out = std::move(s.payload);
    s.next = free_head_;
    free_head_ = slot;
    --size_;
    return out;
  }

 private:
  static constexpr std::uint32_t kNone = 0xffffffffu;
  static constexpr std::uint64_t kSign = 1ull << 63;
  static constexpr int kBuckets = 65;
  // top_ values besides a lane index.
  static constexpr std::size_t kHeap = kLanes;
  static constexpr std::size_t kStale = kLanes + 1;
  static constexpr std::array<std::uint32_t, kBuckets> kEmptyBuckets = [] {
    std::array<std::uint32_t, kBuckets> lists{};
    lists.fill(kNone);
    return lists;
  }();

  struct Slot {
    Payload payload{};
    std::uint64_t key{0};       // heap entries only
    std::uint64_t seq{0};       // heap entries only
    std::uint32_t next{kNone};  // bucket list link, or freelist link
  };

  struct LaneEntry {
    std::uint64_t key;
    std::uint64_t seq;
    std::uint32_t slot;
  };

  // Order-preserving map from a double to an unsigned key: flip every bit
  // of a negative, set the sign bit of a non-negative. Adding +0.0 turns
  // -0.0 into +0.0 first, so the two tie and break on push order exactly
  // as a double comparison does.
  [[nodiscard]] static std::uint64_t key(double t) {
    const std::uint64_t bits = std::bit_cast<std::uint64_t>(t + 0.0);
    return (bits & kSign) != 0 ? ~bits : bits | kSign;
  }
  [[nodiscard]] static double time_of(std::uint64_t k) {
    return std::bit_cast<double>((k & kSign) != 0 ? k & ~kSign : ~k);
  }

  // Points top_/top_key_ at the (key, sequence) minimum over the heap top
  // and the lane heads. Starting from (~0, ~0) is safe: no entry carries
  // sequence ~0, so every entry compares below it.
  void select_top() {
    std::size_t best = kHeap;
    std::uint64_t best_key = ~0ull;
    std::uint64_t best_seq = ~0ull;
    if (heap_size_ != 0) {
      if (head_[0] == kNone) refill();
      best_key = base_;
      best_seq = arena_[head_[0]].seq;
    }
    for (std::size_t i = 0; i < kLanes; ++i) {
      if (lanes_[i].empty()) continue;
      const LaneEntry& e = lanes_[i].front();
      if (e.key < best_key || (e.key == best_key && e.seq < best_seq)) {
        best = i;
        best_key = e.key;
        best_seq = e.seq;
      }
    }
    top_ = best;
    top_key_ = best_key;
  }

  void heap_push(std::uint64_t k, std::uint64_t seq, std::uint32_t slot) {
    if (heap_size_ == 0) {
      base_ = k;  // any base is valid for an empty heap
    } else if (k < base_) {
      rebase(k);
    }
    arena_[slot].key = k;
    arena_[slot].seq = seq;
    append(bucket_of(k), slot);
    ++heap_size_;
    ++heap_pushes_;
  }

  [[nodiscard]] int bucket_of(std::uint64_t k) const {
    return std::bit_width(k ^ base_);
  }

  void append(int b, std::uint32_t slot) {
    arena_[slot].next = kNone;
    if (head_[b] == kNone) {
      head_[b] = slot;
      if (b > 0) nonempty_ |= 1ull << (b - 1);
    } else {
      arena_[tail_[b]].next = slot;
    }
    tail_[b] = slot;
  }

  // Bucket 0 is empty: raise base to the smallest key of the lowest
  // non-empty bucket and spread that bucket over the (empty) buckets below
  // it. A refill only moves an entry down, so between rebases an entry
  // moves at most 64 times.
  void refill() {
    const int b = std::countr_zero(nonempty_) + 1;
    std::uint32_t slot = head_[b];
    head_[b] = kNone;
    nonempty_ &= nonempty_ - 1;
    std::uint64_t lowest = arena_[slot].key;
    for (std::uint32_t s = arena_[slot].next; s != kNone; s = arena_[s].next) {
      if (arena_[s].key < lowest) lowest = arena_[s].key;
    }
    base_ = lowest;
    while (slot != kNone) {
      const std::uint32_t next = arena_[slot].next;
      append(bucket_of(arena_[slot].key), slot);
      slot = next;
    }
  }

  // A heap push below base (a push naming no lane, or one that broke its
  // lane's order, at a time below the heap's peeked minimum). With p =
  // bit_width(base ^ k), every stored key first differs from k at bit
  // p - 1 if it was in a bucket below p, and keeps its bucket otherwise
  // (old bucket p is empty: its keys would be below base). So buckets
  // 0..p-1 concatenate, in order, onto bucket p.
  void rebase(std::uint64_t k) {
    const int p = std::bit_width(base_ ^ k);
    for (int b = 0; b < p; ++b) {
      if (head_[b] == kNone) continue;
      if (head_[p] == kNone) {
        head_[p] = head_[b];
      } else {
        arena_[tail_[p]].next = head_[b];
      }
      tail_[p] = tail_[b];
      head_[b] = kNone;
    }
    const std::uint64_t below = (1ull << (p - 1)) - 1;  // buckets 1..p-1
    nonempty_ &= ~below;
    if (head_[p] != kNone) nonempty_ |= 1ull << (p - 1);
    base_ = k;
  }

  std::vector<Slot> arena_;
  // Unallocated until each lane's first push: reserving 64 entries per
  // lane up front raised packet_convert's setup_s from ~2.0 to ~3.2 us.
  std::array<RingQueue<LaneEntry>, kLanes> lanes_{};
  std::array<std::uint32_t, kBuckets> head_ = kEmptyBuckets;
  // tail_[b] is meaningful only while head_[b] != kNone; zero-filling it
  // instead of copying kNone keeps PacketSim construction cheap.
  std::array<std::uint32_t, kBuckets> tail_{};
  std::uint64_t nonempty_{0};  // bit b - 1 set iff bucket b > 0 non-empty
  std::uint64_t base_{0};
  std::uint64_t next_seq_{0};
  std::uint64_t heap_pushes_{0};
  std::uint64_t top_key_{0};
  std::size_t top_{kStale};  // a lane index, kHeap, or kStale
  std::uint32_t free_head_{kNone};
  std::size_t size_{0};
  std::size_t heap_size_{0};
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
