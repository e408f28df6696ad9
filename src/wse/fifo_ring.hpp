#pragma once

// Fixed-capacity FIFO ring: the simulator's model of a hardware queue (a
// router virtual-channel queue, a core ramp channel). The hardware queues
// have a fixed depth, and so does this type: its capacity is set once,
// when it is bound to slots its owner allocated, and push, pop and clear
// never allocate or free. Size, emptiness and halfword occupancy are O(1).

#include <cassert>
#include <cstdint>
#include <limits>

namespace wss::wse {

template <typename T>
class FifoRing {
public:
  /// Largest capacity the 16-bit counters can hold, with room for the
  /// halfword count of a ring full of wide flits (two halfwords each).
  static constexpr int kMaxCapacity =
      std::numeric_limits<std::uint16_t>::max() / 2;

  FifoRing() = default;
  /// Bind to `capacity` slots starting at `slots`. The ring does not own
  /// them: its owner allocates them and must keep them alive and in place
  /// for as long as the ring is used. 1 <= capacity <= kMaxCapacity.
  FifoRing(T* slots, int capacity)
      : slots_(slots), cap_(static_cast<std::uint16_t>(capacity)) {
    assert(capacity >= 1 && capacity <= kMaxCapacity);
  }

  [[nodiscard]] int size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] bool full() const { return size_ == cap_; }
  /// Occupancy in link halfwords: a wide flit counts two, anything else
  /// one.
  [[nodiscard]] int halfwords() const { return size_ + wide_; }

  [[nodiscard]] const T& front() const {
    assert(size_ != 0);
    return slots_[head_];
  }

  /// Append `v`. The caller checks for space first: a push onto a full
  /// ring is a simulator bug, not backpressure.
  void push_back(const T& v) {
    assert(size_ < cap_);
    unsigned tail = static_cast<unsigned>(head_) + size_;
    if (tail >= cap_) tail -= cap_;
    slots_[tail] = v;
    ++size_;
    wide_ = static_cast<std::uint16_t>(wide_ + wide_count(v));
  }

  void pop_front() {
    assert(size_ != 0);
    wide_ = static_cast<std::uint16_t>(wide_ - wide_count(slots_[head_]));
    if (++head_ == cap_) head_ = 0;
    --size_;
  }

  void clear() { head_ = size_ = wide_ = 0; }

private:
  static unsigned wide_count(const T& v) {
    if constexpr (requires { v.wide; }) {
      return v.wide ? 1u : 0u;
    } else {
      return 0u;
    }
  }

  T* slots_ = nullptr;
  std::uint16_t cap_ = 0;
  std::uint16_t head_ = 0;
  std::uint16_t size_ = 0;
  std::uint16_t wide_ = 0; ///< queued items that are wide flits
};

} // namespace wss::wse
