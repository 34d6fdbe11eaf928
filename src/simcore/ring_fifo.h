// FifoRing<T>: a power-of-two ring buffer over a flat vector.
//
// The device servers (switch ports, node work queues) are FIFO-only and
// churn constantly at steady state. std::deque pays a map-node allocation
// every few entries of push/pop churn — the dominant allocator traffic in
// a serving cell — while the ring doubles a handful of times early in a
// run and then never allocates again. FIFO semantics: push at the back,
// pop at the front, read by position from the front, no middle removal.
//
// pop_front() does not destroy the element: callers move the front out
// first, and the husk is overwritten when the ring wraps. T must be
// default-constructible and movable.
#ifndef SRC_SIMCORE_RING_FIFO_H_
#define SRC_SIMCORE_RING_FIFO_H_

#include <cstddef>
#include <utility>
#include <vector>

namespace fst {

template <typename T>
class FifoRing {
 public:
  bool empty() const { return head_ == tail_; }
  size_t size() const { return tail_ - head_; }
  T& front() { return buf_[head_ & mask_]; }
  const T& front() const { return buf_[head_ & mask_]; }
  T& back() { return buf_[(tail_ - 1) & mask_]; }
  // The i-th element from the front (i < size()).
  const T& operator[](size_t i) const { return buf_[(head_ + i) & mask_]; }

  void push_back(T&& v) {
    if (tail_ - head_ == buf_.size()) {
      Grow();
    }
    buf_[tail_ & mask_] = std::move(v);
    ++tail_;
  }

  // Callers move the element out before popping; the husk stays in the
  // buffer and is overwritten on wrap.
  void pop_front() { ++head_; }

 private:
  void Grow() {
    const size_t cap = buf_.empty() ? 8 : buf_.size() * 2;
    std::vector<T> next(cap);
    const size_t n = tail_ - head_;
    for (size_t i = 0; i < n; ++i) {
      next[i] = std::move(buf_[(head_ + i) & mask_]);
    }
    buf_ = std::move(next);
    mask_ = cap - 1;
    head_ = 0;
    tail_ = n;
  }

  std::vector<T> buf_;
  size_t mask_ = 0;
  size_t head_ = 0;
  size_t tail_ = 0;
};

}  // namespace fst

#endif  // SRC_SIMCORE_RING_FIFO_H_
