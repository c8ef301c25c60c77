#include "telemetry/series.hpp"

#include <algorithm>

namespace lts::telemetry {

Series::Series(std::size_t capacity) : capacity_(capacity) {
  LTS_REQUIRE(capacity > 0, "Series: capacity must be positive");
}

bool Series::append(SimTime t, double v) {
  if (size_ > 0) {
    const Sample& newest = latest();
    if (t < newest.t) return false;  // late sample, dropped
    if (v < newest.v) decreases_.push_back(Decrease{newest.t, t});
  }
  if (size_ < capacity_) {
    // Still growing: head_ is 0 and buffer_ holds exactly the samples. The
    // buffer doubles, but never past capacity_.
    if (buffer_.size() == buffer_.capacity()) {
      buffer_.reserve(std::min(capacity_, std::max<std::size_t>(
                                              2 * buffer_.size(), 8)));
    }
    buffer_.push_back(Sample{t, v});
    ++size_;
  } else {
    buffer_[head_] = Sample{t, v};
    head_ = (head_ + 1) % capacity_;
    // Drop decrease records whose older endpoint has aged out of the ring.
    const SimTime oldest = at(0).t;
    std::size_t keep_from = 0;
    while (keep_from < decreases_.size() &&
           decreases_[keep_from].t_prev < oldest) {
      ++keep_from;
    }
    if (keep_from > 0) {
      decreases_.erase(decreases_.begin(),
                       decreases_.begin() + static_cast<long>(keep_from));
    }
  }
  return true;
}

const Sample& Series::at(std::size_t i) const {
  LTS_REQUIRE(i < size_, "Series: index out of range");
  return buffer_[(head_ + i) % capacity_];
}

const Sample& Series::latest() const {
  LTS_REQUIRE(size_ > 0, "Series: empty");
  return at(size_ - 1);
}

std::pair<std::size_t, std::size_t> Series::window(SimTime t_from,
                                                   SimTime t_to) const {
  // The ring is time-ordered (append drops late samples), so the window is
  // one contiguous run: binary-search its first sample, then walk to its
  // end. "Before the window" is !(t >= t_from), which is a prefix of the
  // ring for any t_from; a NaN bound selects nothing, as a scan would.
  std::size_t lo = 0;
  std::size_t hi = size_;
  while (lo < hi) {
    const std::size_t mid = lo + (hi - lo) / 2;
    if (!(at(mid).t >= t_from)) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  std::size_t last = lo;
  while (last < size_ && at(last).t <= t_to) ++last;
  return {lo, last};
}

std::size_t Series::num_decreases_between(SimTime t_from, SimTime t_to) const {
  std::size_t n = 0;
  // decreases_ is ordered by t_prev; the list is empty for well-behaved
  // counters, so the straight scan beats setting up a binary search.
  for (const Decrease& d : decreases_) {
    if (d.t_prev > t_to) break;
    if (d.t_prev >= t_from && d.t_curr <= t_to) ++n;
  }
  return n;
}

}  // namespace lts::telemetry
