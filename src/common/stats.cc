#include "common/stats.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>

namespace jqos {

void OnlineStats::add(double x) {
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  sum_ += x;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

double OnlineStats::variance() const {
  if (n_ < 2) return 0.0;
  return m2_ / static_cast<double>(n_);
}

double OnlineStats::stddev() const { return std::sqrt(variance()); }

void OnlineStats::merge(const OnlineStats& other) {
  if (other.n_ == 0) return;
  if (n_ == 0) {
    *this = other;
    return;
  }
  const double n1 = static_cast<double>(n_);
  const double n2 = static_cast<double>(other.n_);
  const double delta = other.mean_ - mean_;
  const double n = n1 + n2;
  mean_ += delta * n2 / n;
  m2_ += other.m2_ + delta * delta * n1 * n2 / n;
  n_ += other.n_;
  sum_ += other.sum_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

void Samples::add(double x) {
  xs_.push_back(x);
  sorted_valid_ = false;
}

void Samples::ensure_sorted() const {
  if (sorted_valid_) return;
  sorted_ = xs_;
  std::sort(sorted_.begin(), sorted_.end());
  sorted_valid_ = true;
}

double Samples::mean() const {
  // Neumaier-compensated summation: naive accumulation over multi-million-
  // sample sets loses the small samples entirely once the running sum grows
  // large (or cancels), which skewed soak-run means. The compensation term
  // recovers the rounding error of every add.
  if (xs_.empty()) return 0.0;
  double sum = 0.0;
  double comp = 0.0;
  for (double x : xs_) {
    const double t = sum + x;
    if (std::abs(sum) >= std::abs(x)) {
      comp += (sum - t) + x;
    } else {
      comp += (x - t) + sum;
    }
    sum = t;
  }
  return (sum + comp) / static_cast<double>(xs_.size());
}

double Samples::min() const {
  ensure_sorted();
  return sorted_.empty() ? 0.0 : sorted_.front();
}

double Samples::max() const {
  ensure_sorted();
  return sorted_.empty() ? 0.0 : sorted_.back();
}

double Samples::percentile(double p) const {
  if (xs_.empty()) return std::numeric_limits<double>::quiet_NaN();
  ensure_sorted();
  p = std::clamp(p, 0.0, 100.0);
  const double rank = p / 100.0 * static_cast<double>(sorted_.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, sorted_.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return sorted_[lo] * (1.0 - frac) + sorted_[hi] * frac;
}

double Samples::cdf_at(double x) const {
  if (xs_.empty()) return 0.0;
  ensure_sorted();
  const auto it = std::upper_bound(sorted_.begin(), sorted_.end(), x);
  return static_cast<double>(it - sorted_.begin()) / static_cast<double>(sorted_.size());
}

std::vector<Samples::CdfPoint> Samples::cdf_points(std::size_t n) const {
  std::vector<CdfPoint> out;
  if (xs_.empty() || n == 0) return out;
  out.reserve(n + 1);
  for (std::size_t i = 0; i <= n; ++i) {
    const double frac = static_cast<double>(i) / static_cast<double>(n);
    out.push_back(CdfPoint{percentile(frac * 100.0), frac});
  }
  return out;
}

QuantileSketch::QuantileSketch(std::size_t k) : k_(std::max<std::size_t>(k, 8)) {
  // An odd capacity would strand a leftover item on every compaction; keep
  // it even so the steady-state add path always compacts a full buffer.
  if (k_ % 2 != 0) ++k_;
  levels_.emplace_back();
  levels_[0].reserve(k_);
  parity_.push_back(0);
}

void QuantileSketch::add(double x) {
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  levels_[0].push_back(x);
  if (levels_[0].size() >= k_) compact(0);
}

void QuantileSketch::compact(std::size_t level) {
  // Sort the full level and promote every other element with doubled
  // weight. The starting parity alternates per level across compactions so
  // neither the even nor the odd ranks are systematically favored; it is
  // part of the sketch state, keeping the whole structure (and thus merged
  // fingerprints) a pure function of the insertion sequence. An odd-sized
  // level (possible after merge) leaves its minimum behind at the same
  // weight, so total weight is always conserved exactly.
  if (level + 1 >= levels_.size()) {
    levels_.emplace_back();
    levels_[level + 1].reserve(k_);
    parity_.push_back(0);
  }
  std::vector<double>& cur = levels_[level];
  std::sort(cur.begin(), cur.end());
  std::size_t start = 0;
  if (cur.size() % 2 != 0) start = 1;  // cur[0] stays as the leftover.
  const std::size_t offset = parity_[level];
  parity_[level] ^= 1;
  std::vector<double>& up = levels_[level + 1];
  for (std::size_t i = start + offset; i < cur.size(); i += 2) up.push_back(cur[i]);
  if (start == 1) {
    const double leftover = cur[0];
    cur.clear();
    cur.push_back(leftover);
  } else {
    cur.clear();
  }
  if (up.size() >= k_) compact(level + 1);
}

void QuantileSketch::merge(const QuantileSketch& other) {
  if (other.n_ == 0) return;
  if (n_ == 0) {
    min_ = other.min_;
    max_ = other.max_;
  } else {
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
  }
  n_ += other.n_;
  if (other.levels_.size() > levels_.size()) {
    levels_.resize(other.levels_.size());
    parity_.resize(other.levels_.size(), 0);
  }
  for (std::size_t l = 0; l < other.levels_.size(); ++l) {
    levels_[l].insert(levels_[l].end(), other.levels_[l].begin(), other.levels_[l].end());
  }
  for (std::size_t l = 0; l < levels_.size(); ++l) {
    if (levels_[l].size() >= k_) compact(l);
  }
}

double QuantileSketch::min() const {
  return n_ ? min_ : std::numeric_limits<double>::quiet_NaN();
}

double QuantileSketch::max() const {
  return n_ ? max_ : std::numeric_limits<double>::quiet_NaN();
}

std::size_t QuantileSketch::retained() const {
  std::size_t total = 0;
  for (const auto& level : levels_) total += level.size();
  return total;
}

double QuantileSketch::quantile(double q) const {
  if (n_ == 0) return std::numeric_limits<double>::quiet_NaN();
  q = std::clamp(q, 0.0, 1.0);

  // Gather the weighted survivors. Each level-L item stands for 2^L of the
  // original samples, occupying a block of consecutive order-statistic
  // ranks; with every weight 1 (n <= k) this walk reduces exactly to
  // Samples::percentile's interpolation.
  struct Item {
    double value;
    std::uint64_t weight;
  };
  std::vector<Item> items;
  items.reserve(retained());
  for (std::size_t l = 0; l < levels_.size(); ++l) {
    const std::uint64_t w = 1ULL << l;
    for (double v : levels_[l]) items.push_back(Item{v, w});
  }
  std::sort(items.begin(), items.end(), [](const Item& a, const Item& b) {
    return a.value < b.value;
  });

  const double rank = q * static_cast<double>(n_ - 1);
  const std::uint64_t lo_rank = static_cast<std::uint64_t>(rank);
  const std::uint64_t hi_rank = std::min<std::uint64_t>(lo_rank + 1, n_ - 1);
  const double frac = rank - static_cast<double>(lo_rank);

  double lo_val = items.back().value;
  double hi_val = items.back().value;
  bool lo_set = false;
  std::uint64_t cum = 0;
  for (const Item& it : items) {
    cum += it.weight;
    if (!lo_set && cum > lo_rank) {
      lo_val = it.value;
      lo_set = true;
    }
    if (cum > hi_rank) {
      hi_val = it.value;
      break;
    }
  }
  return lo_val * (1.0 - frac) + hi_val * frac;
}

std::string summarize_percentiles(const Samples& s) {
  std::ostringstream os;
  os << "n=" << s.count() << " p50=" << s.percentile(50) << " p90=" << s.percentile(90)
     << " p95=" << s.percentile(95) << " p99=" << s.percentile(99);
  return os.str();
}

}  // namespace jqos
