// Statistics utilities used throughout the evaluation harness: streaming
// moments, sample sets with percentile/CDF/CCDF extraction (the CDFs of
// Figure 9(a) come from Samples), and an O(1)-memory streaming quantile
// sketch for soak runs too large to store every sample.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace jqos {

// Streaming count/mean/variance/min/max (Welford). O(1) memory, suitable for
// per-path counters in month-long simulated deployments.
class OnlineStats {
 public:
  void add(double x);

  std::size_t count() const { return n_; }
  double mean() const { return n_ ? mean_ : 0.0; }
  double variance() const;  // Population variance.
  double stddev() const;
  double min() const { return n_ ? min_ : 0.0; }
  double max() const { return n_ ? max_ : 0.0; }
  double sum() const { return sum_; }

  void merge(const OnlineStats& other);

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
  double sum_ = 0.0;
};

// A collected sample set with percentile and distribution queries. Sorting
// is lazy and cached; add() invalidates the cache.
class Samples {
 public:
  void add(double x);
  void reserve(std::size_t n) { xs_.reserve(n); }

  std::size_t count() const { return xs_.size(); }
  bool empty() const { return xs_.empty(); }
  double mean() const;
  double min() const;
  double max() const;

  // Linear-interpolated percentile, p in [0, 100]. NaN on an empty set (a
  // 0.0 would be indistinguishable from a real zero sample). With one
  // sample every percentile is that sample; with two, p interpolates
  // linearly between them. QuantileSketch matches these answers exactly
  // while all data still fits in its level-0 buffer.
  double percentile(double p) const;
  double median() const { return percentile(50.0); }

  // Fraction of samples <= x (the empirical CDF evaluated at x).
  double cdf_at(double x) const;
  // Fraction of samples > x.
  double ccdf_at(double x) const { return 1.0 - cdf_at(x); }

  // n evenly spaced (value, cumulative fraction) points, suitable for
  // printing a CDF series like the paper's figures.
  struct CdfPoint {
    double value;
    double fraction;
  };
  std::vector<CdfPoint> cdf_points(std::size_t n = 20) const;

  const std::vector<double>& values() const { return xs_; }

 private:
  void ensure_sorted() const;

  std::vector<double> xs_;
  mutable std::vector<double> sorted_;
  mutable bool sorted_valid_ = false;
};

// Streaming quantile estimation in O(k log(n/k)) memory -- the soak-run
// replacement for Samples, which stores every value and cannot survive a
// 10M-session churn run. MRL/KLL-style: a stack of capacity-k buffers where
// level L holds items of weight 2^L. A full level is sorted and every other
// element (alternating parity per level, tracked in the sketch state so the
// whole structure is a pure function of the insertion sequence) is promoted
// to the next level with doubled weight.
//
// Contracts:
//  * Exact while n <= k: everything sits unweighted in level 0 and
//    quantile() uses the same rank interpolation as Samples::percentile, so
//    small-n answers are bit-identical to Samples (goldens in common_test).
//  * percentile() of an empty sketch is NaN, matching Samples.
//  * merge() mirrors OnlineStats::merge: per-shard sketches combine into
//    the totals sketch, and the result is a deterministic function of the
//    operand states and merge order. ShardedRunner-style callers merge in
//    shard-index order, making merged quantiles bit-identical across
//    thread counts.
//  * Rank error: observed well under 1% of n at p50/p99/p999 for k = 1024
//    over multi-million-sample streams (pinned by tests/workload_test.cc).
class QuantileSketch {
 public:
  explicit QuantileSketch(std::size_t k = 1024);

  void add(double x);
  void merge(const QuantileSketch& other);

  std::uint64_t count() const { return n_; }
  bool empty() const { return n_ == 0; }
  double min() const;  // NaN when empty.
  double max() const;  // NaN when empty.

  // Interpolated quantile estimate, q in [0, 1]; NaN when empty.
  double quantile(double q) const;
  // Samples-compatible spelling, p in [0, 100].
  double percentile(double p) const { return quantile(p / 100.0); }

  // Stored values across all levels (memory footprint, not sample count).
  std::size_t retained() const;

 private:
  void compact(std::size_t level);

  std::size_t k_;
  std::uint64_t n_ = 0;
  double min_ = 0.0;
  double max_ = 0.0;
  std::vector<std::vector<double>> levels_;
  std::vector<std::uint8_t> parity_;  // Per-level compaction phase.
};

// Renders "p50=.. p90=.. p99=.." for log lines and reports.
std::string summarize_percentiles(const Samples& s);

}  // namespace jqos
