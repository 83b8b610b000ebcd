// Deterministic random number generation.
//
// Every stochastic component (graph generators, simulated annealing, the C1
// packing sampler) takes an explicit seed or an Rng&; nothing reads global
// entropy. Re-running any experiment with the same seed reproduces the same
// numbers bit-for-bit, which the benchmark harness relies on to compare
// strategies on identical instances.
#pragma once

#include <cstdint>
#include <random>
#include <span>
#include <utility>
#include <vector>

namespace ides {

/// splitmix64 finalizer: a cheap bijective scrambler with good avalanche
/// behaviour. Used wherever one logical seed has to be fanned out into many
/// decorrelated generator seeds (parallel SA chains, split RNG streams).
[[nodiscard]] std::uint64_t splitmix64(std::uint64_t x);

/// Seed of deterministic stream `stream` derived from `seed`. Streams of
/// one seed are mutually decorrelated and stable across platforms, which
/// lets one stochastic component split its draws into independent
/// sub-sequences (e.g. SA's move-proposal stream vs. its Metropolis
/// acceptance stream) that can be consumed at different rates without one
/// perturbing the other.
[[nodiscard]] std::uint64_t rngStreamSeed(std::uint64_t seed,
                                          std::uint64_t stream);

/// Thin deterministic wrapper around mt19937_64.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : engine_(seed) {}

  /// Uniform integer in [lo, hi] (inclusive). Requires lo <= hi.
  std::int64_t uniformInt(std::int64_t lo, std::int64_t hi);

  /// Uniform real in [0, 1).
  double uniform01();

  /// Uniform real in [lo, hi).
  double uniformReal(double lo, double hi);

  /// Bernoulli trial.
  bool chance(double probability);

  /// Uniform index in [0, size). Requires size > 0.
  std::size_t index(std::size_t size);

  /// Pick a uniformly random element. Requires non-empty span.
  template <typename T>
  const T& pick(std::span<const T> items) {
    return items[index(items.size())];
  }
  template <typename T>
  const T& pick(const std::vector<T>& items) {
    return items[index(items.size())];
  }

  /// Fisher-Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& items) {
    for (std::size_t i = items.size(); i > 1; --i) {
      std::swap(items[i - 1], items[index(i)]);
    }
  }

  /// Derive an independent child generator (for per-instance seeding).
  Rng fork();

  std::mt19937_64& engine() { return engine_; }

 private:
  std::mt19937_64 engine_;
};

/// Finite discrete distribution over (value, probability) pairs.
///
/// Used for the paper's future-application characterization: "typical
/// process WCET" and "typical message size" histograms (slide 10).
class DiscreteDistribution {
 public:
  struct Entry {
    std::int64_t value = 0;
    double probability = 0.0;
  };

  DiscreteDistribution() = default;
  /// Probabilities are normalized; entries with p <= 0 are rejected.
  explicit DiscreteDistribution(std::vector<Entry> entries);

  /// Draw a random value.
  [[nodiscard]] std::int64_t sample(Rng& rng) const;

  /// Probability-weighted mean value.
  [[nodiscard]] double expectedValue() const;

  /// Deterministic stream of values whose long-run mix matches the
  /// probabilities exactly (largest-remainder round-robin). Element i of the
  /// result is the i-th value of the stream. Used by the C1 metric so that
  /// the "largest future application" is the same for every design
  /// alternative being compared.
  [[nodiscard]] std::vector<std::int64_t> deterministicStream(
      std::size_t count) const;

  /// Per-entry item counts of deterministicStream(count): quotas[i] copies
  /// of entries()[i].value, emitted by descending value. Lets hot callers
  /// (the C1 metric) consume the stream run-by-run without materializing
  /// it.
  [[nodiscard]] std::vector<std::size_t> deterministicQuotas(
      std::size_t count) const;

  /// Scratch of deterministicQuotasInto: (fractional part, entry index).
  using QuotaRemainders = std::vector<std::pair<double, std::size_t>>;

  /// deterministicQuotas written into `quotas`, with `remainders` as
  /// scratch. Both keep their capacity across calls, so a caller that
  /// holds them (the C1 metric, twice per evaluation) allocates nothing.
  void deterministicQuotasInto(std::size_t count,
                               std::vector<std::size_t>& quotas,
                               QuotaRemainders& remainders) const;

  [[nodiscard]] const std::vector<Entry>& entries() const { return entries_; }
  [[nodiscard]] bool empty() const { return entries_.empty(); }
  [[nodiscard]] std::int64_t maxValue() const;
  [[nodiscard]] std::int64_t minValue() const;

 private:
  std::vector<Entry> entries_;           // sorted by value, normalized
  std::vector<double> cumulative_;       // prefix sums for sampling
};

}  // namespace ides
