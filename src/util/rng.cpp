#include "util/rng.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace ides {

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

std::uint64_t rngStreamSeed(std::uint64_t seed, std::uint64_t stream) {
  // Two finalizer rounds over the (seed, stream) pair: the golden-ratio
  // multiplier spreads small stream ids across the word before mixing, so
  // stream 0 is as far from stream 1 as from stream 2^40.
  return splitmix64(splitmix64(seed + (stream + 1) * 0x9e3779b97f4a7c15ULL));
}

std::int64_t Rng::uniformInt(std::int64_t lo, std::int64_t hi) {
  if (lo > hi) throw std::invalid_argument("Rng::uniformInt: lo > hi");
  return std::uniform_int_distribution<std::int64_t>(lo, hi)(engine_);
}

double Rng::uniform01() {
  return std::uniform_real_distribution<double>(0.0, 1.0)(engine_);
}

double Rng::uniformReal(double lo, double hi) {
  return std::uniform_real_distribution<double>(lo, hi)(engine_);
}

bool Rng::chance(double probability) {
  if (probability <= 0.0) return false;
  if (probability >= 1.0) return true;
  return uniform01() < probability;
}

std::size_t Rng::index(std::size_t size) {
  if (size == 0) throw std::invalid_argument("Rng::index: empty range");
  return static_cast<std::size_t>(
      uniformInt(0, static_cast<std::int64_t>(size) - 1));
}

Rng Rng::fork() { return Rng(engine_()); }

DiscreteDistribution::DiscreteDistribution(std::vector<Entry> entries)
    : entries_(std::move(entries)) {
  if (entries_.empty()) {
    throw std::invalid_argument("DiscreteDistribution: no entries");
  }
  double total = 0.0;
  for (const Entry& e : entries_) {
    if (e.probability <= 0.0) {
      throw std::invalid_argument(
          "DiscreteDistribution: probabilities must be positive");
    }
    total += e.probability;
  }
  std::sort(entries_.begin(), entries_.end(),
            [](const Entry& a, const Entry& b) { return a.value < b.value; });
  cumulative_.reserve(entries_.size());
  double acc = 0.0;
  for (Entry& e : entries_) {
    e.probability /= total;
    acc += e.probability;
    cumulative_.push_back(acc);
  }
  cumulative_.back() = 1.0;  // guard against rounding
}

std::int64_t DiscreteDistribution::sample(Rng& rng) const {
  const double u = rng.uniform01();
  auto it = std::lower_bound(cumulative_.begin(), cumulative_.end(), u);
  const std::size_t i =
      std::min<std::size_t>(static_cast<std::size_t>(it - cumulative_.begin()),
                            entries_.size() - 1);
  return entries_[i].value;
}

double DiscreteDistribution::expectedValue() const {
  double mean = 0.0;
  for (const Entry& e : entries_) {
    mean += static_cast<double>(e.value) * e.probability;
  }
  return mean;
}

std::vector<std::size_t> DiscreteDistribution::deterministicQuotas(
    std::size_t count) const {
  std::vector<std::size_t> quota;
  QuotaRemainders remainders;
  deterministicQuotasInto(count, quota, remainders);
  return quota;
}

void DiscreteDistribution::deterministicQuotasInto(
    std::size_t count, std::vector<std::size_t>& quota,
    QuotaRemainders& remainders) const {
  // Largest-remainder apportionment of `count` draws across the entries.
  quota.assign(entries_.size(), 0);
  remainders.clear();
  std::size_t assigned = 0;
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    const double exact = entries_[i].probability * static_cast<double>(count);
    quota[i] = static_cast<std::size_t>(exact);
    assigned += quota[i];
    remainders.emplace_back(exact - std::floor(exact), i);
  }
  std::sort(remainders.begin(), remainders.end(),
            [](const auto& a, const auto& b) {
              if (a.first != b.first) return a.first > b.first;
              return a.second < b.second;
            });
  for (std::size_t k = 0; assigned < count; ++k, ++assigned) {
    quota[remainders[k % remainders.size()].second] += 1;
  }
}

std::vector<std::int64_t> DiscreteDistribution::deterministicStream(
    std::size_t count) const {
  // Emit the quotas interleaved largest-value-first so bin packing sees the
  // hard items early (best-fit-decreasing behaviour).
  const std::vector<std::size_t> quota = deterministicQuotas(count);
  std::vector<std::int64_t> out;
  out.reserve(count);
  for (std::size_t i = entries_.size(); i > 0; --i) {
    for (std::size_t k = 0; k < quota[i - 1]; ++k) {
      out.push_back(entries_[i - 1].value);
    }
  }
  return out;
}

std::int64_t DiscreteDistribution::maxValue() const {
  return entries_.back().value;
}

std::int64_t DiscreteDistribution::minValue() const {
  return entries_.front().value;
}

}  // namespace ides
