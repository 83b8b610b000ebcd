#include "core/speculative_eval.h"

#include <algorithm>
#include <utility>

namespace ides {

SpeculativeEvalPool::SpeculativeEvalPool(const SolutionEvaluator& evaluator,
                                         int workers, EvalContext* context0)
    : workers_(std::max(1, workers)),
      owned_(evaluator, static_cast<std::size_t>(workers_) -
                            (context0 != nullptr ? 1 : 0)),
      errors_(static_cast<std::size_t>(workers_)) {
  if (context0 != nullptr) contexts_.push_back(context0);
  for (std::size_t i = 0; i < owned_.size(); ++i) {
    contexts_.push_back(&owned_[i]);
  }
  threads_.reserve(static_cast<std::size_t>(workers_ - 1));
  try {
    for (int w = 1; w < workers_; ++w) {
      threads_.emplace_back([this, w] { workerLoop(w); });
    }
  } catch (...) {
    stopWorkers();
    throw;
  }
}

SpeculativeEvalPool::~SpeculativeEvalPool() { stopWorkers(); }

void SpeculativeEvalPool::stopWorkers() {
  if (threads_.empty()) return;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
    ++epoch_;
  }
  start_.notify_all();
  for (std::thread& t : threads_) t.join();
  threads_.clear();
}

void SpeculativeEvalPool::workerLoop(int w) {
  std::uint64_t seen = 0;
  while (true) {
    {
      std::unique_lock<std::mutex> lock(mutex_);
      start_.wait(lock, [&] { return epoch_ != seen; });
      seen = epoch_;
      if (stopping_) return;
    }
    runShare(w);
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      --running_;
    }
    done_.notify_one();
  }
}

void SpeculativeEvalPool::runShare(int w) {
  try {
    EvalContext& ctx = *contexts_[static_cast<std::size_t>(w)];
    for (std::size_t i = static_cast<std::size_t>(w); i < itemCount_;
         i += static_cast<std::size_t>(workers_)) {
      Item& item = items_[i];
      if (item.trial == nullptr) continue;
      item.result = ctx.evaluate(*item.trial, item.hint);
      if (item.result.feasible) {
        // Fingerprint for the zero-delta filter, taken now: this context
        // moves on to the worker's next item before the replay decides
        // which item the chain accepts.
        item.arrivals = ctx.arrivalBounds();
        const std::vector<ScheduledProcess>& procs = ctx.processes();
        item.ends.resize(procs.size());
        for (std::size_t p = 0; p < procs.size(); ++p) {
          item.ends[p] = procs[p].end;
        }
      }
    }
  } catch (...) {
    errors_[static_cast<std::size_t>(w)] = std::current_exception();
  }
}

void SpeculativeEvalPool::evaluate(Item* items, std::size_t count) {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    items_ = items;
    itemCount_ = count;
    running_ = workers_ - 1;
    ++epoch_;
  }
  start_.notify_all();
  runShare(0);
  {
    std::unique_lock<std::mutex> lock(mutex_);
    done_.wait(lock, [&] { return running_ == 0; });
  }
  for (std::exception_ptr& e : errors_) {
    if (e) std::rethrow_exception(std::exchange(e, nullptr));
  }
}

}  // namespace ides
