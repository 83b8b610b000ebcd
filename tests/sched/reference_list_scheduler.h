// The ready-heap list scheduler the scheduler suites compare scheduleGraphs
// against. It pops each next job from a live ready heap (priority desc, then
// release, pid and instance asc) and releases successors as jobs commit,
// instead of following computeJobOrder's static order. Every job first
// runs a candidate pre-pass over its node choices against the current
// occupancy — all allowed nodes for an unmapped HCP process, else its one
// node — and is then committed on the earliest-finishing candidate. It
// shares only PlatformState and the priority function with the production
// loop, so the static-order argument (list_scheduler.h, GraphJobOrder) is
// checked here rather than assumed: placed outcomes must match entry for
// entry, unplaced ones on their flags and tallies.
#pragma once

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "model/graph_algos.h"
#include "model/system_model.h"
#include "sched/list_scheduler.h"

namespace ides::testing {

inline ScheduleOutcome referenceScheduleGraphs(const SystemModel& sys,
                                               const ScheduleRequest& req,
                                               PlatformState& state) {
  if (!req.chooseNodes && req.mapping == nullptr) {
    throw std::invalid_argument(
        "scheduleGraphs: mapping mode requires a MappingSolution");
  }
  struct Job {
    ProcessId pid;
    std::int32_t instance = 0;
    Time release = 0;
    Time absDeadline = 0;
    Time end = kNoTime;
    double priority = 0.0;
    int remainingInputs = 0;
  };
  const auto readyOrder = [](const Job* a, const Job* b) {
    if (a->priority != b->priority) return a->priority < b->priority;
    if (a->release != b->release) return a->release > b->release;
    if (a->pid != b->pid) return a->pid.value > b->pid.value;
    return a->instance > b->instance;
  };
  const TdmaBus& bus = sys.architecture().bus();

  ScheduleOutcome out;
  MappingSolution& mapping = out.mapping;
  mapping = req.mapping != nullptr ? *req.mapping : MappingSolution(sys);
  bool placed = true;
  for (std::size_t gi = 0; gi < req.graphs.size() && placed; ++gi) {
    const ProcessGraph& graph = sys.graph(req.graphs[gi]);
    const std::vector<double> priorities =
        req.priorities != nullptr ? (*req.priorities)[gi]
                                  : criticalPathPriorities(sys, graph.id);
    const std::size_t procCount = graph.processes.size();
    std::vector<std::size_t> local(sys.processes().size(), 0);
    std::vector<Job> jobs;
    for (std::int64_t k = 0; k < sys.instanceCount(graph.id); ++k) {
      for (std::size_t i = 0; i < procCount; ++i) {
        const ProcessId p = graph.processes[i];
        local[p.index()] = i;
        jobs.push_back({p, static_cast<std::int32_t>(k), graph.releaseOf(k),
                        graph.deadlineOf(k), kNoTime, priorities[i],
                        static_cast<int>(sys.inputsOf(p).size())});
      }
    }
    const auto jobAt = [&](ProcessId p, std::int32_t instance) -> Job& {
      return jobs[static_cast<std::size_t>(instance) * procCount +
                  local[p.index()]];
    };
    const auto messageReady = [&](const Message& msg, std::int32_t instance) {
      return std::max(jobAt(msg.src, instance).end,
                      mapping.messageHint(msg.id) +
                          static_cast<Time>(instance) * graph.period);
    };
    std::vector<Job*> ready;
    for (Job& j : jobs) {
      if (j.remainingInputs == 0) ready.push_back(&j);
    }
    std::make_heap(ready.begin(), ready.end(), readyOrder);

    std::size_t scheduled = 0;
    while (!ready.empty() && placed) {
      std::pop_heap(ready.begin(), ready.end(), readyOrder);
      Job& job = *ready.back();
      ready.pop_back();
      const Process& proc = sys.process(job.pid);
      const Time hintedRelease =
          std::max(job.release, static_cast<Time>(job.instance) *
                                        graph.period +
                                    mapping.startHint(job.pid));

      std::vector<NodeId> candidates;
      const NodeId mapped = mapping.nodeOf(job.pid);
      if (mapped.valid()) {
        if (!proc.allowedOn(mapped)) {
          throw std::invalid_argument(
              "scheduleGraphs: mapping assigns a disallowed node");
        }
        candidates.push_back(mapped);
      } else if (req.chooseNodes) {
        candidates = proc.allowedNodes();
      } else {
        throw std::invalid_argument(
            "scheduleGraphs: mapping assigns a disallowed node");
      }

      // Pre-pass: the finish time on every candidate, committing nothing.
      NodeId best;
      Time bestFinish = kTimeMax;
      for (const NodeId n : candidates) {
        Time est = hintedRelease;
        bool ok = true;
        for (const MessageId mId : sys.inputsOf(job.pid)) {
          const Message& msg = sys.message(mId);
          const NodeId srcNode = mapping.nodeOf(msg.src);
          if (srcNode == n) {
            est = std::max(est, jobAt(msg.src, job.instance).end);
            continue;
          }
          const auto placement = state.findBusSlot(
              bus.slotOfNode(srcNode), messageReady(msg, job.instance),
              bus.transmissionTime(msg.sizeBytes));
          if (!placement) {
            ok = false;
            break;
          }
          est = std::max(est, placement->end);
        }
        if (!ok) continue;
        const Time start = state.earliestFit(n, est, proc.wcetOn(n));
        if (start != kNoTime && start + proc.wcetOn(n) < bestFinish) {
          bestFinish = start + proc.wcetOn(n);
          best = n;
        }
      }
      if (!best.valid()) {
        placed = false;
        break;
      }

      // Commit: messages one by one against the growing bus occupancy, then
      // the job itself.
      Time est = hintedRelease;
      for (const MessageId mId : sys.inputsOf(job.pid)) {
        const Message& msg = sys.message(mId);
        const NodeId srcNode = mapping.nodeOf(msg.src);
        if (srcNode == best) {
          est = std::max(est, jobAt(msg.src, job.instance).end);
          continue;
        }
        const std::size_t slot = bus.slotOfNode(srcNode);
        const Time txTicks = bus.transmissionTime(msg.sizeBytes);
        const auto placement =
            state.findBusSlot(slot, messageReady(msg, job.instance), txTicks);
        if (!placement) {
          placed = false;
          break;
        }
        state.occupyBus(slot, placement->round, txTicks);
        out.schedule.addMessage({msg.id, job.instance, slot, placement->round,
                                 placement->start, placement->end});
        est = std::max(est, placement->end);
      }
      if (!placed) break;
      const Time start = state.earliestFit(best, est, proc.wcetOn(best));
      if (start == kNoTime) {
        placed = false;
        break;
      }
      const Time end = start + proc.wcetOn(best);
      state.occupyNode(best, {start, end});
      out.schedule.addProcess({job.pid, job.instance, best, start, end});
      mapping.setNode(job.pid, best);
      job.end = end;
      ++scheduled;
      if (end > job.absDeadline) {
        out.deadlineMisses += 1;
        out.totalLateness += end - job.absDeadline;
      }
      for (const MessageId mId : sys.outputsOf(job.pid)) {
        Job& dst = jobAt(sys.message(mId).dst, job.instance);
        if (--dst.remainingInputs == 0) {
          ready.push_back(&dst);
          std::push_heap(ready.begin(), ready.end(), readyOrder);
        }
      }
    }
    placed = placed && scheduled == jobs.size();
  }
  out.placed = placed;
  out.feasible = placed && out.deadlineMisses == 0;
  return out;
}

}  // namespace ides::testing
