#include "sched/list_scheduler.h"

#include <algorithm>
#include <stdexcept>

#include "model/graph_algos.h"
#include "model/system_model.h"

namespace ides {

struct SchedulerSession::ReadyOrder {
  // priority desc, then release asc, then (pid, instance) asc for
  // determinism. The heap pops the *largest*, so "a before b" must mean
  // a < b here.
  bool operator()(const Job* a, const Job* b) const {
    if (a->priority != b->priority) return a->priority < b->priority;
    if (a->release != b->release) return a->release > b->release;
    if (a->pid != b->pid) return a->pid.value > b->pid.value;
    return a->instance > b->instance;
  }
};

SchedulerSession::SchedulerSession(const SystemModel& sys,
                                   PlatformState& state)
    : sys_(&sys), state_(&state) {
  procLocal_.assign(sys.processes().size(), -1);
}

GraphJobOrder computeJobOrder(const SystemModel& sys, GraphId g,
                              const std::vector<double>& priorities) {
  const ProcessGraph& graph = sys.graph(g);
  const std::size_t procCount = graph.processes.size();
  const std::int64_t instances = sys.instanceCount(g);
  const std::size_t jobCount = procCount * static_cast<std::size_t>(instances);

  std::vector<std::int32_t> procLocal(sys.processes().size(), -1);
  for (std::size_t i = 0; i < procCount; ++i) {
    procLocal[graph.processes[i].index()] = static_cast<std::int32_t>(i);
  }

  // The same Job keys and ReadyOrder comparator as the scheduling loop, but
  // popping commits nothing: committing a job only releases successors, so
  // the pop sequence here is exactly the commit order of the real run.
  struct OrderJob {
    ProcessId pid;
    std::int32_t instance = 0;
    std::int32_t flat = 0;
    Time release = 0;
    double priority = 0.0;
    int remainingInputs = 0;
  };
  std::vector<OrderJob> jobs;
  jobs.reserve(jobCount);
  for (std::int64_t k = 0; k < instances; ++k) {
    for (std::size_t i = 0; i < procCount; ++i) {
      const ProcessId p = graph.processes[i];
      OrderJob job;
      job.pid = p;
      job.instance = static_cast<std::int32_t>(k);
      job.flat = static_cast<std::int32_t>(
          static_cast<std::size_t>(k) * procCount + i);
      job.release = graph.releaseOf(k);
      job.priority = priorities[i];
      job.remainingInputs = static_cast<int>(sys.inputsOf(p).size());
      jobs.push_back(job);
    }
  }
  const auto order = [](const OrderJob* a, const OrderJob* b) {
    if (a->priority != b->priority) return a->priority < b->priority;
    if (a->release != b->release) return a->release > b->release;
    if (a->pid != b->pid) return a->pid.value > b->pid.value;
    return a->instance > b->instance;
  };

  std::vector<OrderJob*> ready;
  for (OrderJob& j : jobs) {
    if (j.remainingInputs == 0) ready.push_back(&j);
  }
  std::make_heap(ready.begin(), ready.end(), order);

  GraphJobOrder out;
  out.processCount = procCount;
  out.jobAt.reserve(jobCount);
  out.positionOf.assign(jobCount, -1);
  while (!ready.empty()) {
    std::pop_heap(ready.begin(), ready.end(), order);
    OrderJob& job = *ready.back();
    ready.pop_back();
    out.positionOf[static_cast<std::size_t>(job.flat)] =
        static_cast<std::int32_t>(out.jobAt.size());
    out.jobAt.push_back(job.flat);
    for (const MessageId mId : sys.outputsOf(job.pid)) {
      const Message& msg = sys.message(mId);
      OrderJob& dst =
          jobs[static_cast<std::size_t>(job.instance) * procCount +
               static_cast<std::size_t>(procLocal[msg.dst.index()])];
      if (--dst.remainingInputs == 0) {
        ready.push_back(&dst);
        std::push_heap(ready.begin(), ready.end(), order);
      }
    }
  }
  if (out.jobAt.size() != jobCount) {
    throw std::logic_error("computeJobOrder: graph has a dependency cycle");
  }
  return out;
}

SchedulerSession::GraphResult SchedulerSession::scheduleGraph(
    GraphId g, const MappingSolution& mapping,
    const std::vector<double>* priorities,
    std::vector<ScheduledProcess>& processesOut,
    std::vector<ScheduledMessage>& messagesOut) {
  return run(g, mapping, nullptr, priorities, processesOut, messagesOut);
}

SchedulerSession::GraphResult SchedulerSession::scheduleGraphChoosingNodes(
    GraphId g, MappingSolution& mapping,
    const std::vector<double>* priorities,
    std::vector<ScheduledProcess>& processesOut,
    std::vector<ScheduledMessage>& messagesOut) {
  return run(g, mapping, &mapping, priorities, processesOut, messagesOut);
}

SchedulerSession::GraphResult SchedulerSession::run(
    GraphId g, const MappingSolution& mapping, MappingSolution* chosen,
    const std::vector<double>* priorities,
    std::vector<ScheduledProcess>& processesOut,
    std::vector<ScheduledMessage>& messagesOut) {
  const SystemModel& sys = *sys_;
  PlatformState& state = *state_;
  const TdmaBus& bus = sys.architecture().bus();
  const ProcessGraph& graph = sys.graph(g);
  const bool chooseNodes = chosen != nullptr;
  const std::size_t procCount = graph.processes.size();

  GraphResult out;
  if (priorities == nullptr) {
    localPriorities_ = criticalPathPriorities(sys, g);
    priorities = &localPriorities_;
  }

  const std::int64_t instances = sys.instanceCount(g);
  materializeJobs(graph, *priorities, instances);
  const auto jobAt = [&](ProcessId p, std::int32_t instance) -> Job& {
    return jobs_[static_cast<std::size_t>(instance) * procCount +
                 static_cast<std::size_t>(procLocal_[p.index()])];
  };

  ready_.clear();
  for (Job& j : jobs_) {
    if (j.remainingInputs == 0) ready_.push_back(&j);
  }
  std::make_heap(ready_.begin(), ready_.end(), ReadyOrder{});

  // Arrival of a message for the destination: end of the committed bus
  // transmission, or the source's end for same-node hand-offs. Computed
  // lazily per (candidate node), committed once for the chosen node.
  auto messageReady = [&](const Message& msg, std::int32_t instance) {
    const Time srcEnd = jobAt(msg.src, instance).end;
    const Time hint = mapping.messageHint(msg.id) +
                      static_cast<Time>(instance) * graph.period;
    return std::max(srcEnd, hint);
  };

  std::size_t scheduled = 0;
  while (!ready_.empty()) {
    std::pop_heap(ready_.begin(), ready_.end(), ReadyOrder{});
    Job& job = *ready_.back();
    ready_.pop_back();
    const Process& proc = sys.process(job.pid);
    const auto& inputs = sys.inputsOf(job.pid);

    const Time hintedRelease =
        std::max(job.release, static_cast<Time>(job.instance) * graph.period +
                                  mapping.startHint(job.pid));

    // Evaluate candidate nodes. The mapping is static: every instance of a
    // process runs on the same node, so once HCP has placed one instance
    // the other instances are pinned to that choice.
    candidates_.clear();
    if (chooseNodes) {
      const NodeId prev = mapping.nodeOf(job.pid);
      if (prev.valid()) {
        candidates_.push_back(prev);
      } else {
        const auto allowed = proc.allowedNodes();
        candidates_.assign(allowed.begin(), allowed.end());
      }
    } else {
      const NodeId n = mapping.nodeOf(job.pid);
      if (!n.valid() || !proc.allowedOn(n)) {
        throw std::invalid_argument(
            "scheduleGraphs: mapping assigns a disallowed node");
      }
      candidates_.push_back(n);
    }

    NodeId bestNode;
    Time bestFinish = kTimeMax;
    for (const NodeId n : candidates_) {
      Time est = hintedRelease;
      bool ok = true;
      for (const MessageId mId : inputs) {
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
      if (start == kNoTime) continue;
      const Time finish = start + proc.wcetOn(n);
      if (finish < bestFinish) {
        bestFinish = finish;
        bestNode = n;
      }
    }
    if (!bestNode.valid()) {
      // Nothing fits inside the horizon: hard failure for this solution.
      out.placed = false;
      return out;
    }

    // Commit on the chosen node. Bus commits are sequential, so recompute
    // each placement against the occupancy left by the previous commit;
    // the job itself goes in with one first-fit insert (occupyEarliest).
    const NodeId n = bestNode;
    Time est = hintedRelease;
    bool ok = true;
    for (const MessageId mId : inputs) {
      const Message& msg = sys.message(mId);
      const NodeId srcNode = mapping.nodeOf(msg.src);
      if (srcNode == n) {
        est = std::max(est, jobAt(msg.src, job.instance).end);
        continue;
      }
      const std::size_t slot = bus.slotOfNode(srcNode);
      const auto placement = state.findBusSlot(
          slot, messageReady(msg, job.instance),
          bus.transmissionTime(msg.sizeBytes));
      if (!placement) {
        ok = false;
        break;
      }
      state.occupyBus(slot, placement->round,
                      bus.transmissionTime(msg.sizeBytes));
      messagesOut.push_back({msg.id, job.instance, slot, placement->round,
                             placement->start, placement->end});
      est = std::max(est, placement->end);
    }
    if (!ok) {
      out.placed = false;
      return out;
    }
    const Time start = state.occupyEarliest(n, est, proc.wcetOn(n));
    if (start == kNoTime) {
      out.placed = false;
      return out;
    }
    const Time end = start + proc.wcetOn(n);
    processesOut.push_back({job.pid, job.instance, n, start, end});
    job.end = end;
    if (chooseNodes) chosen->setNode(job.pid, n);
    ++scheduled;

    if (end > job.absDeadline) {
      out.deadlineMisses += 1;
      out.totalLateness += end - job.absDeadline;
    }

    // Release successors of the same instance.
    for (const MessageId mId : sys.outputsOf(job.pid)) {
      const Message& msg = sys.message(mId);
      Job& dst = jobAt(msg.dst, job.instance);
      if (--dst.remainingInputs == 0) {
        ready_.push_back(&dst);
        std::push_heap(ready_.begin(), ready_.end(), ReadyOrder{});
      }
    }
  }

  out.placed = scheduled == jobs_.size();
  return out;
}

void SchedulerSession::materializeJobs(const ProcessGraph& graph,
                                       const std::vector<double>& priorities,
                                       std::int64_t instances) {
  // One Job per (process, instance), indexed instance-major so a
  // (pid, instance) pair resolves without hashing.
  const std::size_t procCount = graph.processes.size();
  for (std::size_t i = 0; i < procCount; ++i) {
    procLocal_[graph.processes[i].index()] = static_cast<std::int32_t>(i);
  }
  jobs_.clear();
  jobs_.reserve(procCount * static_cast<std::size_t>(instances));
  for (std::int64_t k = 0; k < instances; ++k) {
    for (std::size_t i = 0; i < procCount; ++i) {
      const ProcessId p = graph.processes[i];
      Job job;
      job.pid = p;
      job.instance = static_cast<std::int32_t>(k);
      job.release = graph.releaseOf(k);
      job.absDeadline = graph.deadlineOf(k);
      job.priority = priorities[i];
      job.remainingInputs = static_cast<int>(sys_->inputsOf(p).size());
      jobs_.push_back(job);
    }
  }
}

SchedulerSession::GraphResult SchedulerSession::scheduleGraphResume(
    GraphId g, const MappingSolution& mapping,
    const std::vector<double>* priorities, const GraphJobOrder& order,
    std::size_t resumeAt, std::size_t graphBase,
    std::vector<ScheduledProcess>& processesOut,
    std::vector<ScheduledMessage>& messagesOut,
    std::vector<JobCheckpoint>& marksOut, std::vector<Time>* arrivalsOut) {
  const SystemModel& sys = *sys_;
  PlatformState& state = *state_;
  const TdmaBus& bus = sys.architecture().bus();
  const ProcessGraph& graph = sys.graph(g);
  const std::size_t procCount = graph.processes.size();

  GraphResult out;
  if (priorities == nullptr) {
    localPriorities_ = criticalPathPriorities(sys, g);
    priorities = &localPriorities_;
  }
  const std::int64_t instances = sys.instanceCount(g);
  materializeJobs(graph, *priorities, instances);
  marksOut.resize(order.jobCount());

  // Restore the committed finish times of the prefix positions: they are
  // everything a later position reads from an earlier one (besides the
  // platform occupancy, which the caller restored via the journal mark).
  for (std::size_t pos = 0; pos < resumeAt; ++pos) {
    jobs_[static_cast<std::size_t>(order.jobAt[pos])].end =
        processesOut[graphBase + pos].end;
  }
  if (resumeAt > 0) {
    // Cumulative tallies after the whole prefix = tallies before the last
    // prefix position plus that position's own contribution.
    const std::size_t last = resumeAt - 1;
    const Job& job = jobs_[static_cast<std::size_t>(order.jobAt[last])];
    out.deadlineMisses = marksOut[last].deadlineMisses;
    out.totalLateness = marksOut[last].lateness;
    if (job.end > job.absDeadline) {
      out.deadlineMisses += 1;
      out.totalLateness += job.end - job.absDeadline;
    }
  }

  const auto jobAt = [&](ProcessId p, std::int32_t instance) -> Job& {
    return jobs_[static_cast<std::size_t>(instance) * procCount +
                 static_cast<std::size_t>(procLocal_[p.index()])];
  };
  auto messageReady = [&](const Message& msg, std::int32_t instance) {
    const Time srcEnd = jobAt(msg.src, instance).end;
    const Time hint = mapping.messageHint(msg.id) +
                      static_cast<Time>(instance) * graph.period;
    return std::max(srcEnd, hint);
  };

  // Commit-only loop over the static order. The heap path's candidate
  // pre-pass is redundant in mapping mode (one candidate, and a candidate
  // failure implies a commit failure against the same occupancy), so each
  // placement is computed exactly once here, and each job is committed by
  // one first-fit insert on its node. Failure leaves partial commits
  // of the failing position in the state/outputs; the caller rewinds to a
  // mark, exactly as with scheduleGraph.
  for (std::size_t pos = resumeAt; pos < order.jobCount(); ++pos) {
    Job& job = jobs_[static_cast<std::size_t>(order.jobAt[pos])];
    marksOut[pos] = {state.mark(),
                     static_cast<std::uint32_t>(processesOut.size()),
                     static_cast<std::uint32_t>(messagesOut.size()),
                     out.deadlineMisses, out.totalLateness};
    const Process& proc = sys.process(job.pid);
    const NodeId n = mapping.nodeOf(job.pid);
    if (!n.valid() || !proc.allowedOn(n)) {
      throw std::invalid_argument(
          "scheduleGraphs: mapping assigns a disallowed node");
    }

    // The arrival bound folds release time and input-message arrivals only;
    // the start hint joins afterwards, so the bound is exactly the pivot the
    // zero-delta hint filter compares against.
    Time arrival = job.release;
    bool ok = true;
    for (const MessageId mId : sys.inputsOf(job.pid)) {
      const Message& msg = sys.message(mId);
      const NodeId srcNode = mapping.nodeOf(msg.src);
      if (srcNode == n) {
        arrival = std::max(arrival, jobAt(msg.src, job.instance).end);
        continue;
      }
      const std::size_t slot = bus.slotOfNode(srcNode);
      const Time txTicks = bus.transmissionTime(msg.sizeBytes);
      const auto placement =
          state.findBusSlot(slot, messageReady(msg, job.instance), txTicks);
      if (!placement) {
        ok = false;
        break;
      }
      state.occupyBus(slot, placement->round, txTicks);
      messagesOut.push_back({msg.id, job.instance, slot, placement->round,
                             placement->start, placement->end});
      arrival = std::max(arrival, placement->end);
    }
    if (!ok) {
      out.placed = false;
      return out;
    }
    const Time est =
        std::max(arrival, static_cast<Time>(job.instance) * graph.period +
                              mapping.startHint(job.pid));
    const Time start = state.occupyEarliest(n, est, proc.wcetOn(n));
    if (start == kNoTime) {
      out.placed = false;
      return out;
    }
    const Time end = start + proc.wcetOn(n);
    processesOut.push_back({job.pid, job.instance, n, start, end});
    if (arrivalsOut != nullptr) {
      arrivalsOut->resize(processesOut.size());
      (*arrivalsOut)[graphBase + pos] = arrival;
    }
    job.end = end;
    if (end > job.absDeadline) {
      out.deadlineMisses += 1;
      out.totalLateness += end - job.absDeadline;
    }
  }
  out.placed = true;
  return out;
}

ScheduleOutcome scheduleGraphs(const SystemModel& sys,
                               const ScheduleRequest& req,
                               PlatformState& state) {
  if (!req.chooseNodes && req.mapping == nullptr) {
    throw std::invalid_argument(
        "scheduleGraphs: mapping mode requires a MappingSolution");
  }
  ScheduleOutcome out;
  out.mapping = req.mapping != nullptr ? *req.mapping : MappingSolution(sys);

  SchedulerSession session(sys, state);
  std::vector<ScheduledProcess> processes;
  std::vector<ScheduledMessage> messages;
  bool placed = true;
  for (std::size_t gi = 0; gi < req.graphs.size() && placed; ++gi) {
    const std::vector<double>* prio =
        req.priorities != nullptr ? &(*req.priorities)[gi] : nullptr;
    const SchedulerSession::GraphResult r =
        req.chooseNodes
            ? session.scheduleGraphChoosingNodes(req.graphs[gi], out.mapping,
                                                 prio, processes, messages)
            : session.scheduleGraph(req.graphs[gi], out.mapping, prio,
                                    processes, messages);
    out.deadlineMisses += r.deadlineMisses;
    out.totalLateness += r.totalLateness;
    placed = r.placed;
  }
  for (const ScheduledProcess& sp : processes) out.schedule.addProcess(sp);
  for (const ScheduledMessage& sm : messages) out.schedule.addMessage(sm);
  out.placed = placed;
  out.feasible = placed && out.deadlineMisses == 0;
  return out;
}

}  // namespace ides
