#include "sched/list_scheduler.h"

#include <algorithm>
#include <stdexcept>

#include "model/graph_algos.h"
#include "model/system_model.h"

namespace ides {

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

  // A ready heap over static keys. Popping commits nothing: committing a
  // job only releases its successors, whatever node it lands on, so the pop
  // sequence here is exactly the commit order of every scheduling run.
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
  // priority desc, then release asc, then (pid, instance) asc for
  // determinism. The heap pops the *largest*, so "a before b" must mean
  // a < b here.
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

Time SchedulerSession::messageReady(const Message& msg, std::int32_t instance,
                                    const MappingSolution& mapping,
                                    Time period) {
  return std::max(jobOf(msg.src, instance).end,
                  mapping.messageHint(msg.id) +
                      static_cast<Time>(instance) * period);
}

NodeId SchedulerSession::earliestFinishNode(const Job& job,
                                            const MappingSolution& mapping,
                                            Time period) {
  const SystemModel& sys = *sys_;
  const TdmaBus& bus = sys.architecture().bus();
  const Process& proc = sys.process(job.pid);
  const Time hintedRelease =
      std::max(job.release, static_cast<Time>(job.instance) * period +
                                mapping.startHint(job.pid));
  NodeId bestNode;
  Time bestFinish = kTimeMax;
  for (std::size_t i = 0; i < proc.wcet.size(); ++i) {
    const NodeId n{static_cast<int>(i)};
    if (!proc.allowedOn(n)) continue;
    Time est = hintedRelease;
    bool ok = true;
    for (const MessageId mId : sys.inputsOf(job.pid)) {
      const Message& msg = sys.message(mId);
      const NodeId srcNode = mapping.nodeOf(msg.src);
      if (srcNode == n) {
        est = std::max(est, jobOf(msg.src, job.instance).end);
        continue;
      }
      const auto placement = state_->findBusSlot(
          bus.slotOfNode(srcNode),
          messageReady(msg, job.instance, mapping, period),
          bus.transmissionTime(msg.sizeBytes));
      if (!placement) {
        ok = false;
        break;
      }
      est = std::max(est, placement->end);
    }
    if (!ok) continue;
    const Time start = state_->earliestFit(n, est, proc.wcetOn(n));
    if (start == kNoTime) continue;
    const Time finish = start + proc.wcetOn(n);
    if (finish < bestFinish) {
      bestFinish = finish;
      bestNode = n;
    }
  }
  return bestNode;
}

SchedulerSession::GraphResult SchedulerSession::scheduleGraph(
    GraphId g, const MappingSolution& mapping, MappingSolution* chosen,
    const GraphJobOrder& order, std::size_t resumeAt, std::size_t graphBase,
    std::vector<ScheduledProcess>& processesOut,
    std::vector<ScheduledMessage>& messagesOut,
    std::vector<JobCheckpoint>* marksOut, std::vector<Time>* arrivalsOut) {
  const SystemModel& sys = *sys_;
  PlatformState& state = *state_;
  const TdmaBus& bus = sys.architecture().bus();
  const ProcessGraph& graph = sys.graph(g);

  // One Job per (process, instance), indexed instance-major so a
  // (pid, instance) pair resolves without hashing.
  procCount_ = graph.processes.size();
  for (std::size_t i = 0; i < procCount_; ++i) {
    procLocal_[graph.processes[i].index()] = static_cast<std::int32_t>(i);
  }
  const std::int64_t instances = sys.instanceCount(g);
  jobs_.clear();
  jobs_.reserve(procCount_ * static_cast<std::size_t>(instances));
  for (std::int64_t k = 0; k < instances; ++k) {
    for (const ProcessId p : graph.processes) {
      jobs_.push_back({p, static_cast<std::int32_t>(k), graph.releaseOf(k),
                       graph.deadlineOf(k), kNoTime});
    }
  }
  if (marksOut != nullptr) marksOut->resize(order.jobCount());

  GraphResult out;
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
    out.deadlineMisses = (*marksOut)[last].deadlineMisses;
    out.totalLateness = (*marksOut)[last].lateness;
    if (job.end > job.absDeadline) {
      out.deadlineMisses += 1;
      out.totalLateness += job.end - job.absDeadline;
    }
  }

  // Each placement is computed once and each job committed by one
  // first-fit insert on its node. Only an HCP position without a node
  // looks at more than one node first; a job that has one commits
  // directly, since a failure against the current occupancy implies a
  // failure after its own input messages are committed too.
  for (std::size_t pos = resumeAt; pos < order.jobCount(); ++pos) {
    Job& job = jobs_[static_cast<std::size_t>(order.jobAt[pos])];
    if (marksOut != nullptr) {
      (*marksOut)[pos] = {state.mark(),
                          static_cast<std::uint32_t>(processesOut.size()),
                          static_cast<std::uint32_t>(messagesOut.size()),
                          out.deadlineMisses, out.totalLateness};
    }
    const Process& proc = sys.process(job.pid);
    NodeId n = mapping.nodeOf(job.pid);
    if (!n.valid() && chosen != nullptr) {
      n = earliestFinishNode(job, mapping, graph.period);
      if (!n.valid()) {
        // Nothing fits inside the horizon: hard failure for this solution.
        out.placed = false;
        return out;
      }
    } else if (!n.valid() || !proc.allowedOn(n)) {
      throw std::invalid_argument(
          "scheduleGraphs: mapping assigns a disallowed node");
    }

    // The arrival bound folds release time and input-message arrivals only;
    // the start hint joins afterwards, so the bound is exactly the pivot the
    // zero-delta hint filter compares against. Bus commits are sequential,
    // so each placement sees the occupancy left by the previous one.
    Time arrival = job.release;
    for (const MessageId mId : sys.inputsOf(job.pid)) {
      const Message& msg = sys.message(mId);
      const NodeId srcNode = mapping.nodeOf(msg.src);
      if (srcNode == n) {
        arrival = std::max(arrival, jobOf(msg.src, job.instance).end);
        continue;
      }
      const std::size_t slot = bus.slotOfNode(srcNode);
      const Time txTicks = bus.transmissionTime(msg.sizeBytes);
      const auto placement = state.findBusSlot(
          slot, messageReady(msg, job.instance, mapping, graph.period),
          txTicks);
      if (!placement) {
        out.placed = false;
        return out;
      }
      state.occupyBus(slot, placement->round, txTicks);
      messagesOut.push_back({msg.id, job.instance, slot, placement->round,
                             placement->start, placement->end});
      arrival = std::max(arrival, placement->end);
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
    if (chosen != nullptr) chosen->setNode(job.pid, n);
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
  MappingSolution* chosen = req.chooseNodes ? &out.mapping : nullptr;
  std::vector<ScheduledProcess> processes;
  std::vector<ScheduledMessage> messages;
  std::vector<double> ownPriorities;
  bool placed = true;
  for (std::size_t gi = 0; gi < req.graphs.size() && placed; ++gi) {
    const GraphId g = req.graphs[gi];
    if (req.priorities == nullptr) {
      ownPriorities = criticalPathPriorities(sys, g);
    }
    const GraphJobOrder order = computeJobOrder(
        sys, g,
        req.priorities != nullptr ? (*req.priorities)[gi] : ownPriorities);
    const SchedulerSession::GraphResult r =
        session.scheduleGraph(g, out.mapping, chosen, order, 0,
                              processes.size(), processes, messages, nullptr,
                              nullptr);
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
