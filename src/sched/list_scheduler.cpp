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
          messageReady(jobOf(msg.src, job.instance).end,
                       mapping.messageHint(mId), job.instance, period),
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
    const GraphJobOrder& order, std::vector<ScheduledProcess>& processesOut,
    std::vector<ScheduledMessage>& messagesOut) {
  const SystemModel& sys = *sys_;
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

  // Each placement is computed once and each job committed by one
  // first-fit insert on its node. Only an HCP position without a node
  // looks at more than one node first; a job that has one commits
  // directly, since a failure against the current occupancy implies a
  // failure after its own input messages are committed too.
  GraphResult out;
  for (std::size_t pos = 0; pos < order.jobCount(); ++pos) {
    Job& job = jobs_[static_cast<std::size_t>(order.jobAt[pos])];
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
    const std::int32_t instance = job.instance;
    const JobPlacement placed = placeJob(
        sys, *state_, job.pid, instance, job.release, graph.period, n,
        mapping,
        [this, instance](std::size_t, ProcessId src) {
          return jobOf(src, instance).end;
        },
        messagesOut);
    if (!placed.placed) {
      out.placed = false;
      return out;
    }
    processesOut.push_back({job.pid, instance, n, placed.start, placed.end});
    if (chosen != nullptr) chosen->setNode(job.pid, n);
    job.end = placed.end;
    const Time late = latenessOf(placed.end, job.absDeadline);
    out.deadlineMisses += late > 0 ? 1 : 0;
    out.totalLateness += late;
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
    const SchedulerSession::GraphResult r = session.scheduleGraph(
        g, out.mapping, chosen, order, processes, messages);
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
