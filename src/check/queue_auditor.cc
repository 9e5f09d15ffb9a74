#include "check/queue_auditor.hh"

#include <string>

namespace cameo
{

void
QueueInvariantAuditor::report(const std::string &what)
{
    ++violations_;
    AuditSink::global().fail(__FILE__, __LINE__, what);
}

void
QueueInvariantAuditor::onSubmit(std::uint64_t id, Tick tick)
{
    ++submits_;
    if (outstanding_.contains(id)) {
        report("pipeline: request id " + std::to_string(id) +
               " submitted twice (still outstanding)");
        return;
    }
    outstanding_[id] = tick;
    if (occupancyBound_ != 0 && outstanding_.size() > occupancyBound_) {
        report("pipeline: " + std::to_string(outstanding_.size()) +
               " requests outstanding, exceeding the bound of " +
               std::to_string(occupancyBound_));
    }
}

void
QueueInvariantAuditor::onComplete(std::uint64_t id, Tick tick, bool ordered)
{
    ++completions_;
    const auto it = outstanding_.find(id);
    if (it == outstanding_.end()) {
        report("pipeline: completion for unknown request id " +
               std::to_string(id) + " at " + std::to_string(tick) +
               " (never submitted, or completed twice)");
        return;
    }
    if (tick < it->second) {
        report("pipeline: request id " + std::to_string(id) +
               " completed at " + std::to_string(tick) +
               ", before its submit time " + std::to_string(it->second));
    }
    if (ordered) {
        if (monotonicDelivery_ && delivered_ && tick < lastDeliveryTick_) {
            report("pipeline: completion for request id " +
                   std::to_string(id) + " delivered at " +
                   std::to_string(tick) +
                   ", regressing global time from " +
                   std::to_string(lastDeliveryTick_));
        }
        lastDeliveryTick_ = tick;
        delivered_ = true;
    }
    outstanding_.erase(id);
}

void
QueueInvariantAuditor::checkDrained()
{
    for (const auto &[id, tick] : outstanding_) {
        report("pipeline: request id " + std::to_string(id) +
               " submitted at " + std::to_string(tick) +
               " never completed (lost)");
    }
}

void
QueueInvariantAuditor::reset()
{
    outstanding_.clear();
    lastDeliveryTick_ = 0;
    delivered_ = false;
    submits_ = 0;
    completions_ = 0;
    violations_ = 0;
}

} // namespace cameo
