#include "core/fault.hpp"

#include <algorithm>
#include <cctype>
#include <sstream>
#include <stdexcept>

namespace stabl::core {
namespace {

bool is_targeted(FaultType type) {
  return type != FaultType::kNone && type != FaultType::kSecureClient;
}

std::string to_lower(std::string_view text) {
  std::string out(text);
  std::transform(out.begin(), out.end(), out.begin(), [](unsigned char c) {
    return static_cast<char>(std::tolower(c));
  });
  return out;
}

}  // namespace

bool is_adversarial(FaultType type) {
  return type == FaultType::kEquivocate || type == FaultType::kWithhold ||
         type == FaultType::kEclipse;
}

std::string to_string(FaultType type) {
  switch (type) {
    case FaultType::kNone: return "none";
    case FaultType::kCrash: return "crash";
    case FaultType::kTransient: return "transient";
    case FaultType::kPartition: return "partition";
    case FaultType::kSecureClient: return "secure-client";
    case FaultType::kDelay: return "delay";
    case FaultType::kChurn: return "churn";
    case FaultType::kLoss: return "loss";
    case FaultType::kThrottle: return "throttle";
    case FaultType::kGray: return "gray";
    case FaultType::kEquivocate: return "equivocate";
    case FaultType::kWithhold: return "withhold";
    case FaultType::kEclipse: return "eclipse";
  }
  return "?";
}

std::string fault_description(FaultType type) {
  switch (type) {
    case FaultType::kNone:
      return "baseline: no failure injected";
    case FaultType::kCrash:
      return "halt the targets at inject_at, never restart them";
    case FaultType::kTransient:
      return "halt the targets at inject_at, restart them at recover_at";
    case FaultType::kPartition:
      return "drop all packets between the targets and the rest";
    case FaultType::kSecureClient:
      return "no failure: clients submit every transaction to t+1 nodes";
    case FaultType::kDelay:
      return "add delay_amount one-way latency between targets and rest";
    case FaultType::kChurn:
      return "repeatedly kill and restart the targets during the window";
    case FaultType::kLoss:
      return "drop packets between targets and rest with loss_probability";
    case FaultType::kThrottle:
      return "throttle target links to throttle_bytes_per_s";
    case FaultType::kGray:
      return "serve all traffic touching the targets gray_latency late";
    case FaultType::kEquivocate:
      return "targets double-propose/vote: conflicting payloads per half";
    case FaultType::kWithhold:
      return "targets suppress own proposals/votes, replay stale ones";
    case FaultType::kEclipse:
      return "attacker targets intercept, delay and filter a victim's view";
  }
  return "?";
}

FaultType fault_from_name(std::string_view name) {
  const std::string lower = to_lower(name);
  for (const FaultType type : kAllFaultTypes) {
    if (to_string(type) == lower) return type;
  }
  std::string valid;
  for (const FaultType type : kAllFaultTypes) {
    if (!valid.empty()) valid += ", ";
    valid += to_string(type);
  }
  throw std::invalid_argument("unknown fault type '" + std::string(name) +
                              "' (valid: " + valid + ")");
}

bool uses_recovery_window(FaultType type) {
  switch (type) {
    case FaultType::kNone:
    case FaultType::kSecureClient:
    case FaultType::kCrash:
      return false;
    case FaultType::kTransient:
    case FaultType::kPartition:
    case FaultType::kDelay:
    case FaultType::kChurn:
    case FaultType::kLoss:
    case FaultType::kThrottle:
    case FaultType::kGray:
    case FaultType::kEquivocate:
    case FaultType::kWithhold:
    case FaultType::kEclipse:
      return true;
  }
  return false;
}

std::string validate(const FaultPlan& plan, std::size_t n) {
  std::ostringstream error;
  const std::string name = to_string(plan.type);
  if (is_targeted(plan.type) && plan.targets.empty()) {
    error << name << " plan needs at least one target node";
    return error.str();
  }
  for (const net::NodeId target : plan.targets) {
    if (target >= n) {
      error << name << " plan targets node " << target
            << " but the cluster only has nodes 0.." << (n - 1);
      return error.str();
    }
  }
  {
    // A duplicated id would silently double-arm kill/restart actions (two
    // kill() calls on an already-dead process) and double-count the node
    // on netfilter rule sides; reject instead.
    std::vector<net::NodeId> seen = plan.targets;
    std::sort(seen.begin(), seen.end());
    const auto dup = std::adjacent_find(seen.begin(), seen.end());
    if (dup != seen.end()) {
      error << name << " plan targets node " << *dup << " twice";
      return error.str();
    }
  }
  if (uses_recovery_window(plan.type) && plan.inject_at >= plan.recover_at) {
    error << name << " plan injects at " << sim::format_time(plan.inject_at)
          << " which does not precede its recovery at "
          << sim::format_time(plan.recover_at);
    return error.str();
  }
  const FaultParams& knobs = plan.params;
  switch (plan.type) {
    case FaultType::kChurn:
      if (knobs.churn_down <= sim::Duration::zero() ||
          knobs.churn_up <= sim::Duration::zero()) {
        error << "churn plan needs positive churn_down and churn_up";
      }
      break;
    case FaultType::kDelay:
      if (knobs.delay_amount <= sim::Duration::zero()) {
        error << "delay plan needs a positive delay_amount";
      }
      break;
    case FaultType::kLoss:
      if (!(knobs.loss_probability > 0.0 && knobs.loss_probability <= 1.0)) {
        error << "loss plan needs loss_probability in (0, 1], got "
              << knobs.loss_probability;
      }
      break;
    case FaultType::kThrottle:
      if (!(knobs.throttle_bytes_per_s > 0.0)) {
        error << "throttle plan needs a positive throttle_bytes_per_s";
      }
      break;
    case FaultType::kGray:
      if (knobs.gray_latency <= sim::Duration::zero()) {
        error << "gray plan needs a positive gray_latency";
      }
      break;
    case FaultType::kEclipse:
      if (knobs.eclipse_victim >= n) {
        error << "eclipse plan victim node " << knobs.eclipse_victim
              << " is outside the cluster 0.." << (n - 1);
      } else if (std::find(plan.targets.begin(), plan.targets.end(),
                           knobs.eclipse_victim) != plan.targets.end()) {
        error << "eclipse plan victim node " << knobs.eclipse_victim
              << " cannot also be an attacker target";
      } else if (knobs.eclipse_delay <= sim::Duration::zero()) {
        error << "eclipse plan needs a positive eclipse_delay";
      } else if (!(knobs.eclipse_filter >= 0.0 &&
                   knobs.eclipse_filter < 1.0)) {
        error << "eclipse plan needs eclipse_filter in [0, 1), got "
              << knobs.eclipse_filter;
      }
      break;
    default:
      break;
  }
  return error.str();
}

FaultSchedule canonical(FaultSchedule schedule) {
  for (FaultPlan& plan : schedule.plans) plan = canonical(std::move(plan));
  return schedule;
}

std::vector<net::NodeId> adversarial_nodes(const FaultSchedule& schedule) {
  std::vector<net::NodeId> nodes;
  for (const FaultPlan& plan : schedule.plans) {
    if (plan.type != FaultType::kEquivocate &&
        plan.type != FaultType::kWithhold) {
      continue;
    }
    nodes.insert(nodes.end(), plan.targets.begin(), plan.targets.end());
  }
  std::sort(nodes.begin(), nodes.end());
  nodes.erase(std::unique(nodes.begin(), nodes.end()), nodes.end());
  return nodes;
}

}  // namespace stabl::core
