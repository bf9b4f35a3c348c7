#include "core/chaos.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <iterator>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <type_traits>
#include <variant>

#include "core/json.hpp"
#include "core/parallel.hpp"
#include "core/report.hpp"
#include "core/serialize.hpp"
#include "core/trace.hpp"

namespace stabl::core {
namespace {

using Ids = std::vector<net::NodeId>;

/// A plan field's member: a FaultPlan header field or a FaultParams knob.
using PlanMember =
    std::variant<FaultType FaultPlan::*, Ids FaultPlan::*,
                 sim::Time FaultPlan::*, sim::Duration FaultParams::*,
                 double FaultParams::*, net::NodeId FaultParams::*>;

struct PlanField {
  /// The one type that reads the field; kNone: every plan carries it.
  FaultType owner;
  const char* key;
  PlanMember member;
  /// A time's unit, in units per second: 1 (s) or 1000 (ms).
  double per_second = 1.0;
  /// Decimals printed (Table::num).
  int precision = 0;
};

/// Every repro plan field, in file order. plan_json and parse_plan both
/// walk this table.
const PlanField kPlanFields[] = {
    {FaultType::kNone, "type", &FaultPlan::type},
    {FaultType::kNone, "targets", &FaultPlan::targets},
    {FaultType::kNone, "inject_at_s", &FaultPlan::inject_at, 1, 3},
    {FaultType::kNone, "recover_at_s", &FaultPlan::recover_at, 1, 3},
    {FaultType::kDelay, "delay_s", &FaultParams::delay_amount, 1, 3},
    {FaultType::kChurn, "churn_down_s", &FaultParams::churn_down, 1, 3},
    {FaultType::kChurn, "churn_up_s", &FaultParams::churn_up, 1, 3},
    {FaultType::kLoss, "loss_probability", &FaultParams::loss_probability, 1,
     2},
    {FaultType::kThrottle, "throttle_bytes_per_s",
     &FaultParams::throttle_bytes_per_s},
    {FaultType::kGray, "gray_ms", &FaultParams::gray_latency, 1000},
    {FaultType::kEclipse, "eclipse_victim", &FaultParams::eclipse_victim},
    {FaultType::kEclipse, "eclipse_ms", &FaultParams::eclipse_delay, 1000},
    {FaultType::kEclipse, "eclipse_filter", &FaultParams::eclipse_filter, 1,
     2},
};

bool carries(FaultType type, const PlanField& field) {
  if (field.owner != FaultType::kNone) return field.owner == type;
  // canonical() zeroes a recovery window the type never reads; the repro
  // leaves it out.
  return field.member != PlanMember(&FaultPlan::recover_at) ||
         uses_recovery_window(type);
}

/// The field's value in `plan` (const or not).
template <class Plan, class T>
auto& member(Plan& plan, T FaultPlan::*m) {
  return plan.*m;
}
template <class Plan, class T>
auto& member(Plan& plan, T FaultParams::*m) {
  return plan.params.*m;
}

template <class T, class Value>
constexpr bool kIs = std::is_same_v<T, std::decay_t<Value>>;

std::string plan_json(const FaultPlan& plan) {
  std::string out = "{";
  for (const PlanField& field : kPlanFields) {
    if (!carries(plan.type, field)) continue;
    out += (out.size() > 1 ? ",\"" : "\"") + std::string(field.key) + "\":";
    std::visit(
        [&](auto m) {
          const auto& value = member(plan, m);
          if constexpr (kIs<FaultType, decltype(value)>) {
            out += '"' + to_string(value) + '"';
          } else if constexpr (kIs<Ids, decltype(value)>) {
            out += '[';
            for (const net::NodeId id : value) {
              out += (out.back() == '[' ? "" : ",") + std::to_string(id);
            }
            out += ']';
          } else if constexpr (kIs<sim::Duration, decltype(value)>) {
            out += Table::num(sim::to_seconds(value) * field.per_second,
                              field.precision);
          } else {  // double knobs and the eclipse victim
            out += Table::num(value, field.precision);
          }
        },
        field.member);
  }
  return out + '}';
}

/// Any field may appear on any plan, in any order (the type may come
/// last); canonical() then resets the knobs the type does not read.
FaultPlan parse_plan(JsonCursor& cursor) {
  FaultPlan plan;
  cursor.read_members(
      "schedule: duplicate plan field \"", [&](const std::string& key) {
        const PlanField* field = std::find_if(
            std::begin(kPlanFields), std::end(kPlanFields),
            [&](const PlanField& candidate) { return key == candidate.key; });
        if (field == std::end(kPlanFields)) {
          cursor.fail("unknown plan field \"" + key + "\"");
        }
        const std::string what = "schedule: \"" + key + "\"";
        const auto node_id = [&] {
          return static_cast<net::NodeId>(cursor.parse_integer(
              what, 0, std::numeric_limits<net::NodeId>::max()));
        };
        std::visit(
            [&](auto m) {
              auto& value = member(plan, m);
              if constexpr (kIs<FaultType, decltype(value)>) {
                value = fault_from_name(cursor.parse_string());
              } else if constexpr (kIs<Ids, decltype(value)>) {
                cursor.read_list([&] { value.push_back(node_id()); });
              } else if constexpr (kIs<sim::Duration, decltype(value)>) {
                const double time = JsonCursor::in_sim_range(
                    cursor.parse_finite(what), 1e6 / field->per_second, what);
                value = sim::seconds(time / field->per_second);
              } else if constexpr (kIs<net::NodeId, decltype(value)>) {
                value = node_id();
              } else {
                value = cursor.parse_finite(what);
              }
            },
            field->member);
      });
  return canonical(plan);
}

}  // namespace

// Defined beside kPlanFields: the table's owner column is the one list of
// which fault type reads which knob.
FaultPlan canonical(FaultPlan plan) {
  const FaultPlan defaults;
  for (const PlanField& field : kPlanFields) {
    if (field.owner == FaultType::kNone || field.owner == plan.type) continue;
    std::visit([&](auto m) { member(plan, m) = member(defaults, m); },
               field.member);
  }
  if (!uses_recovery_window(plan.type)) plan.recover_at = sim::Time{0};
  if (plan.type == FaultType::kNone ||
      plan.type == FaultType::kSecureClient) {
    plan.targets.clear();
    plan.inject_at = sim::Time{0};
  }
  std::sort(plan.targets.begin(), plan.targets.end());
  return plan;
}

ChaosGenConfig default_gen_for(sim::Duration duration) {
  ChaosGenConfig config;
  const int d = static_cast<int>(sim::to_seconds(duration));
  config.earliest_inject_s = std::max(1, d / 8);
  config.latest_recover_s =
      std::max(config.earliest_inject_s + config.min_window_s, d / 3);
  config.max_window_s = std::max(10, d / 6);
  return config;
}

ChaosGenConfig adversarial_gen_for(sim::Duration duration) {
  ChaosGenConfig config = default_gen_for(duration);
  config.types.push_back(FaultType::kEquivocate);
  config.types.push_back(FaultType::kWithhold);
  config.types.push_back(FaultType::kEclipse);
  return config;
}

FaultSchedule generate_schedule(sim::Rng& rng, const ChaosGenConfig& config) {
  assert(!config.types.empty());
  const std::size_t pool_start =
      config.allow_entry_targets ? 0 : config.entry_nodes;
  assert(pool_start < config.n && "no nodes eligible for faults");
  const std::size_t pool = config.n - pool_start;

  const auto plan_count = static_cast<std::size_t>(rng.uniform_int(
      static_cast<std::int64_t>(config.min_plans),
      static_cast<std::int64_t>(config.max_plans)));
  FaultSchedule schedule;
  for (std::size_t p = 0; p < plan_count; ++p) {
    FaultPlan plan;
    FaultParams& knobs = plan.params;
    plan.type = config.types[static_cast<std::size_t>(rng.uniform_int(
        0, static_cast<std::int64_t>(config.types.size()) - 1))];

    const std::size_t most = std::min(
        std::max<std::size_t>(config.max_targets, 1), pool);
    const auto count = static_cast<std::size_t>(
        rng.uniform_int(1, static_cast<std::int64_t>(most)));
    for (const std::size_t index :
         rng.sample_without_replacement(pool, count)) {
      plan.targets.push_back(static_cast<net::NodeId>(pool_start + index));
    }

    const int latest_inject = config.latest_recover_s - config.min_window_s;
    const auto inject = static_cast<int>(
        rng.uniform_int(config.earliest_inject_s,
                        std::max(config.earliest_inject_s, latest_inject)));
    const int widest =
        std::min(config.max_window_s, config.latest_recover_s - inject);
    const auto window = static_cast<int>(rng.uniform_int(
        config.min_window_s, std::max(config.min_window_s, widest)));
    plan.inject_at = sim::sec(inject);
    plan.recover_at = sim::sec(inject + window);

    switch (plan.type) {
      case FaultType::kDelay:
        knobs.delay_amount =
            sim::sec(rng.uniform_int(config.min_delay_s, config.max_delay_s));
        break;
      case FaultType::kChurn:
        knobs.churn_down = sim::sec(rng.uniform_int(
            config.min_churn_period_s, config.max_churn_period_s));
        knobs.churn_up = sim::sec(rng.uniform_int(
            config.min_churn_period_s, config.max_churn_period_s));
        break;
      case FaultType::kLoss: {
        const auto percent = rng.uniform_int(
            static_cast<std::int64_t>(std::lround(config.min_loss * 100.0)),
            static_cast<std::int64_t>(std::lround(config.max_loss * 100.0)));
        knobs.loss_probability = static_cast<double>(percent) / 100.0;
        break;
      }
      case FaultType::kThrottle:
        knobs.throttle_bytes_per_s = static_cast<double>(rng.uniform_int(
            static_cast<std::int64_t>(config.min_throttle_bytes_per_s),
            static_cast<std::int64_t>(config.max_throttle_bytes_per_s)));
        break;
      case FaultType::kGray:
        knobs.gray_latency = sim::ms(
            rng.uniform_int(config.min_gray_ms, config.max_gray_ms));
        break;
      case FaultType::kEclipse: {
        // The victim is drawn from the nodes the plan does not control
        // (validate() rejects a victim that is also an attacker).
        std::vector<net::NodeId> eligible;
        for (std::size_t id = 0; id < config.n; ++id) {
          const auto node = static_cast<net::NodeId>(id);
          if (std::find(plan.targets.begin(), plan.targets.end(), node) ==
              plan.targets.end()) {
            eligible.push_back(node);
          }
        }
        knobs.eclipse_victim = eligible[static_cast<std::size_t>(
            rng.uniform_int(0,
                            static_cast<std::int64_t>(eligible.size()) - 1))];
        knobs.eclipse_delay = sim::ms(
            rng.uniform_int(config.min_eclipse_ms, config.max_eclipse_ms));
        const auto filter_percent = rng.uniform_int(
            static_cast<std::int64_t>(
                std::lround(config.min_eclipse_filter * 100.0)),
            static_cast<std::int64_t>(
                std::lround(config.max_eclipse_filter * 100.0)));
        knobs.eclipse_filter = static_cast<double>(filter_percent) / 100.0;
        break;
      }
      default:
        break;
    }
    plan = canonical(std::move(plan));
    assert(validate(plan, config.n).empty() &&
           "generator produced an invalid plan");
    schedule.add(std::move(plan));
  }
  return schedule;
}

std::string schedule_to_json(const FaultSchedule& schedule) {
  std::string out = "{\"plans\":[";
  for (const FaultPlan& plan : canonical(schedule).plans) {
    if (out.back() != '[') out += ',';
    out += plan_json(plan);
  }
  return out + "]}";
}

FaultSchedule schedule_from_json(const std::string& json) {
  JsonCursor cursor(json);
  FaultSchedule schedule;
  cursor.expect_key('{', "plans");
  cursor.read_list([&] { schedule.add(parse_plan(cursor)); });
  cursor.expect('}');
  cursor.finish();
  return schedule;
}

std::optional<ShrinkResult> shrink_schedule(const FaultSchedule& schedule,
                                            const ScheduleEvaluator& evaluate,
                                            const ShrinkOptions& options) {
  std::size_t runs = 0;
  const auto run = [&](const FaultSchedule& candidate) {
    ++runs;
    return evaluate(candidate);
  };
  const OracleReport initial = run(schedule);
  const OracleFinding* violation = initial.violation();
  if (violation == nullptr) return std::nullopt;
  const std::string oracle = violation->oracle;

  FaultSchedule best = canonical(schedule);
  OracleReport best_report = initial;
  // A candidate survives only when it violates the SAME oracle — a shrink
  // step that trades an agreement fork for an unrelated liveness failure
  // would "minimize" into a different bug.
  const auto still_violates = [&](const FaultSchedule& candidate,
                                  OracleReport& out) {
    if (runs >= options.max_runs) return false;
    OracleReport report = run(candidate);
    const bool hit = std::any_of(
        report.findings.begin(), report.findings.end(),
        [&](const OracleFinding& finding) {
          return finding.verdict == OracleVerdict::kViolation &&
                 finding.oracle == oracle;
        });
    if (hit) out = std::move(report);
    return hit;
  };

  // Pass 1: drop whole plans, restarting until no single removal keeps the
  // violation alive (greedy ddmin with subset size 1).
  bool changed = true;
  while (changed && best.plans.size() > 1) {
    changed = false;
    for (std::size_t i = 0; i < best.plans.size();) {
      FaultSchedule candidate = best;
      candidate.plans.erase(candidate.plans.begin() +
                            static_cast<std::ptrdiff_t>(i));
      OracleReport report;
      if (still_violates(candidate, report)) {
        best = std::move(candidate);
        best_report = std::move(report);
        changed = true;
      } else {
        ++i;
      }
    }
  }

  // Pass 2: narrow each surviving plan's target list one node at a time.
  for (std::size_t i = 0; i < best.plans.size(); ++i) {
    for (std::size_t t = 0;
         best.plans[i].targets.size() > 1 && t < best.plans[i].targets.size();) {
      FaultSchedule candidate = best;
      candidate.plans[i].targets.erase(
          candidate.plans[i].targets.begin() + static_cast<std::ptrdiff_t>(t));
      OracleReport report;
      if (still_violates(candidate, report)) {
        best = std::move(candidate);
        best_report = std::move(report);
      } else {
        ++t;
      }
    }
  }

  // Pass 3: halve each plan's fault window while the violation persists.
  for (std::size_t i = 0; i < best.plans.size(); ++i) {
    while (uses_recovery_window(best.plans[i].type)) {
      const double inject = sim::to_seconds(best.plans[i].inject_at);
      const double recover = sim::to_seconds(best.plans[i].recover_at);
      const double halved = std::floor((recover - inject) / 2.0);
      if (halved < static_cast<double>(options.min_window_s)) break;
      FaultSchedule candidate = best;
      candidate.plans[i].recover_at = sim::seconds(inject + halved);
      OracleReport report;
      if (!still_violates(candidate, report)) break;
      best = std::move(candidate);
      best_report = std::move(report);
    }
  }

  ShrinkResult result;
  result.schedule = canonical(best);
  result.oracle = oracle;
  result.report = std::move(best_report);
  result.runs = runs;
  result.initial_plans = schedule.plans.size();
  return result;
}

std::size_t ChaosCampaignResult::violations() const {
  return static_cast<std::size_t>(
      std::count_if(trials.begin(), trials.end(), [](const ChaosTrial& t) {
        return t.report.violated();
      }));
}

std::size_t ChaosCampaignResult::expected_losses() const {
  return static_cast<std::size_t>(
      std::count_if(trials.begin(), trials.end(), [](const ChaosTrial& t) {
        return t.report.verdict == OracleVerdict::kExpectedLoss;
      }));
}

std::string ChaosCampaignResult::summary_table() const {
  Table table({"chain", "trial", "seed", "plans", "types", "verdict",
               "detail"});
  for (const ChaosTrial& trial : trials) {
    std::string types;
    for (std::size_t i = 0; i < trial.schedule.plans.size(); ++i) {
      if (i > 0) types += '+';
      types += to_string(trial.schedule.plans[i].type);
    }
    std::string detail = "-";
    for (const OracleFinding& finding : trial.report.findings) {
      if (finding.verdict != OracleVerdict::kPass) {
        detail = finding.oracle;
        break;
      }
    }
    if (trial.shrunk.has_value()) {
      detail += " (shrunk " + std::to_string(trial.shrunk->initial_plans) +
                "->" + std::to_string(trial.shrunk->schedule.plans.size()) +
                " plans)";
    }
    table.add_row({to_string(trial.chain), std::to_string(trial.trial),
                   std::to_string(trial.experiment_seed),
                   std::to_string(trial.schedule.plans.size()), types,
                   to_string(trial.report.verdict), detail});
  }
  return table.to_string();
}

std::string ChaosCampaignResult::to_json() const {
  std::ostringstream out;
  out << '[';
  for (std::size_t i = 0; i < trials.size(); ++i) {
    const ChaosTrial& trial = trials[i];
    if (i > 0) out << ',';
    out << "{\"chain\":\"" << to_string(trial.chain) << "\",\"trial\":"
        << trial.trial << ",\"experiment_seed\":" << trial.experiment_seed
        << ",\"schedule\":" << schedule_to_json(trial.schedule)
        << ",\"submitted\":" << trial.submitted << ",\"committed\":"
        << trial.committed << ",\"live_at_end\":"
        << (trial.live_at_end ? "true" : "false")
        << ",\"oracle\":" << stabl::core::to_json(trial.report);
    if (trial.shrunk.has_value()) {
      out << ",\"shrunk\":{\"oracle\":\""
          << json_escape(trial.shrunk->oracle) << "\",\"runs\":"
          << trial.shrunk->runs << ",\"initial_plans\":"
          << trial.shrunk->initial_plans << ",\"schedule\":"
          << schedule_to_json(trial.shrunk->schedule) << '}';
    }
    out << '}';
  }
  out << ']';
  return out.str();
}

std::string ChaosCampaignResult::timing_table() const {
  Table table({"chain", "trial", "verdict", "wall_ms"});
  double total = 0.0;
  for (const ChaosTrial& trial : trials) {
    total += trial.wall_ms;
    table.add_row({to_string(trial.chain), std::to_string(trial.trial),
                   to_string(trial.report.verdict),
                   Table::num(trial.wall_ms, 0)});
  }
  table.add_row({"total", "-", "-", Table::num(total, 0)});
  return table.to_string();
}

ChaosTrial draw_chaos_trial(const sim::Rng& root, ChainKind chain,
                            std::size_t k, const ChaosGenConfig& gen) {
  sim::Rng rng = root.derive(static_cast<std::uint64_t>(chain) * 1'000'003ull +
                             static_cast<std::uint64_t>(k));
  ChaosTrial trial;
  trial.chain = chain;
  trial.trial = k;
  trial.experiment_seed = rng.next_u64();
  trial.schedule = generate_schedule(rng, gen);
  return trial;
}

ExperimentConfig chaos_trial_config(const ChaosCampaignConfig& config,
                                    ChainKind chain,
                                    std::uint64_t experiment_seed,
                                    const FaultSchedule& schedule) {
  // paper_cell detaches the template's sink/registry/recorder; the traced
  // repro re-run attaches its own local sink.
  ExperimentConfig cell =
      paper_cell(config.base, chain, FaultType::kNone, experiment_seed);
  cell.fault_targets.clear();
  cell.extra_faults = schedule;
  cell.capture_replicas = true;
  return cell;
}

ChaosCampaignResult run_chaos_campaign(const ChaosCampaignConfig& config) {
  ChaosGenConfig gen;
  if (config.gen.has_value()) {
    gen = *config.gen;
  } else {
    gen = default_gen_for(config.base.duration);
    gen.n = config.base.n;
    gen.entry_nodes = std::min(config.base.clients, config.base.n);
  }

  struct TrialCell {
    ChainKind chain;
    std::size_t k;
  };
  std::vector<TrialCell> grid;
  grid.reserve(config.chains.size() * config.trials_per_chain);
  for (const ChainKind chain : config.chains) {
    for (std::size_t k = 0; k < config.trials_per_chain; ++k) {
      grid.push_back({chain, k});
    }
  }

  const sim::Rng root(config.seed);
  GridResult<ChaosTrial> trials = run_grid(
      grid, config.jobs, "chaos", config.heartbeat,
      [&](const TrialCell& cell) {
        ChaosTrial trial = draw_chaos_trial(root, cell.chain, cell.k, gen);
        const ExperimentConfig run_cell = chaos_trial_config(
            config, cell.chain, trial.experiment_seed, trial.schedule);
        const ExperimentResult result = run_experiment(run_cell);
        trial.report = check_invariants(make_oracle_context(run_cell), result,
                                        config.oracle);
        trial.submitted = result.submitted;
        trial.committed = result.committed;
        trial.live_at_end = result.live_at_end;

        if (config.shrink && trial.report.violated()) {
          const auto evaluate = [&](const FaultSchedule& candidate) {
            const ExperimentConfig candidate_cell = chaos_trial_config(
                config, cell.chain, trial.experiment_seed, candidate);
            return check_invariants(make_oracle_context(candidate_cell),
                                    run_experiment(candidate_cell),
                                    config.oracle);
          };
          trial.shrunk =
              shrink_schedule(trial.schedule, evaluate, config.shrink_options);
        }
        if (config.trace_repros && trial.report.violated()) {
          // Re-run the minimal violating schedule with tracing on, so the
          // repro ships with its timeline. A sink per trial: sinks are not
          // shareable across concurrent runs.
          const FaultSchedule& minimal = trial.shrunk.has_value()
                                             ? trial.shrunk->schedule
                                             : trial.schedule;
          ExperimentConfig traced_cell = chaos_trial_config(
              config, cell.chain, trial.experiment_seed, minimal);
          sim::TraceSink sink;
          traced_cell.trace = &sink;
          run_experiment(traced_cell);
          trial.repro_trace = trace_to_json(sink);
        }
        return trial;
      });

  ChaosCampaignResult result;
  result.trials = std::move(trials.slots);
  for (std::size_t i = 0; i < result.trials.size(); ++i) {
    result.trials[i].wall_ms = trials.wall_ms[i];
  }
  return result;
}

}  // namespace stabl::core
