#include "core/scenario.hpp"

#include <algorithm>
#include <charconv>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <type_traits>
#include <variant>

#include "core/json.hpp"
#include "core/parallel.hpp"

namespace stabl::core {
namespace {

/// Shortest round-trip formatting (std::to_chars): "0.2" stays "0.2",
/// integral values carry no trailing ".0". This is what keeps dumped
/// specs byte-stable through a parse/serialize cycle.
std::string fmt_double(double value) {
  char buffer[64];
  const auto [end, ec] =
      std::to_chars(buffer, buffer + sizeof(buffer), value);
  if (ec != std::errc{}) return "0";
  return std::string(buffer, end);
}

void append_string(std::string& out, const std::string& value) {
  out += '"' + json_escape(value) + '"';
}

template <class T, class WriteItem>
void write_list(std::string& out, const std::vector<T>& items,
                WriteItem write_item) {
  out += '[';
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (i > 0) out += ", ";
    write_item(out, items[i]);
  }
  out += ']';
}

/// Flag text as the body of a JSON string. A flag value is a plain name
/// or path, so a quote or backslash in one is refused, not escaped.
std::string plain_text(const std::string& text, const std::string& key) {
  if (text.find_first_of("\"\\") != std::string::npos) {
    throw std::invalid_argument("scenario: \"" + key +
                                "\" must not contain '\"' or '\\'");
  }
  return json_escape(text);
}

template <class... F>
struct Overloaded : F... {
  using F::operator()...;
};
template <class... F>
Overloaded(F...) -> Overloaded<F...>;

// --------------------------------------------------------------- key table

using Ids = std::vector<net::NodeId>;
using Names = std::vector<std::string>;

/// A key's kind is its member's type: string, double, int (int64), seed
/// (uint64, read as an int >= 0), bool, id list, name list, params map,
/// or the nested traffic object.
template <class S>
using Member = std::variant<std::string S::*, double S::*, std::int64_t S::*,
                            std::uint64_t S::*, bool S::*, Ids S::*,
                            Names S::*, chain::ChainParams S::*,
                            TrafficSpec S::*>;

/// Seconds and milliseconds keys are lowered to sim::Duration (int64
/// microseconds). Their value must stay below 1e18 us, which also leaves
/// headroom for the window arithmetic done on top of them.
enum class Unit { kNone, kSeconds, kMillis };

template <class S>
struct Field {
  const char* key;
  Member<S> member;
  Unit unit = Unit::kNone;
};

using Spec = ScenarioSpec;
using Traffic = TrafficSpec;

/// Every ScenarioSpec key, in file order. The writer, the strict reader
/// and set_scenario_key (stabl_cli's flags) all walk this table.
const Field<Spec> kSpecFields[] = {
    {"name", &Spec::name},
    {"chain", &Spec::chain},
    {"chain_params", &Spec::chain_params},
    {"fault", &Spec::fault},
    {"fault_targets", &Spec::fault_targets},
    {"extra_faults", &Spec::extra_faults},
    {"loss_probability", &Spec::loss_probability},
    {"throttle_bytes_per_s", &Spec::throttle_bytes_per_s},
    {"gray_delay_s", &Spec::gray_delay_s, Unit::kSeconds},
    {"eclipse_victim", &Spec::eclipse_victim},
    {"eclipse_delay_s", &Spec::eclipse_delay_s, Unit::kSeconds},
    {"eclipse_filter", &Spec::eclipse_filter},
    {"duration_s", &Spec::duration_s, Unit::kSeconds},
    {"seed", &Spec::seed},
    {"num_seeds", &Spec::num_seeds},
    {"jobs", &Spec::jobs},
    {"workload", &Spec::workload},
    // Emitted only while has_traffic, so dumps of traffic-free specs keep
    // the exact bytes they had before the traffic layer existed.
    {"traffic", &Spec::traffic},
    {"fanout", &Spec::fanout},
    {"matching", &Spec::matching},
    {"vcpus", &Spec::vcpus},
    {"resilient", &Spec::resilient},
    {"commit_timeout_s", &Spec::commit_timeout_s, Unit::kSeconds},
    {"hedge", &Spec::hedge},
    {"hedge_percentile", &Spec::hedge_percentile},
    {"hedge_min_delay_s", &Spec::hedge_min_delay_s, Unit::kSeconds},
    {"hedge_max_delay_s", &Spec::hedge_max_delay_s, Unit::kSeconds},
    {"endpoint_scoring", &Spec::endpoint_scoring},
    {"chaos_trials", &Spec::chaos_trials},
    {"shrink", &Spec::shrink},
    {"chaos_adversarial", &Spec::chaos_adversarial},
    {"trace", &Spec::trace},
    {"metrics", &Spec::metrics},
};

/// The "traffic" object's keys (core/traffic.hpp), in file order.
const Field<Traffic> kTrafficFields[] = {
    {"preset", &Traffic::preset},
    {"shape", &Traffic::shape},
    {"accounts_per_client", &Traffic::accounts_per_client},
    {"zipf_exponent", &Traffic::zipf_exponent},
    {"hot_fraction", &Traffic::hot_fraction},
    {"regions", &Traffic::regions},
    {"region_spread_ms", &Traffic::region_spread_ms, Unit::kMillis},
    {"diurnal_amplitude", &Traffic::diurnal_amplitude},
    {"diurnal_period_s", &Traffic::diurnal_period_s, Unit::kSeconds},
    {"flash_at_s", &Traffic::flash_at_s, Unit::kSeconds},
    {"flash_duration_s", &Traffic::flash_duration_s, Unit::kSeconds},
    {"flash_factor", &Traffic::flash_factor},
    {"fault_phase", &Traffic::fault_phase},
};

/// Each struct's table and the key prefix its error messages use.
template <class S>
struct Table {
  static constexpr const auto& fields = kSpecFields;
  static constexpr const char* prefix = "";
};
template <>
struct Table<Traffic> {
  static constexpr const auto& fields = kTrafficFields;
  static constexpr const char* prefix = "traffic.";
};

template <class S>
const Field<S>& find_field(const std::string& key) {
  for (const Field<S>& field : Table<S>::fields) {
    if (key == field.key) return field;
  }
  throw std::invalid_argument(
      "scenario: unknown key \"" + std::string(Table<S>::prefix) + key +
      "\" (scenarios are strict; see core/" +
      (std::is_same_v<S, Spec> ? "scenario" : "traffic") +
      ".hpp for the schema)");
}

/// Pretty object: one key per line at `indent` + 2 spaces, closing brace
/// at `indent`.
template <class S>
void write_object(std::string& out, const S& s, const char* indent) {
  out += "{\n";
  for (const Field<S>& field : Table<S>::fields) {
    if constexpr (std::is_same_v<S, Spec>) {
      if (std::holds_alternative<Traffic S::*>(field.member) &&
          !s.has_traffic) {
        continue;
      }
    }
    if (out.back() != '\n') out += ",\n";
    out += std::string(indent) + "  \"" + field.key + "\": ";
    std::visit(
        Overloaded{
            [&](std::string S::*m) { append_string(out, s.*m); },
            [&](double S::*m) { out += fmt_double(s.*m); },
            [&](std::int64_t S::*m) { out += std::to_string(s.*m); },
            [&](std::uint64_t S::*m) { out += std::to_string(s.*m); },
            [&](bool S::*m) { out += s.*m ? "true" : "false"; },
            [&](Ids S::*m) {
              write_list(out, s.*m, [](std::string& o, net::NodeId id) {
                o += std::to_string(id);
              });
            },
            [&](Names S::*m) { write_list(out, s.*m, append_string); },
            [&](chain::ChainParams S::*m) {
              out += '{';
              for (const auto& [param, value] : s.*m) {
                if (out.back() != '{') out += ", ";
                append_string(out, param);
                out += ": " + fmt_double(value);
              }
              out += '}';
            },
            [&](Traffic S::*m) {
              if constexpr (std::is_same_v<S, Spec>) {
                write_object(out, s.*m, "  ");
              }
            },
        },
        field.member);
  }
  out += '\n' + std::string(indent) + '}';
}

/// Strict object: unknown and duplicate keys throw; missing keys keep
/// their defaults. Lists append and maps assign, so set_scenario_key can
/// feed flag text through the same reader.
template <class S>
void read_object(JsonCursor& cursor, S& s);

template <class S>
void read_value(JsonCursor& cursor, S& s, const Field<S>& field) {
  const std::string key = field.key;
  const std::string what = "scenario: \"" + key + "\"";
  const auto duration = [&](double value) {
    if (field.unit == Unit::kNone) return value;
    return JsonCursor::in_sim_range(
        value, field.unit == Unit::kSeconds ? 1e6 : 1e3, what);
  };
  std::visit(
      Overloaded{
          [&](std::string S::*m) { s.*m = cursor.parse_string(); },
          [&](double S::*m) { s.*m = duration(cursor.parse_finite(what)); },
          [&](std::int64_t S::*m) {
            s.*m = cursor.parse_integer(what);
            duration(static_cast<double>(s.*m));
          },
          [&](std::uint64_t S::*m) {
            s.*m = static_cast<std::uint64_t>(cursor.parse_integer(what, 0));
          },
          [&](bool S::*m) { s.*m = cursor.parse_bool(); },
          [&](Ids S::*m) {
            cursor.read_list([&] {
              const std::int64_t id = cursor.parse_integer(what);
              if (id < 0 || id > std::numeric_limits<net::NodeId>::max()) {
                throw std::invalid_argument(what + " ids must be " +
                                            (id < 0 ? ">= 0" : "< 2^32"));
              }
              (s.*m).push_back(static_cast<net::NodeId>(id));
            });
          },
          [&](Names S::*m) {
            cursor.read_list([&] { (s.*m).push_back(cursor.parse_string()); });
          },
          [&](chain::ChainParams S::*m) {
            cursor.read_members(
                "scenario: duplicate chain parameter \"",
                [&](const std::string& param) {
                  (s.*m)[param] = cursor.parse_finite(
                      "scenario: \"" + key + "." + param + "\"");
                });
          },
          [&](Traffic S::*m) {
            if constexpr (std::is_same_v<S, Spec>) {
              s.has_traffic = true;
              read_object(cursor, s.*m);
            }
          },
      },
      field.member);
}

template <class S>
void read_object(JsonCursor& cursor, S& s) {
  cursor.read_members(
      "scenario: duplicate key \"" + std::string(Table<S>::prefix),
      [&](const std::string& key) {
        read_value(cursor, s, find_field<S>(key));
      });
}

/// Sets one key from flag text: the text is rewritten as the JSON value
/// it stands for ("0,1" -> [0,1], "k=v" -> {"k": v}; numbers and bools
/// are JSON already) and read by the file reader, which must consume it
/// whole.
template <class S>
void set_value(S& s, const Field<S>& field, const std::string& text) {
  const std::string key = field.key;
  std::string json = text;
  std::visit(
      Overloaded{
          [&](std::string S::*) { json = '"' + plain_text(text, key) + '"'; },
          [&](Ids S::*) {
            // An empty value is an error, not an empty list.
            json = text.empty() ? "" : '[' + text + ']';
          },
          [&](Names S::*) {
            json = "[\"";
            for (const char c : plain_text(text, key)) {
              json += c == ',' ? std::string("\", \"") : std::string(1, c);
            }
            json += "\"]";
          },
          [&](chain::ChainParams S::*) {
            const std::size_t eq = text.find('=');
            if (eq == std::string::npos || eq == 0 ||
                text.find(',', eq) != std::string::npos) {
              throw std::invalid_argument("scenario: \"" + key +
                                          "\" expects one NAME=VALUE");
            }
            json = "{\"" + plain_text(text.substr(0, eq), key) +
                   "\": " + text.substr(eq + 1) + '}';
          },
          [&](Traffic S::*) {
            throw std::invalid_argument(
                "scenario: set \"traffic\" keys as \"traffic.<key>\"");
          },
          [](auto) {},
      },
      field.member);
  JsonCursor cursor(json);
  read_value(cursor, s, field);
  cursor.finish();
}

/// One whole-token number for a flag that is not a scenario key.
template <class Read>
auto parse_text(const std::string& text, const std::string& what,
                const char* expected, Read read) {
  try {
    JsonCursor cursor(text);
    const auto value = read(cursor);
    cursor.finish();
    return value;
  } catch (const std::invalid_argument&) {
    throw std::invalid_argument(what + " must be " + expected + ", got '" +
                                text + "'");
  }
}

}  // namespace

std::string validate_scenario(const ScenarioSpec& spec) {
  std::ostringstream error;
  if (spec.chain.empty()) {
    error << "\"chain\" must not be empty";
  } else if (spec.fault.empty()) {
    error << "\"fault\" must not be empty";
  } else if (spec.duration_s < 30) {
    error << "\"duration_s\" must be >= 30 (got " << spec.duration_s << ")";
  } else if (spec.num_seeds < 1) {
    error << "\"num_seeds\" must be >= 1 (got " << spec.num_seeds << ")";
  } else if (spec.jobs < 1) {
    error << "\"jobs\" must be >= 1 (got " << spec.jobs << ")";
  } else if (spec.jobs > kMaxJobs) {
    error << "\"jobs\" must be <= " << kMaxJobs << " (got " << spec.jobs
          << ")";
  } else if (spec.chaos_trials < 0) {
    error << "\"chaos_trials\" must be >= 0 (got " << spec.chaos_trials
          << ")";
  } else if (spec.fanout < 1) {
    error << "\"fanout\" must be >= 1 (got " << spec.fanout << ")";
  } else if (spec.matching < 0) {
    error << "\"matching\" must be >= 0 (got " << spec.matching << ")";
  } else if (!(spec.vcpus > 0.0)) {
    error << "\"vcpus\" must be > 0 (got " << fmt_double(spec.vcpus) << ")";
  } else if (!(spec.loss_probability > 0.0) || spec.loss_probability > 1.0) {
    error << "\"loss_probability\" must be in (0, 1] (got "
          << fmt_double(spec.loss_probability) << ")";
  } else if (!(spec.throttle_bytes_per_s > 0.0)) {
    error << "\"throttle_bytes_per_s\" must be > 0 (got "
          << fmt_double(spec.throttle_bytes_per_s) << ")";
  } else if (spec.gray_delay_s < 0.0) {
    error << "\"gray_delay_s\" must be >= 0 (got "
          << fmt_double(spec.gray_delay_s) << ")";
  } else if (spec.eclipse_victim < 0) {
    error << "\"eclipse_victim\" must be >= 0 (got " << spec.eclipse_victim
          << ")";
  } else if (spec.eclipse_victim > std::numeric_limits<net::NodeId>::max()) {
    error << "\"eclipse_victim\" must be < 2^32 (got " << spec.eclipse_victim
          << ")";
  } else if (spec.eclipse_delay_s < 0.0) {
    error << "\"eclipse_delay_s\" must be >= 0 (got "
          << fmt_double(spec.eclipse_delay_s) << ")";
  } else if (spec.eclipse_filter < 0.0 || spec.eclipse_filter >= 1.0) {
    error << "\"eclipse_filter\" must be in [0, 1) (got "
          << fmt_double(spec.eclipse_filter) << ")";
  } else if (!(spec.commit_timeout_s > 0.0)) {
    error << "\"commit_timeout_s\" must be > 0 (got "
          << fmt_double(spec.commit_timeout_s) << ")";
  } else if (spec.hedge && !spec.resilient) {
    error << "\"hedge\" needs \"resilient\": true";
  } else if (spec.endpoint_scoring && !spec.resilient) {
    error << "\"endpoint_scoring\" needs \"resilient\": true";
  } else if (!(spec.hedge_percentile > 0.0) || spec.hedge_percentile > 1.0) {
    error << "\"hedge_percentile\" must be in (0, 1] (got "
          << fmt_double(spec.hedge_percentile) << ")";
  } else if (!(spec.hedge_min_delay_s > 0.0)) {
    error << "\"hedge_min_delay_s\" must be > 0 (got "
          << fmt_double(spec.hedge_min_delay_s) << ")";
  } else if (spec.hedge_max_delay_s < spec.hedge_min_delay_s) {
    error << "\"hedge_max_delay_s\" must be >= \"hedge_min_delay_s\" (got "
          << fmt_double(spec.hedge_max_delay_s) << " < "
          << fmt_double(spec.hedge_min_delay_s) << ")";
  } else if (std::find(workload_shape_names().begin(),
                       workload_shape_names().end(),
                       spec.workload) == workload_shape_names().end()) {
    error << "\"workload\" must be constant, bursty, ramp, diurnal or "
             "flash (got \""
          << spec.workload << "\")";
  } else if (spec.shrink && spec.chaos_trials == 0) {
    error << "\"shrink\" needs \"chaos_trials\" > 0";
  } else if (spec.chaos_adversarial && spec.chaos_trials == 0) {
    error << "\"chaos_adversarial\" needs \"chaos_trials\" > 0";
  }
  if (error.str().empty() && spec.has_traffic) {
    return validate_traffic(spec.traffic);
  }
  return error.str();
}

std::string scenario_to_json(const ScenarioSpec& spec) {
  std::string out;
  write_object(out, spec, "");
  return out;
}

ScenarioSpec scenario_from_json(const std::string& json) {
  ScenarioSpec spec;
  JsonCursor cursor(json);
  read_object(cursor, spec);
  cursor.finish();
  const std::string error = validate_scenario(spec);
  if (!error.empty()) throw std::invalid_argument("scenario: " + error);
  return spec;
}

void set_scenario_key(ScenarioSpec& spec, const std::string& key,
                      const std::string& text) {
  const std::string nested = Table<Traffic>::prefix;
  if (key.compare(0, nested.size(), nested) != 0) {
    set_value(spec, find_field<Spec>(key), text);
    return;
  }
  set_value(spec.traffic, find_field<Traffic>(key.substr(nested.size())),
            text);
  spec.has_traffic = true;
}

double parse_number_text(const std::string& text, const std::string& what) {
  return parse_text(text, what, "a finite number",
                    [&](JsonCursor& cursor) { return cursor.parse_finite(what); });
}

std::int64_t parse_integer_text(const std::string& text,
                                const std::string& what) {
  return parse_text(text, what, "an integer", [&](JsonCursor& cursor) {
    return cursor.parse_integer(what);
  });
}

ResolvedScenario resolve_scenario(const ScenarioSpec& spec) {
  const std::string error = validate_scenario(spec);
  if (!error.empty()) throw std::invalid_argument("scenario: " + error);

  ResolvedScenario resolved;
  ExperimentConfig& config = resolved.config;
  config.chain = parse_chain_name(spec.chain);
  config.chain_params = spec.chain_params;
  // Reject unknown parameter keys now, with the resolving chain named,
  // rather than deep inside the first run.
  (void)chain::merge_params(chain_traits(config.chain), spec.chain_params);
  config.fault = fault_from_name(spec.fault);
  config.seed = spec.seed;
  // The historical CLI windows: integer thirds of the duration (400 s
  // runs keep the paper's 133 s / 266 s schedule).
  apply_run_window(config, spec.duration_s);
  config.fault_targets = spec.fault_targets;
  FaultParams& knobs = config.fault_params;
  knobs.loss_probability = spec.loss_probability;
  knobs.throttle_bytes_per_s = spec.throttle_bytes_per_s;
  knobs.gray_latency = sim::seconds(spec.gray_delay_s);
  knobs.eclipse_victim = static_cast<net::NodeId>(spec.eclipse_victim);
  knobs.eclipse_delay = sim::seconds(spec.eclipse_delay_s);
  knobs.eclipse_filter = spec.eclipse_filter;
  config.client_fanout = static_cast<int>(spec.fanout);
  config.client_matching = static_cast<std::size_t>(spec.matching);
  config.vcpus = spec.vcpus;
  config.workload.shape = parse_workload_shape(spec.workload);
  if (spec.has_traffic) {
    // The preset fills default knobs first, so the resolved run and the
    // re-dumped spec agree on what actually executed.
    TrafficSpec traffic = spec.traffic;
    apply_traffic_preset(traffic);
    config.traffic = resolve_traffic(traffic);
    if (!traffic.shape.empty()) {
      config.workload.shape = parse_workload_shape(traffic.shape);
    }
    config.workload.diurnal_amplitude = traffic.diurnal_amplitude;
    config.workload.diurnal_period = sim::seconds(traffic.diurnal_period_s);
    config.workload.flash_at = sim::seconds(traffic.flash_at_s);
    config.workload.flash_duration =
        sim::seconds(traffic.flash_duration_s);
    config.workload.flash_factor = traffic.flash_factor;
    if (traffic.fault_phase == "burst") {
      // Land the fault DURING the busy window instead of the historical
      // thirds: centred in the middle half of the flash crowd, or across
      // the diurnal peak (the cosine peaks at half a period).
      if (config.workload.shape == WorkloadShape::kFlash) {
        const sim::Duration width = config.workload.flash_duration;
        config.inject_at = config.workload.flash_at + width / 4;
        config.recover_at = config.workload.flash_at + (3 * width) / 4;
      } else if (config.workload.shape == WorkloadShape::kDiurnal) {
        const sim::Duration period =
            config.workload.diurnal_period.count() > 0
                ? config.workload.diurnal_period
                : config.duration;
        config.inject_at = (3 * period) / 8;
        config.recover_at = (5 * period) / 8;
      }
    }
  }
  for (const std::string& name : spec.extra_faults) {
    // Composed plans share the primary fault's final window (after any
    // burst phase above) and its knobs; the runner fills in their
    // default targets.
    FaultPlan plan;
    plan.type = fault_from_name(name);
    plan.inject_at = config.inject_at;
    plan.recover_at = config.recover_at;
    plan.params = config.fault_params;
    config.extra_faults.add(std::move(plan));
  }
  config.resilience.enabled = spec.resilient;
  config.resilience.retry.commit_timeout =
      sim::seconds(spec.commit_timeout_s);
  config.resilience.hedge.enabled = spec.hedge;
  config.resilience.hedge.percentile = spec.hedge_percentile;
  config.resilience.hedge.min_delay = sim::seconds(spec.hedge_min_delay_s);
  config.resilience.hedge.max_delay = sim::seconds(spec.hedge_max_delay_s);
  config.resilience.score.enabled = spec.endpoint_scoring;
  // The §7 secure-client geometry, unless the spec chose its own fanout.
  if (config.fault == FaultType::kSecureClient &&
      config.client_fanout == 1) {
    config = paper_cell(config, config.chain, config.fault, config.seed);
  }
  return resolved;
}

}  // namespace stabl::core
