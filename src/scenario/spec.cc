#include "scenario/spec.h"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <initializer_list>
#include <optional>
#include <span>
#include <sstream>
#include <type_traits>
#include <variant>
#include <vector>

#include "exec/results.h"

namespace flattree::scenario {
namespace {

// ---- diagnostics ------------------------------------------------------------

struct Ctx {
  std::string_view file;

  [[noreturn]] void fail(const JsonNode& node, const std::string& what) const {
    throw ScenarioError(std::string{file} + ":" + std::to_string(node.line) +
                        ":" + std::to_string(node.column) + ": " + what);
  }
};

std::string quoted(std::string_view s) {
  return "\"" + std::string{s} + "\"";
}

// "\"a\", \"b\" or \"c\"" for enum diagnostics.
std::string expected_list(std::span<const char* const> names) {
  std::string out;
  for (std::size_t i = 0; i < names.size(); ++i) {
    if (i > 0) out += (i + 1 == names.size()) ? " or " : ", ";
    out += quoted(names[i]);
  }
  return out;
}

// ---- typed accessors --------------------------------------------------------

const JsonNode& require_key(const Ctx& ctx, const JsonNode& obj,
                            std::string_view key) {
  const JsonNode* node = obj.find(key);
  if (node == nullptr) {
    ctx.fail(obj, "missing required key " + quoted(key));
  }
  return *node;
}

// `subject` names the node in the message: 'key "k"' for a keyed value,
// 'failure entry 0' for a list entry.
void expect_kind(const Ctx& ctx, const JsonNode& node, JsonNode::Kind kind,
                 std::string_view subject, const char* kind_name) {
  if (node.kind != kind) {
    ctx.fail(node, std::string{subject} + ": expected " + kind_name +
                       ", got " + node.kind_name());
  }
}

std::string get_string(const Ctx& ctx, const JsonNode& node,
                       std::string_view key) {
  expect_kind(ctx, node, JsonNode::Kind::kString,
              "key " + quoted(key), "string");
  return node.string;
}

bool get_bool(const Ctx& ctx, const JsonNode& node, std::string_view key) {
  expect_kind(ctx, node, JsonNode::Kind::kBool, "key " + quoted(key), "bool");
  return node.bool_value;
}

double get_number(const Ctx& ctx, const JsonNode& node, std::string_view key) {
  expect_kind(ctx, node, JsonNode::Kind::kNumber,
              "key " + quoted(key), "number");
  return node.number;
}

std::uint64_t get_u64(const Ctx& ctx, const JsonNode& node,
                      std::string_view key) {
  const double v = get_number(ctx, node, key);
  if (!(v >= 0) || v != std::floor(v)) {
    ctx.fail(node, "key " + quoted(key) + ": expected a non-negative integer");
  }
  if (v > 9007199254740992.0) {  // 2^53: exact in a double
    ctx.fail(node, "key " + quoted(key) + ": value exceeds 2^53");
  }
  return static_cast<std::uint64_t>(v);
}

std::uint32_t get_u32(const Ctx& ctx, const JsonNode& node,
                      std::string_view key, std::uint32_t lo,
                      std::uint32_t hi) {
  const std::uint64_t v = get_u64(ctx, node, key);
  if (v < lo || v > hi) {
    ctx.fail(node, "key " + quoted(key) + ": value " + std::to_string(v) +
                       " out of range [" + std::to_string(lo) + ", " +
                       std::to_string(hi) + "]");
  }
  return static_cast<std::uint32_t>(v);
}

std::int32_t get_i32(const Ctx& ctx, const JsonNode& node,
                     std::string_view key, std::int32_t lo, std::int32_t hi) {
  const double v = get_number(ctx, node, key);
  if (v != std::floor(v) || !std::isfinite(v)) {
    ctx.fail(node, "key " + quoted(key) + ": expected an integer");
  }
  if (v < lo || v > hi) {
    ctx.fail(node, "key " + quoted(key) + ": value " +
                       std::to_string(static_cast<std::int64_t>(v)) +
                       " out of range [" + std::to_string(lo) + ", " +
                       std::to_string(hi) + "]");
  }
  return static_cast<std::int32_t>(v);
}

double get_positive(const Ctx& ctx, const JsonNode& node,
                    std::string_view key) {
  const double v = get_number(ctx, node, key);
  if (!(v > 0) || !std::isfinite(v)) {
    ctx.fail(node, "key " + quoted(key) + ": must be > 0");
  }
  return v;
}

double get_non_negative(const Ctx& ctx, const JsonNode& node,
                        std::string_view key) {
  const double v = get_number(ctx, node, key);
  if (!(v >= 0) || !std::isfinite(v)) {
    ctx.fail(node, "key " + quoted(key) + ": must be >= 0");
  }
  return v;
}

double get_fraction(const Ctx& ctx, const JsonNode& node,
                    std::string_view key) {
  const double v = get_number(ctx, node, key);
  if (!(v >= 0) || !(v <= 1)) {
    ctx.fail(node, "key " + quoted(key) + ": must lie in [0, 1]");
  }
  return v;
}

bool is_identifier(std::string_view s) {
  if (s.empty()) return false;
  return std::all_of(s.begin(), s.end(), [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') || c == '_';
  });
}

void check_keys(const Ctx& ctx, const JsonNode& obj,
                std::initializer_list<std::string_view> allowed,
                const char* section) {
  for (const auto& [key, value] : obj.members) {
    if (std::find(allowed.begin(), allowed.end(), key) == allowed.end()) {
      ctx.fail(value, "unknown key " + quoted(key) + " in " + section);
    }
  }
}

// ---- names ------------------------------------------------------------------
//
// Each enum has one name table, indexed by the enum's value: the only place
// its names are spelled. to_string() and every "unknown ..." diagnostic read
// it. The same shape names the string-valued keys with a closed set.

struct Names {
  const char* what;                    // "traffic pattern", for diagnostics
  std::span<const char* const> names;  // indexed by the enum's value - first
  std::size_t first{0};                // the value names[0] names
};

Names names_of(PodMode) {
  // Pod modes are named by core/flat_tree.h.
  static const char* const kNames[] = {to_string(PodMode::kClos),
                                       to_string(PodMode::kLocal),
                                       to_string(PodMode::kGlobal)};
  return {"Pod mode", kNames};
}

Names names_of(NodeRole) {
  // Roles are named by net/graph.h; a failure entry names a switch tier.
  static const char* const kNames[] = {to_string(NodeRole::kEdge),
                                       to_string(NodeRole::kAgg),
                                       to_string(NodeRole::kCore)};
  return {"switch role", kNames, static_cast<std::size_t>(NodeRole::kEdge)};
}

Names names_of(TopologyKind) {
  static constexpr const char* kNames[] = {"fat_tree", "flat_tree",
                                           "random_graph", "two_stage"};
  return {"topology kind", kNames};
}

Names names_of(TrafficPattern) {
  static constexpr const char* kNames[] = {
      "permutation", "incast", "class", "three_tier", "trace", "tenant_churn"};
  return {"traffic pattern", kNames};
}

Names names_of(FailureKind) {
  static constexpr const char* kNames[] = {"core_column", "links", "switches",
                                           "controller_crash",
                                           "control_partition"};
  return {"failure kind", kNames};
}

Names names_of(SloMetric) {
  static constexpr const char* kNames[] = {
      "worst_fct_s", "p99_fct_s", "p50_fct_s", "mean_fct_s", "completed_frac"};
  return {"SLO metric", kNames};
}

Names names_of(Engine) {
  static constexpr const char* kNames[] = {"fluid", "packet",
                                           "packet_sharded", "autopilot"};
  return {"engine", kNames};
}

Names names_of(RefreshMode) {
  static constexpr const char* kNames[] = {"repair", "reroute", "none"};
  return {"refresh mode", kNames};
}

constexpr const char* kVerdicts[] = {"pass", "fail"};
constexpr const char* kTraceProfiles[] = {"hadoop1", "hadoop2", "web", "cache"};

template <typename E>
const char* name_of(E value) {
  const Names table = names_of(value);
  const auto i = static_cast<std::size_t>(value) - table.first;
  return i < table.names.size() ? table.names[i] : "?";
}

// Index of `node`'s string in `table`. An unknown name fails with a message
// that starts with `prefix` and lists every valid name.
std::size_t lookup(const Ctx& ctx, const JsonNode& node,
                   const std::string& prefix, const Names& table) {
  for (std::size_t i = 0; i < table.names.size(); ++i) {
    if (node.string == table.names[i]) return table.first + i;
  }
  ctx.fail(node, prefix + "unknown " + table.what + " " + quoted(node.string) +
                     " (expected " + expected_list(table.names) + ")");
}

std::size_t get_name(const Ctx& ctx, const JsonNode& node,
                     std::string_view key, const Names& table) {
  expect_kind(ctx, node, JsonNode::Kind::kString,
              "key " + quoted(key), "string");
  return lookup(ctx, node, "key " + quoted(key) + ": ", table);
}

template <typename E>
E get_enum(const Ctx& ctx, const JsonNode& node, std::string_view key) {
  return static_cast<E>(get_name(ctx, node, key, names_of(E{})));
}

template <typename E>
E require_enum(const Ctx& ctx, const JsonNode& obj, std::string_view key) {
  return get_enum<E>(ctx, require_key(ctx, obj, key), key);
}

std::vector<PodMode> get_modes(const Ctx& ctx, const JsonNode& node,
                               std::string_view key) {
  expect_kind(ctx, node, JsonNode::Kind::kArray, "key " + quoted(key), "array");
  std::vector<PodMode> modes;
  modes.reserve(node.items.size());
  for (std::size_t i = 0; i < node.items.size(); ++i) {
    const JsonNode& item = node.items[i];
    expect_kind(ctx, item, JsonNode::Kind::kString,
                "key " + quoted(key) + " entry " + std::to_string(i),
                "string");
    modes.push_back(
        static_cast<PodMode>(lookup(ctx, item, "", names_of(PodMode{}))));
  }
  return modes;
}

// A Pod mode list names one mode for every Pod, or one for all of them.
void check_mode_count(const Ctx& ctx, const JsonNode& node,
                      std::string_view key, std::size_t count,
                      std::uint32_t pods) {
  if (count != 1 && count != pods) {
    ctx.fail(node, "key " + quoted(key) + ": expected 1 or " +
                       std::to_string(pods) + " entries, got " +
                       std::to_string(count));
  }
}

// ---- schema tables ----------------------------------------------------------
//
// Every section (topology, traffic entries, failure entries, conversion,
// SLO entries, sim) is stated by one table of Field rows. A row is a key,
// the variants (topology kinds, traffic patterns, failure kinds, engines) it
// is valid for, the member it fills, how it is read, and any
// variant-specific default. One generic pass over a table checks a
// section's keys and parses it (read_fields); the canonical writer walks
// the same rows in the same order (write_fields). Rules that span several
// fields stay as explicit code after the pass.

// Variant bit mask: the kinds / patterns / engines a key is valid for.
template <typename... E>
constexpr std::uint32_t only(E... values) {
  return ((1u << static_cast<unsigned>(values)) | ...);
}
constexpr std::uint32_t kAll = ~0u;

// A default that replaces the struct's for the `variants` given.
struct Default {
  std::uint32_t variants{0};
  double value{0.0};
};

// The member's type picks its reader: double members (and optional ones)
// use `get` (get_number, get_positive, get_non_negative or get_fraction),
// integer members get_u32 / get_i32 over [lo, hi], the rest get_bool,
// get_u64, get_string, a Pod mode list or the enum's name table.
template <typename Spec>
struct Field {
  std::string_view key;
  std::uint32_t valid{kAll};
  std::variant<double Spec::*, std::optional<double> Spec::*, bool Spec::*,
               std::uint32_t Spec::*, std::int32_t Spec::*,
               std::uint64_t Spec::*, std::string Spec::*,
               std::vector<PodMode> Spec::*, TopologyKind Spec::*,
               TrafficPattern Spec::*, FailureKind Spec::*,
               NodeRole Spec::*, SloMetric Spec::*, Engine Spec::*,
               RefreshMode Spec::*>
      member;
  double (*get)(const Ctx&, const JsonNode&, std::string_view){get_number};
  std::int32_t lo{0};
  std::int32_t hi{0};
  Default defaults[2]{};
  bool required{false};
  // The struct's default means "absent" (auto, never, no bound) and is not
  // written; no value the reader accepts equals it.
  bool omit_default{false};
};

template <typename Spec, typename T>
void read_value(const Ctx& ctx, const JsonNode& node, const Field<Spec>& f,
                T& out) {
  if constexpr (std::is_same_v<T, double> ||
                std::is_same_v<T, std::optional<double>>) {
    out = f.get(ctx, node, f.key);
  } else if constexpr (std::is_same_v<T, bool>) {
    out = get_bool(ctx, node, f.key);
  } else if constexpr (std::is_same_v<T, std::uint32_t>) {
    out = get_u32(ctx, node, f.key, f.lo, f.hi);
  } else if constexpr (std::is_same_v<T, std::int32_t>) {
    out = get_i32(ctx, node, f.key, f.lo, f.hi);
  } else if constexpr (std::is_same_v<T, std::uint64_t>) {
    out = get_u64(ctx, node, f.key);
  } else if constexpr (std::is_same_v<T, std::string>) {
    out = get_string(ctx, node, f.key);
  } else if constexpr (std::is_same_v<T, std::vector<PodMode>>) {
    out = get_modes(ctx, node, f.key);
  } else {
    out = get_enum<T>(ctx, node, f.key);
  }
}

// Checks `obj`'s keys against the rows valid for `variant`, then reads
// those rows in order. A key of another variant is "not valid for
// <variant_name>", or, given the variants' `kinds`, "only valid for kind
// <the kinds its row names>"; a key no row names is "unknown ... in
// <section>", or, for a section passed as nullptr, also "not valid for
// <variant_name>".
template <typename Spec>
void read_fields(const Ctx& ctx, const JsonNode& obj,
                 std::span<const Field<Spec>> fields, std::uint32_t variant,
                 const char* section, const std::string& variant_name,
                 Spec& spec, const Names* kinds = nullptr) {
  for (const auto& [key, value] : obj.members) {
    const auto row =
        std::find_if(fields.begin(), fields.end(),
                     [&](const Field<Spec>& f) { return f.key == key; });
    if (row != fields.end() && (row->valid & variant) != 0) continue;
    if (row == fields.end() && section != nullptr) {
      ctx.fail(value, "unknown key " + quoted(key) + " in " + section);
    }
    if (kinds != nullptr && row != fields.end()) {
      std::vector<const char*> valid;
      for (std::size_t i = 0; i < kinds->names.size(); ++i) {
        if (((row->valid >> i) & 1u) != 0) valid.push_back(kinds->names[i]);
      }
      ctx.fail(value, "key " + quoted(key) + " is only valid for kind " +
                          expected_list(valid));
    }
    ctx.fail(value,
             "key " + quoted(key) + " is not valid for " + variant_name);
  }
  for (const Field<Spec>& f : fields) {
    if ((f.valid & variant) == 0) continue;
    if (const auto* member = std::get_if<double Spec::*>(&f.member)) {
      for (const Default& d : f.defaults) {
        if ((d.variants & variant) != 0) spec.**member = d.value;
      }
    }
    const JsonNode* node =
        f.required ? &require_key(ctx, obj, f.key) : obj.find(f.key);
    if (node == nullptr) continue;
    std::visit([&](auto member) { read_value(ctx, *node, f, spec.*member); },
               f.member);
  }
}

std::span<const Field<TopologySpec>> topology_fields() {
  using enum TopologyKind;
  using T = TopologySpec;
  static constexpr Field<T> kFields[] = {
      {.key = "kind", .member = &T::kind},
      {.key = "k", .member = &T::k, .lo = 4, .hi = 32},
      {.key = "servers_per_edge", .member = &T::servers_per_edge, .lo = 1,
       .hi = 256},
      {.key = "m", .valid = only(kFatTree, kFlatTree), .member = &T::m,
       .lo = 0, .hi = 256, .omit_default = true},
      {.key = "n", .valid = only(kFatTree, kFlatTree), .member = &T::n,
       .lo = 0, .hi = 256, .omit_default = true},
      {.key = "pod_modes", .valid = only(kFlatTree), .member = &T::pod_modes},
      {.key = "wiring_seed", .valid = only(kRandomGraph, kTwoStage),
       .member = &T::wiring_seed},
  };
  return kFields;
}

std::span<const Field<TrafficSpec>> traffic_fields() {
  using enum TrafficPattern;
  using T = TrafficSpec;
  static constexpr Field<T> kFields[] = {
      {.key = "pattern", .member = &T::pattern},
      {.key = "class", .member = &T::tenant_class},
      {.key = "seed", .member = &T::seed},
      {.key = "start_s", .member = &T::start_s, .get = get_non_negative},
      {.key = "bytes", .valid = only(kPermutation), .member = &T::bytes,
       .get = get_positive},
      {.key = "groups", .valid = only(kIncast), .member = &T::groups,
       .lo = 1, .hi = 4096},
      {.key = "fanin", .valid = only(kIncast), .member = &T::fanin, .lo = 1,
       .hi = 4096},
      {.key = "requests", .valid = only(kIncast), .member = &T::requests,
       .lo = 1, .hi = 4096},
      {.key = "period_s", .valid = only(kIncast), .member = &T::period_s,
       .get = get_positive},
      {.key = "pod_local", .valid = only(kIncast), .member = &T::pod_local},
      {.key = "profile", .valid = only(kTrace), .member = &T::profile,
       .required = true},
      {.key = "duration_s",
       .valid = only(kClass, kThreeTier, kTrace, kTenantChurn),
       .member = &T::duration_s,
       .get = get_positive,
       .defaults = {{only(kTenantChurn), 10.0}}},
      {.key = "requests_per_s", .valid = only(kThreeTier),
       .member = &T::requests_per_s, .get = get_positive},
      {.key = "frontend_frac", .valid = only(kThreeTier),
       .member = &T::frontend_frac, .get = get_fraction},
      {.key = "cache_frac", .valid = only(kThreeTier),
       .member = &T::cache_frac, .get = get_fraction},
      {.key = "request_bytes", .valid = only(kThreeTier),
       .member = &T::request_bytes, .get = get_positive},
      {.key = "cache_reply_bytes", .valid = only(kThreeTier),
       .member = &T::cache_reply_bytes, .get = get_positive},
      {.key = "storage_reply_bytes", .valid = only(kThreeTier),
       .member = &T::storage_reply_bytes, .get = get_positive},
      {.key = "miss_frac", .valid = only(kThreeTier), .member = &T::miss_frac,
       .get = get_fraction},
      {.key = "think_s", .valid = only(kThreeTier), .member = &T::think_s,
       .get = get_non_negative},
      {.key = "arrivals_per_s", .valid = only(kTenantChurn),
       .member = &T::arrivals_per_s, .get = get_positive},
      {.key = "mean_lifetime_s", .valid = only(kTenantChurn),
       .member = &T::mean_lifetime_s, .get = get_positive},
      {.key = "flows_per_s", .valid = only(kClass, kTrace, kTenantChurn),
       .member = &T::flows_per_s,
       .get = get_positive,
       .defaults = {{only(kTrace), 1000.0}, {only(kTenantChurn), 800.0}}},
      {.key = "mean_bytes", .valid = only(kIncast, kClass),
       .member = &T::mean_bytes, .get = get_positive},
      {.key = "alpha", .valid = only(kIncast, kClass), .member = &T::alpha,
       .defaults = {{only(kClass), 1.6}}},
      {.key = "max_bytes", .valid = only(kIncast, kClass),
       .member = &T::max_bytes, .get = get_positive},
      {.key = "intra_rack_frac", .valid = only(kClass),
       .member = &T::intra_rack_frac, .get = get_fraction},
      {.key = "intra_pod_frac", .valid = only(kClass),
       .member = &T::intra_pod_frac, .get = get_fraction},
      {.key = "hot_pod", .valid = only(kClass), .member = &T::hot_pod,
       .lo = -1, .hi = 1 << 20},
      {.key = "hot_pod_frac", .valid = only(kClass), .member = &T::hot_pod_frac,
       .get = get_fraction},
  };
  return kFields;
}

std::span<const Field<FailureSpec>> failure_fields() {
  using enum FailureKind;
  using F = FailureSpec;
  // A controller crash has no recovery window or flapping: the standby
  // takes over, the dead primary never comes back.
  constexpr std::uint32_t kWindowed = ~only(kControllerCrash);
  constexpr std::uint32_t kRange = only(kCoreColumn, kControlPartition);
  constexpr std::uint32_t kSampled = only(kLinks, kSwitches);
  static constexpr Field<F> kFields[] = {
      {.key = "kind", .member = &F::kind},
      {.key = "fail_at", .member = &F::fail_at, .get = get_non_negative,
       .required = true},
      {.key = "recover_at", .valid = kWindowed, .member = &F::recover_at,
       .omit_default = true},
      {.key = "first", .valid = kRange, .member = &F::first, .lo = 0,
       .hi = 1 << 20},
      {.key = "count", .valid = kRange, .member = &F::count, .lo = 1,
       .hi = 1 << 20, .required = true},
      {.key = "fraction", .valid = kSampled, .member = &F::fraction,
       .required = true},
      {.key = "role", .valid = only(kSwitches), .member = &F::role},
      {.key = "flaps", .valid = kWindowed, .member = &F::flaps, .lo = 1,
       .hi = 1024},
      // A plain number: "requires flaps > 1" outranks its range, which the
      // flap rules check after the pass.
      {.key = "period_s", .valid = kWindowed, .member = &F::period_s,
       .omit_default = true},
      {.key = "seed", .valid = kSampled, .member = &F::seed},
  };
  return kFields;
}

std::span<const Field<ConversionSpec>> conversion_fields() {
  using C = ConversionSpec;
  static constexpr Field<C> kFields[] = {
      {.key = "at_s", .member = &C::at_s, .get = get_non_negative},
      {.key = "to", .member = &C::to, .required = true},
      {.key = "staged", .member = &C::staged},
      {.key = "stage_checkpoints", .member = &C::stage_checkpoints},
      {.key = "ocs_partitions", .member = &C::ocs_partitions, .lo = 1,
       .hi = 64},
      {.key = "drop_probability", .member = &C::drop_probability},
      // The remaining lossy-channel knobs are read for type only:
      // ControlChannelOptions::validate() is the single authority on
      // channel ranges, and the compiler calls it before any cell runs — so
      // every rejection message has exactly one home (and the regression
      // tests pin each one there).
      {.key = "channel_delay_s", .member = &C::channel_delay_s},
      {.key = "channel_timeout_s", .member = &C::channel_timeout_s},
      {.key = "channel_backoff", .member = &C::channel_backoff},
      {.key = "channel_jitter", .member = &C::channel_jitter},
      {.key = "channel_max_attempts", .member = &C::channel_max_attempts,
       .lo = 0, .hi = 1 << 20},
      {.key = "seed", .member = &C::seed},
      {.key = "controllers", .member = &C::controllers, .lo = 1, .hi = 4096},
      // The per-operation delays get no parse-time range check either:
      // ConversionDelayModel::validate() is the single authority on what a
      // legal delay model is, and the compiler invokes it.
      {.key = "ocs_s", .member = &C::ocs_s},
      {.key = "rule_delete_s", .member = &C::rule_delete_s},
      {.key = "rule_add_s", .member = &C::rule_add_s},
  };
  return kFields;
}

std::span<const Field<SloSpec>> slo_fields() {
  using S = SloSpec;
  static constexpr Field<S> kFields[] = {
      {.key = "class", .member = &S::tenant_class},
      {.key = "metric", .member = &S::metric, .required = true},
      {.key = "max", .member = &S::max, .omit_default = true},
      {.key = "min", .member = &S::min, .omit_default = true},
  };
  return kFields;
}

std::span<const Field<SimSpec>> sim_fields() {
  using enum Engine;
  using S = SimSpec;
  static constexpr Field<S> kFields[] = {
      {.key = "engine", .member = &S::engine},
      {.key = "max_time_s", .member = &S::max_time_s, .get = get_positive},
      {.key = "k_paths", .member = &S::k_paths, .lo = 1, .hi = 64},
      {.key = "refresh", .valid = only(kFluid), .member = &S::refresh},
      {.key = "repair_lag_s", .valid = only(kFluid),
       .member = &S::repair_lag_s, .get = get_non_negative,
       .omit_default = true},
      {.key = "controllers", .valid = only(kFluid), .member = &S::controllers,
       .lo = 1, .hi = 4096},
      {.key = "count_rules", .valid = only(kFluid), .member = &S::count_rules},
      {.key = "epoch_s", .valid = only(kAutopilot), .member = &S::epoch_s,
       .get = get_positive},
  };
  return kFields;
}

// ---- sections ---------------------------------------------------------------

TrafficSpec parse_traffic_entry(const Ctx& ctx, const JsonNode& obj,
                                std::size_t index,
                                std::uint64_t default_seed) {
  expect_kind(ctx, obj, JsonNode::Kind::kObject,
              "traffic entry " + std::to_string(index), "object");
  TrafficSpec spec;
  spec.pattern = require_enum<TrafficPattern>(ctx, obj, "pattern");
  spec.seed = default_seed;
  read_fields(ctx, obj, traffic_fields(), only(spec.pattern), "traffic entry",
              "pattern " + quoted(to_string(spec.pattern)), spec);
  // The defaults satisfy these rules, so a violation names a present key.
  if (!is_identifier(spec.tenant_class)) {
    ctx.fail(*obj.find("class"), "key \"class\": must match [a-z0-9_]+");
  }
  if (!(spec.alpha > 1)) {
    ctx.fail(*obj.find("alpha"), "key \"alpha\": must be > 1");
  }
  if (spec.pattern == TrafficPattern::kTrace) {
    get_name(ctx, *obj.find("profile"), "profile",
             {"trace profile", kTraceProfiles});
  }
  return spec;
}

// The rules of one failure entry that span several fields, checked after
// its table pass.
void check_failure_window(const Ctx& ctx, const JsonNode& obj,
                          const FailureSpec& f) {
  if (const JsonNode* node = obj.find("recover_at")) {
    if (!(f.recover_at > f.fail_at)) {
      ctx.fail(*node, "key \"recover_at\": must be greater than fail_at");
    }
  }
  if (const JsonNode* node = obj.find("fraction")) {
    if (!(f.fraction > 0) || !(f.fraction <= 1)) {
      ctx.fail(*node, "key \"fraction\": must lie in (0, 1]");
    }
  }
  if (f.flaps > 1) {
    if (f.recover_at < 0) {
      ctx.fail(*obj.find("flaps"),
               "key \"flaps\": flapping requires recover_at");
    }
    const JsonNode& period = require_key(ctx, obj, "period_s");
    get_positive(ctx, period, "period_s");  // the pass read a plain number
    if (!(f.period_s > f.recover_at - f.fail_at)) {
      ctx.fail(period,
               "key \"period_s\": flap period must exceed recover_at - "
               "fail_at");
    }
  } else if (const JsonNode* node = obj.find("period_s")) {
    ctx.fail(*node, "key \"period_s\" requires flaps > 1");
  }
}

// Selector identity for the parse-time overlap check: two failure entries
// that would fail the *same* elements must not have overlapping windows
// (FailureSchedule would reject the double-fail mid-compile; we catch the
// statically-detectable case here with a source position).
std::string selector_identity(const FailureSpec& spec) {
  std::ostringstream id;
  id << to_string(spec.kind);
  switch (spec.kind) {
    case FailureKind::kCoreColumn:
    case FailureKind::kControlPartition:
      id << ":" << spec.first << ":" << spec.count;
      break;
    case FailureKind::kLinks:
      id << ":" << spec.fraction << ":" << spec.seed;
      break;
    case FailureKind::kSwitches:
      id << ":" << spec.fraction << ":" << to_string(spec.role) << ":"
         << spec.seed;
      break;
    case FailureKind::kControllerCrash:
      // Identity is the kind itself; a crash never recovers, so any second
      // crash entry overlaps the first and is rejected — at most one per
      // scenario, by construction.
      break;
  }
  return id.str();
}

bool windows_overlap(const FailureSpec& a, const FailureSpec& b) {
  for (std::uint32_t i = 0; i < a.flaps; ++i) {
    const double a0 = a.fail_at + i * a.period_s;
    const double a1 =
        a.recover_at < 0 ? 1e300 : a.recover_at + i * a.period_s;
    for (std::uint32_t j = 0; j < b.flaps; ++j) {
      const double b0 = b.fail_at + j * b.period_s;
      const double b1 =
          b.recover_at < 0 ? 1e300 : b.recover_at + j * b.period_s;
      if (a0 < b1 && b0 < a1) return true;
    }
  }
  return false;
}

ConversionSpec parse_conversion(const Ctx& ctx, const JsonNode& obj,
                                const TopologySpec& topology,
                                std::uint64_t default_seed) {
  expect_kind(ctx, obj, JsonNode::Kind::kObject,
              "key \"conversion\"", "object");
  if (topology.kind != TopologyKind::kFlatTree) {
    ctx.fail(obj, "conversion requires topology kind \"flat_tree\"");
  }
  ConversionSpec spec;
  spec.present = true;
  spec.seed = default_seed;
  read_fields(ctx, obj, conversion_fields(), kAll, "conversion", "", spec);
  check_mode_count(ctx, *obj.find("to"), "to", spec.to.size(), topology.k);
  // The defaults satisfy these rules, so a violation names a present key.
  if (spec.stage_checkpoints && !spec.staged) {
    ctx.fail(*obj.find("stage_checkpoints"),
             "key \"stage_checkpoints\" requires staged");
  }
  if (!(spec.drop_probability >= 0) || !(spec.drop_probability < 1)) {
    ctx.fail(*obj.find("drop_probability"),
             "key \"drop_probability\": must lie in [0, 1)");
  }
  return spec;
}

SimSpec parse_sim(const Ctx& ctx, const JsonNode* obj,
                  const TopologySpec& topology) {
  const bool flat = topology.kind == TopologyKind::kFatTree ||
                    topology.kind == TopologyKind::kFlatTree;
  SimSpec spec;
  spec.refresh = flat ? RefreshMode::kRepair : RefreshMode::kReroute;
  if (obj == nullptr) return spec;
  expect_kind(ctx, *obj, JsonNode::Kind::kObject, "key \"sim\"", "object");
  spec.engine = require_enum<Engine>(ctx, *obj, "engine");
  // sim names no section: every stray key is reported against the engine.
  read_fields(ctx, *obj, sim_fields(), only(spec.engine), nullptr,
              "engine " + quoted(to_string(spec.engine)), spec);
  if (spec.refresh == RefreshMode::kRepair && !flat) {  // never the default
    ctx.fail(*obj->find("refresh"),
             "key \"refresh\": \"repair\" requires topology kind "
             "\"fat_tree\" or \"flat_tree\"");
  }
  return spec;
}

}  // namespace

const char* to_string(TopologyKind kind) { return name_of(kind); }
const char* to_string(TrafficPattern pattern) { return name_of(pattern); }
const char* to_string(FailureKind kind) { return name_of(kind); }
const char* to_string(SloMetric metric) { return name_of(metric); }
const char* to_string(Engine engine) { return name_of(engine); }
const char* to_string(RefreshMode mode) { return name_of(mode); }

Scenario parse_scenario(std::string_view text, std::string_view file) {
  const Ctx ctx{file};
  const JsonNode root = parse_json(text, file);
  if (root.kind != JsonNode::Kind::kObject) {
    ctx.fail(root, std::string{"expected a scenario object, got "} +
                       root.kind_name());
  }
  check_keys(ctx, root,
             {"name", "seed", "expect", "topology", "traffic", "failures",
              "conversion", "slos", "sim"},
             "scenario");

  Scenario scenario;
  const JsonNode& name = require_key(ctx, root, "name");
  scenario.name = get_string(ctx, name, "name");
  if (!is_identifier(scenario.name)) {
    ctx.fail(name, "key \"name\": must match [a-z0-9_]+");
  }
  if (const JsonNode* node = root.find("seed")) {
    scenario.seed = get_u64(ctx, *node, "seed");
  }
  if (const JsonNode* node = root.find("expect")) {
    scenario.expect_pass =
        get_name(ctx, *node, "expect", {"verdict", kVerdicts}) == 0;
  }

  const JsonNode& topology = require_key(ctx, root, "topology");
  expect_kind(ctx, topology, JsonNode::Kind::kObject,
              "key \"topology\"", "object");
  TopologySpec& t = scenario.topology;
  t.kind = require_enum<TopologyKind>(ctx, topology, "kind");
  const Names kinds = names_of(TopologyKind{});
  read_fields(ctx, topology, topology_fields(), only(t.kind), "topology", "",
              t, &kinds);
  if (t.k % 2 != 0) {
    ctx.fail(*topology.find("k"), "key \"k\": must be even");
  }
  // The range starts at 1, so 0 means the key was absent.
  if (t.servers_per_edge == 0) t.servers_per_edge = t.k / 2;
  if (const JsonNode* node = topology.find("pod_modes")) {
    check_mode_count(ctx, *node, "pod_modes", t.pod_modes.size(), t.k);
  } else if (t.kind == TopologyKind::kFlatTree) {
    t.pod_modes = {PodMode::kClos};
  }

  const JsonNode& traffic = require_key(ctx, root, "traffic");
  expect_kind(ctx, traffic, JsonNode::Kind::kArray, "key \"traffic\"", "array");
  if (traffic.items.empty()) {
    ctx.fail(traffic, "key \"traffic\": at least one traffic entry is required");
  }
  for (std::size_t i = 0; i < traffic.items.size(); ++i) {
    scenario.traffic.push_back(
        parse_traffic_entry(ctx, traffic.items[i], i, scenario.seed + i));
  }

  const JsonNode* failures = root.find("failures");
  if (failures != nullptr) {
    expect_kind(ctx, *failures, JsonNode::Kind::kArray,
                "key \"failures\"", "array");
    for (std::size_t i = 0; i < failures->items.size(); ++i) {
      const JsonNode& obj = failures->items[i];
      expect_kind(ctx, obj, JsonNode::Kind::kObject,
                  "failure entry " + std::to_string(i), "object");
      FailureSpec& f = scenario.failures.emplace_back();
      f.kind = require_enum<FailureKind>(ctx, obj, "kind");
      if (f.kind == FailureKind::kLinks || f.kind == FailureKind::kSwitches) {
        f.seed = scenario.seed + 100 + i;
      }
      read_fields(ctx, obj, failure_fields(), only(f.kind), nullptr,
                  "failure kind " + quoted(to_string(f.kind)), f);
      check_failure_window(ctx, obj, f);
    }
    for (std::size_t i = 0; i < scenario.failures.size(); ++i) {
      for (std::size_t j = 0; j < i; ++j) {
        if (selector_identity(scenario.failures[i]) ==
                selector_identity(scenario.failures[j]) &&
            windows_overlap(scenario.failures[i], scenario.failures[j])) {
          ctx.fail(failures->items[i],
                   "failure window overlaps an earlier window for the same "
                   "selector");
        }
      }
    }
  }

  const JsonNode* conversion = root.find("conversion");
  if (conversion != nullptr) {
    scenario.conversion =
        parse_conversion(ctx, *conversion, scenario.topology, scenario.seed);
  }

  if (const JsonNode* slos = root.find("slos")) {
    expect_kind(ctx, *slos, JsonNode::Kind::kArray, "key \"slos\"", "array");
    for (std::size_t i = 0; i < slos->items.size(); ++i) {
      const JsonNode& obj = slos->items[i];
      expect_kind(ctx, obj, JsonNode::Kind::kObject,
                  "slo entry " + std::to_string(i), "object");
      SloSpec& slo = scenario.slos.emplace_back();
      read_fields(ctx, obj, slo_fields(), kAll, "slo entry", "", slo);
      const bool defined =
          slo.tenant_class.empty() ||
          std::any_of(scenario.traffic.begin(), scenario.traffic.end(),
                      [&](const TrafficSpec& t) {
                        return t.tenant_class == slo.tenant_class;
                      });
      if (!defined) {
        ctx.fail(*obj.find("class"),
                 "key \"class\": tenant class " + quoted(slo.tenant_class) +
                     " is not defined by any traffic entry");
      }
      if (!slo.max && !slo.min) {
        ctx.fail(obj, "slo requires \"max\" or \"min\"");
      }
      if (slo.max && slo.min && *slo.max < *slo.min) {
        ctx.fail(*obj.find("max"), "key \"max\": must be >= min");
      }
    }
  }

  scenario.sim = parse_sim(ctx, root.find("sim"), scenario.topology);

  // Cross-section engine constraints (positions point at the offending
  // section, not at "sim", so the diagnostic lands where the fix goes).
  if (scenario.sim.engine != Engine::kFluid) {
    if (failures != nullptr) {
      ctx.fail(*failures, "key \"failures\" is not supported by engine " +
                              quoted(to_string(scenario.sim.engine)));
    }
    if (conversion != nullptr) {
      ctx.fail(*conversion, "key \"conversion\" is not supported by engine " +
                                quoted(to_string(scenario.sim.engine)));
    }
  }
  for (std::size_t i = 0; i < scenario.failures.size(); ++i) {
    const FailureSpec& f = scenario.failures[i];
    const bool control = f.kind == FailureKind::kControllerCrash ||
                         f.kind == FailureKind::kControlPartition;
    if (!control) continue;
    // Control-plane chaos degrades the conversion's controllers, so it is
    // meaningless without a conversion in flight — and partitions demand
    // the staged protocol (the atomic baseline has no checkpoint to fall
    // back on, so the executor rejects the combination).
    if (!scenario.conversion.present) {
      ctx.fail(failures->items[i],
               "failure kind " + quoted(to_string(f.kind)) +
                   " requires a \"conversion\" section");
    }
    if (f.kind == FailureKind::kControlPartition) {
      if (!scenario.conversion.staged) {
        ctx.fail(failures->items[i],
                 "failure kind \"control_partition\" requires a staged "
                 "conversion");
      }
      if (f.first + f.count > scenario.topology.k) {
        ctx.fail(failures->items[i],
                 "failure kind \"control_partition\": pod range [first, "
                 "first + count) exceeds the topology's pods");
      }
    }
  }
  if (scenario.conversion.present && !scenario.failures.empty()) {
    for (std::size_t i = 0; i < scenario.failures.size(); ++i) {
      const FailureKind k = scenario.failures[i].kind;
      if (k != FailureKind::kLinks && k != FailureKind::kControllerCrash &&
          k != FailureKind::kControlPartition) {
        ctx.fail(failures->items[i],
                 "conversion scenarios support failure kinds \"links\", "
                 "\"controller_crash\" and \"control_partition\" only");
      }
    }
  }
  if (scenario.sim.engine == Engine::kAutopilot) {
    const JsonNode* slos = root.find("slos");
    for (std::size_t i = 0; i < scenario.slos.size(); ++i) {
      const SloSpec& slo = scenario.slos[i];
      if (!slo.tenant_class.empty() ||
          (slo.metric != SloMetric::kMeanFct &&
           slo.metric != SloMetric::kCompletedFrac)) {
        ctx.fail(slos->items[i],
                 "engine \"autopilot\" supports aggregate SLOs only "
                 "(class \"\", metric \"mean_fct_s\" or \"completed_frac\")");
      }
    }
  }
  if (scenario.sim.engine == Engine::kPacketSharded) {
    const JsonNode* slos = root.find("slos");
    for (std::size_t i = 0; i < scenario.slos.size(); ++i) {
      if (!scenario.slos[i].tenant_class.empty()) {
        ctx.fail(slos->items[i],
                 "engine \"packet_sharded\" supports class \"\" SLOs only");
      }
    }
  }
  return scenario;
}

Scenario parse_scenario_file(const std::string& path) {
  std::ifstream in{path, std::ios::binary};
  if (!in) {
    throw ScenarioError(path + ": cannot read file");
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return parse_scenario(buffer.str(), path);
}

// ---- canonical serialization ------------------------------------------------

namespace {

// Two-space-indented writer; numbers via exec::JsonValue (shortest
// round-trip doubles), exactly the encoding BENCH reports use.
class JsonWriter {
 public:
  void key(std::string_view k) {
    pre_item();
    out_ += '"';
    out_ += k;
    out_ += "\": ";
    just_keyed_ = true;
  }
  void value(exec::JsonValue v) {
    pre_item();
    v.append_json(out_);
  }
  void begin_object() { begin('{'); }
  void end_object() { end('}'); }
  void begin_array() { begin('['); }
  void end_array() { end(']'); }
  std::string take() {
    out_ += '\n';
    return std::move(out_);
  }

 private:
  void pre_item() {
    if (just_keyed_) {
      just_keyed_ = false;
      return;
    }
    if (!stack_.empty()) {
      out_ += stack_.back() ? ",\n" : "\n";
      stack_.back() = true;
      out_.append(stack_.size() * 2, ' ');
    }
  }
  void begin(char c) {
    pre_item();
    out_ += c;
    stack_.push_back(false);
  }
  void end(char c) {
    const bool any = stack_.back();
    stack_.pop_back();
    if (any) {
      out_ += '\n';
      out_.append(stack_.size() * 2, ' ');
    }
    out_ += c;
  }

  std::string out_;
  std::vector<bool> stack_;
  bool just_keyed_{false};
};

template <typename T>
void write_value(JsonWriter& w, const T& v) {
  if constexpr (std::is_enum_v<T>) {
    w.value(to_string(v));
  } else if constexpr (std::is_same_v<T, std::optional<double>>) {
    w.value(*v);  // omit_default rows: never written empty
  } else if constexpr (std::is_same_v<T, std::vector<PodMode>>) {
    w.begin_array();
    for (const PodMode mode : v) w.value(to_string(mode));
    w.end_array();
  } else {
    w.value(v);
  }
}

// The canonical form of a section: every row valid for `variant`, in row
// order, less the omit_default rows that hold their default.
template <typename Spec>
void write_fields(JsonWriter& w, std::span<const Field<Spec>> fields,
                  std::uint32_t variant, const Spec& spec) {
  static const Spec kDefault{};
  w.begin_object();
  for (const Field<Spec>& f : fields) {
    if ((f.valid & variant) == 0) continue;
    std::visit(
        [&](auto member) {
          if (f.omit_default && spec.*member == kDefault.*member) return;
          w.key(f.key);
          write_value(w, spec.*member);
        },
        f.member);
  }
  w.end_object();
}

}  // namespace

std::string canonical_json(const Scenario& scenario) {
  JsonWriter w;
  w.begin_object();
  w.key("name");
  w.value(scenario.name);
  w.key("seed");
  w.value(scenario.seed);
  w.key("expect");
  w.value(kVerdicts[scenario.expect_pass ? 0 : 1]);
  w.key("topology");
  write_fields(w, topology_fields(), only(scenario.topology.kind),
               scenario.topology);
  w.key("traffic");
  w.begin_array();
  for (const TrafficSpec& t : scenario.traffic) {
    write_fields(w, traffic_fields(), only(t.pattern), t);
  }
  w.end_array();
  if (!scenario.failures.empty()) {
    w.key("failures");
    w.begin_array();
    for (const FailureSpec& f : scenario.failures) {
      write_fields(w, failure_fields(), only(f.kind), f);
    }
    w.end_array();
  }
  if (scenario.conversion.present) {
    w.key("conversion");
    write_fields(w, conversion_fields(), kAll, scenario.conversion);
  }
  if (!scenario.slos.empty()) {
    w.key("slos");
    w.begin_array();
    for (const SloSpec& s : scenario.slos) {
      write_fields(w, slo_fields(), kAll, s);
    }
    w.end_array();
  }
  w.key("sim");
  write_fields(w, sim_fields(), only(scenario.sim.engine), scenario.sim);
  w.end_object();
  return w.take();
}

}  // namespace flattree::scenario
