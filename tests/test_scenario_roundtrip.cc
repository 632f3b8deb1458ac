// Round-trip property: for any valid scenario text, parse -> canonical_json
// -> parse yields an identical Scenario struct, and canonical_json is a
// fixed point (serializing the re-parse reproduces the same bytes). Fuzzed
// over seeded randomly-generated specs spanning every topology kind,
// traffic pattern, engine and SLO shape, with the core_column, links and
// switches failure kinds and no flapping; a hand-written corpus (kCorpus)
// covers the control-plane failure kinds and flapping windows.
//
// The canonical form (documented in DESIGN.md): every section present,
// every field materialized with its resolved default (including parse-time
// seed resolution), keys in grammar order, two-space indentation,
// shortest-round-trip numbers. This is what keeps golden summaries and
// scenario files diffable as the grammar grows. CanonicalBytesPinned holds
// those bytes to FNV-1a digests, one per scenarios/*.json file plus one
// over the fuzzed specs (HandWrittenCorpusBytesPinned adds one over the
// corpus), so a reordered or renamed key fails there even though the
// fixed point still holds.
#include "scenario/spec.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "net/rng.h"

namespace flattree::scenario {
namespace {

// A tiny JSON emitter for the fuzzer: builds one syntactically valid
// scenario text, choosing sections, keys and values at random within the
// grammar's invariants.
class SpecBuilder {
 public:
  explicit SpecBuilder(std::uint64_t seed) : rng_{seed} {}

  std::string build() {
    const char* kinds[] = {"fat_tree", "flat_tree", "random_graph",
                           "two_stage"};
    kind_ = kinds[pick(4)];
    flat_ = kind_ == std::string{"fat_tree"} || kind_ == std::string{"flat_tree"};
    const char* engines_flat[] = {"fluid", "fluid", "packet",
                                  "packet_sharded", "autopilot"};
    const char* engines_random[] = {"fluid", "packet"};
    engine_ = flat_ ? engines_flat[pick(5)]
                    : engines_random[pick(2)];
    k_ = 4 + 2 * pick(3);  // 4, 6, 8

    std::string out = "{\n";
    out += "  \"name\": \"fuzz_" + std::to_string(pick(1000)) + "\",\n";
    if (chance(70)) {
      out += "  \"seed\": " + std::to_string(pick(100000)) + ",\n";
    }
    if (chance(50)) {
      out += std::string{"  \"expect\": \""} +
             (chance(80) ? "pass" : "fail") + "\",\n";
    }
    out += topology_section();
    out += traffic_section();
    if (engine_ == std::string{"fluid"}) {
      const std::string conversion = conversion_section();
      out += failures_section();  // links-only when conversion_ is set
      out += conversion;
    }
    out += slos_section();
    out += sim_section();
    out.pop_back();  // trailing newline
    out.pop_back();  // trailing comma
    out += "\n}\n";
    return out;
  }

 private:
  std::uint32_t pick(std::uint32_t bound) {
    return static_cast<std::uint32_t>(rng_.next_below(bound));
  }
  bool chance(std::uint32_t percent) { return pick(100) < percent; }

  std::string num(double v) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.6g", v);
    return buf;
  }

  std::string topology_section() {
    std::string out = "  \"topology\": {\"kind\": \"" + kind_ + "\"";
    out += ", \"k\": " + std::to_string(k_);
    if (chance(40)) {
      out += ", \"servers_per_edge\": " + std::to_string(1 + pick(8));
    }
    if (flat_ && chance(30)) out += ", \"m\": " + std::to_string(1 + pick(2));
    if (flat_ && chance(30)) out += ", \"n\": " + std::to_string(1 + pick(2));
    if (kind_ == std::string{"flat_tree"} && chance(60)) {
      const char* modes[] = {"clos", "local", "global"};
      out += ", \"pod_modes\": [";
      const std::uint32_t count = chance(50) ? 1 : k_;
      for (std::uint32_t i = 0; i < count; ++i) {
        if (i > 0) out += ", ";
        out += std::string{"\""} + modes[pick(3)] + "\"";
      }
      out += "]";
    }
    if (!flat_ && chance(60)) {
      out += ", \"wiring_seed\": " + std::to_string(pick(1000));
    }
    return out + "},\n";
  }

  std::string traffic_entry() {
    const char* patterns[] = {"permutation", "incast", "class", "three_tier",
                              "trace", "tenant_churn"};
    // Packet engines reject three_tier at compile time but parse it fine;
    // keep the fuzz space full for the parser.
    const std::string pattern = patterns[pick(6)];
    std::string out = "    {\"pattern\": \"" + pattern + "\"";
    if (chance(50)) {
      const std::string cls = "t" + std::to_string(pick(4));
      out += ", \"class\": \"" + cls + "\"";
      classes_.push_back(cls);
    }
    if (chance(50)) {
      out += ", \"seed\": " + std::to_string(pick(100000));
    }
    if (chance(30)) out += ", \"start_s\": " + num(rng_.next_double() * 2);
    if (pattern == "permutation" && chance(60)) {
      out += ", \"bytes\": " + num(1e4 + rng_.next_double() * 1e7);
    }
    if (pattern == "incast") {
      if (chance(50)) out += ", \"groups\": " + std::to_string(1 + pick(8));
      if (chance(50)) out += ", \"fanin\": " + std::to_string(1 + pick(8));
      if (chance(50)) out += ", \"alpha\": " + num(1.1 + rng_.next_double());
      if (chance(30)) out += ", \"pod_local\": " + std::string{chance(50) ? "true" : "false"};
    }
    if (pattern == "class") {
      if (chance(50)) out += ", \"flows_per_s\": " + num(10 + rng_.next_double() * 500);
      if (chance(40)) out += ", \"intra_rack_frac\": " + num(rng_.next_double() * 0.5);
      if (chance(40)) out += ", \"hot_pod\": " + std::to_string(pick(2));
      if (chance(40)) out += ", \"hot_pod_frac\": " + num(rng_.next_double());
    }
    if (pattern == "three_tier" && chance(50)) {
      out += ", \"miss_frac\": " + num(rng_.next_double());
      out += ", \"think_s\": " + num(rng_.next_double() * 0.01);
    }
    if (pattern == "trace") {
      const char* profiles[] = {"hadoop1", "hadoop2", "web", "cache"};
      out += std::string{", \"profile\": \""} + profiles[pick(4)] + "\"";
      if (chance(50)) out += ", \"duration_s\": " + num(0.1 + rng_.next_double());
    }
    if (pattern == "tenant_churn" && chance(50)) {
      out += ", \"arrivals_per_s\": " + num(0.2 + rng_.next_double() * 2);
    }
    return out + "}";
  }

  std::string traffic_section() {
    std::string out = "  \"traffic\": [\n";
    const std::uint32_t entries = 1 + pick(3);
    for (std::uint32_t i = 0; i < entries; ++i) {
      if (i > 0) out += ",\n";
      out += traffic_entry();
    }
    return out + "\n  ],\n";
  }

  std::string failures_section() {
    if (!chance(50)) return "";
    std::string out = "  \"failures\": [\n";
    const std::uint32_t entries = 1 + pick(2);
    for (std::uint32_t i = 0; i < entries; ++i) {
      if (i > 0) out += ",\n";
      const double fail_at = 0.1 + i * 10.0;  // windows never overlap
      const double recover_at = fail_at + 0.5;
      const char* kinds[] = {"core_column", "links", "switches"};
      const std::string kind =
          conversion_ ? "links" : kinds[pick(3)];
      out += "    {\"kind\": \"" + kind + "\", \"fail_at\": " + num(fail_at);
      if (chance(70)) out += ", \"recover_at\": " + num(recover_at);
      if (kind == "core_column") {
        out += ", \"count\": " + std::to_string(1 + pick(4));
        if (chance(50)) out += ", \"first\": " + std::to_string(pick(4));
      } else {
        out += ", \"fraction\": " + num(0.05 + rng_.next_double() * 0.4);
        out += ", \"seed\": " + std::to_string(i);  // distinct selectors
        if (kind == "switches" && chance(60)) {
          const char* roles[] = {"edge", "agg", "core"};
          out += std::string{", \"role\": \""} + roles[pick(3)] + "\"";
        }
      }
      out += "}";
    }
    return out + "\n  ],\n";
  }

  std::string conversion_section() {
    if (kind_ != std::string{"flat_tree"} || !chance(40)) return "";
    conversion_ = true;
    std::string out = "  \"conversion\": {\"to\": [\"";
    const char* modes[] = {"clos", "local", "global"};
    out += modes[pick(3)];
    out += "\"]";
    if (chance(50)) out += ", \"at_s\": " + num(rng_.next_double());
    const bool staged = chance(70);
    if (chance(60)) out += std::string{", \"staged\": "} + (staged ? "true" : "false");
    if (staged && chance(40)) out += ", \"stage_checkpoints\": true";
    if (chance(40)) out += ", \"drop_probability\": " + num(rng_.next_double() * 0.1);
    if (chance(40)) out += ", \"controllers\": " + std::to_string(1 + pick(64));
    return out + "},\n";
  }

  std::string slos_section() {
    if (!chance(70)) return "";
    std::string out = "  \"slos\": [\n";
    const std::uint32_t entries = 1 + pick(2);
    const bool aggregate_only = engine_ == std::string{"autopilot"} ||
                                engine_ == std::string{"packet_sharded"};
    for (std::uint32_t i = 0; i < entries; ++i) {
      if (i > 0) out += ",\n";
      out += "    {";
      if (!aggregate_only && !classes_.empty() && chance(40)) {
        out += "\"class\": \"" + classes_[pick(
                   static_cast<std::uint32_t>(classes_.size()))] + "\", ";
      }
      const char* metric =
          engine_ == std::string{"autopilot"}
              ? (chance(50) ? "mean_fct_s" : "completed_frac")
              : (chance(50) ? "p99_fct_s"
                            : (chance(50) ? "worst_fct_s" : "completed_frac"));
      out += std::string{"\"metric\": \""} + metric + "\"";
      const bool has_max = chance(70);
      if (has_max) out += ", \"max\": " + num(0.5 + rng_.next_double() * 10);
      if (!has_max || chance(30)) out += ", \"min\": " + num(rng_.next_double() * 0.5);
      out += "}";
    }
    return out + "\n  ],\n";
  }

  std::string sim_section() {
    std::string out = "  \"sim\": {\"engine\": \"" + engine_ + "\"";
    if (chance(50)) out += ", \"max_time_s\": " + num(1 + rng_.next_double() * 100);
    if (chance(50)) out += ", \"k_paths\": " + std::to_string(1 + pick(8));
    if (engine_ == std::string{"fluid"}) {
      if (chance(40)) {
        out += std::string{", \"refresh\": \""} +
               (flat_ ? (chance(50) ? "repair" : "reroute")
                      : (chance(50) ? "reroute" : "none")) +
               "\"";
      }
      if (chance(30)) out += ", \"repair_lag_s\": " + num(rng_.next_double());
      if (chance(30)) out += ", \"controllers\": " + std::to_string(1 + pick(64));
      if (chance(30)) out += std::string{", \"count_rules\": "} + (chance(50) ? "true" : "false");
    }
    if (engine_ == std::string{"autopilot"} && chance(50)) {
      out += ", \"epoch_s\": " + num(0.5 + rng_.next_double());
    }
    return out + "},\n";
  }

  Rng rng_;
  std::string kind_;
  std::string engine_;
  bool flat_{false};
  bool conversion_{false};
  std::uint32_t k_{4};
  std::vector<std::string> classes_;
};

// The first 50 builder outputs the parser accepts, with their parse. The
// builder occasionally emits a spec the cross-section checks reject (e.g. an
// SLO metric the chosen engine disallows); those are parser-correctness
// cases, not round-trip cases, and are skipped.
std::vector<std::pair<std::string, Scenario>> fuzzed_specs() {
  std::vector<std::pair<std::string, Scenario>> specs;
  for (std::uint64_t seed = 0; specs.size() < 50 && seed < 1000; ++seed) {
    std::string text = SpecBuilder{seed}.build();
    try {
      Scenario parsed = parse_scenario(text, "fuzz.json");
      specs.emplace_back(std::move(text), std::move(parsed));
    } catch (const ScenarioError&) {
    }
  }
  return specs;
}

TEST(ScenarioRoundtrip, CanonicalFormIsAFixedPoint) {
  const auto specs = fuzzed_specs();
  // The grammar invariants in the builder keep the reject rate low; make
  // sure the fuzz actually exercised 50 full round-trips.
  ASSERT_EQ(specs.size(), 50u);
  for (const auto& [text, first] : specs) {
    const std::string canonical = canonical_json(first);
    Scenario second;
    ASSERT_NO_THROW(second = parse_scenario(canonical, "canon.json"))
        << "canonical form failed to re-parse:\n" << canonical;
    EXPECT_EQ(first, second) << "round-trip changed the scenario for:\n"
                             << text << "\ncanonical:\n" << canonical;
    EXPECT_EQ(canonical_json(second), canonical)
        << "canonical_json is not a fixed point for:\n" << text;
  }
}

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ull;

// FNV-1a (64-bit) over a byte string, continuing from `h`.
std::uint64_t fnv1a(std::string_view bytes, std::uint64_t h = kFnvOffset) {
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

// The fixed-point test above passes for any key order; these digests pin
// the canonical bytes themselves, so reordering keys, renaming one or
// changing a resolved default shows up here.
TEST(ScenarioRoundtrip, CanonicalBytesPinned) {
  const std::pair<std::string_view, std::uint64_t> kFiles[] = {
      {"autopilot_closed_loop", 0x983057a7694c29b8ull},
      {"calm_global", 0x5c21848fecb992e7ull},
      {"calm_local", 0xefb48713f0f972d8ull},
      {"calm_uniform", 0x944d69e7dafb8d37ull},
      {"conversion_calm", 0x601cbaa15f7f7ea4ull},
      {"conversion_partition", 0x6856013687dc87d9ull},
      {"conversion_partition_compound", 0xaeab4c83f5d31d2aull},
      {"conversion_partition_crash", 0xa84054034eb23be6ull},
      {"conversion_storm", 0xd36189d68a6a5a32ull},
      {"failure_recovery_clos", 0xaabea3f3fd6f4d14ull},
      {"flap_reroute", 0xc3efbed420c590b9ull},
      {"hot_pod_skew", 0x436f820d0e9e08caull},
      {"incast_rdma", 0xe0970c1f690f5ebcull},
      {"packet_sharded_pods", 0xe7bebc12c79a3e9dull},
      {"packet_spot", 0x4c4f54c3141040beull},
      {"random_graph_perm", 0x7d58b2b0ca8f0a5bull},
      {"switch_fail_static", 0xa5b1d5a441e30bc9ull},
      {"tenant_churn_mix", 0x7f5ff3056ab96df9ull},
      {"tenant_classes_slo", 0x245e215ce6138751ull},
      {"three_tier_chains", 0xd2e7e0de98f7f5a7ull},
      {"two_stage_trace", 0x92c2b49a77126e48ull},
  };
  std::size_t files = 0;
  for (const auto& entry :
       std::filesystem::directory_iterator{SCENARIO_DIR}) {
    if (entry.path().extension() == ".json") ++files;
  }
  EXPECT_EQ(files, std::size(kFiles)) << "pin every scenario file";
  for (const auto& [name, digest] : kFiles) {
    const Scenario s = parse_scenario_file(std::string{SCENARIO_DIR} + "/" +
                                           std::string{name} + ".json");
    EXPECT_EQ(fnv1a(canonical_json(s)), digest) << name;
  }

  std::uint64_t combined = kFnvOffset;
  for (const auto& spec : fuzzed_specs()) {
    combined = fnv1a(canonical_json(spec.second), combined);
  }
  EXPECT_EQ(combined, 0x779e8fedbf6fdb8full);
}

// Hand-written specs for the grammar the fuzz builder never emits: the two
// control-plane failure kinds, flapping windows with a period, SLOs with
// both bounds, and the topology keys m, n and wiring_seed.
constexpr std::string_view kCorpus[] = {
    R"({"name": "corpus_flat", "seed": 5,
        "topology": {"kind": "flat_tree", "k": 4, "m": 1, "n": 1,
                     "pod_modes": ["clos", "local", "global", "clos"]},
        "traffic": [{"pattern": "permutation", "class": "gold"}],
        "failures": [
          {"kind": "controller_crash", "fail_at": 0.25},
          {"kind": "control_partition", "fail_at": 0.5, "recover_at": 0.75,
           "first": 1, "count": 2, "flaps": 3, "period_s": 1.5},
          {"kind": "links", "fail_at": 0.1, "recover_at": 0.2,
           "fraction": 0.25, "flaps": 2, "period_s": 0.5, "seed": 7}],
        "conversion": {"to": ["global"], "stage_checkpoints": true},
        "slos": [
          {"class": "gold", "metric": "p50_fct_s", "max": 2.5, "min": 0.5},
          {"metric": "completed_frac", "min": 0.9}],
        "sim": {"engine": "fluid"}})",
    R"({"name": "corpus_fat",
        "topology": {"kind": "fat_tree", "k": 6, "servers_per_edge": 2,
                     "m": 0, "n": 2},
        "traffic": [{"pattern": "incast"}, {"pattern": "class"}],
        "failures": [
          {"kind": "core_column", "fail_at": 1, "first": 2, "count": 3,
           "recover_at": 4, "flaps": 2, "period_s": 5},
          {"kind": "switches", "fail_at": 0, "fraction": 1, "role": "agg"},
          {"kind": "switches", "fail_at": 0.5, "fraction": 0.5,
           "seed": 11},
          {"kind": "links", "fail_at": 2, "fraction": 0.125}],
        "slos": [{"metric": "worst_fct_s", "max": 1e-3}]})",
    R"({"name": "corpus_random", "seed": 3, "expect": "fail",
        "topology": {"kind": "random_graph", "k": 8, "wiring_seed": 42},
        "traffic": [{"pattern": "permutation", "class": "silver"}],
        "failures": [
          {"kind": "switches", "fail_at": 0.5, "fraction": 0.5,
           "role": "edge", "recover_at": 0.75}],
        "slos": [{"class": "silver", "metric": "mean_fct_s", "min": 0,
                  "max": 0}],
        "sim": {"engine": "fluid", "refresh": "none"}})",
    R"({"name": "corpus_two_stage",
        "topology": {"kind": "two_stage", "wiring_seed": 0},
        "traffic": [{"pattern": "permutation"}],
        "sim": {"engine": "packet"}})",
};

// Pins the canonical bytes of the hand-written corpus, and that each spec
// is a fixed point.
TEST(ScenarioRoundtrip, HandWrittenCorpusBytesPinned) {
  std::uint64_t combined = kFnvOffset;
  for (const std::string_view text : kCorpus) {
    const Scenario first = parse_scenario(text, "corpus.json");
    const std::string canonical = canonical_json(first);
    EXPECT_EQ(parse_scenario(canonical, "canon.json"), first) << canonical;
    EXPECT_EQ(canonical_json(parse_scenario(canonical, "canon.json")),
              canonical);
    combined = fnv1a(canonical, combined);
  }
  EXPECT_EQ(combined, 0x3f06c77b5fa5b534ull);
}

TEST(ScenarioRoundtrip, HandWrittenSpecRoundTrips) {
  const std::string text = R"({
    "name": "hand",
    "seed": 9,
    "topology": {"kind": "flat_tree", "k": 4, "pod_modes": ["clos"]},
    "traffic": [
      {"pattern": "class", "class": "gold", "flows_per_s": 100.0},
      {"pattern": "permutation", "bytes": 1000000.0}
    ],
    "conversion": {"at_s": 0.25, "to": ["global"]},
    "slos": [{"class": "gold", "metric": "p99_fct_s", "max": 0.5}],
    "sim": {"engine": "fluid", "refresh": "repair"}
  })";
  const Scenario first = parse_scenario(text, "hand.json");
  // Parse-time seed resolution is explicit in the canonical form.
  EXPECT_EQ(first.traffic[0].seed, 9u);
  EXPECT_EQ(first.traffic[1].seed, 10u);
  EXPECT_EQ(first.conversion.seed, 9u);
  const std::string canonical = canonical_json(first);
  const Scenario second = parse_scenario(canonical, "canon.json");
  EXPECT_EQ(first, second);
  EXPECT_EQ(canonical_json(second), canonical);
}

}  // namespace
}  // namespace flattree::scenario
