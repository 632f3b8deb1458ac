// Negative-path coverage for the scenario DSL: every malformed spec must be
// rejected with its exact "<file>:<line>:<col>: ..." diagnostic — never a
// silent default — and compile-stage rejections (realized-topology checks,
// FailureSchedule::validate, ConversionDelayModel::validate) must land at
// parse/compile time with the file name attached, never mid-run.
#include "scenario/spec.h"

#include <gtest/gtest.h>

#include <string>
#include <string_view>

#include "scenario/runner.h"

namespace flattree::scenario {
namespace {

// Asserts parse_scenario(text, "bad.json") throws exactly `expected`. The
// expected string is position-anchored: the offending token's line:col must
// match too, so a diagnostic that drifts to the wrong token fails here.
void expect_parse_error(std::string_view text, std::string_view expected) {
  try {
    (void)parse_scenario(text, "bad.json");
    FAIL() << "expected ScenarioError: " << expected;
  } catch (const ScenarioError& e) {
    EXPECT_EQ(std::string{e.what()}, expected) << "for input:\n" << text;
  }
}

// A minimal valid scenario the mutation cases below perturb one key at a
// time; parsing it must succeed.
constexpr std::string_view kValid = R"({
  "name": "ok",
  "topology": {"kind": "fat_tree", "k": 4},
  "traffic": [{"pattern": "permutation"}]
})";

TEST(ScenarioParse, MinimalScenarioParses) {
  const Scenario s = parse_scenario(kValid, "ok.json");
  EXPECT_EQ(s.name, "ok");
  EXPECT_EQ(s.topology.kind, TopologyKind::kFatTree);
  EXPECT_EQ(s.traffic.size(), 1u);
  EXPECT_EQ(s.sim.engine, Engine::kFluid);
  // Seed resolution: entry i defaults to scenario seed + i.
  EXPECT_EQ(s.traffic[0].seed, s.seed + 0);
}

// ---- JSON layer -------------------------------------------------------------

TEST(ScenarioParse, MalformedJson) {
  expect_parse_error("{\"name\": }",
                     "bad.json:1:10: unexpected character '}'");
}

TEST(ScenarioParse, DuplicateKey) {
  expect_parse_error("{\"name\": \"a\", \"name\": \"b\"}",
                     "bad.json:1:15: duplicate key \"name\"");
}

TEST(ScenarioParse, TrailingContent) {
  expect_parse_error("{} x",
                     "bad.json:1:4: trailing content after the top-level value");
}

TEST(ScenarioParse, UnterminatedString) {
  expect_parse_error("{\"name\": \"oops",
                     "bad.json:1:15: unterminated string");
}

TEST(ScenarioParse, NumberOverflowingADoubleRejected) {
  expect_parse_error(
      "{\"name\": \"x\",\n \"topology\": {\"kind\": \"fat_tree\"},\n"
      " \"traffic\": [{\"pattern\": \"incast\",\n"
      "  \"alpha\": 1e400}]}",
      "bad.json:4:12: number 1e400 does not fit in a double");
}

TEST(ScenarioParse, TopLevelMustBeObject) {
  expect_parse_error("[1]",
                     "bad.json:1:1: expected a scenario object, got array");
}

// ---- scenario section -------------------------------------------------------

TEST(ScenarioParse, MissingName) {
  expect_parse_error("{}", "bad.json:1:1: missing required key \"name\"");
}

TEST(ScenarioParse, UnknownTopLevelKey) {
  expect_parse_error("{\"nom\": 1}",
                     "bad.json:1:9: unknown key \"nom\" in scenario");
}

TEST(ScenarioParse, NameMustBeIdentifier) {
  expect_parse_error("{\"name\": \"Bad Name\"}",
                     "bad.json:1:10: key \"name\": must match [a-z0-9_]+");
}

TEST(ScenarioParse, MissingTopology) {
  expect_parse_error("{\"name\": \"x\"}",
                     "bad.json:1:1: missing required key \"topology\"");
}

TEST(ScenarioParse, UnknownExpectVerdict) {
  expect_parse_error(
      "{\"name\": \"x\",\n \"expect\": \"maybe\"}",
      "bad.json:2:12: key \"expect\": unknown verdict \"maybe\" (expected "
      "\"pass\" or \"fail\")");
}

// ---- topology section -------------------------------------------------------

TEST(ScenarioParse, UnknownTopologyKind) {
  expect_parse_error(
      "{\"name\": \"x\",\n \"topology\": {\"kind\": \"butterfly\"},\n"
      " \"traffic\": [{\"pattern\": \"permutation\"}]}",
      "bad.json:2:23: key \"kind\": unknown topology kind \"butterfly\" "
      "(expected \"fat_tree\", \"flat_tree\", \"random_graph\" or "
      "\"two_stage\")");
}

TEST(ScenarioParse, OddKRejected) {
  expect_parse_error(
      "{\"name\": \"x\",\n \"topology\": {\"kind\": \"fat_tree\", \"k\": 5},\n"
      " \"traffic\": [{\"pattern\": \"permutation\"}]}",
      "bad.json:2:40: key \"k\": must be even");
}

TEST(ScenarioParse, KOutOfRange) {
  expect_parse_error(
      "{\"name\": \"x\",\n \"topology\": {\"kind\": \"fat_tree\", \"k\": 2},\n"
      " \"traffic\": [{\"pattern\": \"permutation\"}]}",
      "bad.json:2:40: key \"k\": value 2 out of range [4, 32]");
}

TEST(ScenarioParse, PodModesRequireFlatTree) {
  expect_parse_error(
      "{\"name\": \"x\",\n"
      " \"topology\": {\"kind\": \"fat_tree\",\n"
      "  \"pod_modes\": [\"clos\"]},\n"
      " \"traffic\": [{\"pattern\": \"permutation\"}]}",
      "bad.json:3:16: key \"pod_modes\" is only valid for kind \"flat_tree\"");
}

TEST(ScenarioParse, PodModesCountMustBeOneOrK) {
  expect_parse_error(
      "{\"name\": \"x\",\n"
      " \"topology\": {\"kind\": \"flat_tree\",\n"
      "  \"pod_modes\": [\"clos\", \"global\"]},\n"
      " \"traffic\": [{\"pattern\": \"permutation\"}]}",
      "bad.json:3:16: key \"pod_modes\": expected 1 or 4 entries, got 2");
}

TEST(ScenarioParse, UnknownPodMode) {
  expect_parse_error(
      "{\"name\": \"x\",\n"
      " \"topology\": {\"kind\": \"flat_tree\",\n"
      "  \"pod_modes\": [\"hybrid\"]},\n"
      " \"traffic\": [{\"pattern\": \"permutation\"}]}",
      "bad.json:3:17: unknown Pod mode \"hybrid\" (expected \"clos\", "
      "\"local\" or \"global\")");
}

TEST(ScenarioParse, WiringSeedRequiresRandomKind) {
  expect_parse_error(
      "{\"name\": \"x\",\n"
      " \"topology\": {\"kind\": \"fat_tree\",\n"
      "  \"wiring_seed\": 3},\n"
      " \"traffic\": [{\"pattern\": \"permutation\"}]}",
      "bad.json:3:18: key \"wiring_seed\" is only valid for kind "
      "\"random_graph\" or \"two_stage\"");
}

TEST(ScenarioParse, UnknownTopologyKeyRejected) {
  expect_parse_error(
      "{\"name\": \"x\",\n"
      " \"topology\": {\"kind\": \"fat_tree\", \"arity\": 4},\n"
      " \"traffic\": [{\"pattern\": \"permutation\"}]}",
      "bad.json:2:44: unknown key \"arity\" in topology");
}

TEST(ScenarioParse, MissingTopologyKind) {
  expect_parse_error(
      "{\"name\": \"x\",\n \"topology\": {\"k\": 4},\n"
      " \"traffic\": [{\"pattern\": \"permutation\"}]}",
      "bad.json:2:14: missing required key \"kind\"");
}

TEST(ScenarioParse, ConvertersPerColumnRequireFlatKind) {
  expect_parse_error(
      "{\"name\": \"x\",\n"
      " \"topology\": {\"kind\": \"random_graph\",\n"
      "  \"m\": 1},\n"
      " \"traffic\": [{\"pattern\": \"permutation\"}]}",
      "bad.json:3:8: key \"m\" is only valid for kind \"fat_tree\" or "
      "\"flat_tree\"");
  expect_parse_error(
      "{\"name\": \"x\",\n"
      " \"topology\": {\"kind\": \"two_stage\",\n"
      "  \"n\": 1},\n"
      " \"traffic\": [{\"pattern\": \"permutation\"}]}",
      "bad.json:3:8: key \"n\" is only valid for kind \"fat_tree\" or "
      "\"flat_tree\"");
}

TEST(ScenarioParse, ConvertersPerColumnOutOfRange) {
  expect_parse_error(
      "{\"name\": \"x\",\n"
      " \"topology\": {\"kind\": \"flat_tree\", \"n\": 300},\n"
      " \"traffic\": [{\"pattern\": \"permutation\"}]}",
      "bad.json:2:41: key \"n\": value 300 out of range [0, 256]");
}

TEST(ScenarioParse, ServersPerEdgeOutOfRange) {
  expect_parse_error(
      "{\"name\": \"x\",\n"
      " \"topology\": {\"kind\": \"fat_tree\",\n"
      "  \"servers_per_edge\": 0},\n"
      " \"traffic\": [{\"pattern\": \"permutation\"}]}",
      "bad.json:3:23: key \"servers_per_edge\": value 0 out of range "
      "[1, 256]");
}

TEST(ScenarioParse, WiringSeedMustBeInteger) {
  expect_parse_error(
      "{\"name\": \"x\",\n"
      " \"topology\": {\"kind\": \"random_graph\",\n"
      "  \"wiring_seed\": -1},\n"
      " \"traffic\": [{\"pattern\": \"permutation\"}]}",
      "bad.json:3:18: key \"wiring_seed\": expected a non-negative integer");
}

// ---- traffic section --------------------------------------------------------

TEST(ScenarioParse, EmptyTrafficRejected) {
  expect_parse_error(
      "{\"name\": \"x\",\n \"topology\": {\"kind\": \"fat_tree\"},\n"
      " \"traffic\": []}",
      "bad.json:3:13: key \"traffic\": at least one traffic entry is "
      "required");
}

TEST(ScenarioParse, UnknownTrafficPattern) {
  expect_parse_error(
      "{\"name\": \"x\",\n \"topology\": {\"kind\": \"fat_tree\"},\n"
      " \"traffic\": [{\"pattern\": \"storm\"}]}",
      "bad.json:3:26: key \"pattern\": unknown traffic pattern \"storm\" "
      "(expected \"permutation\", \"incast\", \"class\", \"three_tier\", "
      "\"trace\" or \"tenant_churn\")");
}

TEST(ScenarioParse, KeyOfAnotherPatternRejected) {
  expect_parse_error(
      "{\"name\": \"x\",\n \"topology\": {\"kind\": \"fat_tree\"},\n"
      " \"traffic\": [{\"pattern\": \"permutation\",\n"
      "  \"fanin\": 4}]}",
      "bad.json:4:12: key \"fanin\" is not valid for pattern "
      "\"permutation\"");
}

TEST(ScenarioParse, UnknownTrafficKeyRejected) {
  expect_parse_error(
      "{\"name\": \"x\",\n \"topology\": {\"kind\": \"fat_tree\"},\n"
      " \"traffic\": [{\"pattern\": \"permutation\",\n"
      "  \"bogus\": 4}]}",
      "bad.json:4:12: unknown key \"bogus\" in traffic entry");
}

TEST(ScenarioParse, ParetoAlphaMustExceedOne) {
  expect_parse_error(
      "{\"name\": \"x\",\n \"topology\": {\"kind\": \"fat_tree\"},\n"
      " \"traffic\": [{\"pattern\": \"incast\",\n"
      "  \"alpha\": 1.0}]}",
      "bad.json:4:12: key \"alpha\": must be > 1");
}

TEST(ScenarioParse, UnknownTraceProfile) {
  expect_parse_error(
      "{\"name\": \"x\",\n \"topology\": {\"kind\": \"fat_tree\"},\n"
      " \"traffic\": [{\"pattern\": \"trace\",\n"
      "  \"profile\": \"hadoop3\"}]}",
      "bad.json:4:14: key \"profile\": unknown trace profile \"hadoop3\" "
      "(expected \"hadoop1\", \"hadoop2\", \"web\" or \"cache\")");
}

// One wrongly typed value per reader: each lands on the value's own token.

TEST(ScenarioParse, BoolReaderRejectsNumber) {
  expect_parse_error(
      "{\"name\": \"x\",\n \"topology\": {\"kind\": \"fat_tree\"},\n"
      " \"traffic\": [{\"pattern\": \"incast\",\n"
      "  \"pod_local\": 1}]}",
      "bad.json:4:16: key \"pod_local\": expected bool, got number");
}

TEST(ScenarioParse, StringReaderRejectsNumber) {
  expect_parse_error(
      "{\"name\": \"x\",\n \"topology\": {\"kind\": \"fat_tree\"},\n"
      " \"traffic\": [{\"pattern\": \"permutation\",\n"
      "  \"class\": 3}]}",
      "bad.json:4:12: key \"class\": expected string, got number");
}

TEST(ScenarioParse, IntegerReaderRejectsFraction) {
  expect_parse_error(
      "{\"name\": \"x\",\n \"topology\": {\"kind\": \"fat_tree\"},\n"
      " \"traffic\": [{\"pattern\": \"incast\",\n"
      "  \"groups\": 1.5}]}",
      "bad.json:4:13: key \"groups\": expected a non-negative integer");
}

TEST(ScenarioParse, NumberReaderRejectsString) {
  expect_parse_error(
      "{\"name\": \"x\",\n \"topology\": {\"kind\": \"fat_tree\"},\n"
      " \"traffic\": [{\"pattern\": \"permutation\",\n"
      "  \"bytes\": \"1e6\"}]}",
      "bad.json:4:12: key \"bytes\": expected number, got string");
}

TEST(ScenarioParse, HotPodBelowRange) {
  expect_parse_error(
      "{\"name\": \"x\",\n \"topology\": {\"kind\": \"fat_tree\"},\n"
      " \"traffic\": [{\"pattern\": \"class\",\n"
      "  \"hot_pod\": -2}]}",
      "bad.json:4:14: key \"hot_pod\": value -2 out of range [-1, 1048576]");
}

// ---- failure section --------------------------------------------------------

TEST(ScenarioParse, UnknownFailureKind) {
  expect_parse_error(
      "{\"name\": \"x\",\n \"topology\": {\"kind\": \"fat_tree\"},\n"
      " \"traffic\": [{\"pattern\": \"permutation\"}],\n"
      " \"failures\": [{\"kind\": \"meteor\", \"fail_at\": 0.5}]}",
      "bad.json:4:24: key \"kind\": unknown failure kind \"meteor\" "
      "(expected \"core_column\", \"links\", \"switches\", "
      "\"controller_crash\" or \"control_partition\")");
}

TEST(ScenarioParse, UnknownSwitchRole) {
  expect_parse_error(
      "{\"name\": \"x\",\n \"topology\": {\"kind\": \"fat_tree\"},\n"
      " \"traffic\": [{\"pattern\": \"permutation\"}],\n"
      " \"failures\": [{\"kind\": \"switches\", \"fraction\": 0.1,\n"
      "  \"fail_at\": 0.5, \"role\": \"spine\"}]}",
      "bad.json:5:27: key \"role\": unknown switch role \"spine\" "
      "(expected \"edge\", \"agg\" or \"core\")");
}

TEST(ScenarioParse, RecoverMustFollowFail) {
  expect_parse_error(
      "{\"name\": \"x\",\n \"topology\": {\"kind\": \"fat_tree\"},\n"
      " \"traffic\": [{\"pattern\": \"permutation\"}],\n"
      " \"failures\": [{\"kind\": \"links\", \"fraction\": 0.1,\n"
      "  \"fail_at\": 0.5, \"recover_at\": 0.5}]}",
      "bad.json:5:33: key \"recover_at\": must be greater than fail_at");
}

TEST(ScenarioParse, FlappingRequiresRecoverAt) {
  expect_parse_error(
      "{\"name\": \"x\",\n \"topology\": {\"kind\": \"fat_tree\"},\n"
      " \"traffic\": [{\"pattern\": \"permutation\"}],\n"
      " \"failures\": [{\"kind\": \"links\", \"fraction\": 0.1,\n"
      "  \"fail_at\": 0.5, \"flaps\": 3}]}",
      "bad.json:5:28: key \"flaps\": flapping requires recover_at");
}

TEST(ScenarioParse, PeriodRequiresFlaps) {
  expect_parse_error(
      "{\"name\": \"x\",\n \"topology\": {\"kind\": \"fat_tree\"},\n"
      " \"traffic\": [{\"pattern\": \"permutation\"}],\n"
      " \"failures\": [{\"kind\": \"links\", \"fraction\": 0.1,\n"
      "  \"fail_at\": 0.5, \"period_s\": 1.0}]}",
      "bad.json:5:31: key \"period_s\" requires flaps > 1");
}

TEST(ScenarioParse, FlapPeriodMustExceedWindow) {
  expect_parse_error(
      "{\"name\": \"x\",\n \"topology\": {\"kind\": \"fat_tree\"},\n"
      " \"traffic\": [{\"pattern\": \"permutation\"}],\n"
      " \"failures\": [{\"kind\": \"links\", \"fraction\": 0.1,\n"
      "  \"fail_at\": 0.5, \"recover_at\": 1.0, \"flaps\": 2,\n"
      "  \"period_s\": 0.25}]}",
      "bad.json:6:15: key \"period_s\": flap period must exceed recover_at "
      "- fail_at");
}

TEST(ScenarioParse, OverlappingWindowsSameSelector) {
  expect_parse_error(
      "{\"name\": \"x\",\n \"topology\": {\"kind\": \"fat_tree\"},\n"
      " \"traffic\": [{\"pattern\": \"permutation\"}],\n"
      " \"failures\": [\n"
      "  {\"kind\": \"core_column\", \"count\": 2, \"fail_at\": 0.1,"
      " \"recover_at\": 0.5},\n"
      "  {\"kind\": \"core_column\", \"count\": 2, \"fail_at\": 0.3,"
      " \"recover_at\": 0.7}]}",
      "bad.json:6:3: failure window overlaps an earlier window for the same "
      "selector");
}

TEST(ScenarioParse, FractionOutOfRange) {
  expect_parse_error(
      "{\"name\": \"x\",\n \"topology\": {\"kind\": \"fat_tree\"},\n"
      " \"traffic\": [{\"pattern\": \"permutation\"}],\n"
      " \"failures\": [{\"kind\": \"links\", \"fraction\": 1.5,\n"
      "  \"fail_at\": 0.5}]}",
      "bad.json:4:45: key \"fraction\": must lie in (0, 1]");
}

TEST(ScenarioParse, MissingFraction) {
  expect_parse_error(
      "{\"name\": \"x\",\n \"topology\": {\"kind\": \"fat_tree\"},\n"
      " \"traffic\": [{\"pattern\": \"permutation\"}],\n"
      " \"failures\": [{\"kind\": \"switches\", \"fail_at\": 0.5}]}",
      "bad.json:4:15: missing required key \"fraction\"");
}

TEST(ScenarioParse, MissingFailAt) {
  expect_parse_error(
      "{\"name\": \"x\",\n \"topology\": {\"kind\": \"fat_tree\"},\n"
      " \"traffic\": [{\"pattern\": \"permutation\"}],\n"
      " \"failures\": [{\"kind\": \"links\", \"fraction\": 0.1}]}",
      "bad.json:4:15: missing required key \"fail_at\"");
}

TEST(ScenarioParse, NegativeFailAtRejected) {
  expect_parse_error(
      "{\"name\": \"x\",\n \"topology\": {\"kind\": \"fat_tree\"},\n"
      " \"traffic\": [{\"pattern\": \"permutation\"}],\n"
      " \"failures\": [{\"kind\": \"links\", \"fraction\": 0.1,\n"
      "  \"fail_at\": -0.5}]}",
      "bad.json:5:14: key \"fail_at\": must be >= 0");
}

TEST(ScenarioParse, MissingFlapPeriod) {
  expect_parse_error(
      "{\"name\": \"x\",\n \"topology\": {\"kind\": \"fat_tree\"},\n"
      " \"traffic\": [{\"pattern\": \"permutation\"}],\n"
      " \"failures\": [{\"kind\": \"links\", \"fraction\": 0.1,\n"
      "  \"fail_at\": 0.5, \"recover_at\": 1.0, \"flaps\": 2}]}",
      "bad.json:4:15: missing required key \"period_s\"");
}

TEST(ScenarioParse, FlapPeriodMustBePositive) {
  expect_parse_error(
      "{\"name\": \"x\",\n \"topology\": {\"kind\": \"fat_tree\"},\n"
      " \"traffic\": [{\"pattern\": \"permutation\"}],\n"
      " \"failures\": [{\"kind\": \"links\", \"fraction\": 0.1,\n"
      "  \"fail_at\": 0.5, \"recover_at\": 1.0, \"flaps\": 2,\n"
      "  \"period_s\": 0}]}",
      "bad.json:6:15: key \"period_s\": must be > 0");
}

TEST(ScenarioParse, PeriodWithoutFlapsNamesFlapsNotRange) {
  // The value is also out of range; the missing flaps is what is reported.
  expect_parse_error(
      "{\"name\": \"x\",\n \"topology\": {\"kind\": \"fat_tree\"},\n"
      " \"traffic\": [{\"pattern\": \"permutation\"}],\n"
      " \"failures\": [{\"kind\": \"links\", \"fraction\": 0.1,\n"
      "  \"fail_at\": 0.5, \"flaps\": 1, \"period_s\": -1}]}",
      "bad.json:5:43: key \"period_s\" requires flaps > 1");
}

TEST(ScenarioParse, FlapsOutOfRange) {
  expect_parse_error(
      "{\"name\": \"x\",\n \"topology\": {\"kind\": \"fat_tree\"},\n"
      " \"traffic\": [{\"pattern\": \"permutation\"}],\n"
      " \"failures\": [{\"kind\": \"links\", \"fraction\": 0.1,\n"
      "  \"fail_at\": 0.5, \"flaps\": 0}]}",
      "bad.json:5:28: key \"flaps\": value 0 out of range [1, 1024]");
}

TEST(ScenarioParse, CountOutOfRange) {
  expect_parse_error(
      "{\"name\": \"x\",\n \"topology\": {\"kind\": \"fat_tree\"},\n"
      " \"traffic\": [{\"pattern\": \"permutation\"}],\n"
      " \"failures\": [{\"kind\": \"core_column\", \"count\": 0,\n"
      "  \"fail_at\": 0.5}]}",
      "bad.json:4:48: key \"count\": value 0 out of range [1, 1048576]");
}

TEST(ScenarioParse, CoreColumnKeyOnLinksRejected) {
  expect_parse_error(
      "{\"name\": \"x\",\n \"topology\": {\"kind\": \"fat_tree\"},\n"
      " \"traffic\": [{\"pattern\": \"permutation\"}],\n"
      " \"failures\": [{\"kind\": \"links\", \"fraction\": 0.1,\n"
      "  \"fail_at\": 0.5, \"first\": 1}]}",
      "bad.json:5:28: key \"first\" is not valid for failure kind "
      "\"links\"");
}

TEST(ScenarioParse, RoleOnLinksRejected) {
  expect_parse_error(
      "{\"name\": \"x\",\n \"topology\": {\"kind\": \"fat_tree\"},\n"
      " \"traffic\": [{\"pattern\": \"permutation\"}],\n"
      " \"failures\": [{\"kind\": \"links\", \"fraction\": 0.1,\n"
      "  \"fail_at\": 0.5, \"role\": \"core\"}]}",
      "bad.json:5:27: key \"role\" is not valid for failure kind "
      "\"links\"");
}

TEST(ScenarioParse, UnknownFailureKeyRejected) {
  expect_parse_error(
      "{\"name\": \"x\",\n \"topology\": {\"kind\": \"fat_tree\"},\n"
      " \"traffic\": [{\"pattern\": \"permutation\"}],\n"
      " \"failures\": [{\"kind\": \"links\", \"fraction\": 0.1,\n"
      "  \"fail_at\": 0.5, \"bogus\": 1}]}",
      "bad.json:5:28: key \"bogus\" is not valid for failure kind "
      "\"links\"");
}

TEST(ScenarioParse, NegativeFailureSeedRejected) {
  expect_parse_error(
      "{\"name\": \"x\",\n \"topology\": {\"kind\": \"fat_tree\"},\n"
      " \"traffic\": [{\"pattern\": \"permutation\"}],\n"
      " \"failures\": [{\"kind\": \"links\", \"fraction\": 0.1,\n"
      "  \"fail_at\": 0.5, \"seed\": -3}]}",
      "bad.json:5:27: key \"seed\": expected a non-negative integer");
}

TEST(ScenarioParse, RecoverAtMustBeNumber) {
  expect_parse_error(
      "{\"name\": \"x\",\n \"topology\": {\"kind\": \"fat_tree\"},\n"
      " \"traffic\": [{\"pattern\": \"permutation\"}],\n"
      " \"failures\": [{\"kind\": \"links\", \"fraction\": 0.1,\n"
      "  \"fail_at\": 0.5, \"recover_at\": \"later\"}]}",
      "bad.json:5:33: key \"recover_at\": expected number, got string");
}

TEST(ScenarioParse, FailureEntryMustBeObject) {
  expect_parse_error(
      "{\"name\": \"x\",\n \"topology\": {\"kind\": \"fat_tree\"},\n"
      " \"traffic\": [{\"pattern\": \"permutation\"}],\n"
      " \"failures\": [3]}",
      "bad.json:4:15: failure entry 0: expected object, got number");
}

TEST(ScenarioParse, TrafficEntryMustBeObject) {
  expect_parse_error(
      "{\"name\": \"x\",\n \"topology\": {\"kind\": \"fat_tree\"},\n"
      " \"traffic\": [{\"pattern\": \"permutation\"}, \"incast\"]}",
      "bad.json:3:42: traffic entry 1: expected object, got string");
}

TEST(ScenarioParse, SloEntryMustBeObject) {
  expect_parse_error(
      "{\"name\": \"x\",\n \"topology\": {\"kind\": \"fat_tree\"},\n"
      " \"traffic\": [{\"pattern\": \"permutation\"}],\n"
      " \"slos\": [[]]}",
      "bad.json:4:11: slo entry 0: expected object, got array");
}

TEST(ScenarioParse, PodModeEntryMustBeString) {
  expect_parse_error(
      "{\"name\": \"x\",\n"
      " \"topology\": {\"kind\": \"flat_tree\",\n"
      "  \"pod_modes\": [\"clos\", 2, \"clos\", \"clos\"]},\n"
      " \"traffic\": [{\"pattern\": \"permutation\"}]}",
      "bad.json:3:25: key \"pod_modes\" entry 1: expected string, got number");
}

// ---- conversion / slo / sim cross checks ------------------------------------

TEST(ScenarioParse, ConversionRequiresFlatTree) {
  expect_parse_error(
      "{\"name\": \"x\",\n \"topology\": {\"kind\": \"fat_tree\"},\n"
      " \"traffic\": [{\"pattern\": \"permutation\"}],\n"
      " \"conversion\": {\"to\": [\"global\"]}}",
      "bad.json:4:16: conversion requires topology kind \"flat_tree\"");
}

TEST(ScenarioParse, SloRequiresMaxOrMin) {
  expect_parse_error(
      "{\"name\": \"x\",\n \"topology\": {\"kind\": \"fat_tree\"},\n"
      " \"traffic\": [{\"pattern\": \"permutation\"}],\n"
      " \"slos\": [{\"metric\": \"p99_fct_s\"}]}",
      "bad.json:4:11: slo requires \"max\" or \"min\"");
}

TEST(ScenarioParse, SloClassMustBeDefined) {
  expect_parse_error(
      "{\"name\": \"x\",\n \"topology\": {\"kind\": \"fat_tree\"},\n"
      " \"traffic\": [{\"pattern\": \"permutation\"}],\n"
      " \"slos\": [{\"class\": \"gold\", \"metric\": \"p99_fct_s\","
      " \"max\": 1.0}]}",
      "bad.json:4:21: key \"class\": tenant class \"gold\" is not defined "
      "by any traffic entry");
}

TEST(ScenarioParse, FailuresUnsupportedOffFluid) {
  expect_parse_error(
      "{\"name\": \"x\",\n \"topology\": {\"kind\": \"fat_tree\"},\n"
      " \"traffic\": [{\"pattern\": \"permutation\"}],\n"
      " \"failures\": [{\"kind\": \"links\", \"fraction\": 0.1,"
      " \"fail_at\": 0.5}],\n"
      " \"sim\": {\"engine\": \"packet\"}}",
      "bad.json:4:14: key \"failures\" is not supported by engine "
      "\"packet\"");
}

TEST(ScenarioParse, AutopilotSupportsAggregateSlosOnly) {
  expect_parse_error(
      "{\"name\": \"x\",\n \"topology\": {\"kind\": \"fat_tree\"},\n"
      " \"traffic\": [{\"pattern\": \"permutation\"}],\n"
      " \"slos\": [{\"metric\": \"p99_fct_s\", \"max\": 1.0}],\n"
      " \"sim\": {\"engine\": \"autopilot\"}}",
      "bad.json:4:11: engine \"autopilot\" supports aggregate SLOs only "
      "(class \"\", metric \"mean_fct_s\" or \"completed_frac\")");
}

TEST(ScenarioParse, RepairRefreshRequiresFlatKind) {
  expect_parse_error(
      "{\"name\": \"x\",\n \"topology\": {\"kind\": \"random_graph\"},\n"
      " \"traffic\": [{\"pattern\": \"permutation\"}],\n"
      " \"sim\": {\"engine\": \"fluid\", \"refresh\": \"repair\"}}",
      "bad.json:4:40: key \"refresh\": \"repair\" requires topology kind "
      "\"fat_tree\" or \"flat_tree\"");
}

TEST(ScenarioParse, UnknownConversionKeyRejected) {
  expect_parse_error(
      "{\"name\": \"x\",\n"
      " \"topology\": {\"kind\": \"flat_tree\"},\n"
      " \"traffic\": [{\"pattern\": \"permutation\"}],\n"
      " \"conversion\": {\"to\": [\"global\"], \"speed\": 2}}",
      "bad.json:4:44: unknown key \"speed\" in conversion");
}

TEST(ScenarioParse, UnknownSloKeyRejected) {
  expect_parse_error(
      "{\"name\": \"x\",\n \"topology\": {\"kind\": \"fat_tree\"},\n"
      " \"traffic\": [{\"pattern\": \"permutation\"}],\n"
      " \"slos\": [{\"metric\": \"p99_fct_s\", \"limit\": 1.0}]}",
      "bad.json:4:44: unknown key \"limit\" in slo entry");
}

TEST(ScenarioParse, UnknownSloMetric) {
  expect_parse_error(
      "{\"name\": \"x\",\n \"topology\": {\"kind\": \"fat_tree\"},\n"
      " \"traffic\": [{\"pattern\": \"permutation\"}],\n"
      " \"slos\": [{\"metric\": \"p95_fct_s\", \"max\": 1.0}]}",
      "bad.json:4:22: key \"metric\": unknown SLO metric \"p95_fct_s\" "
      "(expected \"worst_fct_s\", \"p99_fct_s\", \"p50_fct_s\", "
      "\"mean_fct_s\" or \"completed_frac\")");
}

TEST(ScenarioParse, SloMaxBelowMinRejected) {
  expect_parse_error(
      "{\"name\": \"x\",\n \"topology\": {\"kind\": \"fat_tree\"},\n"
      " \"traffic\": [{\"pattern\": \"permutation\"}],\n"
      " \"slos\": [{\"metric\": \"p99_fct_s\", \"max\": 0.1,"
      " \"min\": 0.2}]}",
      "bad.json:4:42: key \"max\": must be >= min");
}

TEST(ScenarioParse, SloMissingMetric) {
  expect_parse_error(
      "{\"name\": \"x\",\n \"topology\": {\"kind\": \"fat_tree\"},\n"
      " \"traffic\": [{\"pattern\": \"permutation\"}],\n"
      " \"slos\": [{\"max\": 1.0}]}",
      "bad.json:4:11: missing required key \"metric\"");
}

TEST(ScenarioParse, SloBoundMustBeNumber) {
  expect_parse_error(
      "{\"name\": \"x\",\n \"topology\": {\"kind\": \"fat_tree\"},\n"
      " \"traffic\": [{\"pattern\": \"permutation\"}],\n"
      " \"slos\": [{\"metric\": \"p99_fct_s\", \"min\": true}]}",
      "bad.json:4:42: key \"min\": expected number, got bool");
}

TEST(ScenarioParse, UnknownEngine) {
  expect_parse_error(
      "{\"name\": \"x\",\n \"topology\": {\"kind\": \"fat_tree\"},\n"
      " \"traffic\": [{\"pattern\": \"permutation\"}],\n"
      " \"sim\": {\"engine\": \"quantum\"}}",
      "bad.json:4:20: key \"engine\": unknown engine \"quantum\" (expected "
      "\"fluid\", \"packet\", \"packet_sharded\" or \"autopilot\")");
}

TEST(ScenarioParse, UnknownRefreshMode) {
  expect_parse_error(
      "{\"name\": \"x\",\n \"topology\": {\"kind\": \"fat_tree\"},\n"
      " \"traffic\": [{\"pattern\": \"permutation\"}],\n"
      " \"sim\": {\"engine\": \"fluid\", \"refresh\": \"lazy\"}}",
      "bad.json:4:40: key \"refresh\": unknown refresh mode \"lazy\" "
      "(expected \"repair\", \"reroute\" or \"none\")");
}

TEST(ScenarioParse, KeyOfAnotherEngineRejected) {
  expect_parse_error(
      "{\"name\": \"x\",\n \"topology\": {\"kind\": \"fat_tree\"},\n"
      " \"traffic\": [{\"pattern\": \"permutation\"}],\n"
      " \"sim\": {\"engine\": \"packet\", \"epoch_s\": 1.0}}",
      "bad.json:4:41: key \"epoch_s\" is not valid for engine \"packet\"");
}

// ---- compile-stage rejections -----------------------------------------------
// Invalid embedded schedules and delay models must be rejected by
// compile_scenario — before any simulator runs — with the file name
// prefixed (FailureSchedule::validate / ConversionDelayModel::validate,
// invoked from the compiler).

void expect_compile_error(std::string_view text, std::string_view prefix) {
  const Scenario spec = parse_scenario(text, "bad.json");  // parses clean
  try {
    (void)compile_scenario(spec, "bad.json");
    FAIL() << "expected ScenarioError starting with: " << prefix;
  } catch (const ScenarioError& e) {
    EXPECT_EQ(std::string{e.what()}.substr(0, prefix.size()), prefix)
        << "actual: " << e.what();
  }
}

TEST(ScenarioCompile, InvalidDelayModelRejectedBeforeRun) {
  expect_compile_error(
      "{\"name\": \"x\",\n"
      " \"topology\": {\"kind\": \"flat_tree\"},\n"
      " \"traffic\": [{\"pattern\": \"permutation\"}],\n"
      " \"conversion\": {\"to\": [\"global\"], \"ocs_s\": -0.1}}",
      "bad.json: conversion delay model rejected: ");
}

TEST(ScenarioCompile, OversubscribedConverterColumnsRejected) {
  // m + n exceeds the per-column converter budget for k = 4.
  expect_compile_error(
      "{\"name\": \"x\",\n"
      " \"topology\": {\"kind\": \"flat_tree\", \"m\": 9, \"n\": 9},\n"
      " \"traffic\": [{\"pattern\": \"permutation\"}]}",
      "bad.json: topology rejected: ");
}

TEST(ScenarioCompile, CoreColumnBeyondCoresRejected) {
  // fat_tree k=4 has 4 cores; a 12-switch column cannot exist. The
  // schedule must be rejected at compile time, not mid-run.
  expect_compile_error(
      "{\"name\": \"x\",\n"
      " \"topology\": {\"kind\": \"fat_tree\"},\n"
      " \"traffic\": [{\"pattern\": \"permutation\"}],\n"
      " \"failures\": [{\"kind\": \"core_column\", \"count\": 12,"
      " \"fail_at\": 0.1}]}",
      "bad.json: failure schedule rejected: ");
}

TEST(ScenarioCompile, EmptySampledFailureSetRejected) {
  // fraction small enough to round to zero links on a k=4 fabric.
  expect_compile_error(
      "{\"name\": \"x\",\n"
      " \"topology\": {\"kind\": \"fat_tree\"},\n"
      " \"traffic\": [{\"pattern\": \"permutation\"}],\n"
      " \"failures\": [{\"kind\": \"links\", \"fraction\": 0.0001,"
      " \"fail_at\": 0.1}]}",
      "bad.json: failure schedule rejected: ");
}

TEST(ScenarioCompile, SwitchRoleAbsentFromTopologyRejected) {
  // A two-stage random graph has edge and core switches only: sampling its
  // aggregation tier is a missing role, not a fraction too small.
  expect_compile_error(
      "{\"name\": \"x\",\n"
      " \"topology\": {\"kind\": \"two_stage\"},\n"
      " \"traffic\": [{\"pattern\": \"permutation\"}],\n"
      " \"failures\": [{\"kind\": \"switches\", \"role\": \"agg\","
      " \"fraction\": 1.0, \"fail_at\": 0.1}]}",
      "bad.json: failure schedule rejected: entry 0: topology kind "
      "\"two_stage\" has no \"agg\" switches");
}

TEST(ScenarioCompile, TrafficGeneratorRejectionNamesEntry) {
  // fanin must stay below the server count (16 for k = 4); the generator's
  // invalid_argument surfaces as a compile diagnostic naming the entry.
  expect_compile_error(
      "{\"name\": \"x\",\n"
      " \"topology\": {\"kind\": \"fat_tree\"},\n"
      " \"traffic\": [{\"pattern\": \"incast\", \"fanin\": 64}]}",
      "bad.json: traffic entry 0 (\"incast\") rejected: ");
}

TEST(ScenarioCompile, ShardedEngineRequiresPodLocalTraffic) {
  expect_compile_error(
      "{\"name\": \"x\",\n"
      " \"topology\": {\"kind\": \"fat_tree\"},\n"
      " \"traffic\": [{\"pattern\": \"permutation\"}],\n"
      " \"sim\": {\"engine\": \"packet_sharded\"}}",
      "bad.json: engine \"packet_sharded\" requires Pod-local traffic");
}

TEST(ScenarioCompile, AutopilotHorizonBounded) {
  expect_compile_error(
      "{\"name\": \"x\",\n"
      " \"topology\": {\"kind\": \"fat_tree\"},\n"
      " \"traffic\": [{\"pattern\": \"permutation\"}],\n"
      " \"sim\": {\"engine\": \"autopilot\", \"max_time_s\": 3600.0}}",
      "bad.json: engine \"autopilot\" requires max_time_s in (0, 600]");
}

// ---- control-plane fault grammar --------------------------------------------
// controller_crash / control_partition entries (PR: partition-tolerant
// hierarchy): acceptance of the full shape, and every structural rejection
// position-anchored at the offending entry.

TEST(ScenarioParse, ControlFaultsParse) {
  const Scenario s = parse_scenario(
      "{\"name\": \"x\",\n"
      " \"topology\": {\"kind\": \"flat_tree\"},\n"
      " \"traffic\": [{\"pattern\": \"permutation\"}],\n"
      " \"conversion\": {\"to\": [\"global\"], \"stage_checkpoints\": true},\n"
      " \"failures\": [\n"
      "  {\"kind\": \"controller_crash\", \"fail_at\": 0.5},\n"
      "  {\"kind\": \"control_partition\", \"fail_at\": 0.5,"
      " \"recover_at\": 2.0, \"first\": 1, \"count\": 2},\n"
      "  {\"kind\": \"links\", \"fraction\": 0.1, \"fail_at\": 0.2}]}",
      "ok.json");
  ASSERT_EQ(s.failures.size(), 3u);
  EXPECT_EQ(s.failures[0].kind, FailureKind::kControllerCrash);
  EXPECT_EQ(s.failures[0].fail_at, 0.5);
  EXPECT_EQ(s.failures[1].kind, FailureKind::kControlPartition);
  EXPECT_EQ(s.failures[1].recover_at, 2.0);
  EXPECT_EQ(s.failures[1].first, 1u);
  EXPECT_EQ(s.failures[1].count, 2u);
  // A never-healing partition: recover_at stays the down-forever sentinel.
  EXPECT_EQ(s.failures[1].flaps, 1u);
  (void)compile_scenario(s, "ok.json");  // compiles clean end to end
}

TEST(ScenarioParse, ControllerCrashAdmitsNoRecovery) {
  // The dead primary never comes back; the standby takes over instead.
  expect_parse_error(
      "{\"name\": \"x\",\n"
      " \"topology\": {\"kind\": \"flat_tree\"},\n"
      " \"traffic\": [{\"pattern\": \"permutation\"}],\n"
      " \"conversion\": {\"to\": [\"global\"]},\n"
      " \"failures\": [{\"kind\": \"controller_crash\", \"fail_at\": 0.5,"
      " \"recover_at\": 2.0}]}",
      "bad.json:5:74: key \"recover_at\" is not valid for failure kind "
      "\"controller_crash\"");
}

TEST(ScenarioParse, ControlFaultsRequireConversion) {
  expect_parse_error(
      "{\"name\": \"x\",\n"
      " \"topology\": {\"kind\": \"flat_tree\"},\n"
      " \"traffic\": [{\"pattern\": \"permutation\"}],\n"
      " \"failures\": [{\"kind\": \"controller_crash\", \"fail_at\": 0.5}]}",
      "bad.json:4:15: failure kind \"controller_crash\" requires a "
      "\"conversion\" section");
}

TEST(ScenarioParse, ControlPartitionRequiresStagedConversion) {
  // The atomic baseline has no checkpoint to fall back on.
  expect_parse_error(
      "{\"name\": \"x\",\n"
      " \"topology\": {\"kind\": \"flat_tree\"},\n"
      " \"traffic\": [{\"pattern\": \"permutation\"}],\n"
      " \"conversion\": {\"to\": [\"global\"], \"staged\": false},\n"
      " \"failures\": [{\"kind\": \"control_partition\", \"fail_at\": 0.5,"
      " \"count\": 2}]}",
      "bad.json:5:15: failure kind \"control_partition\" requires a staged "
      "conversion");
}

TEST(ScenarioParse, ControlPartitionPodRangeBounded) {
  expect_parse_error(
      "{\"name\": \"x\",\n"
      " \"topology\": {\"kind\": \"flat_tree\"},\n"
      " \"traffic\": [{\"pattern\": \"permutation\"}],\n"
      " \"conversion\": {\"to\": [\"global\"]},\n"
      " \"failures\": [{\"kind\": \"control_partition\", \"fail_at\": 0.5,"
      " \"first\": 3, \"count\": 2}]}",
      "bad.json:5:15: failure kind \"control_partition\": pod range [first, "
      "first + count) exceeds the topology's pods");
}

TEST(ScenarioParse, ControlPartitionRequiresCount) {
  expect_parse_error(
      "{\"name\": \"x\",\n"
      " \"topology\": {\"kind\": \"flat_tree\"},\n"
      " \"traffic\": [{\"pattern\": \"permutation\"}],\n"
      " \"conversion\": {\"to\": [\"global\"]},\n"
      " \"failures\": [{\"kind\": \"control_partition\", \"fail_at\": 0.5}]}",
      "bad.json:5:15: missing required key \"count\"");
}

TEST(ScenarioParse, ConversionScenariosRejectOtherFailureKinds) {
  expect_parse_error(
      "{\"name\": \"x\",\n"
      " \"topology\": {\"kind\": \"flat_tree\"},\n"
      " \"traffic\": [{\"pattern\": \"permutation\"}],\n"
      " \"conversion\": {\"to\": [\"global\"]},\n"
      " \"failures\": [{\"kind\": \"core_column\", \"fail_at\": 0.5,"
      " \"count\": 1}]}",
      "bad.json:5:15: conversion scenarios support failure kinds \"links\", "
      "\"controller_crash\" and \"control_partition\" only");
}

TEST(ScenarioParse, DropProbabilityRangeChecked) {
  expect_parse_error(
      "{\"name\": \"x\",\n"
      " \"topology\": {\"kind\": \"flat_tree\"},\n"
      " \"traffic\": [{\"pattern\": \"permutation\"}],\n"
      " \"conversion\": {\"to\": [\"global\"], \"drop_probability\": 1.0}}",
      "bad.json:4:55: key \"drop_probability\": must lie in [0, 1)");
}

// The remaining channel knobs are parsed for type only; compile_scenario
// invokes ControlChannelOptions::validate() before any cell runs, so every
// out-of-range value lands with the channel's own message — pinned here,
// one per field.

TEST(ScenarioCompile, ChannelDelayRejected) {
  expect_compile_error(
      "{\"name\": \"x\",\n"
      " \"topology\": {\"kind\": \"flat_tree\"},\n"
      " \"traffic\": [{\"pattern\": \"permutation\"}],\n"
      " \"conversion\": {\"to\": [\"global\"], \"channel_delay_s\": -0.1}}",
      "bad.json: conversion channel rejected: ControlChannelOptions: "
      "delay_s must be >= 0");
}

TEST(ScenarioCompile, ChannelTimeoutRejected) {
  expect_compile_error(
      "{\"name\": \"x\",\n"
      " \"topology\": {\"kind\": \"flat_tree\"},\n"
      " \"traffic\": [{\"pattern\": \"permutation\"}],\n"
      " \"conversion\": {\"to\": [\"global\"], \"channel_timeout_s\": 0.0}}",
      "bad.json: conversion channel rejected: ControlChannelOptions: "
      "timeout_s must be > 0");
}

TEST(ScenarioCompile, ChannelBackoffRejected) {
  expect_compile_error(
      "{\"name\": \"x\",\n"
      " \"topology\": {\"kind\": \"flat_tree\"},\n"
      " \"traffic\": [{\"pattern\": \"permutation\"}],\n"
      " \"conversion\": {\"to\": [\"global\"], \"channel_backoff\": 0.5}}",
      "bad.json: conversion channel rejected: ControlChannelOptions: "
      "backoff must be >= 1");
}

TEST(ScenarioCompile, ChannelJitterRejected) {
  expect_compile_error(
      "{\"name\": \"x\",\n"
      " \"topology\": {\"kind\": \"flat_tree\"},\n"
      " \"traffic\": [{\"pattern\": \"permutation\"}],\n"
      " \"conversion\": {\"to\": [\"global\"], \"channel_jitter\": 1.5}}",
      "bad.json: conversion channel rejected: ControlChannelOptions: "
      "jitter must be in [0, 1]");
}

TEST(ScenarioCompile, ChannelMaxAttemptsRejected) {
  expect_compile_error(
      "{\"name\": \"x\",\n"
      " \"topology\": {\"kind\": \"flat_tree\"},\n"
      " \"traffic\": [{\"pattern\": \"permutation\"}],\n"
      " \"conversion\": {\"to\": [\"global\"], \"channel_max_attempts\": 0}}",
      "bad.json: conversion channel rejected: ControlChannelOptions: "
      "max_attempts must be >= 1");
}

TEST(ScenarioCompile, RepairRefreshSingleWindowOnly) {
  expect_compile_error(
      "{\"name\": \"x\",\n"
      " \"topology\": {\"kind\": \"fat_tree\"},\n"
      " \"traffic\": [{\"pattern\": \"permutation\"}],\n"
      " \"failures\": [{\"kind\": \"links\", \"fraction\": 0.1,"
      " \"fail_at\": 0.1, \"recover_at\": 0.2, \"flaps\": 2,"
      " \"period_s\": 0.5}],\n"
      " \"sim\": {\"engine\": \"fluid\", \"refresh\": \"repair\"}}",
      "bad.json: refresh \"repair\" supports a single failure window");
}

}  // namespace
}  // namespace flattree::scenario
