// Fixture tests for tools/nattolint: every rule fires on its seeded fixture,
// every suppression path works, and comment/string stripping kills false
// positives. The fixtures live in tests/nattolint_fixtures/ and are scanned,
// never compiled.
#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "nattolint_lib.h"

namespace {

std::string ReadFixture(const std::string& name) {
  std::string path = std::string(NATTOLINT_FIXTURE_DIR) + "/" + name;
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "missing fixture " << path;
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

std::vector<nattolint::Violation> LintFixture(
    const std::string& name,
    const std::set<std::string>& header_names = {}) {
  // Fixtures are linted under a src/-relative pseudo-path so directory
  // exemptions behave as they do in the real tree.
  return nattolint::LintContent("src/fixture/" + name, ReadFixture(name),
                                header_names);
}

std::map<std::string, int> CountByRule(
    const std::vector<nattolint::Violation>& vs) {
  std::map<std::string, int> out;
  for (const auto& v : vs) out[v.rule] += 1;
  return out;
}

std::vector<int> LinesOf(const std::vector<nattolint::Violation>& vs) {
  std::vector<int> out;
  for (const auto& v : vs) out.push_back(v.line);
  std::sort(out.begin(), out.end());
  return out;
}

// ---------------------------------------------------------------------------
// Rule 1: natto-wallclock
// ---------------------------------------------------------------------------

TEST(NattolintWallclock, FlagsEveryWallclockApi) {
  auto vs = LintFixture("wallclock_bad.cc");
  auto by_rule = CountByRule(vs);
  EXPECT_EQ(by_rule["natto-wallclock"], 5) << "system_clock, steady_clock, "
                                              "high_resolution_clock, time(, "
                                              "gettimeofday";
  EXPECT_EQ(static_cast<int>(vs.size()), 5) << "no other rules should fire";
}

TEST(NattolintWallclock, SimDirectoryIsExempt) {
  // The same content under src/sim/ is clean: the simulator owns the clock.
  auto vs = nattolint::LintContent("src/sim/fixture.cc",
                                   ReadFixture("wallclock_bad.cc"), {});
  EXPECT_TRUE(vs.empty());
}

TEST(NattolintWallclock, FaultDirectoryIsNotExempt) {
  // The fault-injection layer drives scripted faults against *sim* time;
  // wallclock or ambient RNG there would silently break the bit-identity
  // of chaos runs, so src/fault/ gets no exemption from either rule.
  auto wall = nattolint::LintContent("src/fault/fixture.cc",
                                     ReadFixture("wallclock_bad.cc"), {});
  EXPECT_EQ(CountByRule(wall)["natto-wallclock"], 5);
  auto rng = nattolint::LintContent("src/fault/fixture.cc",
                                    ReadFixture("rng_bad.cc"), {});
  EXPECT_EQ(CountByRule(rng)["natto-ambient-rng"], 4);
}

TEST(NattolintFault, GrayFaultInjectorIdiomsAreCovered) {
  // One fixture shaped like the gray-fault injector itself: every bug class
  // the fault grammar / slow-stall machinery could smuggle in fires exactly
  // once under a src/fault/ pseudo-path, and the injector's sanctioned
  // idioms (direct ScheduleAt for fault application, a NOLINT'd golden-knob
  // env read) stay quiet.
  auto vs = nattolint::LintContent("src/fault/fixture.cc",
                                   ReadFixture("fault_gray_bad.cc"), {});
  auto by_rule = CountByRule(vs);
  EXPECT_EQ(by_rule["natto-wallclock"], 1) << "steady_clock stall deadline";
  EXPECT_EQ(by_rule["natto-ambient-rng"], 1) << "mt19937 slow-factor jitter";
  EXPECT_EQ(by_rule["natto-mutable-static"], 1) << "static schedule cache";
  EXPECT_EQ(by_rule["natto-unordered-iter"], 1)
      << "range-for over per-node slow factors";
  EXPECT_EQ(by_rule["natto-check-side-effect"], 1)
      << "parse cursor mutated inside NATTO_CHECK";
  EXPECT_EQ(by_rule["natto-env-read"], 1)
      << "fault schedule from the environment; the NOLINT'd read is exempt";
  EXPECT_EQ(by_rule["natto-batch-bypass"], 0)
      << "ScheduleAt is net-only; fault application uses it by design";
  EXPECT_EQ(static_cast<int>(vs.size()), 6);
}

// ---------------------------------------------------------------------------
// Rule 2: natto-ambient-rng
// ---------------------------------------------------------------------------

TEST(NattolintRng, FlagsAmbientRandomness) {
  auto vs = LintFixture("rng_bad.cc");
  auto by_rule = CountByRule(vs);
  EXPECT_EQ(by_rule["natto-ambient-rng"], 4)
      << "random_device, mt19937, mt19937_64, std::rand";
  EXPECT_EQ(static_cast<int>(vs.size()), 4);
}

TEST(NattolintRng, RngHeaderIsExempt) {
  // common/rng.h is the one place allowed to own a raw engine.
  auto vs = nattolint::LintContent("src/common/rng.h",
                                   ReadFixture("rng_bad.cc"), {});
  EXPECT_TRUE(vs.empty());
}

// ---------------------------------------------------------------------------
// Rule 3: natto-mutable-static
// ---------------------------------------------------------------------------

TEST(NattolintStatic, FlagsMutableStaticsOnly) {
  auto vs = LintFixture("static_bad.cc");
  auto by_rule = CountByRule(vs);
  EXPECT_EQ(by_rule["natto-mutable-static"], 3)
      << "local static counter, local static vector, static data member";
  EXPECT_EQ(static_cast<int>(vs.size()), 3)
      << "static functions / constexpr / const tables must not fire";
}

// ---------------------------------------------------------------------------
// Rule 4: natto-unordered-iter
// ---------------------------------------------------------------------------

TEST(NattolintUnordered, FlagsRangeForOverUnordered) {
  std::set<std::string> header_names =
      nattolint::CollectUnorderedNames(ReadFixture("unordered_iter.h"));
  EXPECT_TRUE(header_names.count("votes"));
  EXPECT_TRUE(header_names.count("mismatches"));
  EXPECT_TRUE(header_names.count("txns_"));
  EXPECT_FALSE(header_names.count("writes")) << "vector member not collected";
  EXPECT_FALSE(header_names.count("queue_")) << "std::map member not collected";

  auto vs = LintFixture("unordered_iter_bad.cc", header_names);
  auto by_rule = CountByRule(vs);
  EXPECT_EQ(by_rule["natto-unordered-iter"], 4)
      << "two member fields, one unordered local, one _-suffixed member";
  EXPECT_EQ(static_cast<int>(vs.size()), 4);
}

TEST(NattolintUnordered, HeadersAreNotScannedForIteration) {
  // The rule targets translation units; the header itself is clean.
  auto vs = nattolint::LintContent("src/fixture/unordered_iter.h",
                                   ReadFixture("unordered_iter.h"), {});
  EXPECT_TRUE(vs.empty());
}

TEST(NattolintUnordered, PlainLocalsIgnoreHeaderContext) {
  // A plain (non-member) identifier that happens to share a name with an
  // unordered header member is NOT flagged: only .cc-local declarations
  // count for plain locals.
  std::string code =
      "void F(const std::vector<int>& votes) {\n"
      "  for (int v : votes) { (void)v; }\n"
      "}\n";
  auto vs = nattolint::LintContent("src/fixture/plain.cc", code, {"votes"});
  EXPECT_TRUE(vs.empty());
}

// ---------------------------------------------------------------------------
// Rule 5: natto-check-side-effect
// ---------------------------------------------------------------------------

TEST(NattolintCheck, FlagsSideEffectingConditions) {
  auto vs = LintFixture("check_side_effect_bad.cc");
  auto by_rule = CountByRule(vs);
  EXPECT_EQ(by_rule["natto-check-side-effect"], 4)
      << "++, --, assignment, assignment-through-pointer";
  EXPECT_EQ(static_cast<int>(vs.size()), 4)
      << "comparisons (==, <=, >=, !=) must not fire";
}

// ---------------------------------------------------------------------------
// Rule 6: natto-batch-bypass
// ---------------------------------------------------------------------------

TEST(NattolintBatchBypass, FlagsDirectScheduleAtInNet) {
  // The fixture must be linted under a src/net pseudo-path for the rule to
  // apply at all.
  auto vs = nattolint::LintContent("src/net/fixture.cc",
                                   ReadFixture("net_schedule_bad.cc"), {});
  auto by_rule = CountByRule(vs);
  EXPECT_EQ(by_rule["natto-batch-bypass"], 2)
      << "one unsuppressed ->ScheduleAt( and one ->ScheduleAtSite(; NOLINT, "
         "NOLINTNEXTLINE and ScheduleAfter must not fire";
  EXPECT_EQ(static_cast<int>(vs.size()), 2);
}

TEST(NattolintBatchBypass, OtherDirectoriesAreExempt) {
  // Engines schedule on the simulator freely; only src/net owns the flush
  // queue the rule protects.
  auto vs = nattolint::LintContent("src/natto/fixture.cc",
                                   ReadFixture("net_schedule_bad.cc"), {});
  EXPECT_EQ(CountByRule(vs)["natto-batch-bypass"], 0);
}

TEST(NattolintBatchBypass, HeadersAreExempt) {
  // net/node.h's AtLocalTime forwards to ScheduleAt on behalf of non-net
  // actors; the rule targets the transport's own delivery paths, which live
  // in translation units.
  auto vs = nattolint::LintContent("src/net/fixture.h",
                                   ReadFixture("net_schedule_bad.cc"), {});
  EXPECT_EQ(CountByRule(vs)["natto-batch-bypass"], 0);
}

// ---------------------------------------------------------------------------
// Rule 6b: natto-site-bypass
// ---------------------------------------------------------------------------

TEST(NattolintSiteBypass, FlagsDirectScheduleAtInEngineAndRaftDirs) {
  // The rule guards every directory whose actors run on per-site lanes:
  // the four engine families and the raft layer.
  for (const char* dir :
       {"src/carousel", "src/spanner", "src/tapir", "src/natto", "src/raft"}) {
    auto vs = nattolint::LintContent(std::string(dir) + "/fixture.cc",
                                     ReadFixture("site_bypass_bad.cc"), {});
    auto by_rule = CountByRule(vs);
    EXPECT_EQ(by_rule["natto-site-bypass"], 2)
        << dir
        << ": two unsuppressed ->ScheduleAt(; ScheduleAfter, ScheduleAtSite, "
           "Node::After and the NOLINT escapes must not fire";
    EXPECT_EQ(static_cast<int>(vs.size()), 2) << dir;
  }
}

TEST(NattolintSiteBypass, FlagsTheEnginesSharedCore) {
  // The shared 2PC core runs inside every engine's coordinators and
  // gateways, so it gets the engine directories' rule; the rest of src/txn
  // (cluster wiring, topology) stays exempt.
  auto vs = nattolint::LintContent("src/txn/engine_core.cc",
                                   ReadFixture("engine_core_bypass_bad.cc"),
                                   {});
  auto by_rule = CountByRule(vs);
  EXPECT_EQ(by_rule["natto-site-bypass"], 1)
      << "the raw decision timer fires; Node::After does not";
  EXPECT_EQ(static_cast<int>(vs.size()), 1);
  vs = nattolint::LintContent("src/txn/cluster.cc",
                              ReadFixture("engine_core_bypass_bad.cc"), {});
  EXPECT_EQ(CountByRule(vs)["natto-site-bypass"], 0);
}

TEST(NattolintSiteBypass, OtherDirectoriesAreExempt) {
  // The transport has its own rule (natto-batch-bypass), the fault injector
  // is a sanctioned global actor, and the harness routes explicitly.
  for (const char* path : {"src/net/fixture_site.cc", "src/fault/fixture.cc",
                           "src/harness/fixture.cc", "src/txn/fixture.cc"}) {
    auto vs = nattolint::LintContent(path, ReadFixture("site_bypass_bad.cc"),
                                     {});
    EXPECT_EQ(CountByRule(vs)["natto-site-bypass"], 0) << path;
  }
}

TEST(NattolintSiteBypass, HeadersAreExempt) {
  // net/node.h's After/AtLocalTime are the sanctioned forwarding shims; the
  // rule targets protocol translation units.
  auto vs = nattolint::LintContent("src/raft/fixture.h",
                                   ReadFixture("site_bypass_bad.cc"), {});
  EXPECT_EQ(CountByRule(vs)["natto-site-bypass"], 0);
}

// ---------------------------------------------------------------------------
// Rule 7: natto-pointer-key
// ---------------------------------------------------------------------------

TEST(NattolintPointerKey, FlagsPointerKeyedOrderedContainers) {
  auto vs = LintFixture("pointer_key_bad.cc");
  auto by_rule = CountByRule(vs);
  EXPECT_EQ(by_rule["natto-pointer-key"], 3)
      << "map<Node*,..>, set<const Node*>, multimap<Node*,..>";
  EXPECT_EQ(static_cast<int>(vs.size()), 3)
      << "pointer values, explicit comparators and NOLINT must not fire";
}

// ---------------------------------------------------------------------------
// Rule 8: natto-pointer-repr
// ---------------------------------------------------------------------------

TEST(NattolintPointerRepr, FlagsPointerValueLeaks) {
  auto vs = LintFixture("pointer_repr_bad.cc");
  auto by_rule = CountByRule(vs);
  EXPECT_EQ(by_rule["natto-pointer-repr"], 3)
      << "%p format, std::hash<T*>, reinterpret_cast<uintptr_t>";
  EXPECT_EQ(static_cast<int>(vs.size()), 3)
      << "static_cast<void*> and non-pointer hashes must not fire";
}

// ---------------------------------------------------------------------------
// Rule 9: natto-env-read
// ---------------------------------------------------------------------------

TEST(NattolintEnvRead, FlagsGetenvInLibraryCode) {
  auto vs = LintFixture("env_read_bad.cc");
  auto by_rule = CountByRule(vs);
  EXPECT_EQ(by_rule["natto-env-read"], 2) << "std::getenv and bare getenv";
  EXPECT_EQ(static_cast<int>(vs.size()), 2)
      << "NOLINT'd entry point and a plain identifier must not fire";
}

TEST(NattolintEnvRead, ToolsDirectoryIsExempt) {
  // tools/ drives experiments from the command line; reading env there is
  // the sanctioned pattern.
  auto vs = nattolint::LintContent("tools/fixture/env_read_bad.cc",
                                   ReadFixture("env_read_bad.cc"), {});
  EXPECT_EQ(CountByRule(vs)["natto-env-read"], 0);
}

// ---------------------------------------------------------------------------
// Rule 10: natto-thread-shared
// ---------------------------------------------------------------------------

TEST(NattolintThreadShared, FlagsThreadLocalAndVolatileInSrc) {
  auto vs = LintFixture("thread_shared_bad.cc");
  auto by_rule = CountByRule(vs);
  EXPECT_EQ(by_rule["natto-thread-shared"], 2) << "thread_local and volatile";
  EXPECT_EQ(static_cast<int>(vs.size()), 2) << "the NOLINT'd one must not fire";
}

TEST(NattolintThreadShared, SynchronizedTuPermitsCommentedThreadLocal) {
  // A `nattolint: synchronized-tu(<reason>)` file comment relaxes the rule
  // for thread_local on lines that carry a justifying comment; a bare
  // thread_local and any volatile still fire.
  auto vs = LintFixture("thread_shared_synchronized_ok.cc");
  auto by_rule = CountByRule(vs);
  EXPECT_EQ(by_rule["natto-thread-shared"], 2)
      << "uncommented thread_local and volatile; the commented thread_local "
         "must not fire";
  EXPECT_EQ(static_cast<int>(vs.size()), 2);
}

TEST(NattolintThreadShared, EmptyReasonAnnotationIsIgnored) {
  // The annotation must say why: an empty reason leaves the rule fully
  // armed, so even a commented thread_local fires.
  auto vs = nattolint::LintContent(
      "src/sim/fixture.cc",
      "// nattolint: synchronized-tu( )\n"
      "thread_local int x = 0;  // commented but still flagged\n",
      {});
  EXPECT_EQ(CountByRule(vs)["natto-thread-shared"], 1);
}

TEST(NattolintThreadShared, OnlySrcTranslationUnitsApply) {
  // bench/ drives the harness from one thread per cell anyway, and headers
  // are covered when their including TU is scanned.
  auto bench = nattolint::LintContent("bench/fixture/thread_shared_bad.cc",
                                      ReadFixture("thread_shared_bad.cc"), {});
  EXPECT_EQ(CountByRule(bench)["natto-thread-shared"], 0);
  auto header = nattolint::LintContent("src/fixture/thread_shared_bad.h",
                                       ReadFixture("thread_shared_bad.cc"), {});
  EXPECT_EQ(CountByRule(header)["natto-thread-shared"], 0);
}

// ---------------------------------------------------------------------------
// Suppressions & stripping
// ---------------------------------------------------------------------------

TEST(NattolintSuppression, NolintAndNolintNextlineSuppress) {
  auto vs = LintFixture("suppressed_ok.cc");
  ASSERT_EQ(static_cast<int>(vs.size()), 1)
      << "everything suppressed except the wrong-rule NOLINT";
  EXPECT_EQ(vs[0].rule, "natto-check-side-effect");
}

TEST(NattolintSuppression, WrongRuleNolintDoesNotSuppress) {
  auto vs = LintFixture("suppressed_ok.cc");
  ASSERT_EQ(static_cast<int>(vs.size()), 1);
  // The surviving violation is the NATTO_CHECK(++x) guarded only by a
  // NOLINT(natto-wallclock).
  EXPECT_NE(std::string::npos, vs[0].message.find("side effects"));
}

TEST(NattolintStripping, CommentsAndStringsAreInvisible) {
  auto vs = LintFixture("strings_comments_ok.cc");
  EXPECT_TRUE(vs.empty()) << (vs.empty() ? ""
                                         : nattolint::FormatViolation(vs[0]));
}

// ---------------------------------------------------------------------------
// Formatting / plumbing
// ---------------------------------------------------------------------------

TEST(NattolintFormat, ViolationRendersPathLineRule) {
  auto vs = LintFixture("static_bad.cc");
  ASSERT_FALSE(vs.empty());
  std::string s = nattolint::FormatViolation(vs[0]);
  EXPECT_NE(std::string::npos, s.find("static_bad.cc:"));
  EXPECT_NE(std::string::npos, s.find("[natto-mutable-static]"));
}

TEST(NattolintFormat, ViolationLinesAreOneBasedAndSorted) {
  auto vs = LintFixture("wallclock_bad.cc");
  auto lines = LinesOf(vs);
  ASSERT_EQ(lines.size(), 5u);
  EXPECT_GE(lines.front(), 1);
  EXPECT_TRUE(std::is_sorted(lines.begin(), lines.end()));
}

TEST(NattolintFormat, OutputIsStablySortedAcrossRulesAndPaths) {
  // Merge violations from two pseudo-files in reverse path order and assert
  // SortViolations restores (file, line, rule) order — the order every
  // entry point prints.
  auto a = nattolint::LintContent("src/zeta/fixture.cc",
                                  ReadFixture("rng_bad.cc"), {});
  auto b = nattolint::LintContent("src/alpha/fixture.cc",
                                  ReadFixture("wallclock_bad.cc"), {});
  std::vector<nattolint::Violation> merged;
  merged.insert(merged.end(), a.begin(), a.end());
  merged.insert(merged.end(), b.begin(), b.end());
  nattolint::SortViolations(&merged);
  ASSERT_EQ(merged.size(), a.size() + b.size());
  for (size_t i = 1; i < merged.size(); ++i) {
    bool ordered = merged[i - 1].file < merged[i].file ||
                   (merged[i - 1].file == merged[i].file &&
                    merged[i - 1].line <= merged[i].line);
    EXPECT_TRUE(ordered) << "out of order at index " << i;
  }
  EXPECT_EQ(merged.front().file, "src/alpha/fixture.cc");
  EXPECT_EQ(merged.back().file, "src/zeta/fixture.cc");
}

// ---------------------------------------------------------------------------
// Rule registry
// ---------------------------------------------------------------------------

TEST(NattolintRules, RegistryListsAllElevenRulesWithDocs) {
  const auto& rules = nattolint::Rules();
  ASSERT_EQ(rules.size(), 11u);
  std::set<std::string> names;
  for (const auto& r : rules) {
    names.insert(r.name);
    EXPECT_TRUE(r.doc != nullptr && r.doc[0] != '\0')
        << r.name << " has no doc line";
  }
  // Every rule that can fire is registered under its exact name.
  for (const char* expected :
       {"natto-wallclock", "natto-ambient-rng", "natto-mutable-static",
        "natto-unordered-iter", "natto-check-side-effect",
        "natto-batch-bypass", "natto-site-bypass", "natto-pointer-key",
        "natto-pointer-repr", "natto-env-read", "natto-thread-shared"}) {
    EXPECT_TRUE(names.count(expected)) << "missing rule " << expected;
  }
}

// The real-tree guarantee (zero violations in src/ bench/ tools/) is its own
// ctest entry: the `nattolint` test runs `nattolint --root <repo>` directly.

}  // namespace
