#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "src/common/error.hpp"
#include "src/common/json.hpp"
#include "src/common/options.hpp"
#include "src/common/results_cache.hpp"
#include "src/common/table.hpp"

namespace moheco {
namespace {

TEST(Table, AlignsColumnsAndCounts) {
  Table t({"methods", "best", "worst"});
  t.add_row({"MOHECO", "0.04%", "0.63%"});
  t.add_row({"AS+LHS", "0.22%", "1.94%"});
  EXPECT_EQ(t.num_rows(), 2u);
  std::ostringstream oss;
  t.print(oss, "Table 1");
  const std::string out = oss.str();
  EXPECT_NE(out.find("Table 1"), std::string::npos);
  EXPECT_NE(out.find("MOHECO"), std::string::npos);
  EXPECT_NE(out.find("| methods |"), std::string::npos);
}

TEST(Table, RejectsRaggedRow) {
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"1"}), InvalidArgument);
}

TEST(Table, FormatHelpers) {
  EXPECT_EQ(format_percent(0.0032, 2), "0.32%");
  EXPECT_EQ(format_sig(3.6e-6), "3.60e-06");
  EXPECT_EQ(format_sig(123456.0, 3), "123456");  // within fixed range
  EXPECT_EQ(format_sig(0.0), "0");
}

TEST(Options, EnvAndArgsParsing) {
  setenv("MOHECO_SCALE", "smoke", 1);
  char prog[] = "bench";
  char runs[] = "--runs=5";
  char seed[] = "--seed=99";
  char* argv[] = {prog, runs, seed};
  const BenchOptions options = parse_bench_options(3, argv);
  EXPECT_EQ(options.scale, BenchScale::kSmoke);
  EXPECT_EQ(options.runs, 5);  // explicit flag overrides the scale preset
  EXPECT_EQ(options.seed, 99u);
  unsetenv("MOHECO_SCALE");
}

TEST(Options, RejectsUnknownArgument) {
  char prog[] = "bench";
  char bogus[] = "--bogus";
  char* argv[] = {prog, bogus};
  EXPECT_THROW(parse_bench_options(2, argv), InvalidArgument);
}

TEST(Options, DescribeMentionsScale) {
  char prog[] = "bench";
  char* argv[] = {prog};
  const BenchOptions options = parse_bench_options(1, argv);
  EXPECT_NE(describe(options).find("scale="), std::string::npos);
}

TEST(ResultsCache, RoundTrips) {
  ResultsCache cache("/tmp/moheco_cache_test");
  ResultMap results;
  results["dev"] = {0.1, 0.2, 0.3};
  results["sims"] = {100.0, 200.0};
  cache.store("unit test key!", results);
  const auto loaded = cache.load("unit test key!");
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->at("dev"), results["dev"]);
  EXPECT_EQ(loaded->at("sims"), results["sims"]);
  EXPECT_FALSE(cache.load("missing key").has_value());
}

TEST(ResultsCache, StoreIsAtomicAndLeavesNoTempFiles) {
  const std::string dir = "/tmp/moheco_cache_test_atomic";
  std::filesystem::remove_all(dir);
  ResultsCache cache(dir);
  ResultMap results;
  results["values"] = {1.0, 2.0};
  cache.store("atomic", results);
  // Overwrite an existing entry (the rename-over-existing path).
  results["values"] = {3.0, 4.0};
  cache.store("atomic", results);
  const auto loaded = cache.load("atomic");
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->at("values"), results["values"]);
  // Only the final file remains -- no .tmp.* leftovers in the directory.
  std::size_t files = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    ++files;
    EXPECT_EQ(entry.path().extension(), ".txt") << entry.path();
  }
  EXPECT_EQ(files, 1u);
}

TEST(ResultsCache, RowNamesWithSpacesRoundTrip) {
  // Bench studies name rows after their methods, spaces included.
  const std::string dir = "/tmp/moheco_cache_test_names";
  std::filesystem::remove_all(dir);
  ResultsCache cache(dir);
  ResultMap results;
  results["dev:300 simulations (AS+LHS) 0"] = {0.01, 0.02};
  results["#leading hash"] = {1.0};
  results["tab\tand\nnewline"] = {2.0};
  results["100% escaped %41"] = {3.0};
  results["plain"] = {4.0, 5.0};
  cache.store("names", results);
  const auto loaded = cache.load("names");
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(*loaded, results);

  // Names without special bytes are written verbatim, so files written
  // before names were escaped still load; a malformed escape is corruption.
  std::ifstream in(dir + "/names.txt");
  std::stringstream text;
  text << in.rdbuf();
  EXPECT_NE(text.str().find("\nplain 4 5\n"), std::string::npos);
  std::ofstream(dir + "/bad.txt") << "dev%2 1 2\n";
  EXPECT_FALSE(cache.load("bad").has_value());
  std::filesystem::remove_all(dir);
}

// --- JsonValue raw-slice + member-order capture ---------------------------
// The serving protocol relays result objects byte-identically: the client
// re-emits a parsed container via raw() (the exact source slice) and
// renders text reports in the writer's field order via member_names().

TEST(Json, RawReturnsTheExactSourceSlice) {
  // Deliberately odd spacing and lexeme-sensitive numbers: any re-
  // serialization would normalize them and break the byte-identity gate.
  const std::string text =
      "{\"a\": 1.50,\"nested\": { \"x\" :[1, 2.0,3e0] } , \"z\":\"s\"}";
  const std::optional<JsonValue> parsed = parse_json(text);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->raw(), text);
  EXPECT_EQ((*parsed)["nested"].raw(), "{ \"x\" :[1, 2.0,3e0] }");
  EXPECT_EQ((*parsed)["nested"]["x"].raw(), "[1, 2.0,3e0]");
}

TEST(Json, MemberNamesPreserveInsertionOrder) {
  const std::optional<JsonValue> parsed =
      parse_json("{\"w2\":1,\"l1\":2,\"a\":3,\"w1\":4,\"a\":5}");
  ASSERT_TRUE(parsed.has_value());
  // Source order, not sorted -- and the duplicate key appears once (last
  // value wins, first position wins).
  const std::vector<std::string> want = {"w2", "l1", "a", "w1"};
  EXPECT_EQ(parsed->member_names(), want);
  EXPECT_EQ((*parsed)["a"].as_int(), 5);
}

}  // namespace
}  // namespace moheco
