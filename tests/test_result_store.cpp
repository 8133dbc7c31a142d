#include "exp/result_store.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "core/content_hash.h"
#include "core/error.h"

namespace sehc {
namespace {

StoreSchema test_schema() {
  StoreSchema schema;
  schema.kind = "test";
  schema.spec_hash = content_hash64("test-spec v1");
  schema.spec_line = "test spec";
  schema.columns = {"name", "value", "seconds"};
  schema.volatile_columns = 1;
  return schema;
}

/// Unique path in the test's scratch dir, removed at construction.
std::string temp_store_path(const std::string& tag) {
  const std::string path =
      (std::filesystem::temp_directory_path() /
       ("sehc_store_test_" + tag + ".csv"))
          .string();
  std::remove(path.c_str());
  return path;
}

std::string canonical_text(const ResultStore& store) {
  std::ostringstream os;
  store.write_canonical(os);
  return os.str();
}

TEST(ResultStore, ContentHashIsStableAndSensitive) {
  EXPECT_EQ(content_hash64("abc"), content_hash64("abc"));
  EXPECT_NE(content_hash64("abc"), content_hash64("abd"));
  EXPECT_NE(content_hash64(""), content_hash64("a"));
}

TEST(ContentHash, DefaultStateIsTheFnv1aOffsetBasis) {
  // Published FNV-1a 64 vectors: they pin every stored spec hash.
  EXPECT_EQ(content_hash64(""), 0xcbf29ce484222325ULL);
  EXPECT_EQ(content_hash64("a"), 0xaf63dc4c8601ec8cULL);
  EXPECT_EQ(content_hash64("foobar"), 0x85944171f73967e8ULL);
}

TEST(ResultStore, InMemoryAppendContainsAndRejectsDuplicates) {
  ResultStore store = ResultStore::in_memory(test_schema());
  EXPECT_FALSE(store.contains(3));
  store.append({3, {"a", "1.5", "0.1"}});
  EXPECT_TRUE(store.contains(3));
  EXPECT_EQ(store.size(), 1u);
  EXPECT_THROW(store.append({3, {"a", "1.5", "0.2"}}), Error);
  EXPECT_THROW(store.append({4, {"too", "few"}}), Error);
}

TEST(ResultStore, FileRoundTripIsExact) {
  const std::string path = temp_store_path("roundtrip");
  {
    ResultStore store = ResultStore::open(path, test_schema());
    store.append({1, {"plain", "2.0", "0.5"}});
    store.append({0, {"with,comma and \"quote\"", "3.0", "0.6"}});
  }
  const ResultStore loaded = ResultStore::load(path);
  EXPECT_TRUE(loaded.schema().compatible_with(test_schema()));
  ASSERT_EQ(loaded.size(), 2u);
  // Append order preserved on disk; fields identical including specials.
  EXPECT_EQ(loaded.rows()[0], (StoreRow{1, {"plain", "2.0", "0.5"}}));
  EXPECT_EQ(loaded.rows()[1],
            (StoreRow{0, {"with,comma and \"quote\"", "3.0", "0.6"}}));
  std::remove(path.c_str());
}

TEST(ResultStore, ReopenResumesAndRefusesOtherSpecs) {
  const std::string path = temp_store_path("resume");
  {
    ResultStore store = ResultStore::open(path, test_schema());
    store.append({5, {"a", "1.0", "0.1"}});
  }
  {
    ResultStore store = ResultStore::open(path, test_schema());
    EXPECT_TRUE(store.contains(5));  // resume sees the old record
    store.append({6, {"b", "2.0", "0.2"}});
  }
  EXPECT_EQ(ResultStore::load(path).size(), 2u);

  StoreSchema other = test_schema();
  other.spec_hash ^= 1;
  EXPECT_THROW(ResultStore::open(path, other), Error);
  std::remove(path.c_str());
}

TEST(ResultStore, TruncatedTailIsDroppedOnReopen) {
  const std::string path = temp_store_path("truncated");
  {
    ResultStore store = ResultStore::open(path, test_schema());
    store.append({1, {"a", "1.0", "0.1"}});
    store.append({2, {"b", "2.0", "0.2"}});
  }
  {
    // Simulate a writer killed mid-record: a torn final line.
    std::ofstream os(path, std::ios::binary | std::ios::app);
    os << "3,c,3.";
  }
  {
    ResultStore store = ResultStore::open(path, test_schema());
    EXPECT_EQ(store.size(), 2u);
    EXPECT_FALSE(store.contains(3));  // the torn cell reruns
    store.append({3, {"c", "3.0", "0.3"}});
  }
  const ResultStore loaded = ResultStore::load(path);
  ASSERT_EQ(loaded.size(), 3u);
  EXPECT_EQ(loaded.rows()[2], (StoreRow{3, {"c", "3.0", "0.3"}}));
  std::remove(path.c_str());
}

TEST(ResultStore, MalformedInteriorLineThrows) {
  const std::string path = temp_store_path("corrupt");
  {
    ResultStore store = ResultStore::open(path, test_schema());
    store.append({1, {"a", "1.0", "0.1"}});
  }
  {
    std::ofstream os(path, std::ios::binary | std::ios::app);
    os << "torn,line\n";  // wrong field count, newline-terminated
    os << "2,b,2.0,0.2\n";
  }
  EXPECT_THROW(ResultStore::load(path), Error);
  std::remove(path.c_str());
}

TEST(ResultStore, TerminatedMalformedFinalLineIsCorruptionNotTruncation) {
  // Only an UNterminated tail can come from a killed flush-per-line
  // writer; a newline-terminated malformed final record must throw rather
  // than silently vanish from load()/merge()/table paths.
  const std::string path = temp_store_path("corrupt_tail");
  {
    ResultStore store = ResultStore::open(path, test_schema());
    store.append({1, {"a", "1.0", "0.1"}});
  }
  {
    std::ofstream os(path, std::ios::binary | std::ios::app);
    os << "2,b,garbled\n";  // wrong field count, but newline-terminated
  }
  EXPECT_THROW(ResultStore::load(path), Error);
  EXPECT_THROW(ResultStore::open(path, test_schema()), Error);
  std::remove(path.c_str());
}

TEST(ResultStore, CanonicalSortsByCellAndDropsVolatileColumns) {
  ResultStore a = ResultStore::in_memory(test_schema());
  a.append({2, {"c", "3.0", "0.9"}});
  a.append({0, {"a", "1.0", "0.8"}});
  a.append({1, {"b", "2.0", "0.7"}});

  ResultStore b = ResultStore::in_memory(test_schema());
  b.append({1, {"b", "2.0", "123.0"}});  // different wall time
  b.append({0, {"a", "1.0", "456.0"}});
  b.append({2, {"c", "3.0", "789.0"}});

  const std::string text = canonical_text(a);
  EXPECT_EQ(text, canonical_text(b));  // insertion order + seconds invisible
  EXPECT_EQ(text.find("seconds"), std::string::npos);
  EXPECT_EQ(text.find("0.9"), std::string::npos);
  EXPECT_NE(text.find("cell,name,value\n"), std::string::npos);
  EXPECT_NE(text.find("0,a,1.0\n1,b,2.0\n2,c,3.0\n"), std::string::npos);
}

TEST(ResultStore, MergeUnionsDedupsAndDetectsConflicts) {
  const std::string p1 = temp_store_path("merge1");
  const std::string p2 = temp_store_path("merge2");
  {
    ResultStore s1 = ResultStore::open(p1, test_schema());
    s1.append({0, {"a", "1.0", "0.1"}});
    s1.append({2, {"c", "3.0", "0.3"}});
    ResultStore s2 = ResultStore::open(p2, test_schema());
    s2.append({1, {"b", "2.0", "0.2"}});
    s2.append({2, {"c", "3.0", "99.0"}});  // overlap; volatile may differ
  }
  const ResultStore merged = ResultStore::merge({p1, p2});
  EXPECT_EQ(merged.size(), 3u);
  EXPECT_TRUE(merged.contains(0));
  EXPECT_TRUE(merged.contains(1));
  EXPECT_TRUE(merged.contains(2));

  // A deterministic-field conflict must throw.
  {
    std::ofstream os(p2, std::ios::binary | std::ios::app);
    os << "0,a,DIFFERENT,0.4\n";
  }
  EXPECT_THROW(ResultStore::merge({p1, p2}), Error);

  // Incompatible schemas must throw.
  const std::string p3 = temp_store_path("merge3");
  StoreSchema other = test_schema();
  other.spec_hash ^= 7;
  { ResultStore s3 = ResultStore::open(p3, other); }
  EXPECT_THROW(ResultStore::merge({p1, p3}), Error);

  std::remove(p1.c_str());
  std::remove(p2.c_str());
  std::remove(p3.c_str());
}

TEST(ResultStore, MergeConflictMessageCarriesBothRows) {
  // At campaign scale the flat cell index alone is useless for debugging;
  // the error must carry the differing column, both values and both full
  // rows (whose leading fields are the cell's grid coordinates).
  const std::string p1 = temp_store_path("conflict1");
  const std::string p2 = temp_store_path("conflict2");
  {
    ResultStore s1 = ResultStore::open(p1, test_schema());
    s1.append({5, {"low-low-0.1", "101.5", "0.1"}});
    ResultStore s2 = ResultStore::open(p2, test_schema());
    s2.append({5, {"low-low-0.1", "999.9", "0.2"}});
  }
  try {
    ResultStore::merge({p1, p2});
    FAIL() << "conflicting merge did not throw";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("cell 5"), std::string::npos) << what;
    EXPECT_NE(what.find("column 'value'"), std::string::npos) << what;
    EXPECT_NE(what.find("'101.5'"), std::string::npos) << what;
    EXPECT_NE(what.find("'999.9'"), std::string::npos) << what;
    EXPECT_NE(what.find(p2), std::string::npos) << what;
    // Both full rows, coordinates included.
    EXPECT_NE(what.find("kept row: 5,low-low-0.1,101.5"), std::string::npos)
        << what;
    EXPECT_NE(what.find("new row:  5,low-low-0.1,999.9"), std::string::npos)
        << what;
  }
  std::remove(p1.c_str());
  std::remove(p2.c_str());
}

TEST(ResultStore, LoadedStoreIsReadOnly) {
  const std::string path = temp_store_path("readonly");
  { ResultStore store = ResultStore::open(path, test_schema()); }
  ResultStore loaded = ResultStore::load(path);
  EXPECT_THROW(loaded.append({0, {"a", "1.0", "0.1"}}), Error);
  std::remove(path.c_str());
}

TEST(ResultStore, OldSchemaVersionFailsMergeAndResumeWithAClearError) {
  // A store written before a schema bump (here: the campaign layer's
  // `evals` column) carries the SAME spec hash but a different column
  // list. Mixing it with a new-layout store must fail loudly and the
  // error must say the LAYOUT differs — not claim a different spec.
  const StoreSchema new_schema = test_schema();  // name,value,seconds

  // Hand-write an old-layout file: same kind/hash/spec, one column fewer.
  const std::string old_path = temp_store_path("oldschema");
  {
    std::ofstream os(old_path, std::ios::binary);
    os << "# sehc-result-store v1\n";
    os << "# kind: " << new_schema.kind << "\n";
    char hex[17];
    std::snprintf(hex, sizeof hex, "%016llx",
                  static_cast<unsigned long long>(new_schema.spec_hash));
    os << "# spec_hash: " << hex << "\n";
    os << "# spec: " << new_schema.spec_line << "\n";
    os << "# volatile_columns: 1\n";
    os << "cell,name,seconds\n";
    os << "0,a,0.25\n";
  }

  const std::string new_path = temp_store_path("newschema");
  {
    ResultStore store = ResultStore::open(new_path, new_schema);
    store.append({1, {"b", "2.0", "0.5"}});
  }

  // Merge in either order fails and names the layout difference.
  for (const auto& order :
       {std::vector<std::string>{new_path, old_path},
        std::vector<std::string>{old_path, new_path}}) {
    try {
      ResultStore::merge(order);
      FAIL() << "merge of old+new schema must throw";
    } catch (const Error& e) {
      const std::string message = e.what();
      EXPECT_NE(message.find("different record layout"), std::string::npos)
          << message;
      EXPECT_NE(message.find("value"), std::string::npos) << message;
    }
  }

  // Resuming into the old file with the new schema fails the same way.
  try {
    ResultStore::open(old_path, new_schema);
    FAIL() << "open of an old-schema store must throw";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("different record layout"),
              std::string::npos)
        << e.what();
  }

  std::remove(old_path.c_str());
  std::remove(new_path.c_str());
}

}  // namespace
}  // namespace sehc
