#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <sstream>

#include "src/util/bytes.h"
#include "src/util/packed_strings.h"
#include "src/util/prng.h"
#include "src/util/sorted_set.h"
#include "src/util/status.h"
#include "src/util/strings.h"
#include "src/util/table_writer.h"

namespace lapis {
namespace {

// ---------------- Status / Result ----------------

TEST(Status, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(Status, ErrorCarriesCodeAndMessage) {
  Status s = CorruptDataError("bad magic");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kCorruptData);
  EXPECT_EQ(s.ToString(), "CORRUPT_DATA: bad magic");
}

TEST(Status, AllConstructorsMapCodes) {
  EXPECT_EQ(InvalidArgumentError("x").code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(NotFoundError("x").code(), StatusCode::kNotFound);
  EXPECT_EQ(OutOfRangeError("x").code(), StatusCode::kOutOfRange);
  EXPECT_EQ(FailedPreconditionError("x").code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(UnimplementedError("x").code(), StatusCode::kUnimplemented);
  EXPECT_EQ(InternalError("x").code(), StatusCode::kInternal);
  EXPECT_EQ(IoError("x").code(), StatusCode::kIoError);
}

TEST(Result, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 42);
  EXPECT_EQ(r.value_or(7), 42);
}

TEST(Result, HoldsError) {
  Result<int> r(NotFoundError("missing"));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(r.value_or(7), 7);
}

Result<int> Doubler(Result<int> in) {
  LAPIS_ASSIGN_OR_RETURN(int v, in);
  return v * 2;
}

TEST(Result, AssignOrReturnPropagates) {
  EXPECT_EQ(Doubler(21).value(), 42);
  EXPECT_EQ(Doubler(InternalError("boom")).status().code(),
            StatusCode::kInternal);
}

// ---------------- PRNG ----------------

TEST(Prng, Deterministic) {
  Prng a(123);
  Prng b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
}

TEST(Prng, DifferentSeedsDiffer) {
  Prng a(1);
  Prng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.Next() == b.Next()) {
      ++same;
    }
  }
  EXPECT_LT(same, 2);
}

TEST(Prng, NextBelowInRange) {
  Prng prng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(prng.NextBelow(17), 17u);
  }
  EXPECT_EQ(prng.NextBelow(1), 0u);
}

TEST(Prng, NextInRangeInclusive) {
  Prng prng(7);
  std::set<int64_t> seen;
  for (int i = 0; i < 2000; ++i) {
    int64_t v = prng.NextInRange(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);  // all values hit
}

TEST(Prng, NextDoubleUnitInterval) {
  Prng prng(11);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    double v = prng.NextDouble();
    ASSERT_GE(v, 0.0);
    ASSERT_LT(v, 1.0);
    sum += v;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Prng, NextBoolProbability) {
  Prng prng(13);
  int hits = 0;
  for (int i = 0; i < 10000; ++i) {
    hits += prng.NextBool(0.3) ? 1 : 0;
  }
  EXPECT_NEAR(hits / 10000.0, 0.3, 0.03);
  EXPECT_FALSE(prng.NextBool(0.0));
  EXPECT_TRUE(prng.NextBool(1.0));
}

TEST(Prng, ShufflePreservesElements) {
  Prng prng(17);
  std::vector<int> v = {1, 2, 3, 4, 5, 6, 7, 8};
  auto original = v;
  prng.Shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, original);
}

TEST(Prng, ForkIndependentStreams) {
  Prng parent(99);
  Prng child1 = parent.Fork(1);
  Prng child2 = parent.Fork(2);
  EXPECT_NE(child1.Next(), child2.Next());
}

TEST(Zipf, PmfSumsToOne) {
  ZipfSampler zipf(100, 1.0);
  double total = 0;
  for (uint64_t r = 1; r <= 100; ++r) {
    total += zipf.Pmf(r);
  }
  EXPECT_NEAR(total, 1.0, 1e-9);
  EXPECT_EQ(zipf.Pmf(0), 0.0);
  EXPECT_EQ(zipf.Pmf(101), 0.0);
}

TEST(Zipf, Rank1MostLikely) {
  ZipfSampler zipf(50, 0.8);
  Prng prng(23);
  std::vector<int> counts(51, 0);
  for (int i = 0; i < 20000; ++i) {
    ++counts[zipf.Sample(prng)];
  }
  EXPECT_GT(counts[1], counts[2]);
  EXPECT_GT(counts[2], counts[10]);
}

// ---------------- Bytes ----------------

TEST(Bytes, WriteReadRoundTrip) {
  ByteWriter w;
  w.PutU8(0xab);
  w.PutU16(0x1234);
  w.PutU32(0xdeadbeef);
  w.PutU64(0x0123456789abcdefULL);
  w.PutI32(-42);
  w.PutI64(-1234567890123LL);
  w.PutLengthPrefixedString("hello");

  ByteReader r(w.bytes());
  EXPECT_EQ(r.ReadU8().value(), 0xab);
  EXPECT_EQ(r.ReadU16().value(), 0x1234);
  EXPECT_EQ(r.ReadU32().value(), 0xdeadbeefu);
  EXPECT_EQ(r.ReadU64().value(), 0x0123456789abcdefULL);
  EXPECT_EQ(r.ReadI32().value(), -42);
  EXPECT_EQ(r.ReadI64().value(), -1234567890123LL);
  EXPECT_EQ(r.ReadLengthPrefixedString().value(), "hello");
  EXPECT_TRUE(r.AtEnd());
}

TEST(Bytes, LittleEndianLayout) {
  ByteWriter w;
  w.PutU32(0x01020304);
  EXPECT_EQ(w.bytes()[0], 0x04);
  EXPECT_EQ(w.bytes()[3], 0x01);
}

TEST(Bytes, ReadPastEndFails) {
  std::vector<uint8_t> data = {1, 2};
  ByteReader r(data);
  EXPECT_TRUE(r.ReadU32().status().code() == StatusCode::kOutOfRange);
}

TEST(Bytes, AlignAndPatch) {
  ByteWriter w;
  w.PutU8(1);
  w.AlignTo(8);
  EXPECT_EQ(w.size(), 8u);
  w.PutU32(0);
  w.PatchU32(8, 0xfeedface);
  ByteReader r(w.bytes());
  ASSERT_TRUE(r.Seek(8).ok());
  EXPECT_EQ(r.ReadU32().value(), 0xfeedfaceu);
}

TEST(Bytes, CStringAt) {
  ByteWriter w;
  w.PutCString("abc");
  w.PutCString("def");
  ByteReader r(w.bytes());
  EXPECT_EQ(r.ReadCStringAt(0).value(), "abc");
  EXPECT_EQ(r.ReadCStringAt(4).value(), "def");
  EXPECT_FALSE(r.ReadCStringAt(100).ok());
}

TEST(Bytes, UnterminatedCStringFails) {
  std::vector<uint8_t> data = {'a', 'b', 'c'};
  ByteReader r(data);
  EXPECT_EQ(r.ReadCStringAt(0).status().code(), StatusCode::kCorruptData);
}

// ---------------- Strings ----------------

TEST(Strings, Split) {
  auto parts = Split("a,b,,c", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[2], "");
  EXPECT_EQ(Split("", ',').size(), 1u);
}

TEST(Strings, Join) {
  EXPECT_EQ(Join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(Join({}, ","), "");
}

TEST(Strings, FormatWithCommas) {
  EXPECT_EQ(FormatWithCommas(0), "0");
  EXPECT_EQ(FormatWithCommas(999), "999");
  EXPECT_EQ(FormatWithCommas(1000), "1,000");
  EXPECT_EQ(FormatWithCommas(2935744), "2,935,744");
}

TEST(Strings, FormatPercent) {
  EXPECT_EQ(FormatPercent(0.931), "93.1%");
  EXPECT_EQ(FormatPercent(0.0042, 2), "0.42%");
}

TEST(Strings, IsPseudoFilePath) {
  EXPECT_TRUE(IsPseudoFilePath("/proc/cpuinfo"));
  EXPECT_TRUE(IsPseudoFilePath("/dev/null"));
  EXPECT_TRUE(IsPseudoFilePath("/sys/block"));
  EXPECT_FALSE(IsPseudoFilePath("/etc/passwd"));
  EXPECT_FALSE(IsPseudoFilePath("proc/cpuinfo"));
}

TEST(Strings, CanonicalizePseudoPath) {
  EXPECT_EQ(CanonicalizePseudoPath("/proc/%d/cmdline"), "/proc/%/cmdline");
  EXPECT_EQ(CanonicalizePseudoPath("/proc/%ld/stat"), "/proc/%/stat");
  EXPECT_EQ(CanonicalizePseudoPath("/dev/null"), "/dev/null");
  EXPECT_EQ(CanonicalizePseudoPath("/proc/%s"), "/proc/%");
}

TEST(Strings, IsPrintableAscii) {
  EXPECT_TRUE(IsPrintableAscii("/dev/null v1.0"));
  EXPECT_FALSE(IsPrintableAscii(std::string("\x01\x02")));
}

// ---------------- TableWriter ----------------

TEST(TableWriter, AlignsColumns) {
  TableWriter t({"name", "value"});
  t.AddRow({"x", "1"});
  t.AddRow({"longer-name", "22"});
  std::ostringstream os;
  t.Print(os);
  std::string out = os.str();
  EXPECT_NE(out.find("| name        | value |"), std::string::npos);
  EXPECT_NE(out.find("| longer-name | 22    |"), std::string::npos);
  EXPECT_EQ(t.row_count(), 2u);
}

TEST(TableWriter, TsvOutput) {
  TableWriter t({"a", "b"});
  t.AddRow({"1", "2"});
  std::ostringstream os;
  t.PrintTsv(os);
  EXPECT_EQ(os.str(), "a\tb\n1\t2\n");
}

TEST(TableWriter, ShortRowsArePadded) {
  TableWriter t({"a", "b", "c"});
  t.AddRow({"only"});
  std::ostringstream os;
  t.Print(os);  // must not crash; missing cells render empty
  EXPECT_NE(os.str().find("only"), std::string::npos);
}

// ---------------- SortedSet / PackedStrings ----------------

std::vector<int> Values(const SortedSet<int>& set) {
  return std::vector<int>(set.begin(), set.end());
}

TEST(SortedSet, ContentIsIndependentOfInsertOrder) {
  std::vector<int> values = {5, -3, 9, 0, 5, 12, -3, 7, 1, 9};
  std::set<int> reference(values.begin(), values.end());
  Prng prng(17);
  for (int round = 0; round < 20; ++round) {
    prng.Shuffle(values);
    SortedSet<int> set;
    size_t added = 0;
    for (int v : values) {
      added += set.insert(v) ? 1 : 0;
    }
    EXPECT_EQ(added, reference.size());
    EXPECT_EQ(Values(set), std::vector<int>(reference.begin(), reference.end()));
    EXPECT_EQ(set.size(), reference.size());
    for (int v = -5; v <= 14; ++v) {
      EXPECT_EQ(set.contains(v), reference.contains(v)) << v;
    }
  }
  EXPECT_TRUE(SortedSet<int>().empty());
  EXPECT_EQ(Values(SortedSet<int>{3, 1, 3, 2}), (std::vector<int>{1, 2, 3}));
}

TEST(SortedSet, HintedInsertKeepsOrderWhateverTheHint) {
  SortedSet<int> set;
  for (int v : {1, 2, 2, 4}) {
    set.insert(set.end(), v);  // ascending appends, one duplicate
  }
  EXPECT_EQ(Values(set), (std::vector<int>{1, 2, 4}));
  set.insert(set.end(), 3);    // wrong hint: lands before 4 anyway
  set.insert(set.begin(), 0);  // right hint
  set.insert(set.begin(), 4);  // wrong hint, already present
  set.insert(set.begin() + 1, 9);
  EXPECT_EQ(Values(set), (std::vector<int>{0, 1, 2, 3, 4, 9}));
}

TEST(SortedSet, RangeInsertMergesAndDeduplicates) {
  SortedSet<int> set = {2, 4, 6};
  std::vector<int> unsorted = {7, 4, 1, 7, 3, 2};
  set.insert(unsorted.begin(), unsorted.end());
  EXPECT_EQ(Values(set), (std::vector<int>{1, 2, 3, 4, 6, 7}));
  const SortedSet<int> other = {0, 6, 8};
  set.insert(other.begin(), other.end());
  EXPECT_EQ(Values(set), (std::vector<int>{0, 1, 2, 3, 4, 6, 7, 8}));
  set.insert(other.begin(), other.end());  // all duplicates
  set.insert(unsorted.end(), unsorted.end());  // empty range
  EXPECT_EQ(set.size(), 8u);

  SortedSet<std::string> names;
  std::vector<std::string> batch = {"open", "close", "open", "dup"};
  names.insert(batch.begin(), batch.end());
  names.insert(batch.begin(), batch.end());
  EXPECT_EQ(std::vector<std::string>(names.begin(), names.end()),
            (std::vector<std::string>{"close", "dup", "open"}));
}

TEST(SortedSet, EraseAndEquality) {
  SortedSet<int> set = {1, 2, 3};
  EXPECT_EQ(set.erase(2), 1u);
  EXPECT_EQ(set.erase(2), 0u);
  EXPECT_EQ(set.erase(7), 0u);
  EXPECT_EQ(Values(set), (std::vector<int>{1, 3}));
  EXPECT_TRUE(set == (SortedSet<int>{3, 1}));
  EXPECT_FALSE(set == (SortedSet<int>{1, 2, 3}));
  EXPECT_FALSE(set == SortedSet<int>());
  EXPECT_EQ(set.erase(1) + set.erase(3), 2u);
  EXPECT_TRUE(set.empty());
  EXPECT_TRUE(set == SortedSet<int>());
}

TEST(PackedStrings, StoresEachStringInOrder) {
  std::vector<std::string_view> names = {"", "ioctl", "a", "__libc_start_main"};
  PackedStrings packed(names);
  ASSERT_EQ(packed.size(), names.size());
  for (size_t i = 0; i < names.size(); ++i) {
    EXPECT_EQ(packed[i], names[i]) << i;
  }
  EXPECT_TRUE(packed == PackedStrings(names));
  // Same characters, different split: not equal.
  std::vector<std::string_view> resplit = {"", "ioc", "tla", "__libc_start_main"};
  EXPECT_FALSE(packed == PackedStrings(resplit));
  EXPECT_TRUE(PackedStrings().empty());
}

}  // namespace
}  // namespace lapis
