#include "hc/workload_io.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <iterator>
#include <limits>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "core/options.h"
#include "core/rng.h"
#include "core/table.h"
#include "dag/topo.h"
#include "exp/campaign.h"
#include "exp/sweep.h"
#include "workload/generator.h"
#include "workload_io_reference.h"

namespace sehc {
namespace {

// --- Helpers ---------------------------------------------------------------

/// Bitwise matrix equality (== would equate 0.0 with -0.0).
bool same_bits(const Matrix<double>& a, const Matrix<double>& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::equal(a.flat().begin(), a.flat().end(), b.flat().begin(),
                    [](double x, double y) {
                      return std::bit_cast<std::uint64_t>(x) ==
                             std::bit_cast<std::uint64_t>(y);
                    });
}

bool same_workload(const Workload& a, const Workload& b) {
  if (!(a.graph() == b.graph()) || a.num_machines() != b.num_machines()) {
    return false;
  }
  for (MachineId m = 0; m < a.num_machines(); ++m) {
    if (a.machines()[m].name != b.machines()[m].name ||
        a.machines()[m].arch != b.machines()[m].arch) {
      return false;
    }
  }
  return same_bits(a.exec_matrix(), b.exec_matrix()) &&
         same_bits(a.transfer_matrix(), b.transfer_matrix());
}

/// The reader's parity oracle: both readers throw, or both return
/// bit-identical workloads.
::testing::AssertionResult readers_agree(const std::string& text) {
  std::optional<Workload> got, want;
  std::string got_error, want_error;
  try {
    got = workload_from_string(text);
  } catch (const std::exception& e) {
    got_error = e.what();
  }
  try {
    want = reference::workload_from_string(text);
  } catch (const std::exception& e) {
    want_error = e.what();
  }
  const std::string doc = "\n--- document (first 300 bytes) ---\n" +
                          text.substr(0, 300);
  if (got.has_value() != want.has_value()) {
    return ::testing::AssertionFailure()
           << (got ? "only the reference threw: " + want_error
                   : "only the reader threw: " + got_error)
           << doc;
  }
  if (got && !same_workload(*got, *want)) {
    return ::testing::AssertionFailure() << "workloads differ" << doc;
  }
  return ::testing::AssertionSuccess();
}

/// Finite doubles the writer must format like "%.17g": signed zeros,
/// subnormals, the extremes, integers and plain fractions.
std::vector<double> special_values() {
  return {0.0,
          -0.0,
          std::numeric_limits<double>::denorm_min(),
          2.2250738585072009e-308,  // largest subnormal
          std::numeric_limits<double>::min(),
          1e-300,
          1e300,
          std::numeric_limits<double>::max(),
          1.0,
          42.0,
          1e15,
          1e16,
          1e17,
          9007199254740993.0,
          123456789012345678.0,
          0.1,
          1.0 / 3.0,
          2.5e-5,
          1234.5};
}

/// A chain of `tasks` tasks on `machines` machines whose exec and transfer
/// entries cycle through `values`.
Workload workload_of_values(const std::vector<double>& values,
                            std::size_t tasks, std::size_t machines) {
  TaskGraph g(tasks);
  for (TaskId t = 0; t + 1 < tasks; ++t) g.add_edge(t, t + 1);
  const MachineSet ms(machines);
  Matrix<double> exec(machines, tasks);
  Matrix<double> transfer(ms.num_pairs(), g.num_edges());
  std::size_t i = 0;
  for (double& v : exec.flat()) v = values[i++ % values.size()];
  for (double& v : transfer.flat()) v = values[i++ % values.size()];
  return Workload(std::move(g), ms, std::move(exec), std::move(transfer));
}

Workload edgeless_workload() {
  TaskGraph g(3);
  Matrix<double> exec(2, 3, 1.0);
  Matrix<double> tr(1, 0);
  return Workload(std::move(g), MachineSet(2), std::move(exec),
                  std::move(tr));
}

/// Generated workloads across the generator's class axes.
std::vector<Workload> generated_workloads(std::size_t tasks,
                                          std::size_t machines) {
  std::vector<Workload> out;
  std::uint64_t seed = 1;
  for (Level conn : {Level::kLow, Level::kHigh}) {
    for (Level het : {Level::kLow, Level::kHigh}) {
      for (Consistency cons : {Consistency::kInconsistent,
                               Consistency::kConsistent,
                               Consistency::kSemiConsistent}) {
        WorkloadParams p;
        p.tasks = tasks;
        p.machines = machines;
        p.connectivity = conn;
        p.heterogeneity = het;
        p.consistency = cons;
        p.ccr = conn == Level::kLow ? 0.1 : 1.0;
        p.seed = seed++;
        out.push_back(make_workload(p));
      }
    }
  }
  return out;
}

/// A two-machine, two-task, one-edge document around an exec section.
std::string doc_with_exec(const std::string& exec_body,
                          const std::string& transfer_body = "7\n") {
  return "sehc-workload v1\nmachines 2\narch 1 SIMD\nsehc-dag v1\ntasks 2\n"
         "edge 0 1\nend-dag\nexec\n" +
         exec_body + "transfer\n" + transfer_body;
}

// --- Round trips -------------------------------------------------------------

TEST(WorkloadIo, RoundTripFigure1) {
  const Workload w = figure1_workload();
  const Workload back = workload_from_string(workload_to_string(w));
  EXPECT_EQ(w.graph(), back.graph());
  EXPECT_EQ(w.exec_matrix(), back.exec_matrix());
  EXPECT_EQ(w.transfer_matrix(), back.transfer_matrix());
  EXPECT_EQ(back.machines()[1].arch, MachineArch::kSimd);
}

TEST(WorkloadIo, RoundTripGenerated) {
  WorkloadParams p;
  p.tasks = 40;
  p.machines = 6;
  p.seed = 77;
  const Workload w = make_workload(p);
  const Workload back = workload_from_string(workload_to_string(w));
  EXPECT_EQ(w.graph(), back.graph());
  EXPECT_EQ(w.exec_matrix(), back.exec_matrix());
  EXPECT_EQ(w.transfer_matrix(), back.transfer_matrix());
}

TEST(WorkloadIo, RoundTripEdgelessGraph) {
  const Workload w = edgeless_workload();
  const Workload back = workload_from_string(workload_to_string(w));
  EXPECT_EQ(back.num_items(), 0u);
  EXPECT_EQ(back.num_tasks(), 3u);
}

TEST(WorkloadIo, MissingHeaderThrows) {
  EXPECT_THROW(workload_from_string("machines 2\n"), Error);
}

TEST(WorkloadIo, TruncatedExecThrows) {
  const std::string text =
      "sehc-workload v1\n"
      "machines 2\n"
      "sehc-dag v1\n"
      "tasks 2\n"
      "edge 0 1\n"
      "end-dag\n"
      "exec\n"
      "1 2\n";  // missing second row
  EXPECT_THROW(workload_from_string(text), Error);
}

TEST(WorkloadIo, MissingTransferThrows) {
  const std::string text =
      "sehc-workload v1\n"
      "machines 2\n"
      "sehc-dag v1\n"
      "tasks 2\n"
      "edge 0 1\n"
      "end-dag\n"
      "exec\n"
      "1 2\n"
      "3 4\n";
  EXPECT_THROW(workload_from_string(text), Error);
}

TEST(WorkloadIo, ReaderKeepsTheGraphsTopologicalOrder) {
  for (const Workload& w : generated_workloads(30, 4)) {
    const Workload back = workload_from_string(workload_to_string(w));
    const std::vector<TaskId> want = *topological_order(back.graph());
    EXPECT_TRUE(std::equal(back.topo_order().begin(), back.topo_order().end(),
                           want.begin(), want.end()));
  }
}

TEST(WorkloadIo, StreamFunctionsMatchStringFunctions) {
  const Workload w = figure1_workload();
  std::ostringstream os;
  write_workload(os, w);
  EXPECT_EQ(os.str(), workload_to_string(w));
  std::istringstream is(os.str());
  EXPECT_TRUE(same_workload(read_workload(is), w));
}

// --- Writer: byte-identical to the iostream writer ---------------------------

TEST(WorkloadIoDifferential, WriterMatchesIostreamOnGeneratedAndFixedWorkloads) {
  std::vector<Workload> corpus = generated_workloads(30, 5);
  corpus.push_back(make_workload(WorkloadParams{}));  // paper scale, k=100 l=20
  corpus.push_back(figure1_workload());
  corpus.push_back(edgeless_workload());
  for (const Workload& w : corpus) {
    EXPECT_EQ(workload_to_string(w), reference::workload_to_string(w));
  }
}

TEST(WorkloadIoDifferential, WriterMatchesIostreamOnSpecialValues) {
  const Workload w = workload_of_values(special_values(), 7, 4);
  const std::string text = workload_to_string(w);
  EXPECT_EQ(text, reference::workload_to_string(w));
  EXPECT_NE(text.find(" -0 "), std::string::npos);
  EXPECT_NE(text.find("4.9406564584124654e-324"), std::string::npos);
  EXPECT_TRUE(same_workload(workload_from_string(text), w));
}

TEST(WorkloadIoDifferential, WriterMatchesIostreamOnRandomBits) {
  // 10 x 10,000 finite non-negative doubles drawn from raw bits, so every
  // exponent (subnormals included) is covered, and both readers must read
  // them back bit for bit.
  Rng rng(4242);
  for (int round = 0; round < 10; ++round) {
    std::vector<double> values;
    while (values.size() < 10000) {
      const double d = std::fabs(std::bit_cast<double>(rng.bits()));
      if (std::isfinite(d)) values.push_back(d);
    }
    TaskGraph g(200);
    Matrix<double> exec(50, 200);
    std::copy(values.begin(), values.end(), exec.flat().begin());
    const Workload w(std::move(g), MachineSet(50), std::move(exec),
                     Matrix<double>(MachineSet(50).num_pairs(), 0));
    const std::string text = workload_to_string(w);
    ASSERT_EQ(text, reference::workload_to_string(w)) << "round " << round;
    EXPECT_TRUE(same_workload(workload_from_string(text), w));
    EXPECT_TRUE(readers_agree(text));
  }
}

// --- Writer: the integer "%.17g" path -----------------------------------------

/// Doubles at the edges of write_g17's integer path, then three outside it.
std::vector<double> writer_edge_values() {
  std::vector<double> values;
  // (2j+1)/4 in [2^50, 2^51): sixteen integer digits and a fraction of .25
  // or .75, an exact tie at the 17th digit that rounds half-even.
  for (const double base : {0x1p50, 1234567890123456.0, 0x1p51 - 2}) {
    for (const double frac : {0.25, 0.75, 1.25, 1.75}) {
      values.push_back(base + frac);
    }
  }
  // The powers of ten 1 .. 1e17 and the largest double below each of
  // 1e1 .. 1e17.
  double pow10 = 1.0;
  for (int k = 0; k <= 17; ++k, pow10 *= 10) {
    values.push_back(pow10);
    if (k > 0) values.push_back(std::nextafter(pow10, 0.0));
  }
  // 2^53 and its neighbours.
  for (const double v : {0x1p53 - 1, 0x1p53, 0x1p53 + 2}) values.push_back(v);
  // Outside the integer path.
  for (const double v : {-0.0, 0.1, 4.9406564584124654e-324}) {
    values.push_back(v);
  }
  return values;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  return std::string(std::istreambuf_iterator<char>(in), {});
}

TEST(WorkloadIoGolden, WriterEdgeCasesMatchTheCommittedBytes) {
  // The golden pins the wire format against both oracles: the writer and
  // the iostream reference must each still produce it byte for byte. It
  // was written by reference::workload_to_string for this workload.
  const Workload w = workload_of_values(writer_edge_values(), 14, 4);
  const std::string golden =
      read_file(std::string(SEHC_GOLDEN_DIR) + "/workload_writer_edges.txt");
  EXPECT_EQ(workload_to_string(w), golden);
  EXPECT_EQ(reference::workload_to_string(w), golden);
  EXPECT_TRUE(same_workload(workload_from_string(golden), w));
}

TEST(WorkloadIoDifferential, WriterMatchesToCharsOnTheIntegerPathDensely) {
  // Random mantissas at every binary exponent of the integer path,
  // 1 <= v < 1e17, in turn.
  const std::size_t count = scaled(1'000'000, 57'000);
  Rng rng(2501);
  std::vector<double> values(count);
  for (std::size_t i = 0; i < count; ++i) {
    const std::uint64_t biased = 1023 + i % 57;
    do {
      values[i] = std::bit_cast<double>(biased << 52 | rng.bits() >> 12);
    } while (values[i] >= 1e17);
  }
  std::size_t mismatches = 0;
  for (const double v : values) {
    char got[kG17MaxChars], want[kG17MaxChars];
    const char* end = write_g17_integer(got, v);
    const char* want_end =
        std::to_chars(want, want + sizeof want, v, std::chars_format::general,
                      17)
            .ptr;
    if (end == nullptr ||
        std::string_view(got, end) != std::string_view(want, want_end)) {
      if (++mismatches <= 5) {
        ADD_FAILURE() << "to_chars writes " << std::string_view(want, want_end)
                      << " for bits " << std::bit_cast<std::uint64_t>(v);
      }
    }
  }
  EXPECT_EQ(mismatches, 0u);
  // The same values as documents, against the iostream writer, read back.
  constexpr std::size_t kMachines = 50, kTasks = 1000;
  for (std::size_t begin = 0; begin < count; begin += kMachines * kTasks) {
    const std::size_t n = std::min(kMachines * kTasks, count - begin);
    const std::size_t tasks = (n + kMachines - 1) / kMachines;
    Matrix<double> exec(kMachines, tasks, 1.0);
    std::copy_n(values.begin() + static_cast<std::ptrdiff_t>(begin), n,
                exec.flat().begin());
    const Workload w(TaskGraph(tasks), MachineSet(kMachines), std::move(exec),
                     Matrix<double>(MachineSet(kMachines).num_pairs(), 0));
    const std::string text = workload_to_string(w);
    ASSERT_EQ(text, reference::workload_to_string(w)) << "from " << begin;
    EXPECT_TRUE(same_workload(workload_from_string(text), w));
  }
}

TEST(WorkloadIoFastPath, EveryScaledClassGridTimeTakesTheIntegerPath) {
  // Every exec and transfer time of every instance the scaled-class-grid
  // campaign generates, seeded the way its cells are.
  const CampaignSpec spec = make_builtin_campaign("scaled-class-grid");
  ASSERT_EQ(spec.classes.size(), 27u);
  std::size_t checked = 0, outside = 0;
  for (std::size_t c = 0; c < spec.classes.size(); ++c) {
    for (std::size_t rep = 0; rep < spec.repetitions; ++rep) {
      WorkloadParams params = spec.classes[c].params;
      params.seed = derive_seed(spec.base_seed, {c, rep});
      const Workload w = make_workload(params);
      for (const Matrix<double>* m : {&w.exec_matrix(), &w.transfer_matrix()}) {
        for (const double v : m->flat()) {
          char buf[kG17MaxChars];
          ++checked;
          if (write_g17_integer(buf, v) == nullptr) {
            if (++outside <= 5) ADD_FAILURE() << "class " << c << ": " << v;
          }
        }
      }
    }
  }
  EXPECT_EQ(outside, 0u);
  EXPECT_GT(checked, 27u * spec.repetitions * 30'000);
}

// --- Reader: the iostream reader's token rules -------------------------------

TEST(WorkloadIoDifferential, ReaderFollowsIostreamTokenRules) {
  const std::string zeros(400, '0');
  const std::vector<std::string> tokens = {
      // accepted by `is >> double`
      "+1.5", "-0", "1E5", "1.e5", ".5", "5.", "00012", "1e-5", "4e-320",
      "3e-324", "1" + zeros.substr(0, 300),
      // underflow: istream reads a zero of the token's sign
      "1e-400", "-1e-400", "2e-324", "0." + zeros + "1",
      "1e-99999999999999999999",
      // rejected by `is >> double`
      "inf", "-inf", "nan", "1e400", "1" + zeros, "1e99999999999999999999",
      "1e", "1e+", "1e-", ".", "+", "-", "+-1", "-.e5", "e5", "x",
      "1" + zeros + "e", "0." + zeros + "1e-",
      // stop mid-token: the rest is the next token
      "1.5x", "0x1p3", "1.5.5", "1e5.5", "1e5e3", "1-0", "1+2",
      // a plain number followed by a byte that continues the token: the
      // reader's one-scan path must leave each to the careful scan
      "12.", "12..5", "12.5.", "12e3", "12.5e3", "12E3", "12.5E-3", "12e+3",
      "12e", "12E", "12e+", "12+", "12-", "12+3", "12-3", "12.5+1",
      "12.5-1", "0.5e", "7.E2",
      // mantissas longer than 19 digits, halfway cases decided past them
      "12345678901234567890123", "1234567890.12345678901234567890",
      "0.1000000000000000055511151231257827021181583404541015625",
      "9007199254740993", "9007199254740993.0000000000000000000001",
      "9007199254740992.9999999999999999999999",
      // leading zeros
      "000.5", "0000000000000000000000001.5", "00000000000000000000000000",
      "0.", "0.0000",
      // overflow and underflow without an exponent
      "1" + zeros.substr(0, 308), "2" + zeros.substr(0, 308),
      "17976931348623157" + zeros.substr(0, 292),
      "17976931348623159" + zeros.substr(0, 292),
      "0." + zeros.substr(0, 322) + "5", "0." + zeros.substr(0, 323) + "2",
      "0." + zeros.substr(0, 307) + "22250738585072011"};
  for (const std::string& tok : tokens) {
    EXPECT_TRUE(readers_agree(doc_with_exec(tok + " 2\n3 4\n"))) << tok;
    EXPECT_TRUE(readers_agree(doc_with_exec("1 2\n3 " + tok + "\n"))) << tok;
    EXPECT_TRUE(readers_agree(doc_with_exec("1 2\n3 4\n", tok + "\n")))
        << tok;
    // The document ends with the token's last byte.
    EXPECT_TRUE(readers_agree(doc_with_exec("1 2\n3 4\n", tok))) << tok;
  }
}

TEST(WorkloadIoDifferential, ReaderKeepsValuesAndSignsOfSpecialTokens) {
  const Workload w = workload_from_string(
      doc_with_exec("+1.5 -1e-400\n1e-400 3e-324\n"));
  EXPECT_EQ(w.exec(0, 0), 1.5);
  EXPECT_EQ(w.exec(0, 1), 0.0);
  EXPECT_TRUE(std::signbit(w.exec(0, 1)));
  EXPECT_FALSE(std::signbit(w.exec(1, 0)));
  EXPECT_EQ(w.exec(1, 1), std::numeric_limits<double>::denorm_min());
  EXPECT_THROW(workload_from_string(doc_with_exec("inf 2\n3 4\n")), Error);
  EXPECT_THROW(workload_from_string(doc_with_exec("1e 2\n3 4\n")), Error);
}

TEST(WorkloadIoDifferential, ReaderFollowsIostreamLayoutRules) {
  const std::vector<std::string> docs = {
      // numbers may sit anywhere in their section's whitespace
      doc_with_exec("1\n2\n3\n4\n"), doc_with_exec("1 2 3 4\n"),
      doc_with_exec("\t1\v2\f3\r\n 4\r\n"), doc_with_exec("\n\n1 2\n3 4\n"),
      // the rest of the last number's line is dropped, nothing more
      doc_with_exec("1 2\n3 4 junk\n"), doc_with_exec("1 2\n3 4\njunk\n"),
      doc_with_exec("1 2\n3 4\n\n"), doc_with_exec("1 2\n3 4"),
      doc_with_exec("1 2\n3 4\n", "7 trailing\nmore lines\n"),
      doc_with_exec("1 2\n3 4\n", "7"), doc_with_exec("1 2\n3 4\n", ""),
      // packed: two bytes a number, one for the last
      doc_with_exec("1-0-0-0\n", "0"), doc_with_exec("1 2\n3 4\n", "7 8"),
      // header, arch and DAG lines
      "sehc-workload v1\nmachines +2 junk\nsehc-dag v1\ntasks 1\nend-dag\n"
      "exec\n1 2\n",
      "sehc-workload v1\nmachines 2\narch 0 SIMD\narch 0 vector\narch 1SIMD\n"
      "sehc-dag v1\ntasks 1\nend-dag\nexec\n1 2\n",
      "sehc-workload v1\nmachines 2\narch -0 SIMD extra\nsehc-dag v1\n"
      "tasks 1\nend-dag\nexec\n1 2\n",
      "sehc-workload v1\nmachines 2\nsehc-dag v1\narch 0 SIMD\ntasks 1\n"
      "end-dag\nexec\n1 2\n",
      "sehc-workload v1\nmachines 2\nsehc-dag v1\n# comment\n\ntasks 1\n"
      "end-dag\nexec\n1 2\n",
      "sehc-workload v1\nmachines 2\nend-dag\nexec\n1 2\n",
      "sehc-workload v1\nmachines 2\nsehc-dag v1\ntasks 1\nexec\n1 2\n",
      "sehc-workload v1\r\nmachines 2\nsehc-dag v1\ntasks 1\nend-dag\n"
      "exec\n1 2\n",
      "sehc-workload v1\nmachines 0\nsehc-dag v1\ntasks 1\nend-dag\nexec\n",
      "sehc-workload v1\nmachines -1\nsehc-dag v1\ntasks 1\nend-dag\nexec\n1\n",
      "sehc-workload v1\nmachines 1\nsehc-dag v1\ntasks 0\nend-dag\nexec\n\n",
      "sehc-workload v1\nmachines 1\nsehc-dag v1\ntasks 2\nedge 0 1\nend-dag\n"
      "exec\n1 2\ntransfer\n",
      "sehc-workload v1\nmachines 1\nsehc-dag v1\ntasks 2\nedge 0 1\nend-dag\n"
      "exec\n1 2\ntransfer\nanything\n",
      "sehc-workload v1\nmachines 1\nsehc-dag v1\ntasks 2\nedge 0 1\nend-dag\n"
      "exec\n1 2\n",
      "", "sehc-workload v1", "sehc-workload v1\n"};
  for (const std::string& doc : docs) EXPECT_TRUE(readers_agree(doc));
}

// --- Reader: seeded mutation loop against the reference ----------------------

TEST(WorkloadIoMutation, ReaderAgreesWithIostreamOnMutatedDocuments) {
  std::vector<std::string> corpus;
  for (const Workload& w : generated_workloads(8, 3)) {
    corpus.push_back(workload_to_string(w));
  }
  corpus.push_back(workload_to_string(figure1_workload()));
  corpus.push_back(workload_to_string(edgeless_workload()));
  corpus.push_back(workload_to_string(workload_of_values(special_values(), 4, 3)));
  corpus.push_back(doc_with_exec("+1.5 2e0\n.5 4.\n", "1e-400 trailing\n"));

  // Bytes the formats give meaning to, plus any byte at all.
  const std::string alphabet = "0123456789.eE+- \t\n\r#xinfadgS";
  Rng rng(20011);
  auto random_byte = [&] {
    return rng.chance(0.8) ? alphabet[rng.index(alphabet.size())]
                           : static_cast<char>(rng.below(256));
  };
  std::size_t accepted = 0;
  for (int i = 0; i < 4000; ++i) {
    std::string doc = corpus[rng.index(corpus.size())];
    const std::size_t edits = 1 + rng.index(3);
    for (std::size_t e = 0; e < edits && !doc.empty(); ++e) {
      const std::size_t at = rng.index(doc.size());
      switch (rng.index(4)) {
        case 0:
          doc[at] = random_byte();
          break;
        case 1:
          doc.insert(doc.begin() + static_cast<std::ptrdiff_t>(at),
                     random_byte());
          break;
        case 2:
          doc.erase(at, 1 + rng.index(3));
          break;
        default:
          doc.resize(at);
          break;
      }
    }
    const ::testing::AssertionResult agree = readers_agree(doc);
    ASSERT_TRUE(agree) << "mutation " << i;
    try {
      workload_from_string(doc);
      ++accepted;
    } catch (const std::exception&) {
    }
  }
  // The oracle must see both outcomes often, or it tests little.
  EXPECT_GT(accepted, 400u);
  EXPECT_LT(accepted, 3600u);
}

// --- Reader: declared sizes are checked against the document -----------------

TEST(WorkloadIoLimits, ShortDocumentDeclaringManyTasksFailsSizeCheck) {
  const std::string doc =
      "sehc-workload v1\nmachines 1\nsehc-dag v1\ntasks 40000\nend-dag\n"
      "exec\n1\n";
  ASSERT_EQ(doc.size(), 67u);
  try {
    workload_from_string(doc);
    FAIL() << "accepted";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("size check"), std::string::npos)
        << e.what();
  }
}

TEST(WorkloadIoLimits, ShortDocumentDeclaringManyMachinesFailsSizeCheck) {
  const std::string doc =
      "sehc-workload v1\nmachines 20000000\nsehc-dag v1\ntasks 1\nend-dag\n"
      "exec\n1\n";
  ASSERT_EQ(doc.size(), 70u);
  try {
    workload_from_string(doc);
    FAIL() << "accepted";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("size check"), std::string::npos)
        << e.what();
  }
}

TEST(WorkloadIoLimits, TruncatedTransferOfAHugeMatrixFailsSizeCheck) {
  // l=300 machines, a complete DAG on 46 tasks (1,035 edges), a full exec
  // matrix and a truncated transfer section: l(l-1)/2 x p = 46.4M numbers
  // declared in about 38 KB.
  std::string doc = "sehc-workload v1\nmachines 300\nsehc-dag v1\ntasks 46\n";
  for (int a = 0; a < 46; ++a) {
    for (int b = a + 1; b < 46; ++b) {
      doc += "edge " + std::to_string(a) + " " + std::to_string(b) + "\n";
    }
  }
  doc += "end-dag\nexec\n";
  for (int m = 0; m < 300; ++m) {
    for (int t = 0; t < 46; ++t) doc += t ? " 1" : "1";
    doc += '\n';
  }
  doc += "transfer\n1 2 3\n";
  EXPECT_GT(doc.size(), 38000u);
  EXPECT_LT(doc.size(), 40000u);
  try {
    workload_from_string(doc);
    FAIL() << "accepted";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("size check"), std::string::npos)
        << e.what();
  }
}

TEST(WorkloadIoLimits, ExecAndTransferShareTheDocumentsBytes) {
  // Two machines, 1,035 edges: the transfer section alone would fit in the
  // bytes after 'end-dag', but not once the exec matrix has taken its own.
  std::string doc = "sehc-workload v1\nmachines 2\nsehc-dag v1\ntasks 46\n";
  for (int a = 0; a < 46; ++a) {
    for (int b = a + 1; b < 46; ++b) {
      doc += "edge " + std::to_string(a) + " " + std::to_string(b) + "\n";
    }
  }
  doc += "end-dag\nexec\n";
  for (int i = 0; i < 92; ++i) doc += "1 ";
  doc += "\ntransfer\n";
  for (int i = 0; i < 1000; ++i) doc += "1 ";  // 1,035 declared
  try {
    workload_from_string(doc);
    FAIL() << "accepted";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("size check"), std::string::npos)
        << e.what();
  }
}

TEST(WorkloadIoLimits, DensestDocumentsPassTheSizeChecks) {
  // One byte a number plus one separator, the last one without: the size
  // checks must never reject a document the iostream reader accepts.
  std::string signed_zeros = "0";  // 0, then -0 -0 ...: "-" separates
  for (int i = 1; i < 1000; ++i) signed_zeros += "-0";
  const std::string many_machines =
      "sehc-workload v1\nmachines 1000\nsehc-dag v1\ntasks 1\nend-dag\n"
      "exec\n" + signed_zeros;
  std::string packed_exec(1999, '0');
  for (std::size_t i = 1; i < packed_exec.size(); i += 2) packed_exec[i] = ' ';
  const std::string many_tasks =
      "sehc-workload v1\nmachines 1\nsehc-dag v1\ntasks 1000\nend-dag\n"
      "exec\n" + packed_exec;
  // 5 machines (10 pairs), a 100-task chain: 500 exec, 990 transfer.
  std::string chain = "sehc-workload v1\nmachines 5\nsehc-dag v1\ntasks 100\n";
  for (int t = 0; t + 1 < 100; ++t) {
    chain += "edge " + std::to_string(t) + " " + std::to_string(t + 1) + "\n";
  }
  chain += "end-dag\nexec\n" + packed_exec.substr(0, 999) + "\ntransfer\n" +
           packed_exec.substr(0, 1979);
  for (const std::string& doc : {many_machines, many_tasks, chain}) {
    EXPECT_NO_THROW(workload_from_string(doc)) << doc.substr(0, 80);
    EXPECT_TRUE(readers_agree(doc));
  }
}

TEST(WorkloadIoLimits, ManyArchLinesParseWithEveryTagSet) {
  const MachineArch archs[] = {MachineArch::kSimd, MachineArch::kVector,
                               MachineArch::kDataflow,
                               MachineArch::kSpecialPurpose};
  const std::size_t l = 8000;
  std::string doc = "sehc-workload v1\nmachines " + std::to_string(l) + "\n";
  for (std::size_t m = 0; m < l; ++m) {
    doc += "arch " + std::to_string(m) + " " + to_string(archs[m % 4]) + "\n";
  }
  doc += "sehc-dag v1\ntasks 1\nend-dag\nexec\n";
  for (std::size_t m = 0; m < l; ++m) doc += "1\n";
  const Workload w = workload_from_string(doc);
  ASSERT_EQ(w.num_machines(), l);
  for (MachineId m = 0; m < l; ++m) {
    ASSERT_EQ(w.machines()[m].arch, archs[m % 4]) << "machine " << m;
    ASSERT_EQ(w.machines()[m].name, "m" + std::to_string(m));
  }
}

}  // namespace
}  // namespace sehc
