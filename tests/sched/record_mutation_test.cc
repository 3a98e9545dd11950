// Mutation sweep over the byte decoders a run reads back off disk: the
// cell and slice records (ResultStore::LoadFromString), the figure-panel
// record (DecodeFigureRecord) and the JSON under both (obs::JsonValue).
//
// Every seed is a real record: a cell and a slice record from a sample-300
// StudyDriver run, and a panel encoded from a real disparity analysis.
// Each is damaged deterministically — single-byte flips and replacements,
// truncations, single-byte insertions — at every position of the footer
// and its neighbourhood and at evenly spaced positions through the body.
// A checksummed record must reject every one of them: CRC-32 catches every
// error burst of 32 bits or fewer, and the footer has one spelling. The
// JSON parser has no checksum to lean on; it must simply never crash, and
// never accept a document cut off before its closing brace. The binary
// runs under the sanitizer CI job, which turns any out-of-bounds read in
// these decoders into a failure.

#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <functional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "common/safe_io.h"
#include "core/disparity.h"
#include "core/results.h"
#include "datasets/generator.h"
#include "exec/study_driver.h"
#include "obs/json_lite.h"
#include "sched/figure_record.h"

namespace fairclean {
namespace sched {
namespace {

struct Seeds {
  std::string cell;
  std::string slice;
  std::string figure;
};

const Seeds& RealRecords() {
  static const Seeds* seeds = [] {
    auto* out = new Seeds();
    Rng data_rng(7);
    GeneratedDataset german =
        MakeDataset("german", 500, &data_rng).ValueOrDie();

    exec::StudyDriverOptions options;
    options.study.sample_size = 300;
    options.study.num_repeats = 2;
    options.study.cv_folds = 3;
    options.study.seed = 99;
    // Per process: ctest runs each case of this binary in its own process,
    // concurrently.
    options.cache_dir = testing::TempDir() + "/record_mutation_" +
                        std::to_string(::getpid());
    std::filesystem::remove_all(options.cache_dir);
    exec::StudyDriver driver(options);
    EXPECT_TRUE(driver.RunOrLoad(german, "missing_values", "log-reg").ok());
    out->cell = ReadFileToString(
                    options.cache_dir + "/" +
                    exec::StudyDriver::CacheKey(options, "german",
                                                "missing_values", "log-reg"))
                    .ValueOrDie();
    out->slice = ReadFileToString(
                     options.cache_dir + "/" +
                     exec::StudyDriver::SliceKey(options, "german",
                                                 "missing_values", "log-reg",
                                                 1))
                     .ValueOrDie();
    std::filesystem::remove_all(options.cache_dir);

    Rng figure_rng(59);
    DisparityOptions disparity;
    disparity.detectors = {"missing_values", "outliers-sd", "outliers-iqr"};
    std::vector<DisparityRow> rows =
        AnalyzeDisparities(german, /*intersectional=*/false, disparity,
                           &figure_rng)
            .ValueOrDie();
    EXPECT_FALSE(rows.empty());
    out->figure = EncodeFigureRecord("german", false, rows);
    return out;
  }();
  return *seeds;
}

// Positions to damage: every byte of the last `tail` bytes (the footer
// and the end of the body) and of the first 16, plus about `spread` evenly
// spaced through the rest.
std::vector<size_t> Positions(size_t size, size_t tail, size_t spread) {
  std::vector<size_t> out;
  const size_t tail_start = size > tail ? size - tail : 0;
  const size_t stride = std::max<size_t>(1, size / spread);
  for (size_t i = 0; i < tail_start; i += i < 16 ? 1 : stride) {
    out.push_back(i);
  }
  for (size_t i = tail_start; i < size; ++i) out.push_back(i);
  return out;
}

// A damaged copy of a record and a label for failure messages.
using MutantFn =
    std::function<void(const std::string& bytes, const std::string& label)>;

// Calls `visit` with every damaged copy of `bytes`: single-byte changes
// (three bit patterns and one seeded replacement per position),
// truncations to every position, single-byte insertions of bytes that
// JSON and the footer give meaning to, and appended bytes. One working
// copy is damaged in place and restored, so a sweep allocates no copy per
// mutant. Returns the number of mutants visited.
size_t ForEachMutant(const std::string& bytes, size_t tail, size_t spread,
                     const MutantFn& visit) {
  size_t count = 0;
  std::string work = bytes;
  Rng rng(0x5eed);
  for (size_t pos : Positions(bytes.size(), tail, spread)) {
    const unsigned char original = static_cast<unsigned char>(bytes[pos]);
    const unsigned char random =
        static_cast<unsigned char>(rng.UniformInt(0, 255));
    for (unsigned char replacement :
         {static_cast<unsigned char>(original ^ 0x01),
          static_cast<unsigned char>(original ^ 0x20),
          static_cast<unsigned char>(original ^ 0x80),
          random == original ? static_cast<unsigned char>(~original)
                             : random}) {
      work[pos] = static_cast<char>(replacement);
      visit(work, "byte " + std::to_string(pos) + " -> " +
                      std::to_string(replacement));
      ++count;
    }
    work[pos] = bytes[pos];
    visit(bytes.substr(0, pos), "truncated to " + std::to_string(pos));
    ++count;
    for (char inserted : {' ', '0', '\n', '}', ','}) {
      work.insert(pos, 1, inserted);
      visit(work, "inserted '" + std::string(1, inserted) + "' at " +
                      std::to_string(pos));
      work.erase(pos, 1);
      ++count;
    }
  }
  for (char appended : {' ', '\n', 'x'}) {
    visit(bytes + appended, "appended '" + std::string(1, appended) + "'");
    ++count;
  }
  return count;
}

// The footer line plus this many bytes before it are damaged at every
// position.
constexpr size_t kTailBeyondFooter = 48;

size_t TailSize(const std::string& record) {
  return record.size() - record.rfind(kChecksumFooterPrefix) +
         kTailBeyondFooter;
}

void ExpectEveryMutantRejected(
    const std::string& record,
    const std::function<Status(const std::string&)>& decode) {
  ASSERT_TRUE(decode(record).ok()) << decode(record).ToString();
  size_t accepted = 0;
  const size_t mutants = ForEachMutant(
      record, TailSize(record), 64,
      [&](const std::string& bytes, const std::string& label) {
        Status status = decode(bytes);
        if (status.ok()) {
          // A few labels are evidence enough; keep the log short.
          if (++accepted <= 5) {
            ADD_FAILURE() << "accepted damaged record: " << label;
          }
        } else {
          EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << label;
        }
      });
  EXPECT_GT(mutants, 1000u);
  EXPECT_EQ(accepted, 0u);
}

Status LoadStore(const std::string& bytes) {
  return ResultStore::LoadFromString(bytes, "mutant").status();
}

TEST(RecordMutationTest, CellRecordRejectsEveryMutation) {
  ExpectEveryMutantRejected(RealRecords().cell, LoadStore);
}

TEST(RecordMutationTest, SliceRecordRejectsEveryMutation) {
  ExpectEveryMutantRejected(RealRecords().slice, LoadStore);
}

TEST(RecordMutationTest, FigureRecordRejectsEveryMutation) {
  ExpectEveryMutantRejected(RealRecords().figure, [](const std::string& b) {
    return DecodeFigureRecord(b, "german", false).status();
  });
}

// The record bodies are JSON; the parser sees every mutant body without a
// checksum in front of it. Parsing builds a value tree, so the sweep is
// thinner than the checksum sweeps to stay fast in a Debug build.
TEST(RecordMutationTest, JsonParserSurvivesEveryMutationOfARecordBody) {
  for (const std::string* record :
       {&RealRecords().slice, &RealRecords().figure}) {
    const std::string body = *VerifyChecksumFooter(*record);
    obs::JsonValue parsed;
    std::string error;
    ASSERT_TRUE(obs::JsonValue::Parse(body, &parsed, &error)) << error;
    ASSERT_TRUE(parsed.is_object());
    const size_t closing_brace = body.rfind('}');
    ForEachMutant(
        body, kTailBeyondFooter, 32,
        [&](const std::string& bytes, const std::string& label) {
          error.clear();
          const bool ok = obs::JsonValue::Parse(bytes, &parsed, &error);
          EXPECT_TRUE(ok || !error.empty()) << label;
          if (bytes.size() <= closing_brace &&
              body.compare(0, bytes.size(), bytes) == 0) {
            EXPECT_FALSE(ok) << "a cut-off document parsed: " << label;
          }
        });
  }
}

}  // namespace
}  // namespace sched
}  // namespace fairclean
