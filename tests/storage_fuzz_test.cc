// Malformed-input harness for the `.bds` binary boundary, extending the
// PR-5 ingestion mutation corpus to the columnar format:
//
//  1. Mutation corpus over valid `.bds` bytes — truncation anywhere
//     (including mid-footer and mid-tail), bit flips in row-group bodies,
//     corrupt footer offsets, bad checksums, version/flag skew, chunk
//     duplication. Every outcome must be ok() or a Status — a crash or
//     sanitizer report kills the test binary, which IS the failure
//     signal. Whatever ReadAll rejects, ValidateBdsFile must flag too.
//
//  2. CSV <-> .bds parity fuzz over the hostile alphabet: the streaming
//     converter must accept exactly the long-CSV files ReadDatasetCsv
//     accepts, and on acceptance the decoded dataset must match value for
//     value, id for id.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "bdi/common/csv.h"
#include "bdi/common/random.h"
#include "bdi/model/dataset.h"
#include "bdi/model/dataset_io.h"
#include "bdi/storage/bds_reader.h"
#include "bdi/storage/bds_writer.h"
#include "bdi/storage/format.h"
#include "numbered.h"

namespace bdi::storage {
namespace {

using testing_util::Numbered;

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

void WriteFileBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

// Same hostile alphabet as the CSV ingestion fuzzer: delimiters, quotes,
// both newline flavors, NUL and ordinary bytes.
std::string RandomField(Rng& rng) {
  static const std::string alphabet(",\"\n\r\0 abz09._-", 14);
  std::string field;
  int64_t len = rng.Bernoulli(0.02) ? rng.UniformInt(300, 2000)
                                    : rng.UniformInt(0, 12);
  for (int64_t c = 0; c < len; ++c) {
    field.push_back(alphabet[static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(alphabet.size()) - 1))]);
  }
  return field;
}

// A well-formed multi-group .bds file to mutate.
std::string ValidBdsBytes(Rng& rng) {
  Dataset dataset;
  SourceId a = dataset.AddSource("s0");
  SourceId b = dataset.AddSource("s1");
  for (int r = 0; r < 30; ++r) {
    std::vector<std::pair<std::string, std::string>> fields;
    int64_t num_fields = rng.UniformInt(1, 4);
    for (int64_t f = 0; f < num_fields; ++f) {
      fields.emplace_back(Numbered("a", f), RandomField(rng));
    }
    dataset.AddRecord(r % 2 == 0 ? a : b, fields);
  }
  BdsWriterOptions options;
  options.records_per_group =
      static_cast<uint32_t>(rng.UniformInt(1, 9));
  options.raw_value_min_len = 200;
  std::string path = TempPath("fuzz_base.bds");
  EXPECT_TRUE(WriteDatasetBds(dataset, path, options).ok());
  std::string bytes = ReadFileBytes(path);
  std::remove(path.c_str());
  return bytes;
}

// One mutation from the binary corpus: truncation, bit flips (body,
// footer, tail), zeroed and duplicated chunks, corrupted footer offsets.
std::string Mutate(const std::string& input, Rng& rng) {
  std::string s = input;
  if (s.empty()) return s;
  switch (rng.UniformInt(0, 6)) {
    case 0:  // truncate anywhere: mid-group, mid-footer, mid-tail
      s.resize(static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(s.size()) - 1)));
      break;
    case 1: {  // bit flip anywhere
      size_t at = static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(s.size()) - 1));
      s[at] = static_cast<char>(
          s[at] ^ (1 << rng.UniformInt(0, 7)));
      break;
    }
    case 2: {  // bit flip biased into the footer / tail region
      size_t window = std::min<size_t>(s.size(), 200);
      size_t at = s.size() - 1 -
                  static_cast<size_t>(rng.UniformInt(
                      0, static_cast<int64_t>(window) - 1));
      s[at] = static_cast<char>(s[at] ^ 0x10);
      break;
    }
    case 3: {  // zero a chunk (kills offsets / lengths / CRCs wholesale)
      size_t at = static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(s.size()) - 1));
      size_t len = static_cast<size_t>(rng.UniformInt(
          1, static_cast<int64_t>(std::min<size_t>(s.size() - at, 32))));
      for (size_t i = 0; i < len; ++i) s[at + i] = '\0';
      break;
    }
    case 4: {  // duplicate a chunk (shifts everything after it)
      size_t from = static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(s.size()) - 1));
      size_t len = static_cast<size_t>(rng.UniformInt(
          1, static_cast<int64_t>(std::min<size_t>(s.size() - from, 64))));
      size_t at = static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(s.size())));
      s.insert(at, s.substr(from, len));
      break;
    }
    case 5: {  // overwrite 8 bytes with a huge little-endian value
      if (s.size() >= 8) {
        size_t at = static_cast<size_t>(
            rng.UniformInt(0, static_cast<int64_t>(s.size()) - 8));
        for (size_t i = 0; i < 8; ++i) s[at + i] = '\xff';
      }
      break;
    }
    default: {  // stack two simpler mutations
      s = Mutate(s, rng);
      if (!s.empty()) s = Mutate(s, rng);
      break;
    }
  }
  return s;
}

TEST(BdsFuzzTest, MutatedFilesNeverCrashAnyReaderPath) {
  Rng rng(9901);
  std::string path = TempPath("fuzz_mutant.bds");
  size_t rejected = 0;
  for (int trial = 0; trial < 500; ++trial) {
    std::string base = ValidBdsBytes(rng);
    std::string mutated = Mutate(base, rng);
    WriteFileBytes(path, mutated);

    // Reaching the end of the loop body is the assertion: every path must
    // terminate with ok() or a Status, never abort — asan/ubsan presets
    // turn latent memory errors here into hard failures.
    ValidationReport report = ValidateBdsFile(path);
    Result<BdsReader> reader = BdsReader::Open(path);
    if (!reader.ok()) {
      ++rejected;
      EXPECT_FALSE(reader.status().message().empty()) << "trial " << trial;
      // Open failures are folded into the validation report.
      EXPECT_FALSE(report.ok()) << "trial " << trial;
      continue;
    }
    Result<Dataset> all = reader->ReadAll();
    Result<Dataset> head = reader->ReadHead(3);
    Result<Dataset> projected = reader->ReadProjected({"a0"});
    if (!all.ok()) {
      ++rejected;
      EXPECT_FALSE(all.status().message().empty()) << "trial " << trial;
      // Whatever the decoder rejects, the checksum validator must flag:
      // every decodable byte of the format is covered by some CRC.
      EXPECT_FALSE(report.ok())
          << "trial " << trial << ": reader said '" << all.status().ToString()
          << "' but validate found nothing";
    } else {
      EXPECT_EQ(all->num_records(), reader->num_records())
          << "trial " << trial;
      // A file whose full decode is clean must also head/project cleanly.
      EXPECT_TRUE(head.ok()) << "trial " << trial << ": " << head.status();
      EXPECT_TRUE(projected.ok())
          << "trial " << trial << ": " << projected.status();
    }
  }
  // The mutator must actually bite: the format has no padding, so nearly
  // every mutation lands in a CRC-covered or bounds-checked region.
  EXPECT_GT(rejected, 100u);
  std::remove(path.c_str());
}

TEST(BdsFuzzTest, ConvertAcceptsExactlyWhatTheCsvReaderAccepts) {
  Rng rng(9902);
  std::string csv_path = TempPath("fuzz_parity.csv");
  std::string bds_path = TempPath("fuzz_parity.bds");
  size_t accepted = 0;
  size_t rejected = 0;
  for (int trial = 0; trial < 400; ++trial) {
    // Mostly-plausible long CSV with hostile fields: valid header, rows
    // of usually 4 fields, record ids usually numeric and grouped —
    // each "usually" flips sometimes so both accept and reject paths run.
    std::string doc = "source,record,attribute,value\n";
    int64_t num_rows = rng.UniformInt(0, 15);
    int record = 0;
    for (int64_t r = 0; r < num_rows; ++r) {
      std::vector<std::string> row;
      if (rng.Bernoulli(0.97)) {
        if (rng.Bernoulli(0.3)) ++record;
        row = {Numbered("s", rng.UniformInt(0, 2)),
               rng.Bernoulli(0.99) ? std::to_string(record)
                                   : RandomField(rng),
               Numbered("a", rng.UniformInt(0, 3)),
               RandomField(rng)};
      } else {
        int64_t n = rng.UniformInt(1, 6);
        for (int64_t f = 0; f < n; ++f) row.push_back(RandomField(rng));
      }
      doc += EncodeCsvRow(row);
      doc += '\n';
    }
    // Occasionally corrupt the raw text so the CSV layer itself rejects.
    if (rng.Bernoulli(0.15)) {
      size_t at = static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(doc.size())));
      doc.insert(at, 1, '"');
    }
    WriteFileBytes(csv_path, doc);

    Result<Dataset> via_csv = ReadDatasetCsv(csv_path);
    BdsWriterOptions options;
    options.records_per_group =
        static_cast<uint32_t>(rng.UniformInt(1, 9));
    Result<ConvertStats> converted =
        ConvertCsvToBds(csv_path, bds_path, options);

    ASSERT_EQ(via_csv.ok(), converted.ok())
        << "trial " << trial << ": csv reader said '"
        << via_csv.status().ToString() << "', converter said '"
        << converted.status().ToString() << "'";
    if (!via_csv.ok()) {
      ++rejected;
      continue;
    }
    ++accepted;
    Result<BdsReader> reader = BdsReader::Open(bds_path);
    ASSERT_TRUE(reader.ok()) << "trial " << trial << ": " << reader.status();
    Result<Dataset> via_bds = reader->ReadAll();
    ASSERT_TRUE(via_bds.ok()) << "trial " << trial << ": "
                              << via_bds.status();
    ASSERT_EQ(via_bds->num_records(), via_csv->num_records())
        << "trial " << trial;
    ASSERT_EQ(via_bds->num_sources(), via_csv->num_sources())
        << "trial " << trial;
    ASSERT_EQ(via_bds->num_attrs(), via_csv->num_attrs())
        << "trial " << trial;
    for (size_t r = 0; r < via_csv->num_records(); ++r) {
      const Record& x = via_csv->record(static_cast<RecordIdx>(r));
      const Record& y = via_bds->record(static_cast<RecordIdx>(r));
      ASSERT_EQ(x.source, y.source) << "trial " << trial << " record " << r;
      ASSERT_EQ(x.fields.size(), y.fields.size())
          << "trial " << trial << " record " << r;
      for (size_t f = 0; f < x.fields.size(); ++f) {
        ASSERT_EQ(x.fields[f].attr, y.fields[f].attr)
            << "trial " << trial << " record " << r;
        ASSERT_EQ(x.fields[f].value, y.fields[f].value)
            << "trial " << trial << " record " << r;
      }
    }
  }
  // Both branches of the parity property must actually run.
  EXPECT_GT(accepted, 50u);
  EXPECT_GT(rejected, 20u);
  std::remove(csv_path.c_str());
  std::remove(bds_path.c_str());
}

TEST(BdsFuzzTest, HostileValueDatasetsRoundTripThroughBds) {
  Rng rng(9903);
  std::string path = TempPath("fuzz_roundtrip.bds");
  for (int trial = 0; trial < 60; ++trial) {
    Dataset dataset;
    int64_t num_sources = rng.UniformInt(1, 4);
    std::vector<SourceId> sources;
    for (int64_t s = 0; s < num_sources; ++s) {
      sources.push_back(dataset.AddSource(Numbered("s", s)));
    }
    int64_t num_records = rng.UniformInt(0, 25);
    for (int64_t r = 0; r < num_records; ++r) {
      std::vector<Field> fields;
      int64_t num_fields = rng.UniformInt(1, 4);
      for (int64_t f = 0; f < num_fields; ++f) {
        fields.push_back(Field{dataset.InternAttr(Numbered("a", f)),
                               RandomField(rng)});
      }
      dataset.AddRecord(sources[static_cast<size_t>(rng.UniformInt(
                            0, num_sources - 1))],
                        std::move(fields));
    }
    BdsWriterOptions options;
    options.records_per_group =
        static_cast<uint32_t>(rng.UniformInt(1, 7));
    options.raw_value_min_len =
        static_cast<size_t>(rng.UniformInt(4, 400));
    ASSERT_TRUE(WriteDatasetBds(dataset, path, options).ok())
        << "trial " << trial;
    Result<BdsReader> reader = BdsReader::Open(path);
    ASSERT_TRUE(reader.ok()) << "trial " << trial << ": " << reader.status();
    Result<Dataset> loaded = reader->ReadAll();
    ASSERT_TRUE(loaded.ok()) << "trial " << trial << ": " << loaded.status();
    ASSERT_EQ(loaded->num_records(), dataset.num_records())
        << "trial " << trial;
    for (size_t r = 0; r < dataset.num_records(); ++r) {
      const Record& x = dataset.record(static_cast<RecordIdx>(r));
      const Record& y = loaded->record(static_cast<RecordIdx>(r));
      ASSERT_EQ(x.fields.size(), y.fields.size())
          << "trial " << trial << " record " << r;
      for (size_t f = 0; f < x.fields.size(); ++f) {
        ASSERT_EQ(x.fields[f].value, y.fields[f].value)
            << "trial " << trial << " record " << r << " field " << f;
      }
    }
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace bdi::storage
