// Deterministic malformed-input harness for the ingestion boundary.
//
// Two families of checks, both generator-driven and fully seeded:
//
//  1. Round-trip property: random rows drawn from a hostile alphabet
//     (commas, quotes, newlines, CR, NUL, long runs) must survive
//     EncodeCsvRow -> ParseCsv / ParseCsvRow bitwise, including fields
//     spanning newlines.
//
//  2. Mutation corpus: valid corpus/labels files put through random
//     truncation, stray-quote injection, NUL/CR-LF injection, field
//     duplication, over-long fields and bad numerics. Every parser and
//     reader must return (ok or a Status) — never crash or abort. A
//     gtest process dying here IS the failure signal; under the asan /
//     tsan presets the same corpus also shakes out memory errors.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "bdi/common/csv.h"
#include "bdi/common/random.h"
#include "bdi/model/dataset_io.h"
#include "bdi/model/validate.h"
#include "bdi/serve/protocol.h"
#include "bdi/serve/wire.h"
#include "numbered.h"

namespace bdi {
namespace {

using testing_util::Numbered;

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

// Hostile but printable-ish alphabet: delimiters, quotes, both newline
// flavors, NUL, spaces and ordinary characters.
std::string RandomField(Rng& rng) {
  // Explicit length keeps the embedded NUL.
  static const std::string alphabet(",\"\n\r\0 abz09._-", 14);
  std::string field;
  // Mostly short fields; occasionally a very long one (boundary sizes).
  int64_t len = rng.Bernoulli(0.02) ? rng.UniformInt(2000, 6000)
                                    : rng.UniformInt(0, 12);
  for (int64_t c = 0; c < len; ++c) {
    field.push_back(alphabet[static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(alphabet.size()) - 1))]);
  }
  return field;
}

TEST(IngestionFuzzTest, TenThousandRandomRowsRoundTripBitwise) {
  Rng rng(8801);
  for (int trial = 0; trial < 10000; ++trial) {
    std::vector<std::string> fields;
    int64_t num_fields = rng.UniformInt(1, 6);
    for (int64_t f = 0; f < num_fields; ++f) {
      fields.push_back(RandomField(rng));
    }
    std::string encoded = EncodeCsvRow(fields);
    // Single-row parse.
    Result<std::vector<std::string>> row = ParseCsvRow(encoded);
    ASSERT_TRUE(row.ok()) << "trial " << trial << ": " << row.status();
    EXPECT_EQ(row.value(), fields) << "trial " << trial;
    // Whole-document parse of the same row (exercises the stateful
    // newline handling the line-splitting parser used to get wrong).
    Result<std::vector<std::vector<std::string>>> doc =
        ParseCsv(encoded + "\n");
    ASSERT_TRUE(doc.ok()) << "trial " << trial << ": " << doc.status();
    ASSERT_EQ(doc.value().size(), 1u) << "trial " << trial;
    EXPECT_EQ(doc.value()[0], fields) << "trial " << trial;
  }
}

TEST(IngestionFuzzTest, RandomDocumentsRoundTripBitwise) {
  Rng rng(8802);
  for (int trial = 0; trial < 300; ++trial) {
    std::vector<std::vector<std::string>> rows;
    int64_t num_rows = rng.UniformInt(1, 20);
    for (int64_t r = 0; r < num_rows; ++r) {
      std::vector<std::string> fields;
      int64_t num_fields = rng.UniformInt(2, 5);
      for (int64_t f = 0; f < num_fields; ++f) {
        fields.push_back(RandomField(rng));
      }
      rows.push_back(std::move(fields));
    }
    std::string encoded;
    for (const auto& row : rows) {
      encoded += EncodeCsvRow(row);
      encoded += '\n';
    }
    Result<std::vector<std::vector<std::string>>> parsed =
        ParseCsv(encoded);
    ASSERT_TRUE(parsed.ok()) << "trial " << trial << ": "
                             << parsed.status();
    EXPECT_EQ(parsed.value(), rows) << "trial " << trial;
  }
}

// ---------------------------------------------------------------------------
// Mutation corpus: no hostile bytes may crash any parser or reader.

std::string ValidCorpus() {
  std::vector<std::vector<std::string>> rows;
  rows.push_back({"source", "record", "attribute", "value"});
  for (int r = 0; r < 40; ++r) {
    std::string source = Numbered("s", r % 4) + ".com";
    for (int f = 0; f < 3; ++f) {
      rows.push_back({source, std::to_string(r),
                      Numbered("attr", f),
                      Numbered("value ", r) + "," + std::to_string(f)});
    }
  }
  std::string out;
  for (const auto& row : rows) {
    out += EncodeCsvRow(row);
    out += '\n';
  }
  return out;
}

std::string ValidLabels() {
  std::string out = "record,entity\n";
  for (int r = 0; r < 40; ++r) {
    out += std::to_string(r);
    out += ',';
    out += std::to_string(r / 2);
    out += '\n';
  }
  return out;
}

// One random mutation drawn from the malformed-input corpus of the issue:
// truncation, stray quotes, NUL / CR-LF injection, over-long fields, bad
// numerics, byte swaps and duplicated chunks.
std::string Mutate(const std::string& input, Rng& rng) {
  std::string s = input;
  switch (rng.UniformInt(0, 7)) {
    case 0:  // truncate anywhere (possibly mid-quote, mid-CRLF)
      s.resize(static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(s.size()))));
      break;
    case 1: {  // stray quote
      size_t at = static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(s.size())));
      s.insert(at, "\"");
      break;
    }
    case 2: {  // NUL injection
      size_t at = static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(s.size())));
      s.insert(at, 1, '\0');
      break;
    }
    case 3: {  // CR-LF / lone-CR injection
      size_t at = static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(s.size())));
      s.insert(at, rng.Bernoulli(0.5) ? "\r\n" : "\r");
      break;
    }
    case 4: {  // over-long field
      size_t at = static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(s.size())));
      s.insert(at, std::string(static_cast<size_t>(
                                   rng.UniformInt(1000, 8000)),
                               'A'));
      break;
    }
    case 5: {  // bad numerics where ids are expected
      size_t at = s.find(',');
      if (at != std::string::npos && at + 1 < s.size()) {
        s.replace(at + 1, 1, rng.Bernoulli(0.5) ? "-" : "9e99x");
      }
      break;
    }
    case 6: {  // random byte swap
      if (s.size() >= 2) {
        size_t a = static_cast<size_t>(
            rng.UniformInt(0, static_cast<int64_t>(s.size()) - 1));
        size_t b = static_cast<size_t>(
            rng.UniformInt(0, static_cast<int64_t>(s.size()) - 1));
        std::swap(s[a], s[b]);
      }
      break;
    }
    default: {  // duplicate a random chunk (re-opened record groups etc.)
      if (!s.empty()) {
        size_t from = static_cast<size_t>(
            rng.UniformInt(0, static_cast<int64_t>(s.size()) - 1));
        size_t len = static_cast<size_t>(rng.UniformInt(
            1, static_cast<int64_t>(std::min<size_t>(s.size() - from, 80))));
        size_t at = static_cast<size_t>(
            rng.UniformInt(0, static_cast<int64_t>(s.size())));
        s.insert(at, s.substr(from, len));
      }
      break;
    }
  }
  return s;
}

void WriteFile(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary);
  out.write(content.data(),
            static_cast<std::streamsize>(content.size()));
}

TEST(IngestionFuzzTest, MutatedCorpusNeverCrashesAnyReader) {
  Rng rng(8803);
  const std::string base = ValidCorpus();
  std::string path = TempPath("fuzz_corpus.csv");
  size_t rejected = 0;
  for (int trial = 0; trial < 400; ++trial) {
    std::string mutated = Mutate(base, rng);
    // Extra rounds sometimes stack mutations.
    if (rng.Bernoulli(0.5)) mutated = Mutate(mutated, rng);
    WriteFile(path, mutated);

    // The raw CSV layer, the dataset reader and the validator must all
    // terminate with ok() or a Status — reaching the next line at all is
    // the assertion; any abort kills the test binary.
    Result<std::vector<std::vector<std::string>>> rows = ParseCsv(mutated);
    Result<Dataset> dataset = ReadDatasetCsv(path);
    ValidationReport report = ValidateDatasetCsv(path);
    if (!dataset.ok()) {
      ++rejected;
      EXPECT_FALSE(dataset.status().message().empty()) << "trial " << trial;
      // Whatever the reader rejects, the validator must flag too.
      EXPECT_FALSE(report.ok())
          << "trial " << trial << ": reader said '"
          << dataset.status().ToString() << "' but validate found nothing";
    }
    if (!rows.ok()) {
      EXPECT_FALSE(rows.status().message().empty()) << "trial " << trial;
    }
  }
  // The mutator is hostile enough that a healthy share of inputs must
  // actually be rejected (guards against a reader that swallows anything).
  EXPECT_GT(rejected, 50u);
  std::remove(path.c_str());
}

TEST(IngestionFuzzTest, MutatedLabelsNeverCrashTheReader) {
  Rng rng(8804);
  const std::string base = ValidLabels();
  std::string path = TempPath("fuzz_labels.csv");
  size_t rejected = 0;
  for (int trial = 0; trial < 400; ++trial) {
    std::string mutated = Mutate(base, rng);
    WriteFile(path, mutated);
    Result<std::vector<EntityId>> labels = ReadLabelsCsv(path);
    ValidationReport report = ValidateLabelsCsv(path);
    if (!labels.ok()) {
      ++rejected;
      EXPECT_FALSE(labels.status().message().empty()) << "trial " << trial;
      EXPECT_FALSE(report.ok())
          << "trial " << trial << ": reader said '"
          << labels.status().ToString() << "' but validate found nothing";
    }
  }
  EXPECT_GT(rejected, 50u);
  std::remove(path.c_str());
}

TEST(IngestionFuzzTest, GeneratedDatasetsWithHostileValuesRoundTrip) {
  Rng rng(8805);
  for (int trial = 0; trial < 30; ++trial) {
    Dataset dataset;
    int64_t num_sources = rng.UniformInt(1, 4);
    std::vector<SourceId> sources;
    for (int64_t s = 0; s < num_sources; ++s) {
      sources.push_back(dataset.AddSource(Numbered("s", s)));
    }
    int64_t num_records = rng.UniformInt(1, 25);
    for (int64_t r = 0; r < num_records; ++r) {
      std::vector<Field> fields;
      int64_t num_fields = rng.UniformInt(1, 4);
      for (int64_t f = 0; f < num_fields; ++f) {
        fields.push_back(
            Field{dataset.InternAttr(Numbered("a", f)),
                  RandomField(rng)});
      }
      dataset.AddRecord(sources[static_cast<size_t>(rng.UniformInt(
                            0, num_sources - 1))],
                        std::move(fields));
    }
    std::string path = TempPath("fuzz_world.csv");
    ASSERT_TRUE(WriteDatasetCsv(dataset, path).ok());
    Result<Dataset> loaded = ReadDatasetCsv(path);
    ASSERT_TRUE(loaded.ok()) << "trial " << trial << ": "
                             << loaded.status();
    ASSERT_EQ(loaded->num_records(), dataset.num_records())
        << "trial " << trial;
    for (size_t r = 0; r < dataset.num_records(); ++r) {
      const Record& a = dataset.record(static_cast<RecordIdx>(r));
      const Record& b = loaded->record(static_cast<RecordIdx>(r));
      ASSERT_EQ(a.fields.size(), b.fields.size()) << "trial " << trial;
      for (size_t f = 0; f < a.fields.size(); ++f) {
        EXPECT_EQ(a.fields[f].value, b.fields[f].value)
            << "trial " << trial << " record " << r;
      }
    }
    std::remove(path.c_str());
  }
}


// ---------------------------------------------------------------------------
// Wire-protocol mutation corpus: the `bdi serve` request parser sits on an
// untrusted network boundary, so it gets the same treatment as the file
// readers — valid JSON-lines requests put through the hostile mutator must
// always come back as ok() or a Status, never a crash, and every rejection
// must render into a well-formed JSON error line.

TEST(IngestionFuzzTest, MutatedServeRequestsNeverCrashTheParser) {
  Rng rng(8806);
  const std::vector<std::string> seeds = {
      R"({"op":"stats","id":1})",
      R"({"op":"ask","id":2,"entity":"Zorix QX-12","attribute":"weight"})",
      R"({"op":"find","id":3,"entity":"zorix camera","k":10})",
      R"({"op":"update","id":4,"records":[{"source":"s0.example.com",)"
      R"("fields":{"name":"Zorix QX-12","weight":"390 g"}}]})",
      R"({"op":"shutdown","id":5})",
  };
  size_t trials = 0;
  size_t rejected = 0;
  for (int round = 0; round < 300; ++round) {
    for (const std::string& seed : seeds) {
      std::string mutated = Mutate(seed, rng);
      if (rng.Bernoulli(0.5)) mutated = Mutate(mutated, rng);
      ++trials;
      Result<serve::Request> request = serve::ParseRequest(mutated);
      if (request.ok()) continue;
      ++rejected;
      ASSERT_FALSE(request.status().message().empty())
          << "round " << round;
      // The server echoes the parse error back over the wire; the error
      // line must itself be valid JSON no matter what bytes leaked into
      // the message (NULs, quotes, control characters).
      std::string line =
          serve::EncodeError(-1, request.status().message());
      Result<serve::JsonValue> echoed = serve::ParseJson(line);
      ASSERT_TRUE(echoed.ok())
          << "round " << round << ": EncodeError produced invalid JSON '"
          << line << "': " << echoed.status();
    }
  }
  // The mutator must actually break a healthy share of requests (guards
  // against a parser that swallows anything).
  EXPECT_GT(rejected, trials / 2);
}

}  // namespace
}  // namespace bdi
