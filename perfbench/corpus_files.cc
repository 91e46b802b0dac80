#include "corpus_files.h"

#include <fstream>
#include <sstream>
#include <unordered_map>

#include "bdi/common/string_util.h"

namespace perfbench {

using bdi::Result;
using bdi::Status;

namespace {

bool HasLineBreakOrTab(const std::string& s) {
  return s.find_first_of("\t\r\n") != std::string::npos;
}

}  // namespace

Status WriteLines(const std::string& path,
                  const std::vector<std::string>& lines) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  for (const std::string& line : lines) {
    if (line.find('\n') != std::string::npos) {
      return Status::InvalidArgument(path + ": line holds a newline");
    }
    out << line << '\n';
  }
  out.close();
  if (!out) return Status::IOError("cannot write " + path);
  return Status::OK();
}

Result<std::vector<std::string>> ReadLines(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IOError("cannot open " + path);
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  if (in.bad()) return Status::IOError("cannot read " + path);
  return lines;
}

// Format, one section per line prefix:
//   R <entity>                          one line per record, in order
//   C <canonical attr name>             canonical attributes, in order
//   V <entity> <attr> <value>           non-empty true values
//   M <source name> <attr name> <attr>  source attribute -> canonical
// Fields are tab-separated.
Status WriteTruth(const std::string& path, const bdi::GroundTruth& truth,
                  const bdi::Dataset& dataset) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  for (bdi::EntityId entity : truth.entity_of_record) {
    out << "R\t" << entity << '\n';
  }
  for (const std::string& name : truth.canonical_attrs) {
    if (HasLineBreakOrTab(name)) {
      return Status::InvalidArgument("attribute name holds a tab");
    }
    out << "C\t" << name << '\n';
  }
  for (size_t e = 0; e < truth.true_values.size(); ++e) {
    for (size_t a = 0; a < truth.true_values[e].size(); ++a) {
      const std::string& value = truth.true_values[e][a];
      if (value.empty()) continue;
      if (HasLineBreakOrTab(value)) {
        return Status::InvalidArgument("true value holds a tab");
      }
      out << "V\t" << e << '\t' << a << '\t' << value << '\n';
    }
  }
  for (const auto& [sa, canonical] : truth.canonical_of_source_attr) {
    const std::string& source = dataset.source(sa.source).name;
    const std::string& attr = dataset.attr_name(sa.attr);
    if (HasLineBreakOrTab(source) || HasLineBreakOrTab(attr)) {
      return Status::InvalidArgument("source or attribute name holds a tab");
    }
    out << "M\t" << source << '\t' << attr << '\t' << canonical << '\n';
  }
  out.close();
  if (!out) return Status::IOError("cannot write " + path);
  return Status::OK();
}

Result<bdi::GroundTruth> ReadTruth(const std::string& path,
                                   const bdi::Dataset& dataset) {
  BDI_ASSIGN_OR_RETURN(std::vector<std::string> lines, ReadLines(path));
  std::unordered_map<std::string, bdi::SourceId> source_ids;
  for (const bdi::SourceInfo& source : dataset.sources()) {
    source_ids.emplace(source.name, source.id);
  }
  bdi::GroundTruth truth;
  for (const std::string& line : lines) {
    std::vector<std::string> f = bdi::Split(line, '\t');
    auto bad = [&] {
      return Status::InvalidArgument(path + ": bad line " + line);
    };
    if (f.empty()) return bad();
    if (f[0] == "R" && f.size() == 2) {
      truth.entity_of_record.push_back(std::stoi(f[1]));
    } else if (f[0] == "C" && f.size() == 2) {
      truth.canonical_attrs.push_back(f[1]);
    } else if (f[0] == "V" && f.size() == 4) {
      size_t e = std::stoul(f[1]);
      size_t a = std::stoul(f[2]);
      if (truth.true_values.size() <= e) truth.true_values.resize(e + 1);
      if (truth.true_values[e].size() <= a) truth.true_values[e].resize(a + 1);
      truth.true_values[e][a] = f[3];
    } else if (f[0] == "M" && f.size() == 4) {
      auto source = source_ids.find(f[1]);
      std::optional<bdi::AttrId> attr = dataset.FindAttr(f[2]);
      if (source == source_ids.end() || !attr.has_value()) continue;
      truth.canonical_of_source_attr[bdi::SourceAttr{source->second, *attr}] =
          std::stoi(f[3]);
    } else {
      return bad();
    }
  }
  for (std::vector<std::string>& values : truth.true_values) {
    values.resize(truth.canonical_attrs.size());
  }
  return truth;
}

}  // namespace perfbench
