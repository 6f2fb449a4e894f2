// Strict Prometheus text-exposition-format conformance check for
// MetricsRegistry::ToPrometheusText(). A scraper is an unforgiving parser:
// a family without HELP/TYPE, a non-monotone histogram bucket, or an
// unescaped label value silently corrupts dashboards. This test implements
// the relevant subset of the format spec as a checker and runs a registry
// with every metric kind through it. The exporter's only label is the
// histogram bucket's numeric `le`; the checker still parses every label
// value strictly, so a label source added later is held to the escaping
// rules by the same export tests.
#include <gtest/gtest.h>

#include <cctype>
#include <cstdint>
#include <cstdlib>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "obs/metrics.h"

namespace dsig {
namespace obs {
namespace {

bool ValidMetricName(const std::string& name) {
  if (name.empty()) return false;
  auto first_ok = [](char c) {
    return std::isalpha(static_cast<unsigned char>(c)) || c == '_' || c == ':';
  };
  if (!first_ok(name[0])) return false;
  for (const char c : name) {
    if (!(std::isalnum(static_cast<unsigned char>(c)) || c == '_' ||
          c == ':')) {
      return false;
    }
  }
  return true;
}

bool ValidLabelName(const std::string& name) {
  if (name.empty() || name.rfind("__", 0) == 0) return false;
  auto first_ok = [](char c) {
    return std::isalpha(static_cast<unsigned char>(c)) || c == '_';
  };
  if (!first_ok(name[0])) return false;
  for (const char c : name) {
    if (!(std::isalnum(static_cast<unsigned char>(c)) || c == '_')) {
      return false;
    }
  }
  return true;
}

struct Sample {
  std::string name;    // full sample name (may carry _bucket/_sum/_count)
  std::string labels;  // raw text between { }, empty when absent
  double value = 0;
  std::map<std::string, std::string> label_map;  // unescaped values
};

struct Family {
  std::string type;  // counter | gauge | histogram | ...
  bool has_help = false;
  std::vector<Sample> samples;
};

// Parses and validates one exposition-format payload; collects per-family
// samples. Uses ADD_FAILURE (not assertions) so every violation in the
// payload is reported at once.
class ExpositionChecker {
 public:
  std::map<std::string, Family> families;

  void Check(const std::string& text) {
    ASSERT_FALSE(text.empty());
    ASSERT_EQ(text.back(), '\n') << "payload must end in a newline";
    std::istringstream in(text);
    std::string line;
    int line_no = 0;
    while (std::getline(in, line)) {
      ++line_no;
      if (line.empty()) continue;
      if (line.rfind("# HELP ", 0) == 0) {
        HandleHelp(line, line_no);
      } else if (line.rfind("# TYPE ", 0) == 0) {
        HandleType(line, line_no);
      } else if (line[0] == '#') {
        // Other comments are legal and ignored.
      } else {
        HandleSample(line, line_no);
      }
    }
    PostChecks();
  }

 private:
  // The family a sample belongs to: strip the histogram suffixes.
  std::string FamilyOf(const std::string& sample_name) const {
    for (const char* suffix : {"_bucket", "_sum", "_count"}) {
      const size_t len = std::string(suffix).size();
      if (sample_name.size() > len &&
          sample_name.compare(sample_name.size() - len, len, suffix) == 0) {
        const std::string base = sample_name.substr(0, sample_name.size() - len);
        if (families.count(base) != 0 &&
            families.at(base).type == "histogram") {
          return base;
        }
      }
    }
    return sample_name;
  }

  void HandleHelp(const std::string& line, int line_no) {
    std::istringstream fields(line.substr(7));
    std::string name;
    fields >> name;
    EXPECT_TRUE(ValidMetricName(name)) << "line " << line_no << ": " << line;
    Family& family = families[name];
    EXPECT_FALSE(family.has_help)
        << "line " << line_no << ": duplicate HELP for " << name;
    EXPECT_TRUE(family.samples.empty())
        << "line " << line_no << ": HELP after samples of " << name;
    family.has_help = true;
    // HELP text must not contain a raw newline (getline guarantees) nor an
    // unescaped backslash.
    const std::string text = line.substr(7 + name.size());
    for (size_t i = 0; i < text.size(); ++i) {
      if (text[i] == '\\') {
        EXPECT_TRUE(i + 1 < text.size() &&
                    (text[i + 1] == '\\' || text[i + 1] == 'n'))
            << "line " << line_no << ": bad escape in HELP";
        ++i;
      }
    }
  }

  void HandleType(const std::string& line, int line_no) {
    std::istringstream fields(line.substr(7));
    std::string name, type;
    fields >> name >> type;
    EXPECT_TRUE(ValidMetricName(name)) << "line " << line_no << ": " << line;
    EXPECT_TRUE(type == "counter" || type == "gauge" || type == "histogram" ||
                type == "summary" || type == "untyped")
        << "line " << line_no << ": unknown TYPE " << type;
    Family& family = families[name];
    EXPECT_TRUE(family.type.empty())
        << "line " << line_no << ": duplicate TYPE for " << name;
    EXPECT_TRUE(family.samples.empty())
        << "line " << line_no << ": TYPE after samples of " << name;
    family.type = type;
  }

  void HandleSample(const std::string& line, int line_no) {
    Sample sample;
    size_t value_start;
    const size_t brace = line.find('{');
    if (brace != std::string::npos) {
      sample.name = line.substr(0, brace);
      const size_t close = line.find('}', brace);
      ASSERT_NE(close, std::string::npos) << "line " << line_no;
      sample.labels = line.substr(brace + 1, close - brace - 1);
      ParseLabels(sample.labels, line_no, &sample.label_map);
      value_start = close + 1;
    } else {
      const size_t space = line.find(' ');
      ASSERT_NE(space, std::string::npos) << "line " << line_no;
      sample.name = line.substr(0, space);
      value_start = space;
    }
    EXPECT_TRUE(ValidMetricName(sample.name))
        << "line " << line_no << ": " << sample.name;

    const std::string value_text = line.substr(value_start);
    char* end = nullptr;
    sample.value = std::strtod(value_text.c_str(), &end);
    EXPECT_NE(end, value_text.c_str())
        << "line " << line_no << ": unparseable value " << value_text;

    const std::string family_name = FamilyOf(sample.name);
    Family& family = families[family_name];
    EXPECT_TRUE(family.has_help && !family.type.empty())
        << "line " << line_no << ": sample " << sample.name
        << " before HELP/TYPE of " << family_name;
    family.samples.push_back(std::move(sample));
  }

  // label_name="escaped value" pairs, comma-separated. Validates escaping:
  // inside the quotes only \\, \", and \n escapes are legal, and raw quote
  // or backslash characters must not appear.
  void ParseLabels(const std::string& labels, int line_no,
                   std::map<std::string, std::string>* out) {
    size_t pos = 0;
    while (pos < labels.size()) {
      const size_t eq = labels.find('=', pos);
      ASSERT_NE(eq, std::string::npos) << "line " << line_no;
      const std::string name = labels.substr(pos, eq - pos);
      EXPECT_TRUE(ValidLabelName(name))
          << "line " << line_no << ": label " << name;
      ASSERT_LT(eq + 1, labels.size()) << "line " << line_no;
      ASSERT_EQ(labels[eq + 1], '"') << "line " << line_no;
      std::string value;
      size_t i = eq + 2;
      bool closed = false;
      for (; i < labels.size(); ++i) {
        const char c = labels[i];
        if (c == '\\') {
          ASSERT_LT(i + 1, labels.size()) << "line " << line_no;
          const char esc = labels[i + 1];
          EXPECT_TRUE(esc == '\\' || esc == '"' || esc == 'n')
              << "line " << line_no << ": bad escape \\" << esc;
          value += esc == 'n' ? '\n' : esc;
          ++i;
        } else if (c == '"') {
          closed = true;
          break;
        } else {
          value += c;
        }
      }
      ASSERT_TRUE(closed) << "line " << line_no << ": unterminated label";
      EXPECT_TRUE((*out).emplace(name, value).second)
          << "line " << line_no << ": duplicate label " << name;
      pos = i + 1;
      if (pos < labels.size()) {
        ASSERT_EQ(labels[pos], ',') << "line " << line_no;
        ++pos;
      }
    }
  }

  void PostChecks() {
    for (const auto& [name, family] : families) {
      EXPECT_TRUE(family.has_help) << name << " has no HELP";
      EXPECT_FALSE(family.type.empty()) << name << " has no TYPE";
      if (family.type == "histogram") CheckHistogram(name, family);
    }
  }

  // Histogram families: le buckets strictly increasing in le, counts
  // monotone nondecreasing, +Inf present and equal to _count.
  void CheckHistogram(const std::string& name, const Family& family) {
    double prev_le = -1e300;
    uint64_t prev_count = 0;
    bool saw_inf = false;
    double inf_value = -1, sum_value = -1, count_value = -1;
    for (const Sample& s : family.samples) {
      if (s.name == name + "_bucket") {
        const auto le = s.label_map.find("le");
        ASSERT_NE(le, s.label_map.end()) << name << ": bucket without le";
        double le_value;
        if (le->second == "+Inf") {
          le_value = 1e308;
          saw_inf = true;
          inf_value = s.value;
        } else {
          char* end = nullptr;
          le_value = std::strtod(le->second.c_str(), &end);
          EXPECT_NE(end, le->second.c_str())
              << name << ": unparseable le " << le->second;
        }
        EXPECT_GT(le_value, prev_le) << name << ": le not increasing";
        prev_le = le_value;
        const uint64_t count = static_cast<uint64_t>(s.value);
        EXPECT_GE(count, prev_count) << name << ": bucket counts decreased";
        prev_count = count;
      } else if (s.name == name + "_sum") {
        sum_value = s.value;
      } else if (s.name == name + "_count") {
        count_value = s.value;
      }
    }
    EXPECT_TRUE(saw_inf) << name << ": no +Inf bucket";
    EXPECT_GE(sum_value, 0) << name << ": no _sum";
    EXPECT_GE(count_value, 0) << name << ": no _count";
    EXPECT_DOUBLE_EQ(inf_value, count_value)
        << name << ": +Inf bucket != _count";
  }
};

TEST(PrometheusConformanceTest, FullRegistryExportConforms) {
  MetricsRegistry registry;
  registry.GetCounter("serve.requests")->Add(123);
  registry.GetCounter("buffer.hits")->Add(7);
  registry.GetGauge("rowcache.bytes")->Set(41.5);
  Histogram* latency = registry.GetHistogram("query.knn.latency_ms");
  // Spread across octaves, including underflow and the far tail.
  for (const double v : {0.0, 1e-7, 0.004, 0.25, 1.0, 3.0, 17.0, 250.0,
                         8000.0, 1e12}) {
    latency->Record(v);
  }

  ExpositionChecker checker;
  checker.Check(registry.ToPrometheusText());

  // The families we registered all made it out, with the right types.
  EXPECT_EQ(checker.families.at("dsig_serve_requests").type, "counter");
  EXPECT_EQ(checker.families.at("dsig_rowcache_bytes").type, "gauge");
  EXPECT_EQ(checker.families.at("dsig_query_knn_latency_ms").type,
            "histogram");

  // Counter value survives the round trip.
  const Family& requests = checker.families.at("dsig_serve_requests");
  ASSERT_EQ(requests.samples.size(), 1u);
  EXPECT_DOUBLE_EQ(requests.samples[0].value, 123.0);
}

TEST(PrometheusConformanceTest, EmptyHistogramStillConforms) {
  MetricsRegistry registry;
  registry.GetHistogram("query.range.latency_ms");
  ExpositionChecker checker;
  checker.Check(registry.ToPrometheusText());
  const Family& family = checker.families.at("dsig_query_range_latency_ms");
  EXPECT_EQ(family.type, "histogram");
  // _count and the +Inf bucket agree on zero (CheckHistogram enforced it).
}

}  // namespace
}  // namespace obs
}  // namespace dsig
