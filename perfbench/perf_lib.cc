#include "perf_lib.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "common/logging.h"
#include "common/rng.h"
#include "storage/column.h"

namespace wimpi::perf {

namespace {

// Index of the nearest-rank percentile `p` in a sorted sample of `n`.
size_t RankIndex(size_t n, double p) {
  const double rank = std::ceil(p / 100.0 * static_cast<double>(n));
  const size_t idx = rank <= 1 ? 0 : static_cast<size_t>(rank) - 1;
  return std::min(idx, n - 1);
}

}  // namespace

double Median(std::vector<double> v) {
  WIMPI_CHECK(!v.empty()) << "median of no samples";
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

double GeoMean(const std::vector<double>& v) {
  WIMPI_CHECK(!v.empty()) << "geomean of no samples";
  double log_sum = 0;
  for (const double x : v) {
    WIMPI_CHECK(x > 0) << "geomean of a non-positive value " << x;
    log_sum += std::log(x);
  }
  return std::exp(log_sum / static_cast<double>(v.size()));
}

double Percentile(std::vector<double> v, double p) {
  WIMPI_CHECK(!v.empty()) << "percentile of no samples";
  std::sort(v.begin(), v.end());
  return v[RankIndex(v.size(), p)];
}

int64_t SamplesBeyond(const std::vector<double>& v, double p) {
  if (v.empty()) return 0;
  return static_cast<int64_t>(v.size() - 1 - RankIndex(v.size(), p));
}

Tail HighestSupportedPercentile(const std::vector<double>& v,
                                const std::vector<double>& candidates,
                                int64_t min_beyond) {
  Tail t;
  t.samples = static_cast<int64_t>(v.size());
  if (v.empty()) return t;
  t.pct = 50;
  for (const double p : candidates) {
    if (SamplesBeyond(v, p) >= min_beyond) t.pct = p;
  }
  t.value = Percentile(v, t.pct);
  return t;
}

const std::vector<std::string>& OpClasses() {
  static const std::vector<std::string> kClasses = {
      "filter",     "gather",    "expr", "hash_build",
      "hash_probe", "aggregate", "sort", "concat"};
  return kClasses;
}

std::string ClassOf(const std::string& name) {
  static const std::map<std::string, std::string> kNamed = {
      {"Filter", "filter"},
      {"FilterColCmpCol", "filter"},
      {"UnionSel", "filter"},
      {"Gather", "gather"},
      {"GatherColumns", "gather"},
      {"GatherWithDefault", "gather"},
      {"hash_build", "hash_build"},
      {"hash_probe", "hash_probe"},
      // The join's own time outside its build and probe children (result
      // assembly) belongs to the probe side.
      {"HashJoin", "hash_probe"},
      {"HashAggregate", "aggregate"},
      {"RunPartial", "aggregate"},
      {"MergePartials", "aggregate"},
      {"SortPerm", "sort"},
      {"SortRelation", "sort"},
      {"ConcatRelations", "concat"},
  };
  const auto it = kNamed.find(name);
  if (it != kNamed.end()) return it->second;
  // Expression kernels are scoped by their lower-case kernel name
  // (mul_f64, extract_year, str_match_mask, ...).
  if (!name.empty() && name[0] >= 'a' && name[0] <= 'z') return "expr";
  return "other";
}

void AccumulateClasses(const obs::ProfileNode& root,
                       std::map<std::string, ClassTotals>* out) {
  for (const auto& child : root.children) {
    ClassTotals& t = (*out)[ClassOf(child->name)];
    t.self_seconds += child->SelfSeconds();
    t.rows_in += child->rows_in;
    AccumulateClasses(*child, out);
  }
}

double OutputBytes(const obs::ProfileNode& root) {
  double bytes = 0;
  for (const exec::OpStats& op : root.op_stats) bytes += op.output_bytes;
  for (const auto& child : root.children) bytes += OutputBytes(*child);
  return bytes;
}

std::string CompareRelations(const exec::Relation& a, const exec::Relation& b,
                             double double_rel_tol) {
  if (a.num_columns() != b.num_columns()) {
    return "column count " + std::to_string(a.num_columns()) + " vs " +
           std::to_string(b.num_columns());
  }
  if (a.num_rows() != b.num_rows()) {
    return "row count " + std::to_string(a.num_rows()) + " vs " +
           std::to_string(b.num_rows());
  }
  const int64_t n = a.num_rows();
  for (int c = 0; c < a.num_columns(); ++c) {
    const storage::Column& ca = a.column(c);
    const storage::Column& cb = b.column(c);
    const std::string where = "column " + a.name(c);
    if (a.name(c) != b.name(c)) return where + " vs " + b.name(c);
    if (ca.type() != cb.type()) return where + ": type differs";
    for (int64_t row = 0; row < n; ++row) {
      const std::string at = where + " row " + std::to_string(row);
      switch (ca.type()) {
        case storage::DataType::kInt64:
          if (ca.I64Data()[row] != cb.I64Data()[row]) return at;
          break;
        case storage::DataType::kFloat64: {
          const double x = ca.F64Data()[row];
          const double y = cb.F64Data()[row];
          if (double_rel_tol == 0) {
            if (std::memcmp(&x, &y, sizeof(x)) != 0) return at;
          } else if (std::fabs(x - y) >
                     double_rel_tol * std::max(std::fabs(x), std::fabs(y))) {
            return at;
          }
          break;
        }
        case storage::DataType::kString:
          if (ca.StringAt(row) != cb.StringAt(row)) return at;
          break;
        default:
          if (ca.I32Data()[row] != cb.I32Data()[row]) return at;
          break;
      }
    }
  }
  return "";
}

std::vector<int> StreamOrder(const std::vector<int>& queries, uint64_t seed,
                             int stream) {
  std::vector<int> order = queries;
  Rng rng(seed * 0x9e3779b97f4a7c15ULL + static_cast<uint64_t>(stream) + 1);
  for (size_t i = order.size(); i > 1; --i) {
    const size_t j = static_cast<size_t>(rng.Uniform(0, static_cast<int64_t>(i) - 1));
    std::swap(order[i - 1], order[j]);
  }
  return order;
}

}  // namespace wimpi::perf
