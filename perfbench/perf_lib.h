#ifndef WIMPI_PERFBENCH_PERF_LIB_H_
#define WIMPI_PERFBENCH_PERF_LIB_H_

// Statistics, profile roll-ups and answer comparison for the wall-clock
// benchmark (wimpi_perf.cc). Kept apart from its main program so perf_lib_test
// can check each rule on synthetic inputs.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "exec/relation.h"
#include "obs/profiler.h"

namespace wimpi::perf {

// Median of `v` (mean of the two middle values for an even count).
// Requires a non-empty input.
double Median(std::vector<double> v);

// Geometric mean of strictly positive values. Requires a non-empty input.
double GeoMean(const std::vector<double>& v);

// Nearest-rank percentile `p` (0..100) of `v`: the smallest sample with at
// least p% of the samples at or below it. Requires a non-empty input.
double Percentile(std::vector<double> v, double p);

// Number of samples strictly above the nearest-rank percentile `p`.
int64_t SamplesBeyond(const std::vector<double>& v, double p);

// A reported tail: the percentile, its value and the sample count.
struct Tail {
  double pct = 0;
  double value = 0;
  int64_t samples = 0;
};

// The highest of `candidates` (ascending percentiles) that still has at
// least `min_beyond` samples beyond it; the median when none qualifies.
Tail HighestSupportedPercentile(
    const std::vector<double>& v,
    const std::vector<double>& candidates = {50, 90, 95, 99, 99.9},
    int64_t min_beyond = 10);

// Operator classes the per-layer exec metrics are broken down by.
const std::vector<std::string>& OpClasses();

// Class of a profile-tree node name ("Filter" -> "filter", "mul_f64" ->
// "expr", ...); "other" when the name is not an operator scope known here.
std::string ClassOf(const std::string& node_name);

struct ClassTotals {
  double self_seconds = 0;
  int64_t rows_in = 0;
};

// Adds every descendant of `root` (not `root` itself, the query label) to
// `out` by class: self time (own wall time minus its children's) and
// input rows.
void AccumulateClasses(const obs::ProfileNode& root,
                       std::map<std::string, ClassTotals>* out);

// Sum of OpStats.output_bytes over the tree.
double OutputBytes(const obs::ProfileNode& root);

// Compares two answers cell by cell. Shapes, names, types, integer and
// string cells must match exactly; double cells must agree within a
// relative `double_rel_tol`, or bit for bit when it is 0. Returns "" when
// they match, else the first difference.
std::string CompareRelations(const exec::Relation& a, const exec::Relation& b,
                             double double_rel_tol);

// The seeded order in which one closed-loop stream runs the queries: a
// Fisher-Yates shuffle of `queries` driven by (seed, stream).
std::vector<int> StreamOrder(const std::vector<int>& queries, uint64_t seed,
                             int stream);

}  // namespace wimpi::perf

#endif  // WIMPI_PERFBENCH_PERF_LIB_H_
