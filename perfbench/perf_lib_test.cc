#include "perf_lib.h"

#include <cmath>
#include <memory>
#include <set>

#include "bench_util.h"
#include "gtest/gtest.h"
#include "storage/column.h"

namespace wimpi::perf {
namespace {

std::vector<double> OneTo(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  return v;
}

TEST(PerfStatsTest, MedianOfOddAndEvenCounts) {
  EXPECT_EQ(Median({3, 1, 2}), 2);
  EXPECT_EQ(Median({4, 1, 3, 2}), 2.5);
  EXPECT_EQ(Median({7}), 7);
}

TEST(PerfStatsTest, GeoMean) {
  EXPECT_NEAR(GeoMean({1, 100}), 10, 1e-12);
  EXPECT_NEAR(GeoMean({2, 8, 4}), 4, 1e-12);
}

TEST(PerfStatsTest, NearestRankPercentile) {
  const std::vector<double> v = OneTo(100);
  EXPECT_EQ(Percentile(v, 50), 50);
  EXPECT_EQ(Percentile(v, 95), 95);
  EXPECT_EQ(Percentile(v, 100), 100);
  EXPECT_EQ(Percentile(v, 0), 1);
  EXPECT_EQ(SamplesBeyond(v, 90), 10);
  EXPECT_EQ(SamplesBeyond(v, 95), 5);
}

TEST(PerfStatsTest, HighestPercentileNeedsTenSamplesBeyondIt) {
  // 100 samples: p90 has 10 beyond it, p95 only 5.
  Tail t = HighestSupportedPercentile(OneTo(100));
  EXPECT_EQ(t.pct, 90);
  EXPECT_EQ(t.value, 90);
  EXPECT_EQ(t.samples, 100);
  // 1000 samples: p99 has 10 beyond it, p99.9 only 1.
  t = HighestSupportedPercentile(OneTo(1000));
  EXPECT_EQ(t.pct, 99);
  EXPECT_EQ(t.samples, 1000);
  // 15 samples: nothing above the median qualifies.
  t = HighestSupportedPercentile(OneTo(15));
  EXPECT_EQ(t.pct, 50);
  EXPECT_EQ(t.value, 8);
}

std::unique_ptr<obs::ProfileNode> Node(const std::string& name, double wall,
                                       int64_t rows_in) {
  auto n = std::make_unique<obs::ProfileNode>();
  n->name = name;
  n->wall_seconds = wall;
  n->rows_in = rows_in;
  return n;
}

TEST(PerfProfileTest, SelfTimeByClassFromSyntheticTree) {
  obs::QueryProfile p;
  p.root.name = "q01";
  p.root.wall_seconds = 30;
  auto sort = Node("SortRelation", 10, 5);
  sort->children.push_back(Node("SortPerm", 3, 5));
  sort->children.push_back(Node("Gather", 4, 7));
  auto join = Node("HashJoin", 10, 100);
  join->children.push_back(Node("hash_build", 3, 20));
  join->children.push_back(Node("hash_probe", 5, 100));
  join->children[1]->op_stats.push_back(exec::OpStats{});
  join->children[1]->op_stats.back().output_bytes = 800;
  p.root.children.push_back(std::move(sort));
  p.root.children.push_back(Node("mul_f64", 2, 9));
  p.root.children.push_back(std::move(join));
  p.root.children.push_back(Node("ConcatRelations", 1, 4));

  std::map<std::string, ClassTotals> c;
  AccumulateClasses(p.root, &c);
  EXPECT_DOUBLE_EQ(c["sort"].self_seconds, 3 + 3);  // SortRelation + SortPerm
  EXPECT_EQ(c["sort"].rows_in, 10);
  EXPECT_DOUBLE_EQ(c["gather"].self_seconds, 4);
  EXPECT_EQ(c["gather"].rows_in, 7);
  EXPECT_DOUBLE_EQ(c["expr"].self_seconds, 2);
  EXPECT_DOUBLE_EQ(c["hash_build"].self_seconds, 3);
  EXPECT_DOUBLE_EQ(c["hash_probe"].self_seconds, 5 + 2);  // probe + join glue
  EXPECT_EQ(c["hash_probe"].rows_in, 200);
  EXPECT_DOUBLE_EQ(c["concat"].self_seconds, 1);
  EXPECT_EQ(c.count("other"), 0u);
  double self_sum = 0;
  for (const auto& [_, t] : c) self_sum += t.self_seconds;
  EXPECT_DOUBLE_EQ(self_sum, p.OperatorSeconds());
  EXPECT_EQ(OutputBytes(p.root), 800);
}

TEST(PerfProfileTest, ClassNames) {
  EXPECT_EQ(ClassOf("Filter"), "filter");
  EXPECT_EQ(ClassOf("UnionSel"), "filter");
  EXPECT_EQ(ClassOf("GatherWithDefault"), "gather");
  EXPECT_EQ(ClassOf("extract_year"), "expr");
  EXPECT_EQ(ClassOf("HashAggregate"), "aggregate");
  EXPECT_EQ(ClassOf("Unknown"), "other");
  EXPECT_EQ(OpClasses().size(), 8u);
}

exec::Relation MakeRelation(const std::vector<double>& prices,
                            const std::vector<std::string>& flags) {
  exec::Relation r;
  auto price = std::make_unique<storage::Column>(storage::DataType::kFloat64);
  for (const double p : prices) price->AppendFloat64(p);
  auto flag = std::make_unique<storage::Column>(storage::DataType::kString);
  for (const auto& f : flags) flag->AppendString(f);
  auto count = std::make_unique<storage::Column>(storage::DataType::kInt64);
  for (size_t i = 0; i < prices.size(); ++i) count->AppendInt64(static_cast<int64_t>(i));
  r.AddColumn("flag", std::move(flag));
  r.AddColumn("price", std::move(price));
  r.AddColumn("count", std::move(count));
  return r;
}

TEST(PerfCompareTest, OneUlpPassesToleranceButNotBitIdentity) {
  const exec::Relation a = MakeRelation({1.25, 1e9 / 3}, {"A", "N"});
  const exec::Relation b =
      MakeRelation({1.25, std::nextafter(1e9 / 3, 1e10)}, {"A", "N"});
  EXPECT_EQ(CompareRelations(a, b, 1e-9), "");
  EXPECT_NE(CompareRelations(a, b, 0), "");
  EXPECT_NE(bench::RelationChecksum(a), bench::RelationChecksum(b));
  EXPECT_EQ(CompareRelations(a, a, 0), "");
}

TEST(PerfCompareTest, RowCountChangeFailsBoth) {
  const exec::Relation a = MakeRelation({1.25, 2.5}, {"A", "N"});
  const exec::Relation b = MakeRelation({1.25}, {"A"});
  EXPECT_NE(CompareRelations(a, b, 1e-9), "");
  EXPECT_NE(CompareRelations(a, b, 0), "");
  EXPECT_NE(bench::RelationChecksum(a), bench::RelationChecksum(b));
}

TEST(PerfCompareTest, StringAndIntegerCellsMustMatchExactly) {
  const exec::Relation a = MakeRelation({1.25, 2.5}, {"A", "N"});
  const exec::Relation b = MakeRelation({1.25, 2.5}, {"A", "R"});
  EXPECT_NE(CompareRelations(a, b, 1e-9), "");
}

TEST(PerfStreamOrderTest, SeededPermutation) {
  std::vector<int> q;
  for (int i = 1; i <= 22; ++i) q.push_back(i);
  const std::vector<int> a = StreamOrder(q, 7, 0);
  EXPECT_EQ(a, StreamOrder(q, 7, 0));
  EXPECT_NE(a, StreamOrder(q, 7, 1));
  EXPECT_NE(a, StreamOrder(q, 8, 0));
  EXPECT_EQ(std::set<int>(a.begin(), a.end()), std::set<int>(q.begin(), q.end()));
}

}  // namespace
}  // namespace wimpi::perf
