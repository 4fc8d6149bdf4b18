#include "plan/signature.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <random>

#include "common/str_util.h"
#include "sql/parser.h"
#include "workload/bigbench.h"

namespace deepsea {
namespace {

class SignatureTest : public ::testing::Test {
 protected:
  void SetUp() override {
    catalog_.Put(std::make_shared<Table>(
        "fact", Schema({{"fact.k", DataType::kInt64},
                        {"fact.v", DataType::kDouble}})));
    catalog_.Put(std::make_shared<Table>(
        "dim", Schema({{"dim.k", DataType::kInt64},
                       {"dim.g", DataType::kInt64}})));
  }

  PlanPtr JoinPlan() {
    return Join(Scan("fact"), Scan("dim"),
                Cmp(CompareOp::kEq, Col("fact.k"), Col("dim.k")));
  }

  PlanSignature Sig(const PlanPtr& p) {
    auto s = ComputeSignature(p, catalog_);
    EXPECT_TRUE(s.ok()) << s.status().ToString();
    return s.ok() ? *s : PlanSignature{};
  }

  Catalog catalog_;
};

TEST_F(SignatureTest, ScanSignature) {
  const PlanSignature s = Sig(Scan("fact"));
  EXPECT_EQ(s.relations, (std::vector<std::string>{"fact"}));
  EXPECT_EQ(s.output_columns.size(), 2u);
  EXPECT_FALSE(s.has_aggregate);
}

TEST_F(SignatureTest, JoinMergesRelationsAndEquivalences) {
  const PlanSignature s = Sig(JoinPlan());
  EXPECT_EQ(s.relations, (std::vector<std::string>{"dim", "fact"}));
  ASSERT_EQ(s.equiv_classes.size(), 1u);
  EXPECT_TRUE(s.equiv_classes[0].count("fact.k"));
  EXPECT_TRUE(s.equiv_classes[0].count("dim.k"));
}

TEST_F(SignatureTest, SelectionRangesAbsorbed) {
  const PlanSignature s = Sig(Select(JoinPlan(), RangePredicate("fact.k", 10, 20)));
  ASSERT_TRUE(s.ranges.count("fact.k"));
  EXPECT_EQ(s.ranges.at("fact.k").lo, 10.0);
  EXPECT_EQ(s.ranges.at("fact.k").hi, 20.0);
}

TEST_F(SignatureTest, SelectionPlacementIrrelevant) {
  // Selection above the join vs pushed below produce equal signatures.
  const PlanSignature above =
      Sig(Select(JoinPlan(), RangePredicate("fact.k", 10, 20)));
  const PlanPtr pushed_scan = Select(Scan("fact"), RangePredicate("fact.k", 10, 20));
  const PlanSignature below = Sig(Join(
      pushed_scan, Scan("dim"), Cmp(CompareOp::kEq, Col("fact.k"), Col("dim.k"))));
  EXPECT_EQ(above, below);
}

TEST_F(SignatureTest, AggregateSignature) {
  const PlanSignature s = Sig(Aggregate(
      JoinPlan(), {"dim.g"}, {{AggFunc::kSum, "fact.v", "total"}}));
  EXPECT_TRUE(s.has_aggregate);
  EXPECT_EQ(s.group_by, (std::vector<std::string>{"dim.g"}));
  EXPECT_EQ(s.agg_specs.size(), 1u);
  EXPECT_TRUE(s.output_columns.count("dim.g"));
  EXPECT_TRUE(s.output_columns.count("total"));
}

TEST_F(SignatureTest, ResidualPredicateTracked) {
  const ExprPtr res = Or(Cmp(CompareOp::kGt, Col("fact.v"), LitD(1)),
                         Cmp(CompareOp::kLt, Col("fact.v"), LitD(-1)));
  const PlanSignature s = Sig(Select(JoinPlan(), res));
  EXPECT_EQ(s.residuals.size(), 1u);
  ASSERT_EQ(s.residual_exprs.size(), 1u);
}

// --- Subsumption matrix ---

TEST_F(SignatureTest, IdenticalSignaturesMatch) {
  const PlanSignature v = Sig(JoinPlan());
  EXPECT_TRUE(SignatureSubsumes(v, v));
}

TEST_F(SignatureTest, WiderViewRangeMatches) {
  const PlanSignature v = Sig(Select(JoinPlan(), RangePredicate("fact.k", 0, 100)));
  const PlanSignature q = Sig(Select(JoinPlan(), RangePredicate("fact.k", 10, 20)));
  EXPECT_TRUE(SignatureSubsumes(v, q));
  // And NOT the other way around.
  EXPECT_FALSE(SignatureSubsumes(q, v));
}

TEST_F(SignatureTest, UnconstrainedViewMatchesConstrainedQuery) {
  const PlanSignature v = Sig(JoinPlan());
  const PlanSignature q = Sig(Select(JoinPlan(), RangePredicate("fact.k", 10, 20)));
  EXPECT_TRUE(SignatureSubsumes(v, q));
}

TEST_F(SignatureTest, DifferentRelationsNoMatch) {
  const PlanSignature v = Sig(Scan("fact"));
  const PlanSignature q = Sig(Scan("dim"));
  EXPECT_FALSE(SignatureSubsumes(v, q));
}

TEST_F(SignatureTest, ViewWithExtraResidualNoMatch) {
  const ExprPtr res = Or(Cmp(CompareOp::kGt, Col("fact.v"), LitD(1)),
                         Cmp(CompareOp::kLt, Col("fact.v"), LitD(-1)));
  const PlanSignature v = Sig(Select(JoinPlan(), res));
  const PlanSignature q = Sig(JoinPlan());
  EXPECT_FALSE(SignatureSubsumes(v, q));
  // Query with the residual CAN use the view carrying it.
  const PlanSignature q2 = Sig(Select(JoinPlan(), res));
  EXPECT_TRUE(SignatureSubsumes(v, q2));
}

TEST_F(SignatureTest, AggregateMismatchNoMatch) {
  const PlanSignature v = Sig(JoinPlan());
  const PlanSignature q = Sig(Aggregate(
      JoinPlan(), {"dim.g"}, {{AggFunc::kSum, "fact.v", "total"}}));
  EXPECT_FALSE(SignatureSubsumes(v, q));
  EXPECT_FALSE(SignatureSubsumes(q, v));
}

TEST_F(SignatureTest, EqualAggregatesMatch) {
  const PlanPtr agg = Aggregate(JoinPlan(), {"dim.g"},
                                {{AggFunc::kSum, "fact.v", "total"}});
  EXPECT_TRUE(SignatureSubsumes(Sig(agg), Sig(agg)));
}

TEST_F(SignatureTest, AggregateCompensationOnlyOnGroupBy) {
  const PlanPtr view_agg = Aggregate(JoinPlan(), {"dim.g"},
                                     {{AggFunc::kSum, "fact.v", "total"}});
  // Query additionally restricts dim.g (a group-by column): OK.
  const PlanPtr q_ok = Aggregate(Select(JoinPlan(), RangePredicate("dim.g", 0, 5)),
                                 {"dim.g"}, {{AggFunc::kSum, "fact.v", "total"}});
  EXPECT_TRUE(SignatureSubsumes(Sig(view_agg), Sig(q_ok)));
  // Query restricts fact.k (aggregated away): cannot compensate.
  const PlanPtr q_bad = Aggregate(
      Select(JoinPlan(), RangePredicate("fact.k", 0, 5)), {"dim.g"},
      {{AggFunc::kSum, "fact.v", "total"}});
  EXPECT_FALSE(SignatureSubsumes(Sig(view_agg), Sig(q_bad)));
}

TEST_F(SignatureTest, ViewConstrainingUnconstrainedColumnNoMatch) {
  const PlanSignature v = Sig(Select(JoinPlan(), RangePredicate("fact.v", 0, 1)));
  const PlanSignature q = Sig(Select(JoinPlan(), RangePredicate("fact.k", 10, 20)));
  EXPECT_FALSE(SignatureSubsumes(v, q));
}

TEST_F(SignatureTest, ProjectionDropsNeededColumnNoMatch) {
  // View projects away fact.v which the query outputs.
  const PlanPtr view = Project(JoinPlan(), {Col("fact.k")}, {"fact.k"});
  const PlanSignature v = Sig(view);
  const PlanSignature q = Sig(JoinPlan());
  EXPECT_FALSE(SignatureSubsumes(v, q));
}

TEST_F(SignatureTest, CanonicalStringStable) {
  const PlanSignature a = Sig(Select(JoinPlan(), RangePredicate("fact.k", 1, 2)));
  const PlanSignature b = Sig(Select(JoinPlan(), RangePredicate("fact.k", 1, 2)));
  EXPECT_EQ(a.ToString(), b.ToString());
}

TEST_F(SignatureTest, ClassOfFallsBackToSingleton) {
  const PlanSignature s = Sig(JoinPlan());
  EXPECT_EQ(s.ClassOf("fact.v"), (std::set<std::string>{"fact.v"}));
  EXPECT_EQ(s.ClassOf("fact.k").size(), 2u);
}

// --- Canonical renderer ---

// The renderer PlanSignature::ToString() replaced, kept as the oracle:
// StrFormat "%.6g" per range bound, one string per class, sorted.
std::string PrintfRendering(const PlanSignature& s) {
  std::string out = "relations=[";
  out += Join(s.relations, ",");
  out += "] equiv={";
  std::vector<std::string> cls_strs;
  for (const auto& cls : s.equiv_classes) {
    std::string c = "{";
    c += Join({cls.begin(), cls.end()}, ",");
    c += "}";
    cls_strs.push_back(c);
  }
  std::sort(cls_strs.begin(), cls_strs.end());
  out += Join(cls_strs, ",");
  out += "} ranges={";
  std::vector<std::string> range_strs;
  for (const auto& [col, r] : s.ranges) {
    std::string range = col;
    range += ":";
    range += StrFormat("%s%.6g,%.6g%s", r.lo_inclusive ? "[" : "(", r.lo, r.hi,
                       r.hi_inclusive ? "]" : ")");
    range_strs.push_back(range);
  }
  out += Join(range_strs, ",");
  out += "} residuals={";
  out += Join({s.residuals.begin(), s.residuals.end()}, ",");
  out += "} outputs={";
  out += Join({s.output_columns.begin(), s.output_columns.end()}, ",");
  out += "}";
  if (!s.computed_outputs.empty()) {
    out += " computed={";
    out += Join({s.computed_outputs.begin(), s.computed_outputs.end()}, ",");
    out += "}";
  }
  if (s.has_aggregate) {
    out += " groupby=[";
    out += Join(s.group_by, ",");
    out += "] aggs={";
    out += Join({s.agg_specs.begin(), s.agg_specs.end()}, ",");
    out += "}";
  }
  return out;
}

// Seeded random signatures whose range bounds mix the values "%.6g"
// renders specially (infinities, signed zeros and NaNs, subnormals,
// 6-digit rounding ties, the fixed/scientific switch) with random bit
// patterns, and whose names include the separator characters.
class RandomSignatures {
 public:
  explicit RandomSignatures(uint64_t seed) : rng_(seed) {}

  PlanSignature Next() {
    PlanSignature s;
    for (size_t n = Below(4); n > 0; --n) s.relations.push_back(Name());
    std::sort(s.relations.begin(), s.relations.end());
    for (size_t n = Below(5); n > 0; --n) s.equiv_classes.push_back(Names(1, 4));
    for (size_t n = Below(4); n > 0; --n) {
      ColumnRange r;
      r.column = Name();
      r.lo = Bound();
      r.hi = Bound();
      r.lo_inclusive = Below(2) == 0;
      r.hi_inclusive = Below(2) == 0;
      s.ranges[r.column] = r;
    }
    s.residuals = Names(0, 3);
    s.output_columns = Names(0, 4);
    s.computed_outputs = Names(0, 2);
    s.has_aggregate = Below(2) == 0;
    for (size_t n = Below(4); n > 0; --n) s.group_by.push_back(Name());
    s.agg_specs = Names(0, 2);
    return s;
  }

 private:
  size_t Below(size_t n) { return static_cast<size_t>(rng_() % n); }

  std::string Name() {
    static const char kAlphabet[] = "ab.,{}_ z9";
    std::string name;
    for (size_t n = 1 + Below(4); n > 0; --n) {
      name.push_back(kAlphabet[Below(sizeof(kAlphabet) - 1)]);
    }
    return name;
  }

  std::set<std::string> Names(size_t min, size_t max) {
    std::set<std::string> names;
    for (size_t n = min + Below(max - min + 1); n > 0; --n) names.insert(Name());
    return names;
  }

  double Bound() {
    constexpr double kInf = std::numeric_limits<double>::infinity();
    constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
    static const double kSpecial[] = {
        kInf, -kInf, 0.0, -0.0, kNan, -kNan,
        std::numeric_limits<double>::denorm_min(),
        -std::numeric_limits<double>::denorm_min(),
        2.2250738585072009e-308,  // largest subnormal
        std::numeric_limits<double>::min(), std::numeric_limits<double>::max(),
        std::numeric_limits<double>::lowest(),
        999999.5, 123456.5, 1e+06, 1e-05, 0.0001, 9999995.0, 0.5, 2.5,
        100000.0, 99999.95, 1.0000005, 123456789.0};
    switch (Below(4)) {
      case 0:
        return kSpecial[Below(sizeof(kSpecial) / sizeof(kSpecial[0]))];
      case 1: {  // every bit pattern: NaN payloads, subnormals, extremes
        const uint64_t bits = rng_();
        double v;
        std::memcpy(&v, &bits, sizeof(v));
        return v;
      }
      case 2:  // ranges as queries write them: integers and halves
        return std::round(std::uniform_real_distribution<double>(-2e6, 2e6)(rng_) * 2) / 2;
      default: {  // a 6-digit tie d.ddddd5 at a random decimal exponent
        const double digits = static_cast<double>(100000 + Below(900000)) + 0.5;
        return digits * std::pow(10.0, static_cast<double>(Below(40)) - 25.0);
      }
    }
  }

  std::mt19937_64 rng_;
};

TEST(SignatureRenderTest, MatchesThePrintfRendererOnRandomSignatures) {
  RandomSignatures gen(20261018);
  for (int i = 0; i < 100000; ++i) {
    const PlanSignature s = gen.Next();
    const std::string expected = PrintfRendering(s);
    ASSERT_EQ(s.ToString(), expected) << "signature " << i;
  }
}

TEST(SignatureRenderTest, RendersTheSpecialBoundsLikePrintf) {
  PlanSignature s;
  s.relations = {"t"};
  s.equiv_classes = {{"t.b", "u.b"}, {"t.a", "u.a", "v.a"}, {"t.a,"}, {}};
  const double bounds[][2] = {
      {-std::numeric_limits<double>::infinity(), -0.0},
      {std::numeric_limits<double>::quiet_NaN(),
       -std::numeric_limits<double>::quiet_NaN()},
      {std::numeric_limits<double>::denorm_min(), 999999.5},
      {123456.5, 1e+06},
      {1e-05, 0.0001}};
  for (size_t i = 0; i < sizeof(bounds) / sizeof(bounds[0]); ++i) {
    ColumnRange r;
    r.column = "t.c";
    r.column += std::to_string(i);
    r.lo = bounds[i][0];
    r.hi = bounds[i][1];
    r.lo_inclusive = i % 2 == 0;
    s.ranges[r.column] = r;
  }
  EXPECT_EQ(s.ToString(), PrintfRendering(s));
  EXPECT_NE(s.ToString().find("t.c0:[-inf,-0]"), std::string::npos);
  EXPECT_NE(s.ToString().find("t.c1:(nan,-nan]"), std::string::npos);
  EXPECT_NE(s.ToString().find("t.c3:(123456,1e+06]"), std::string::npos);
  EXPECT_NE(s.ToString().find("t.c4:[1e-05,0.0001]"), std::string::npos);
}

// --- Signature table ---

class SignatureTableTest : public ::testing::Test {
 protected:
  void SetUp() override {
    BigBenchDataset::Options opts;
    opts.total_bytes = 100e9;
    opts.sample_rows_per_fact = 200;
    opts.sample_rows_per_dim = 50;
    ASSERT_TRUE(BigBenchDataset::Generate(opts, &catalog_).ok());
  }

  // Every subplan of `plan` read from `table` equals a fresh
  // ComputeSignature of that subplan, and is derived once.
  void ExpectMatchesComputeSignature(SignatureTable* table, const PlanPtr& plan) {
    std::vector<PlanPtr> subplans;
    CollectSubplans(plan, &subplans);
    for (const PlanPtr& sp : subplans) {
      const SignatureTable::Entry& entry = table->Get(sp);
      EXPECT_EQ(&entry, &table->Get(sp));
      const auto fresh = ComputeSignature(sp, catalog_);
      ASSERT_EQ(entry.ok(), fresh.ok()) << sp->ToString();
      if (!entry.ok()) {
        EXPECT_EQ(entry.status().code(), fresh.status().code());
        continue;
      }
      EXPECT_EQ(entry.key(), fresh->ToString()) << sp->ToString();
      EXPECT_EQ(entry.keyed()->key, entry.key());
      ASSERT_EQ(entry.sig().residual_exprs.size(), fresh->residual_exprs.size());
      for (size_t i = 0; i < fresh->residual_exprs.size(); ++i) {
        EXPECT_EQ(entry.sig().residual_exprs[i]->ToString(),
                  fresh->residual_exprs[i]->ToString());
      }
    }
  }

  Catalog catalog_;
};

TEST_F(SignatureTableTest, BigBenchTemplatesMatchComputeSignature) {
  std::vector<PlanPtr> plans;
  for (const std::string& name : BigBenchTemplates::Names()) {
    auto plan = BigBenchTemplates::Build(name, 1000, 5000);
    ASSERT_TRUE(plan.ok()) << name;
    plans.push_back(*plan);
  }
  auto q30d = BigBenchTemplates::BuildQ30D(1000, 5000, 10, 40);
  ASSERT_TRUE(q30d.ok());
  plans.push_back(*q30d);
  for (const PlanPtr& plan : plans) {
    SignatureTable table(&catalog_);
    ASSERT_TRUE(table.Get(plan).ok()) << plan->ToString();
    ExpectMatchesComputeSignature(&table, plan);
  }
}

TEST_F(SignatureTableTest, RewrittenPlanSharesTheSubmittedPlansEntries) {
  // As when a view answered the query: the candidate pass reads the
  // rewritten plan from the table the matcher filled. The view read and
  // its ancestors have no signature, even with the view's table known.
  auto query = BigBenchTemplates::Build("Q30", 1000, 5000);
  ASSERT_TRUE(query.ok());
  SignatureTable table(&catalog_);
  ASSERT_TRUE(table.Get(*query).ok());
  std::vector<PlanPtr> subplans;
  CollectSubplans(*query, &subplans);
  const PlanPtr* join = nullptr;
  for (const PlanPtr& sp : subplans) {
    if (sp->kind() == PlanKind::kJoin) join = &sp;
  }
  ASSERT_NE(join, nullptr);
  auto schema = (*join)->OutputSchema(catalog_);
  ASSERT_TRUE(schema.ok());
  catalog_.Put(std::make_shared<Table>("v1", *schema));
  const PlanPtr rewritten = ReplacePlanNode(*query, join->get(), ViewRef("v1", "", {}));
  ExpectMatchesComputeSignature(&table, rewritten);
  EXPECT_EQ(table.Get(rewritten).status().code(), StatusCode::kNotImplemented);
  // Subtrees the rewrite kept are the same nodes, read from the same
  // entries.
  std::vector<PlanPtr> kept;
  CollectSubplans(rewritten, &kept);
  for (const PlanPtr& sp : kept) {
    for (const PlanPtr& original : subplans) {
      if (sp.get() == original.get()) {
        EXPECT_EQ(table.Get(sp).keyed(), table.Get(original).keyed());
      }
    }
  }
}

TEST_F(SignatureTableTest, LimitAndItsAncestorsHaveNoSignature) {
  auto sql = ParseSql(
      "SELECT item.category_id, SUM(store_sales.net_paid) AS revenue "
      "FROM store_sales JOIN item ON store_sales.item_sk = item.item_sk "
      "WHERE store_sales.item_sk BETWEEN 1000 AND 5000 "
      "GROUP BY item.category_id ORDER BY revenue DESC LIMIT 5");
  ASSERT_TRUE(sql.ok()) << sql.status().ToString();
  const PlanPtr above_limit =
      Project(*sql, {Col("item.category_id")}, {"item.category_id"});
  for (const PlanPtr& plan : {*sql, above_limit}) {
    SignatureTable table(&catalog_);
    EXPECT_FALSE(table.Get(plan).ok());
    ExpectMatchesComputeSignature(&table, plan);
    std::vector<PlanPtr> subplans;
    CollectSubplans(plan, &subplans);
    bool below_limit = false;
    for (const PlanPtr& sp : subplans) {  // pre-order: ancestors first
      below_limit = below_limit || sp->kind() == PlanKind::kLimit;
      EXPECT_EQ(table.Get(sp).ok(), below_limit && sp->kind() != PlanKind::kLimit)
          << sp->ToString();
      if (sp->kind() == PlanKind::kSort) {
        // Sorting does not change content: the sort shares its input's
        // signature object.
        EXPECT_EQ(table.Get(sp).keyed(), table.Get(sp->child(0)).keyed());
      }
    }
  }
}

}  // namespace
}  // namespace deepsea
