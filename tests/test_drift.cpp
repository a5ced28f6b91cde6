// The model-vs-measured drift report: closed forms (15)-(17) must agree
// with the simnet discrete-event measurement at every power of two, the
// rows carry simnet's own traffic totals, and the JSON export parses.
// (Whether simnet's traffic is what the threads send is the subject of
// test_traffic_differential.cpp.)

#include <gtest/gtest.h>

#include <sstream>

#include "colop/apps/polyeval.h"
#include "colop/ir/parse.h"
#include "colop/obs/drift.h"
#include "colop/obs/json.h"

namespace colop::obs {
namespace {

const model::Machine kMach{.p = 64, .m = 64, .ts = 400, .tw = 2};

TEST(Drift, ModelAgreesWithSimnetAtPowersOfTwo) {
  for (const char* text :
       {"bcast", "scan(+)", "reduce(+)", "allreduce(+)",
        "bcast ; scan(*) ; reduce(+)", "reduce(+) ; bcast"}) {
    const auto prog = ir::parse_program(text);
    const auto rep = drift_report(prog, kMach);
    EXPECT_EQ(rep.rows.size(), 6u) << text;  // p in {2,4,...,64}
    EXPECT_TRUE(rep.all_ok()) << text << "\n" << rep.render_text();
  }
}

TEST(Drift, PolyEvalDerivationStaysWithinToleranceAtPowersOfTwo) {
  std::vector<double> as(64);
  for (std::size_t i = 0; i < as.size(); ++i)
    as[i] = static_cast<double>(i + 1);
  for (const auto& prog : {apps::polyeval_1(as), apps::polyeval_3(as)}) {
    const auto rep = drift_report(prog, kMach);
    EXPECT_TRUE(rep.all_ok()) << prog.show() << "\n" << rep.render_text();
  }
}

TEST(Drift, SimTrafficClosedFormsOnOneStage) {
  // Butterfly schedules at p = 16: log2 p = 4 phases, every rank sends
  // once per phase, m words per message; binomial trees send p-1.
  DriftOptions opts;
  opts.procs = {16};
  const double m = kMach.m;
  auto row = [&](const char* text) {
    return drift_report(ir::parse_program(text), kMach, opts).rows.at(0);
  };
  EXPECT_EQ(row("bcast").sim_messages, 64u);  // p*log2(p), default butterfly
  EXPECT_DOUBLE_EQ(row("bcast").sim_words, 64 * m);
  EXPECT_EQ(row("scan(+)").sim_messages, 64u);
  EXPECT_EQ(row("map(pair)").sim_messages, 0u);
  EXPECT_DOUBLE_EQ(row("map(pair)").sim_words, 0.0);

  opts.sched.bcast = exec::SimSchedules::Bcast::binomial;
  opts.sched.reduce = exec::SimSchedules::Reduce::binomial;
  EXPECT_EQ(row("bcast").sim_messages, 15u);
  EXPECT_EQ(row("reduce(+)").sim_messages, 15u);
  EXPECT_EQ(row("reduce(+,root=3)").sim_messages, 16u);  // + hop 0 -> 3
}

TEST(Drift, ReportFlagsDivergenceBeyondTolerance) {
  // An unsatisfiable (negative) tolerance must flag every row, proving
  // the ok/all_ok/DIVERGENCE path is live.
  DriftOptions opts;
  opts.procs = {4, 8};
  opts.tolerance = -1.0;
  const auto rep = drift_report(ir::parse_program("scan(+)"), kMach, opts);
  ASSERT_EQ(rep.rows.size(), 2u);
  EXPECT_FALSE(rep.rows[0].ok);
  EXPECT_FALSE(rep.all_ok());
  EXPECT_NE(rep.render_text().find("DIVERGENCE"), std::string::npos);
}

TEST(Drift, JsonExportParsesAndMirrorsTheRows) {
  const auto rep = drift_report(ir::parse_program("allreduce(+)"), kMach);
  std::ostringstream os;
  rep.write_json(os);
  const auto doc = json::parse(os.str());
  ASSERT_NE(doc.get("program"), nullptr);
  EXPECT_EQ(doc.get("program")->str, rep.program);
  ASSERT_NE(doc.get("all_ok"), nullptr);
  EXPECT_EQ(doc.get("all_ok")->b, rep.all_ok());
  const auto* rows = doc.get("rows");
  ASSERT_NE(rows, nullptr);
  ASSERT_EQ(rows->items.size(), rep.rows.size());
  for (std::size_t i = 0; i < rows->items.size(); ++i) {
    const auto& item = *rows->items[i];
    ASSERT_NE(item.get("p"), nullptr);
    EXPECT_EQ(static_cast<int>(item.get("p")->num), rep.rows[i].p);
    ASSERT_NE(item.get("sim_messages"), nullptr);
    EXPECT_DOUBLE_EQ(item.get("sim_messages")->num,
                     static_cast<double>(rep.rows[i].sim_messages));
    ASSERT_NE(item.get("ok"), nullptr);
  }
}

}  // namespace
}  // namespace colop::obs
