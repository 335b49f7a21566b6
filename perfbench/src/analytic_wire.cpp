// analytic_wire: read-only TPC-H-style statements over loopback from two
// clients: filtered aggregates, GROUP BY with ORDER BY ordinal, and two-way
// hash joins with a dimension table. The lineitem fact table is
// WITH (storage = disk) and at least 4x the buffer pool; the dimensions are
// in memory. Execution is vectorized (execution_mode = 2) and the optimizer
// is model-costed (optimizer_mode = 1) with models trained during setup.

#include <algorithm>
#include <map>
#include <memory>

#include "common/rng.h"
#include "net/server.h"
#include "obs/metrics_registry.h"
#include "phases.h"
#include "schema.h"
#include "sql/parser.h"
#include "storage/table_heap.h"
#include "workloads.h"

namespace perfbench {

using mb2::Tuple;

namespace {

constexpr int kClients = 2;
/// Each template appears this often in a round of
/// kAnalyticTemplates * kPerTemplate statements.
constexpr int kPerTemplate = 2;

enum Class : int { kScanAgg = 0, kJoin = 1 };

const std::vector<StatementClass> kClasses = {
    {"op.scan_agg", "exec.scan_agg", false, 0.5},
    {"op.join", "exec.join", false, 0.5},
};

class AnalyticClient final : public StatementSource {
 public:
  AnalyticClient(int id, uint64_t seed, const std::vector<AnalyticStatement> *stmts)
      : rng_(seed * 6007 + static_cast<uint64_t>(id) * 15485863 + 5), stmts_(stmts) {}

  void NextRound() override {
    round_.clear();
    for (int t = 0; t < kAnalyticTemplates; t++) {
      for (int k = 0; k < kPerTemplate; k++) {
        round_.push_back(static_cast<size_t>(
            t * kLiteralVariants + rng_.Uniform(0, kLiteralVariants - 1)));
      }
    }
    for (size_t k = round_.size(); k > 1; k--) {
      std::swap(round_[k - 1], round_[static_cast<size_t>(rng_.Uniform(0, k - 1))]);
    }
  }
  size_t RoundSize() const override { return round_.size(); }
  const std::string &Sql(size_t i) const override { return Stmt(i).sql; }
  int Class(size_t i) const override {
    return std::string_view(Stmt(i).kind) == "join" ? kJoin : kScanAgg;
  }
  bool Check(size_t i, const std::vector<Tuple> &rows, std::string *why) override {
    if (CheckAnalytic(Stmt(i), rows)) return true;
    *why = "wrong answer: " + Stmt(i).sql;
    return false;
  }

 private:
  const AnalyticStatement &Stmt(size_t i) const { return (*stmts_)[round_[i]]; }

  mb2::Rng rng_;
  const std::vector<AnalyticStatement> *stmts_;
  std::vector<size_t> round_;
};

void SetModes(mb2::Database *db, int execution_mode, int optimizer_mode) {
  db->settings().SetInt("execution_mode", execution_mode);
  db->settings().SetInt("optimizer_mode", optimizer_mode);
}

/// Untimed: every statement gives a correct, identical answer under
/// execution_mode 0 and 2 crossed with optimizer_mode 0 and 1.
void CheckModesAgree(mb2::Database *db, const std::vector<AnalyticStatement> &stmts,
                     Report *report) {
  for (int exec_mode : {0, 2}) {
    for (int opt_mode : {0, 1}) {
      SetModes(db, exec_mode, opt_mode);
      for (const AnalyticStatement &st : stmts) {
        auto r = db->Execute(st.sql);
        if (!r.ok() || !r.value().status.ok() || !CheckAnalytic(st, r.value().batch.rows)) {
          report->Fail("execution_mode " + std::to_string(exec_mode) + ", optimizer_mode " +
                       std::to_string(opt_mode) + ": wrong answer to " + st.sql);
        }
      }
    }
  }
  SetModes(db, 2, 1);
}

/// Plan the statement under `optimizer_mode`, and median ExecuteQuery time
/// of that plan over `reps` runs (each in a span called `span`).
double TimedPlan(mb2::Database *db, const std::string &sql, int optimizer_mode,
                 const char *span, Tracer *tracer, uint64_t *next_op, std::string *shape) {
  db->settings().SetInt("optimizer_mode", optimizer_mode);
  auto bound = mb2::sql::Parse(db, sql);
  db->settings().SetInt("optimizer_mode", 1);
  if (!bound.ok()) return 0.0;
  *shape = PlanShape(*bound.value().plan);
  std::vector<double> us;
  for (int rep = 0; rep < 5; rep++) {
    const int64_t t0 = NowNs();
    {
      Tracer::Scope s(tracer, span, (*next_op)++);
      db->engine().ExecuteQuery(*bound.value().plan);
    }
    us.push_back(static_cast<double>(NowNs() - t0) / 1e3);
  }
  return Median(std::move(us));
}

}  // namespace

void RunAnalyticWire(const Options &options, Report *report) {
  mb2::Database::Options db_options;
  db_options.heap_path = options.dir + "/analytic.heap";
  mb2::Database db(db_options);
  db.settings().SetInt("buffer_pool_pages", kAnalyticPoolPages);

  const AnalyticData data = GenerateAnalytic(options.seed);
  mb2::Status s = LoadAnalytic(&db, data);
  if (!s.ok()) {
    report->Fail("setup: " + s.ToString());
    return;
  }
  db.estimator().RefreshStats();
  mb2::Table *lineitem = db.catalog().GetTable("lineitem");
  const uint64_t pages = lineitem->heap()->NumPages();
  if (pages < 4 * static_cast<uint64_t>(kAnalyticPoolPages)) {
    report->Fail("lineitem has " + std::to_string(pages) + " pages, under 4x the pool");
  }

  mb2::ModelBot bot(&db.catalog(), &db.estimator(), &db.settings());
  const TrainedModels models = TrainBehaviorModels({&bot});
  db.set_model_bot(&bot);
  SetModes(&db, 2, 1);

  const std::vector<AnalyticStatement> stmts = MakeAnalyticStatements(data, options.seed);
  std::vector<std::unique_ptr<AnalyticClient>> clients;
  std::vector<StatementSource *> sources;
  for (int c = 0; c < kClients; c++) {
    clients.push_back(std::make_unique<AnalyticClient>(c, options.seed, &stmts));
    sources.push_back(clients.back().get());
  }

  mb2::net::ServerOptions server_options;
  server_options.num_reactors = 1;
  server_options.num_workers = kClients;
  mb2::net::Server server(&db, nullptr, server_options);
  s = server.Start();
  if (!s.ok()) {
    report->Fail("server start: " + s.ToString());
    return;
  }
  PhaseResult warm = RunWirePhase(server.port(), sources, kClasses.size(), 0.0);
  MergeFailures(warm, report);
  const double setup_s = SecondsSinceStart();
  std::fprintf(stderr, "analytic_wire: %llu lineitem pages, pool %lld; sweep %.2f s, "
                       "train %.2f s, setup %.2f s\n",
               static_cast<unsigned long long>(pages),
               static_cast<long long>(kAnalyticPoolPages), models.sweep_s,
               models.train_s, setup_s);

  if (!options.trace) {
    PhaseResult m = RunWirePhase(server.port(), sources, kClasses.size(), options.seconds);
    MergeFailures(m, report);
    report->attempted = m.ops;
    report->failed = m.failed;
    AddEndToEnd(setup_s, m.start_ns, options.seconds, m.end_ns, m.all_us, report);
  } else {
    Tracer tracer;
    uint64_t next_op = 1;
    const double slice = options.seconds / 4.0;
    mb2::BufferPool *pool = db.buffer_pool();

    const mb2::sql::PlanCacheStats cache_before = db.plan_cache().stats();
    const mb2::net::ServerStats net_before = server.stats();
    const mb2::BufferPool::Stats pool_before = pool->stats();
    PhaseResult wire = RunWirePhase(server.port(), sources, kClasses.size(), slice, 10);
    const mb2::BufferPool::Stats pool_after = pool->stats();
    const mb2::net::ServerStats net_after = server.stats();
    const mb2::sql::PlanCacheStats cache_after = db.plan_cache().stats();
    const double lookups = static_cast<double>((cache_after.hits - cache_before.hits) +
                                               (cache_after.misses - cache_before.misses));
    const double pool_hits = static_cast<double>(pool_after.hits - pool_before.hits);
    const double pool_misses = static_cast<double>(pool_after.misses - pool_before.misses);

    PhaseResult whole = RunInProcessPhase(&db, sources, kClasses.size(), slice);
    mb2::obs::SetEnabled(true);
    PhaseResult obs_on = RunInProcessPhase(&db, sources, kClasses.size(), slice / 2);
    mb2::obs::SetEnabled(false);
    PhaseResult traced = RunTracedPhase(&db, sources, kClasses, slice, &tracer, &next_op);

    // Plan regret per join statement: the chosen (model-costed) plan's time
    // over the faster of the heuristic and model-costed plans.
    std::vector<double> regrets;
    for (const AnalyticStatement &st : stmts) {
      if (std::string_view(st.kind) != "join") continue;
      std::string heuristic_shape, model_shape;
      const double heuristic = TimedPlan(&db, st.sql, 0, "plan.heuristic", &tracer,
                                         &next_op, &heuristic_shape);
      const double model =
          TimedPlan(&db, st.sql, 1, "plan.model", &tracer, &next_op, &model_shape);
      if (heuristic > 0 && model > 0) regrets.push_back(model / std::min(heuristic, model));
      std::fprintf(stderr, "join T%d heuristic %s %.0f us, model %s %.0f us\n",
                   st.template_id, heuristic_shape.c_str(), heuristic,
                   model_shape.c_str(), model);
    }

    std::vector<std::vector<Tuple>> samples;
    for (const AnalyticStatement &st : stmts) samples.push_back(st.expected);
    for (int rep = 0; rep < 20; rep++) {
      if (!TraceCodec(samples, &tracer, &next_op)) report->Fail("SQL response codec does not round-trip");
    }

    for (int rep = 0; rep < 10; rep++) {
      std::vector<mb2::HeapRow> rows;
      Tracer::Scope span(&tracer, "storage.heap_scan", next_op++);
      if (!lineitem->heap()->ScanRows(&rows).ok() ||
          rows.size() != static_cast<size_t>(kLineRows)) {
        report->Fail("heap scan of lineitem returned the wrong row count");
      }
    }

    for (const PhaseResult *p : {&wire, &whole, &obs_on, &traced}) MergeFailures(*p, report);
    report->attempted = wire.ops + whole.ops + obs_on.ops + traced.ops;
    report->failed = wire.failed + whole.failed + obs_on.failed + traced.failed;

    const double ping_p50 = Median(wire.ping_us);
    const double whole_ops_s = static_cast<double>(whole.ops) / whole.seconds;
    const double traced_ops_s = static_cast<double>(traced.ops) / traced.seconds;
    AddPerLayer(
        {{"net.ping_p50_us", ping_p50},
         {"net.unattributed_p50_us", Median(wire.all_us) - Median(whole.all_us) - ping_p50},
         {"net.encode_us", tracer.MedianUs("net.encode")},
         {"net.decode_us", tracer.MedianUs("net.decode")},
         {"net.bytes_per_op",
          static_cast<double>((net_after.bytes_in - net_before.bytes_in) +
                              (net_after.bytes_out - net_before.bytes_out)) /
              static_cast<double>(std::max<uint64_t>(1, net_after.requests - net_before.requests))},
         {"catalog.knob_read_ns", KnobReadNs(&db.settings(), kClients)},
         {"sql.tokenize_us", tracer.MedianUs("sql.tokenize")},
         {"sql.normalize_us", tracer.MedianUs("sql.normalize")},
         {"sql.cache_lookup_us", tracer.MedianUs("sql.cache_lookup")},
         {"sql.instantiate_us", tracer.MedianUs("sql.instantiate")},
         {"sql.cache_hit_ratio",
          lookups > 0 ? static_cast<double>(cache_after.hits - cache_before.hits) / lookups : 0.0},
         {"sql.parse_bind_us", tracer.MedianUs("sql.parse_bind")},
         {"plan.join_regret", Median(regrets)},
         {"exec.scan_agg_us", tracer.MedianUs("exec.scan_agg")},
         {"exec.join_us", tracer.MedianUs("exec.join")},
         {"txn.aborts", static_cast<double>(wire.aborts + whole.aborts + obs_on.aborts +
                                            traced.aborts)},
         {"storage.heap_scan_us", tracer.MedianUs("storage.heap_scan")},
         {"storage.pool_hit_ratio",
          pool_hits + pool_misses > 0 ? pool_hits / (pool_hits + pool_misses) : 0.0},
         {"storage.pool_misses_per_op", pool_misses / static_cast<double>(wire.ops)},
         {"ml.train_s", models.train_s},
         {"runner.sweep_s", models.sweep_s},
         {"obs.on_off_ratio",
          whole_ops_s / (static_cast<double>(obs_on.ops) / obs_on.seconds)},
         {"trace.sum_to_whole", SumToWhole(tracer, kClasses, whole)},
         {"trace.overhead_pct", (whole_ops_s / traced_ops_s - 1.0) * 100.0}},
        report);
    if (!tracer.Write(options.dir + "/trace.csv")) report->Fail("cannot write trace dump");
  }
  server.Stop();
  CheckModesAgree(&db, stmts, report);
}

}  // namespace perfbench
