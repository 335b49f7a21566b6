// whatif_plan: in-process self-driving planning. Each operation is one
// Planner::ChooseBest over a fixed set of eight candidates (five index
// creates and one drop on the tables of the two SQL workloads, and two
// execution_mode flips). The forecast's templates are those workloads'
// statements, re-planned on every call of the forecast factory, with
// literals and arrival rates that rotate from decision to decision.

#include <algorithm>
#include <cmath>
#include <cstring>
#include <deque>
#include <memory>
#include <optional>
#include <thread>

#include "common/rng.h"
#include "net/client.h"
#include "net/server.h"
#include "obs/metrics_registry.h"
#include "phases.h"
#include "schema.h"
#include "selfdriving/planner.h"
#include "sql/parser.h"
#include "workloads.h"

namespace perfbench {

namespace {

constexpr int kForecastClients = 4;
/// Independent planners deciding in parallel, one thread each: a single
/// thread's speed on this shared host changes from process to process, and
/// several threads average that out the way the SQL workloads' clients do.
constexpr int kPlanners = 4;

std::vector<mb2::Action> Candidates() {
  using mb2::Action;
  using mb2::IndexSchema;
  return {
      Action::CreateIndex(IndexSchema{"w_account_client", "account", {1}, false}, 4),
      Action::CreateIndex(IndexSchema{"w_history_client", "history", {0, 1}, false}, 4),
      Action::CreateIndex(IndexSchema{"w_lineitem_ship", "lineitem", {5}, false}, 4),
      Action::CreateIndex(IndexSchema{"w_part_size", "part", {2}, false}, 4),
      Action::CreateIndex(IndexSchema{"w_supplier_id", "supplier", {0}, false}, 4),
      Action::DropIndex("account_pk"),
      Action::ChangeKnob("execution_mode", 0),
      Action::ChangeKnob("execution_mode", 1),
  };
}

/// The benchmark's forecast factory: one set of template statements per
/// literal variant, re-planned through sql::Parse on every call under the
/// catalog and knobs of that moment. Counts and (optionally) traces calls.
class Replanner {
 public:
  Replanner(mb2::Database *db, uint64_t seed, const std::vector<AnalyticStatement> &analytic)
      : db_(db) {
    mb2::Rng rng(seed * 31337 + 17);
    const int64_t accounts = kForecastClients * kAccountsPerClient;
    for (int v = 0; v < kLiteralVariants; v++) {
      const int64_t a = rng.Uniform(0, accounts - 1);
      Variant var;
      var.sqls = {PointReadSql(a), UpdateSql(rng.Uniform(0, accounts - 1), rng.Uniform(1, 99)),
                  InsertSql(rng.Uniform(0, kForecastClients - 1), v, a, rng.Uniform(1, 99))};
      var.rates = {700.0, 200.0, 100.0};
      for (int t = 0; t < kAnalyticTemplates; t++) {
        var.sqls.push_back(analytic[static_cast<size_t>(t * kLiteralVariants + v)].sql);
        var.rates.push_back(5.0);
      }
      // Rates rotate with the variant: each template's rate is scaled by
      // one of four factors, shifted by its position.
      for (size_t k = 0; k < var.rates.size(); k++) {
        var.rates[k] *= 1.0 + 0.25 * static_cast<double>((static_cast<size_t>(v) + k) % 4);
      }
      variants_.push_back(std::move(var));
    }
  }

  /// Selects the variant for the next decision and drops the plans of the
  /// previous one (the planner holds no forecast across decisions).
  void Begin(size_t decision, Tracer *tracer, uint64_t op) {
    variant_ = decision % variants_.size();
    plans_.clear();
    tracer_ = tracer;
    op_ = op;
  }

  mb2::WorkloadForecast operator()() {
    std::optional<Tracer::Scope> span;
    if (tracer_ != nullptr) span.emplace(tracer_, "selfdriving.replan", op_);
    replans_++;
    const Variant &var = variants_[variant_];
    mb2::WorkloadForecast forecast;
    forecast.interval_s = 10.0;
    forecast.num_threads = kForecastClients;
    for (size_t k = 0; k < var.sqls.size(); k++) {
      auto bound = [&] {
        std::optional<Tracer::Scope> parse;
        if (tracer_ != nullptr) parse.emplace(tracer_, "sql.parse_bind", op_);
        return mb2::sql::Parse(db_, var.sqls[k]);
      }();
      if (!bound.ok()) {
        failures_++;
        continue;
      }
      plans_.push_back(std::move(bound.value().plan));
      forecast.entries.push_back({plans_.back().get(), var.rates[k], "t" + std::to_string(k)});
    }
    return forecast;
  }

  uint64_t replans() const { return replans_; }
  uint64_t failures() const { return failures_; }

 private:
  struct Variant {
    std::vector<std::string> sqls;
    std::vector<double> rates;
  };
  mb2::Database *db_;
  std::vector<Variant> variants_;
  size_t variant_ = 0;
  std::deque<mb2::PlanPtr> plans_;
  Tracer *tracer_ = nullptr;
  uint64_t op_ = 0;
  uint64_t replans_ = 0;
  uint64_t failures_ = 0;
};

bool Finite(const mb2::ActionEvaluation &e) {
  return std::isfinite(e.cost_us) && std::isfinite(e.impact_avg_latency_us) &&
         std::isfinite(e.benefit_avg_latency_us) && std::isfinite(e.baseline_avg_latency_us);
}

bool SameLabels(const mb2::Labels &a, const mb2::Labels &b) {
  return std::memcmp(a.data(), b.data(), sizeof(double) * a.size()) == 0;
}

struct DecisionPhase {
  int64_t start_ns = 0;
  double seconds = 0.0;
  uint64_t decisions = 0;
  std::vector<double> us;
  std::vector<int64_t> end_ns;
};

/// One planner over its own database and models: what one decision thread
/// owns. Decisions on different worlds share nothing.
struct World {
  World(const std::string &heap_path, uint64_t seed, const AnalyticData &data)
      : db(HeapOnly(heap_path)),
        bot(&db.catalog(), &db.estimator(), &db.settings()),
        planner(&db, &bot),
        replanner(&db, seed, MakeAnalyticStatements(data, seed)),
        replan([this] { return replanner(); }) {}
  World(const World &) = delete;
  World &operator=(const World &) = delete;

  mb2::Status Load(uint64_t seed, const AnalyticData &data) {
    db.settings().SetInt("buffer_pool_pages", kAnalyticPoolPages);
    mb2::Status s = CreateOltpSchema(&db);
    if (!s.ok()) return s;
    auto balances = LoadAccounts(&db, seed, kForecastClients);
    if (!balances.ok()) return balances.status();
    s = LoadAnalytic(&db, data);
    if (!s.ok()) return s;
    db.estimator().RefreshStats();
    return db.settings().SetInt("execution_mode", 2);
  }

  /// Call after training: what every what-if must leave unchanged.
  void Snapshot() {
    indexes_before = db.catalog().IndexNames();
    knobs_before = db.settings().Snapshot();
  }

  /// One decision = one ChooseBest; every what-if must leave the catalog's
  /// index set and every knob exactly as it found them.
  void Decide(DecisionPhase *phase) {
    replanner.Begin(next_decision++, nullptr, 0);
    const int64_t t0 = NowNs();
    const auto best = planner.ChooseBest(candidates, replan);
    const int64_t t1 = NowNs();
    phase->us.push_back(static_cast<double>(t1 - t0) / 1e3);
    phase->end_ns.push_back(t1);
    phase->decisions++;
    if (best.has_value() && !Finite(*best)) failures.push_back("non-finite evaluation");
    if (db.catalog().IndexNames() != indexes_before) {
      failures.push_back("what-if changed the index set");
    }
    if (db.settings().Snapshot() != knobs_before) failures.push_back("what-if changed a knob");
  }

  /// Whole rounds (one decision per literal variant) for `seconds`.
  DecisionPhase Run(double seconds) {
    DecisionPhase phase;
    phase.start_ns = NowNs();
    phase.seconds = RunRounds(seconds, [&] {
      for (int v = 0; v < kLiteralVariants; v++) Decide(&phase);
    });
    return phase;
  }

  static mb2::Database::Options HeapOnly(const std::string &heap_path) {
    mb2::Database::Options options;
    options.heap_path = heap_path;
    return options;
  }

  mb2::Database db;
  mb2::ModelBot bot;
  mb2::Planner planner;
  Replanner replanner;
  const mb2::Planner::ForecastFactory replan;
  const std::vector<mb2::Action> candidates = Candidates();
  std::vector<std::string> indexes_before;
  std::map<std::string, double> knobs_before;
  size_t next_decision = 0;
  std::vector<std::string> failures;
};

}  // namespace

void RunWhatifPlan(const Options &options, Report *report) {
  const AnalyticData data = GenerateAnalytic(options.seed);
  std::vector<std::unique_ptr<World>> worlds;
  std::vector<mb2::ModelBot *> bots;
  for (int p = 0; p < kPlanners; p++) {
    worlds.push_back(std::make_unique<World>(
        options.dir + "/whatif-" + std::to_string(p) + ".heap", options.seed, data));
    const mb2::Status s = worlds.back()->Load(options.seed, data);
    if (!s.ok()) {
      report->Fail("setup: " + s.ToString());
      return;
    }
    bots.push_back(&worlds.back()->bot);
  }
  const TrainedModels models = TrainBehaviorModels(bots);
  for (auto &w : worlds) w->Snapshot();

  // The traced mode and the serving checks use the first world.
  World &w0 = *worlds[0];
  mb2::Database &db = w0.db;
  mb2::ModelBot &bot = w0.bot;
  mb2::Planner &planner = w0.planner;
  Replanner &replanner = w0.replanner;
  const mb2::Planner::ForecastFactory &replan = w0.replan;
  const std::vector<std::string> &indexes_before = w0.indexes_before;
  const std::map<std::string, double> &knobs_before = w0.knobs_before;
  const std::vector<mb2::Action> &candidates = w0.candidates;
  uint64_t next_op = 1;
  const auto run = [&](double seconds) { return w0.Run(seconds); };

  // Warm-up: one round per world fills its OU-prediction cache.
  for (auto &w : worlds) w->Run(0.0);
  const double setup_s = SecondsSinceStart();
  std::fprintf(stderr, "whatif_plan: %d planners x %zu candidates; sweep %.2f s (%zu records), "
                       "train %.2f s, setup %.2f s\n",
               kPlanners, candidates.size(), models.sweep_s, models.records, models.train_s,
               setup_s);

  if (!options.trace) {
    // One decision thread per world, all measured over the same seconds.
    std::vector<DecisionPhase> phases(worlds.size());
    std::vector<std::thread> threads;
    for (size_t p = 0; p < worlds.size(); p++) {
      threads.emplace_back([&, p] { phases[p] = worlds[p]->Run(options.seconds); });
    }
    for (std::thread &t : threads) t.join();
    DecisionPhase m;
    m.start_ns = phases[0].start_ns;
    for (const DecisionPhase &p : phases) {
      m.start_ns = std::min(m.start_ns, p.start_ns);
      m.decisions += p.decisions;
      m.us.insert(m.us.end(), p.us.begin(), p.us.end());
      m.end_ns.insert(m.end_ns.end(), p.end_ns.begin(), p.end_ns.end());
    }
    report->attempted = m.decisions;
    AddEndToEnd(setup_s, m.start_ns, options.seconds, m.end_ns, m.us, report);
  } else {
    Tracer tracer;
    const double slice = options.seconds / 4.0;
    const uint64_t replans_before = replanner.replans();
    bot.ResetOuCacheStats();
    const DecisionPhase whole = run(slice);
    const mb2::PredictionCacheStats cache = bot.ou_cache_stats();
    const double replans_per_decision =
        static_cast<double>(replanner.replans() - replans_before) /
        static_cast<double>(whole.decisions);
    mb2::obs::SetEnabled(true);
    const DecisionPhase obs_on = run(slice / 2);
    mb2::obs::SetEnabled(false);

    // Traced replay: the same decision stream, one Planner::Evaluate span
    // per candidate, with the forecast factory and its sql::Parse calls
    // traced inside.
    DecisionPhase traced;
    std::vector<double> evaluate_sums;
    traced.seconds = RunRounds(slice, [&] {
      for (int v = 0; v < kLiteralVariants; v++) {
        const uint64_t op = next_op++;
        replanner.Begin(w0.next_decision++, &tracer, op);
        Tracer::Scope decision(&tracer, "op.decision", op);
        double sum = 0.0;
        for (const mb2::Action &candidate : candidates) {
          const int64_t t0 = NowNs();
          mb2::ActionEvaluation eval;
          {
            Tracer::Scope span(&tracer, "selfdriving.evaluate", op);
            eval = planner.Evaluate(candidate, replan);
          }
          sum += static_cast<double>(NowNs() - t0) / 1e3;
          if (!Finite(eval)) report->Fail("non-finite evaluation");
        }
        evaluate_sums.push_back(sum);
        traced.decisions++;
      }
    });
    if (db.catalog().IndexNames() != indexes_before) report->Fail("what-if changed the index set");
    if (db.settings().Snapshot() != knobs_before) report->Fail("what-if changed a knob");

    // The model-serving layers, replayed on the same forecasts.
    std::vector<size_t> ous_per_call;
    for (int rep = 0; rep < 4; rep++) {
      for (int v = 0; v < kLiteralVariants; v++) {
        const uint64_t op = next_op++;
        replanner.Begin(static_cast<size_t>(v), nullptr, 0);
        const mb2::WorkloadForecast forecast = replanner();
        std::vector<mb2::TranslatedOu> ous;
        for (const mb2::ForecastEntry &e : forecast.entries) {
          Tracer::Scope span(&tracer, "modeling.translate", op);
          auto translated = bot.translator().TranslateQuery(*e.plan);
          ous.insert(ous.end(), translated.begin(), translated.end());
        }
        {
          Tracer::Scope span(&tracer, "modeling.predict_ous", op);
          bot.PredictOus(ous);
        }
        ous_per_call.push_back(ous.size());
        Tracer::Scope span(&tracer, "modeling.predict_interval", op);
        bot.PredictInterval(forecast);
      }
    }

    // OuModel::Predict per row on the served features.
    replanner.Begin(0, nullptr, 0);
    const mb2::WorkloadForecast forecast = replanner();
    std::vector<mb2::TranslatedOu> ous;
    for (const mb2::ForecastEntry &e : forecast.entries) {
      auto translated = bot.translator().TranslateQuery(*e.plan);
      ous.insert(ous.end(), translated.begin(), translated.end());
    }
    std::vector<double> row_ns;
    for (int rep = 0; rep < 200; rep++) {
      size_t rows = 0;
      const int64_t t0 = NowNs();
      for (const mb2::TranslatedOu &ou : ous) {
        if (const mb2::OuModel *model = bot.GetOuModel(ou.type)) {
          model->Predict(ou.features);
          rows++;
        }
      }
      if (rows > 0) row_ns.push_back(static_cast<double>(NowNs() - t0) / static_cast<double>(rows));
    }

    report->attempted = whole.decisions + obs_on.decisions + traced.decisions;
    const double whole_ops_s = static_cast<double>(whole.decisions) / whole.seconds;
    const double lookups = static_cast<double>(cache.hits + cache.misses);
    std::vector<double> sizes(ous_per_call.begin(), ous_per_call.end());
    AddPerLayer(
        {{"catalog.knob_read_ns", KnobReadNs(&db.settings(), 1)},
         {"sql.parse_bind_us", tracer.MedianUs("sql.parse_bind")},
         {"modeling.translate_us", tracer.MedianUs("modeling.translate")},
         {"modeling.predict_ous_us", tracer.MedianUs("modeling.predict_ous")},
         {"modeling.ous_per_call", Median(sizes)},
         {"modeling.predict_interval_us", tracer.MedianUs("modeling.predict_interval")},
         {"modeling.ou_cache_hit_ratio",
          lookups > 0 ? static_cast<double>(cache.hits) / lookups : 0.0},
         {"ml.predict_row_ns", Median(row_ns)},
         {"ml.train_s", models.train_s},
         {"runner.sweep_s", models.sweep_s},
         {"selfdriving.evaluate_us", tracer.MedianUs("selfdriving.evaluate")},
         {"selfdriving.replan_us", tracer.MedianUs("selfdriving.replan")},
         {"selfdriving.replans_per_decision", replans_per_decision},
         {"obs.on_off_ratio",
          whole_ops_s / (static_cast<double>(obs_on.decisions) / obs_on.seconds)},
         {"trace.sum_to_whole", Median(evaluate_sums) / Median(whole.us)},
         {"trace.overhead_pct",
          (whole_ops_s / (static_cast<double>(traced.decisions) / traced.seconds) - 1.0) *
              100.0}},
        report);
    if (!tracer.Write(options.dir + "/trace.csv")) report->Fail("cannot write trace dump");
  }
  for (const auto &w : worlds) {
    for (const std::string &f : w->failures) report->Fail(f);
    if (w->replanner.failures() != 0) report->Fail("a forecast template failed to plan");
  }

  // Serving checks on sampled OUs of every variant's forecast.
  std::vector<mb2::TranslatedOu> sample;
  for (int v = 0; v < kLiteralVariants; v++) {
    replanner.Begin(static_cast<size_t>(v), nullptr, 0);
    const mb2::WorkloadForecast forecast = replanner();
    for (const mb2::ForecastEntry &e : forecast.entries) {
      for (const mb2::TranslatedOu &ou : bot.translator().TranslateQuery(*e.plan)) {
        sample.push_back(ou);
      }
    }
    for (const mb2::Action &a : candidates) {
      for (const mb2::TranslatedOu &ou : bot.translator().TranslateAction(a)) sample.push_back(ou);
    }
  }
  const std::vector<mb2::Labels> batched = bot.PredictOus(sample);
  for (size_t i = 0; i < sample.size(); i++) {
    for (double label : batched[i]) {
      if (!std::isfinite(label)) report->Fail("non-finite OU label");
    }
    const mb2::OuModel *model = bot.GetOuModel(sample[i].type);
    if (model != nullptr && !SameLabels(model->Predict(sample[i].features), batched[i])) {
      report->Fail("batched PredictOus differs from per-row OuModel::Predict");
    }
  }
  const int64_t capacity = db.settings().GetInt("ou_cache_capacity");
  db.settings().SetInt("ou_cache_capacity", 0);
  const std::vector<mb2::Labels> uncached = bot.PredictOus(sample);
  db.settings().SetInt("ou_cache_capacity", capacity);
  for (size_t i = 0; i < sample.size(); i++) {
    if (!SameLabels(uncached[i], batched[i])) report->Fail("OU cache changes a prediction");
  }

  mb2::net::ServerOptions server_options;
  server_options.num_reactors = 1;
  server_options.num_workers = 1;
  mb2::net::Server server(&db, &bot, server_options);
  const mb2::Status s = server.Start();
  if (!s.ok()) {
    report->Fail("server start: " + s.ToString());
    return;
  }
  mb2::net::ClientOptions client_options;
  client_options.port = server.port();
  mb2::net::Client client(client_options);
  auto remote = client.PredictOus(sample);
  if (!remote.ok() || remote.value().per_ou.size() != sample.size()) {
    report->Fail("remote PREDICT_OUS failed");
  } else {
    for (size_t i = 0; i < sample.size(); i++) {
      if (!SameLabels(remote.value().per_ou[i], batched[i])) {
        report->Fail("remote PREDICT_OUS differs from in-process PredictOus");
      }
    }
  }
  server.Stop();
}

}  // namespace perfbench
