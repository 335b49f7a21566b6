#include "phases.h"

#include <algorithm>
#include <cstdio>
#include <latch>
#include <memory>
#include <thread>

#include "net/client.h"
#include "net/wire.h"
#include "sql/lexer.h"
#include "sql/parser.h"
#include "sql/plan_cache.h"

namespace perfbench {

using mb2::Tuple;

namespace {

double UsSince(int64_t start_ns) {
  return static_cast<double>(NowNs() - start_ns) / 1e3;
}

/// Merges per-thread results; `seconds` is set by the caller.
PhaseResult Merge(std::vector<PhaseResult> parts, size_t num_classes) {
  PhaseResult out;
  out.class_us.resize(num_classes);
  for (PhaseResult &p : parts) {
    out.ops += p.ops;
    out.failed += p.failed;
    out.aborts += p.aborts;
    out.all_us.insert(out.all_us.end(), p.all_us.begin(), p.all_us.end());
    out.end_ns.insert(out.end_ns.end(), p.end_ns.begin(), p.end_ns.end());
    for (size_t c = 0; c < num_classes; c++) {
      out.class_us[c].insert(out.class_us[c].end(), p.class_us[c].begin(),
                             p.class_us[c].end());
    }
    out.ping_us.insert(out.ping_us.end(), p.ping_us.begin(), p.ping_us.end());
    for (std::string &f : p.failures) out.failures.push_back(std::move(f));
  }
  return out;
}

/// Books one answered statement into `r`.
void Record(StatementSource *src, size_t i, const std::vector<Tuple> &rows,
            bool aborted, double us, PhaseResult *r) {
  r->ops++;
  r->all_us.push_back(us);
  r->end_ns.push_back(NowNs());
  r->class_us[static_cast<size_t>(src->Class(i))].push_back(us);
  if (aborted) {
    r->aborts++;
    r->failed++;
    r->failures.push_back("aborted: " + src->Sql(i));
    return;
  }
  std::string why;
  if (!src->Check(i, rows, &why)) r->failures.push_back(why);
}

void RecordError(StatementSource *src, size_t i, const mb2::Status &status,
                 PhaseResult *r) {
  r->ops++;
  r->failed++;
  r->failures.push_back(status.ToString() + ": " + src->Sql(i));
}

}  // namespace

PhaseResult RunWirePhase(uint16_t port, const std::vector<StatementSource *> &sources,
                         size_t num_classes, double seconds, int ping_every) {
  std::vector<PhaseResult> parts(sources.size());
  std::vector<int64_t> starts(sources.size()), ends(sources.size());
  std::latch ready(static_cast<std::ptrdiff_t>(sources.size()));
  std::vector<std::thread> threads;
  for (size_t t = 0; t < sources.size(); t++) {
    threads.emplace_back([&, t] {
      mb2::net::ClientOptions options;
      options.port = port;
      options.pool_size = 1;
      // At-most-once: a retried write could apply twice.
      options.retry.max_attempts = 1;
      mb2::net::Client client(options);
      PhaseResult &r = parts[t];
      r.class_us.resize(num_classes);
      r.all_us.reserve(1 << 17);
      r.end_ns.reserve(1 << 17);
      const mb2::Status connected = client.Ping();  // dial before the clock
      if (!connected.ok()) r.failures.push_back("connect: " + connected.ToString());
      ready.arrive_and_wait();
      StatementSource *src = sources[t];
      starts[t] = NowNs();
      const int64_t deadline = starts[t] + static_cast<int64_t>(seconds * 1e9);
      do {
        src->NextRound();
        for (size_t i = 0; i < src->RoundSize(); i++) {
          const int64_t t0 = NowNs();
          auto result = client.ExecuteSql(src->Sql(i));
          const double us = UsSince(t0);
          if (!result.ok()) {
            RecordError(src, i, result.status(), &r);
          } else {
            Record(src, i, result.value().rows, result.value().aborted, us, &r);
          }
          if (ping_every > 0 && r.ops % static_cast<uint64_t>(ping_every) == 0) {
            const int64_t p0 = NowNs();
            const mb2::Status pong = client.Ping();
            if (pong.ok()) {
              r.ping_us.push_back(UsSince(p0));
            } else {
              r.failures.push_back("ping: " + pong.ToString());
            }
          }
        }
      } while (NowNs() < deadline);
      ends[t] = NowNs();
    });
  }
  for (std::thread &th : threads) th.join();
  PhaseResult out = Merge(std::move(parts), num_classes);
  out.start_ns = *std::min_element(starts.begin(), starts.end());
  out.seconds = static_cast<double>(*std::max_element(ends.begin(), ends.end()) -
                                    *std::min_element(starts.begin(), starts.end())) /
                1e9;
  return out;
}

PhaseResult RunInProcessPhase(mb2::Database *db,
                              const std::vector<StatementSource *> &sources,
                              size_t num_classes, double seconds) {
  PhaseResult r;
  r.class_us.resize(num_classes);
  size_t next = 0;
  r.start_ns = NowNs();
  r.seconds = RunRounds(seconds, [&] {
    StatementSource *src = sources[next++ % sources.size()];
    src->NextRound();
    for (size_t i = 0; i < src->RoundSize(); i++) {
      const int64_t t0 = NowNs();
      auto result = db->Execute(src->Sql(i));
      const double us = UsSince(t0);
      if (!result.ok()) {
        RecordError(src, i, result.status(), &r);
      } else if (!result.value().status.ok() && !result.value().aborted) {
        RecordError(src, i, result.value().status, &r);
      } else {
        Record(src, i, result.value().batch.rows, result.value().aborted, us, &r);
      }
    }
  });
  return r;
}

namespace {

/// One statement through each layer's public entry point, every call in its
/// own span. Mirrors sql::ExecuteSql: a cache hit instantiates the cached
/// template; a miss parses and binds, and caches the plan if cacheable.
mb2::Status TracedStatement(mb2::Database *db, const std::string &statement,
                            const StatementClass &cls, Tracer *tracer, uint64_t op,
                            std::vector<Tuple> *rows, bool *aborted) {
  namespace sql = mb2::sql;
  Tracer::Scope whole(tracer, cls.op_span, op);
  auto tokens = [&] {
    Tracer::Scope s(tracer, "sql.tokenize", op);
    return sql::Tokenize(statement);
  }();
  if (!tokens.ok()) return tokens.status();
  std::string key;
  std::vector<mb2::Value> literals;
  {
    Tracer::Scope s(tracer, "sql.normalize", op);
    key = sql::NormalizeTokens(tokens.value());
    literals = sql::LiteralValues(tokens.value());
  }
  std::shared_ptr<const sql::CachedPlan> entry;
  {
    Tracer::Scope s(tracer, "sql.cache_lookup", op);
    entry = db->plan_cache().Lookup(key, literals);
  }
  mb2::PlanPtr owned;
  const mb2::PlanNode *plan = nullptr;
  std::shared_ptr<sql::CachedPlan> fresh;
  if (entry != nullptr) {
    if (entry->num_literals == 0) {
      plan = entry->plan.get();
    } else {
      Tracer::Scope s(tracer, "sql.instantiate", op);
      owned = sql::InstantiatePlan(*entry, literals);
      plan = owned.get();
    }
  } else {
    const uint64_t version = db->catalog().version();
    auto bound = [&] {
      Tracer::Scope s(tracer, "sql.parse_bind", op);
      return sql::Parse(db, statement);
    }();
    if (!bound.ok()) return bound.status();
    sql::BoundStatement &b = bound.value();
    if (b.cacheable) {
      fresh = std::make_shared<sql::CachedPlan>();
      fresh->kind = b.kind == sql::BoundStatement::Kind::kQuery
                        ? sql::CachedPlan::Kind::kQuery
                        : sql::CachedPlan::Kind::kDml;
      fresh->plan = std::move(b.plan);
      fresh->structural_literals = std::move(b.structural_literals);
      fresh->num_literals = b.num_literals;
      fresh->catalog_version = version;
      plan = fresh->plan.get();
    } else {
      owned = std::move(b.plan);
      plan = owned.get();
    }
  }

  mb2::Status status;
  if (!cls.write) {
    mb2::QueryResult result;
    {
      Tracer::Scope s(tracer, cls.exec_span, op);
      result = db->engine().ExecuteQuery(*plan);
    }
    status = result.status;
    *aborted = result.aborted;
    *rows = std::move(result.batch.rows);
  } else {
    mb2::TransactionManager &tm = db->txn_manager();
    std::unique_ptr<mb2::Transaction> txn;
    {
      Tracer::Scope s(tracer, "txn.begin", op);
      txn = tm.Begin();
    }
    mb2::Batch batch;
    {
      Tracer::Scope s(tracer, cls.exec_span, op);
      status = db->engine().ExecuteInTxn(*plan, txn.get(), &batch);
    }
    if (status.ok()) {
      Tracer::Scope s(tracer, "txn.commit", op);
      status = tm.Commit(txn.get());
    } else {
      tm.Abort(txn.get());
    }
    *aborted = !status.ok();
    if (status.ok()) {
      Tracer::Scope s(tracer, "wal.flush", op);
      status = db->log_manager().FlushNow();
    }
    *rows = std::move(batch.rows);
  }
  if (status.ok() && fresh != nullptr) db->plan_cache().Insert(key, std::move(fresh));
  return *aborted ? mb2::Status::Ok() : status;
}

}  // namespace

PhaseResult RunTracedPhase(mb2::Database *db,
                           const std::vector<StatementSource *> &sources,
                           const std::vector<StatementClass> &classes,
                           double seconds, Tracer *tracer, uint64_t *next_op) {
  PhaseResult r;
  r.class_us.resize(classes.size());
  size_t next = 0;
  r.start_ns = NowNs();
  r.seconds = RunRounds(seconds, [&] {
    StatementSource *src = sources[next++ % sources.size()];
    src->NextRound();
    for (size_t i = 0; i < src->RoundSize(); i++) {
      std::vector<Tuple> rows;
      bool aborted = false;
      const int64_t t0 = NowNs();
      const mb2::Status status =
          TracedStatement(db, src->Sql(i), classes[static_cast<size_t>(src->Class(i))],
                          tracer, (*next_op)++, &rows, &aborted);
      const double us = UsSince(t0);
      if (!status.ok()) {
        RecordError(src, i, status, &r);
      } else {
        Record(src, i, rows, aborted, us, &r);
      }
    }
  });
  return r;
}

double SumToWhole(const Tracer &tracer, const std::vector<StatementClass> &classes,
                  const PhaseResult &whole) {
  double ratio = 0.0;
  for (size_t c = 0; c < classes.size(); c++) {
    const StatementClass &cls = classes[c];
    // A cache miss runs sql::Parse, which tokenizes again: the separate
    // tokenize span is then not on sql::ExecuteSql's path.
    const double parse = tracer.MedianUsWithin("sql.parse_bind", cls.op_span);
    double parts = parse > 0.0 ? parse : tracer.MedianUsWithin("sql.tokenize", cls.op_span);
    for (const char *layer : {"sql.normalize", "sql.cache_lookup", "sql.instantiate",
                              "txn.begin", "txn.commit", "wal.flush"}) {
      parts += tracer.MedianUsWithin(layer, cls.op_span);
    }
    parts += tracer.MedianUsWithin(cls.exec_span, cls.op_span);
    const double whole_us = Median(whole.class_us[c]);
    if (whole_us > 0.0) ratio += cls.share * parts / whole_us;
  }
  return ratio;
}

bool TraceCodec(const std::vector<std::vector<Tuple>> &results, Tracer *tracer,
                uint64_t *next_op) {
  namespace net = mb2::net;
  bool round_trips = true;
  for (const std::vector<Tuple> &rows : results) {
    const uint64_t op = (*next_op)++;
    net::SqlResponseBody body;
    body.rows = rows;
    std::vector<uint8_t> payload;
    {
      Tracer::Scope s(tracer, "net.encode", op);
      payload = net::EncodeSqlResponse(body);
    }
    net::SqlResponseBody decoded;
    {
      Tracer::Scope s(tracer, "net.decode", op);
      net::WireCode code;
      std::string message;
      size_t offset = 0;
      if (net::DecodeResponseHead(payload, &code, &message, &offset)) {
        net::DecodeSqlResponseBody(payload, offset, &decoded);
      }
    }
    round_trips = round_trips && SameRows(decoded.rows, rows);
  }
  return round_trips;
}

double KnobReadNs(mb2::SettingsManager *settings, int threads) {
  constexpr int kBatches = 20;
  constexpr int kReadsPerBatch = 5000;
  std::vector<std::vector<double>> per_thread(static_cast<size_t>(threads));
  std::latch ready(threads);
  std::vector<std::thread> pool;
  for (int t = 0; t < threads; t++) {
    pool.emplace_back([&, t] {
      ready.arrive_and_wait();
      int64_t sink = 0;
      for (int b = 0; b < kBatches; b++) {
        const int64_t t0 = NowNs();
        for (int i = 0; i < kReadsPerBatch; i++) {
          sink += settings->GetInt(i % 2 == 0 ? "execution_mode" : "optimizer_mode");
        }
        per_thread[static_cast<size_t>(t)].push_back(
            static_cast<double>(NowNs() - t0) / kReadsPerBatch);
      }
      if (sink < 0) std::fprintf(stderr, "unexpected knob value\n");
    });
  }
  for (std::thread &th : pool) th.join();
  std::vector<double> all;
  for (auto &v : per_thread) all.insert(all.end(), v.begin(), v.end());
  return Median(std::move(all));
}

void MergeFailures(const PhaseResult &phase, Report *report) {
  for (const std::string &f : phase.failures) report->Fail(f);
}

}  // namespace perfbench
