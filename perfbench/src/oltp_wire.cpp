// oltp_wire: TPC-C-style short statements over loopback. Each client owns a
// key range of `account` and is its only writer, so no write conflicts and
// every read has one right answer: the client's shadow of its range.
// A round of 20 statements is 14 point SELECTs, 4 single-row UPDATEs and 2
// INSERTs into `history`, shuffled. The server runs with
// wal_sync_commit = 1, the WAL flusher and the GC.

#include <algorithm>
#include <filesystem>
#include <map>
#include <memory>
#include <tuple>

#include "common/rng.h"
#include "net/server.h"
#include "obs/metrics_registry.h"
#include "phases.h"
#include "schema.h"
#include "wal/log_recovery.h"
#include "workloads.h"

namespace perfbench {

using mb2::Tuple;
using mb2::Value;

namespace {

constexpr int kClients = 4;
constexpr int kReadsPerRound = 14;
constexpr int kUpdatesPerRound = 4;
constexpr int kInsertsPerRound = 2;
constexpr int kRoundSize = kReadsPerRound + kUpdatesPerRound + kInsertsPerRound;

enum Class : int { kRead = 0, kUpdate = 1, kInsert = 2 };

const std::vector<StatementClass> kClasses = {
    {"op.read", "exec.point", false, double(kReadsPerRound) / kRoundSize},
    {"op.update", "exec.write", true, double(kUpdatesPerRound) / kRoundSize},
    {"op.insert", "exec.write", true, double(kInsertsPerRound) / kRoundSize},
};

using HistoryRow = std::tuple<int64_t, int64_t, int64_t, int64_t>;

class OltpClient final : public StatementSource {
 public:
  OltpClient(int64_t id, uint64_t seed, const std::vector<int64_t> &balances)
      : id_(id),
        rng_(seed * 7919 + static_cast<uint64_t>(id) * 104729 + 3),
        balance_(balances.begin() + id * kAccountsPerClient,
                 balances.begin() + (id + 1) * kAccountsPerClient),
        ytd_(static_cast<size_t>(kAccountsPerClient), 0) {}

  void NextRound() override {
    round_.clear();
    for (int k = 0; k < kRoundSize; k++) {
      Pending p;
      p.cls = k < kReadsPerRound ? kRead
              : k < kReadsPerRound + kUpdatesPerRound ? kUpdate
                                                      : kInsert;
      round_.push_back(p);
    }
    for (size_t k = round_.size(); k > 1; k--) {
      std::swap(round_[k - 1], round_[static_cast<size_t>(rng_.Uniform(0, k - 1))]);
    }
    for (Pending &p : round_) {
      p.local = rng_.Uniform(0, kAccountsPerClient - 1);
      p.delta = rng_.Uniform(1, 99);
      const int64_t account = id_ * kAccountsPerClient + p.local;
      switch (p.cls) {
        case kRead: p.sql = PointReadSql(account); break;
        case kUpdate: p.sql = UpdateSql(account, p.delta); break;
        default:
          p.seq = next_seq_++;
          p.sql = InsertSql(id_, p.seq, account, p.delta);
      }
    }
  }
  size_t RoundSize() const override { return round_.size(); }
  const std::string &Sql(size_t i) const override { return round_[i].sql; }
  int Class(size_t i) const override { return round_[i].cls; }

  bool Check(size_t i, const std::vector<Tuple> &rows, std::string *why) override {
    const Pending &p = round_[i];
    const auto local = static_cast<size_t>(p.local);
    if (p.cls == kRead) {
      const std::vector<Tuple> want = {
          {Value::Integer(balance_[local]), Value::Integer(ytd_[local])}};
      if (SameRows(rows, want)) return true;
      *why = "stale or wrong read: " + p.sql;
      return false;
    }
    if (!SameRows(rows, {{Value::Integer(1)}})) {
      *why = "write did not touch exactly one row: " + p.sql;
      return false;
    }
    if (p.cls == kUpdate) {
      balance_[local] += p.delta;
      ytd_[local] += 1;
    } else {
      history_.emplace_back(id_, p.seq, id_ * kAccountsPerClient + p.local, p.delta);
    }
    return true;
  }

  /// Expected account rows (a_id, a_client, a_balance, a_ytd) of this range.
  void AppendAccounts(std::vector<Tuple> *out) const {
    for (int64_t k = 0; k < kAccountsPerClient; k++) {
      const auto local = static_cast<size_t>(k);
      out->push_back({Value::Integer(id_ * kAccountsPerClient + k), Value::Integer(id_),
                      Value::Integer(balance_[local]), Value::Integer(ytd_[local])});
    }
  }
  const std::vector<HistoryRow> &history() const { return history_; }

 private:
  struct Pending {
    int cls = kRead;
    int64_t local = 0;
    int64_t delta = 0;
    int64_t seq = 0;
    std::string sql;
  };

  int64_t id_;
  mb2::Rng rng_;
  std::vector<int64_t> balance_;
  std::vector<int64_t> ytd_;
  std::vector<HistoryRow> history_;
  int64_t next_seq_ = 0;
  std::vector<Pending> round_;
};

std::vector<Tuple> SortedRows(mb2::Database *db, const std::string &sql,
                              Report *report) {
  auto result = db->Execute(sql);
  if (!result.ok() || !result.value().status.ok()) {
    report->Fail("final read failed: " + sql);
    return {};
  }
  std::vector<Tuple> rows = std::move(result.value().batch.rows);
  std::sort(rows.begin(), rows.end(), [](const Tuple &a, const Tuple &b) {
    return std::lexicographical_compare(a.begin(), a.end(), b.begin(), b.end());
  });
  return rows;
}

/// The whole of `account` and `history` must equal the merged shadow state
/// of every client's acknowledged writes.
void CheckFinalState(mb2::Database *db,
                     const std::vector<std::unique_ptr<OltpClient>> &clients,
                     const std::string &label, Report *report) {
  std::vector<Tuple> accounts, history;
  for (const auto &c : clients) {
    c->AppendAccounts(&accounts);
    for (const auto &[client, seq, account, amount] : c->history()) {
      history.push_back({Value::Integer(client), Value::Integer(seq),
                         Value::Integer(account), Value::Integer(amount)});
    }
  }
  std::sort(history.begin(), history.end(), [](const Tuple &a, const Tuple &b) {
    return std::lexicographical_compare(a.begin(), a.end(), b.begin(), b.end());
  });
  if (!SameRows(SortedRows(db, "SELECT a_id, a_client, a_balance, a_ytd FROM account",
                           report),
                accounts)) {
    report->Fail(label + ": account table differs from the acknowledged writes");
  }
  if (!SameRows(SortedRows(db, "SELECT h_client, h_seq, h_account, h_amount FROM history",
                           report),
                history)) {
    report->Fail(label + ": history table differs from the acknowledged inserts");
  }
}

uint64_t FileSize(const std::string &path) {
  std::error_code ec;
  const auto size = std::filesystem::file_size(path, ec);
  return ec ? 0 : static_cast<uint64_t>(size);
}

size_t Writes(const PhaseResult &p) {
  return p.class_us[kUpdate].size() + p.class_us[kInsert].size();
}

std::vector<double> WriteLatencies(const PhaseResult &p) {
  std::vector<double> out = p.class_us[kUpdate];
  out.insert(out.end(), p.class_us[kInsert].begin(), p.class_us[kInsert].end());
  return out;
}

}  // namespace

void RunOltpWire(const Options &options, Report *report) {
  const std::string wal_path = options.dir + "/oltp.wal";
  mb2::Database::Options db_options;
  db_options.wal_path = wal_path;
  db_options.heap_path = options.dir + "/oltp.heap";
  db_options.start_flusher = true;
  db_options.start_gc = true;
  auto db = std::make_unique<mb2::Database>(db_options);

  mb2::Status s = CreateOltpSchema(db.get());
  auto balances = s.ok() ? LoadAccounts(db.get(), options.seed, kClients)
                         : mb2::Result<std::vector<int64_t>>(s);
  if (!balances.ok()) {
    report->Fail("setup: " + balances.status().ToString());
    return;
  }
  db->log_manager().FlushNow();
  db->estimator().RefreshStats();
  db->settings().SetInt("wal_sync_commit", 1);

  std::vector<std::unique_ptr<OltpClient>> clients;
  std::vector<StatementSource *> sources;
  for (int c = 0; c < kClients; c++) {
    clients.push_back(std::make_unique<OltpClient>(c, options.seed, balances.value()));
    sources.push_back(clients.back().get());
  }

  mb2::net::ServerOptions server_options;
  server_options.num_reactors = 1;
  server_options.num_workers = kClients;
  mb2::net::Server server(db.get(), nullptr, server_options);
  s = server.Start();
  if (!s.ok()) {
    report->Fail("server start: " + s.ToString());
    return;
  }
  // Warm-up: one round per client fills the plan cache and the connections.
  PhaseResult warm = RunWirePhase(server.port(), sources, kClasses.size(), 0.0);
  MergeFailures(warm, report);
  const double setup_s = SecondsSinceStart();

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

    // A: the wire path, with a PING after every 10th statement.
    const uint64_t wal_before = FileSize(wal_path);
    const uint64_t records_before = db->log_manager().total_records_serialized();
    const mb2::sql::PlanCacheStats cache_before = db->plan_cache().stats();
    const mb2::net::ServerStats net_before = server.stats();
    PhaseResult wire = RunWirePhase(server.port(), sources, kClasses.size(), slice, 10);
    const mb2::net::ServerStats net_after = server.stats();
    const mb2::sql::PlanCacheStats cache_after = db->plan_cache().stats();
    const double writes = static_cast<double>(std::max<size_t>(1, Writes(wire)));
    const double wal_bytes = static_cast<double>(FileSize(wal_path) - wal_before);
    const double records = static_cast<double>(
        db->log_manager().total_records_serialized() - records_before);
    const double lookups = static_cast<double>((cache_after.hits - cache_before.hits) +
                                               (cache_after.misses - cache_before.misses));

    // B, C: in process through Database::Execute(sql), obs off then on.
    PhaseResult whole = RunInProcessPhase(db.get(), sources, kClasses.size(), slice);
    mb2::obs::SetEnabled(true);
    PhaseResult obs_on = RunInProcessPhase(db.get(), sources, kClasses.size(), slice / 2);
    mb2::obs::SetEnabled(false);

    // D: the traced replay. Sync commit is split into Commit + FlushNow so
    // the WAL flush is its own span; FlushNow fsyncs, as sync commit does.
    db->settings().SetInt("wal_sync_commit", 0);
    PhaseResult traced = RunTracedPhase(db.get(), sources, kClasses, slice, &tracer, &next_op);
    db->settings().SetInt("wal_sync_commit", 1);

    std::vector<std::vector<Tuple>> samples;
    for (int k = 0; k < 200; k++) {
      if (k % 10 < 7) {
        auto r = db->Execute(PointReadSql((k * 977) % (kClients * kAccountsPerClient)));
        if (r.ok()) samples.push_back(std::move(r.value().batch.rows));
      } else {
        samples.push_back({{Value::Integer(1)}});
      }
    }
    for (int rep = 0; rep < 10; rep++) {
      if (!TraceCodec(samples, &tracer, &next_op)) report->Fail("SQL response codec does not round-trip");
    }

    for (const PhaseResult *p : {&wire, &whole, &obs_on, &traced}) MergeFailures(*p, report);
    report->attempted = wire.ops + whole.ops + obs_on.ops + traced.ops;
    report->failed = wire.failed + whole.failed + obs_on.failed + traced.failed;

    const double ping_p50 = Median(wire.ping_us);
    const double whole_ops_s = static_cast<double>(whole.ops) / whole.seconds;
    const double traced_ops_s = static_cast<double>(traced.ops) / traced.seconds;
    const std::vector<double> write_us = WriteLatencies(wire);
    AddPerLayer(
        {{"write_p50_us", Percentile(write_us, 0.50)},
         {"write_p99_us", Percentile(write_us, 0.99)},
         {"wal_bytes_per_write", wal_bytes / writes},
         {"net.ping_p50_us", ping_p50},
         {"net.unattributed_p50_us", Median(wire.all_us) - Median(whole.all_us) - ping_p50},
         {"net.encode_us", tracer.MedianUs("net.encode")},
         {"net.decode_us", tracer.MedianUs("net.decode")},
         {"net.bytes_per_op",
          static_cast<double>((net_after.bytes_in - net_before.bytes_in) +
                              (net_after.bytes_out - net_before.bytes_out)) /
              static_cast<double>(std::max<uint64_t>(1, net_after.requests - net_before.requests))},
         {"catalog.knob_read_ns", KnobReadNs(&db->settings(), kClients)},
         {"sql.tokenize_us", tracer.MedianUs("sql.tokenize")},
         {"sql.normalize_us", tracer.MedianUs("sql.normalize")},
         {"sql.cache_lookup_us", tracer.MedianUs("sql.cache_lookup")},
         {"sql.instantiate_us", tracer.MedianUs("sql.instantiate")},
         {"sql.cache_hit_ratio",
          lookups > 0 ? static_cast<double>(cache_after.hits - cache_before.hits) / lookups : 0.0},
         {"sql.parse_bind_us", tracer.MedianUs("sql.parse_bind")},
         {"exec.point_us", tracer.MedianUs("exec.point")},
         {"exec.write_us", tracer.MedianUs("exec.write")},
         {"txn.begin_us", tracer.MedianUs("txn.begin")},
         {"txn.commit_us", tracer.MedianUs("txn.commit")},
         {"txn.aborts", static_cast<double>(wire.aborts + whole.aborts + obs_on.aborts +
                                            traced.aborts)},
         {"wal.flush_us", tracer.MedianUs("wal.flush")},
         {"wal.records_per_write", records / writes},
         {"obs.on_off_ratio",
          whole_ops_s / (static_cast<double>(obs_on.ops) / obs_on.seconds)},
         {"trace.sum_to_whole", SumToWhole(tracer, kClasses, whole)},
         {"trace.overhead_pct", (whole_ops_s / traced_ops_s - 1.0) * 100.0}},
        report);
    if (!tracer.Write(options.dir + "/trace.csv")) report->Fail("cannot write trace dump");
  }
  server.Stop();

  // Every acknowledged write is in the tables, then in a fresh database
  // rebuilt from the WAL alone after a simulated crash.
  CheckFinalState(db.get(), clients, "live", report);
  db->log_manager().Crash();
  mb2::Database recovered;
  s = CreateOltpSchema(&recovered);
  if (!s.ok()) {
    report->Fail("recovery DDL: " + s.ToString());
    return;
  }
  auto replay = mb2::ReplayLog(wal_path, &recovered.catalog(), &recovered.txn_manager());
  if (!replay.ok()) {
    report->Fail("WAL replay: " + replay.status().ToString());
    return;
  }
  CheckFinalState(&recovered, clients, "recovered", report);
}

}  // namespace perfbench
