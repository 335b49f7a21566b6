#pragma once

/// \file schema.h
/// Tables, seeded data and SQL statements of the benchmark. The OLTP and
/// analytic schemas are shared: `oltp_wire` and `analytic_wire` run their
/// statements, and `whatif_plan` forecasts the same statements.

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/value.h"
#include "database.h"
#include "modeling/model_bot.h"

namespace perfbench {

// --- OLTP: account (indexed by a_id) and an append-only history ----------

/// Accounts per client; client c owns ids [c * kAccountsPerClient,
/// (c + 1) * kAccountsPerClient) and is the only writer of that range.
constexpr int64_t kAccountsPerClient = 16384;

/// Creates `account` with index `account_pk` on a_id, and `history`.
mb2::Status CreateOltpSchema(mb2::Database *db);
/// Inserts `clients * kAccountsPerClient` accounts with seeded balances
/// (a_ytd = 0) and returns the balances, indexed by account id.
mb2::Result<std::vector<int64_t>> LoadAccounts(mb2::Database *db, uint64_t seed,
                                               int clients);

std::string PointReadSql(int64_t account);
std::string UpdateSql(int64_t account, int64_t delta);
std::string InsertSql(int64_t client, int64_t seq, int64_t account, int64_t amount);

// --- Analytic: disk-resident lineitem fact table, in-memory dimensions ---

struct LineRow {
  int64_t id, part, supp, qty;
  double price;  ///< a multiple of 0.25, so every SUM is exact
  int64_t ship, flag;
};
struct PartRow {
  int64_t id, brand, size;
};
struct SupplierRow {
  int64_t id, nation;
};
struct AnalyticData {
  std::vector<LineRow> lines;
  std::vector<PartRow> parts;
  std::vector<SupplierRow> suppliers;
};

constexpr int64_t kLineRows = 8000;
constexpr int64_t kPartRows = 2000;
constexpr int64_t kSupplierRows = 100;
/// Pool size the analytic workload runs with (4 KiB frames); the fact table
/// must occupy at least 4x this many pages.
constexpr int64_t kAnalyticPoolPages = 32;

AnalyticData GenerateAnalytic(uint64_t seed);
/// Creates lineitem WITH (storage = disk), part and supplier, and loads them.
mb2::Status LoadAnalytic(mb2::Database *db, const AnalyticData &data);

/// One analytic statement with the answer the benchmark computed itself,
/// with plain loops over the generated rows.
struct AnalyticStatement {
  int template_id = 0;
  const char *kind = "";  ///< "scan_agg" or "join"
  std::string sql;
  std::vector<mb2::Tuple> expected;  ///< rows in output order
  /// For `ORDER BY <col> DESC LIMIT k` on a non-unique column: rows tied on
  /// that column may come in any order, so the check compares the sorted
  /// column and the set of rows instead of the exact sequence. -1 = exact.
  int tie_col = -1;
};

constexpr int kAnalyticTemplates = 4;
constexpr int kLiteralVariants = 8;

/// kAnalyticTemplates x kLiteralVariants statements, template-major, with
/// seeded literals.
std::vector<AnalyticStatement> MakeAnalyticStatements(const AnalyticData &data,
                                                      uint64_t seed);
/// True when `rows` is a correct answer to `stmt`.
bool CheckAnalytic(const AnalyticStatement &stmt, const std::vector<mb2::Tuple> &rows);

// --- Behavior models ------------------------------------------------------

struct TrainedModels {
  double sweep_s = 0.0;  ///< OuRunner::RunAll wall time
  double train_s = 0.0;  ///< ModelBot::TrainOuModels wall time
  size_t records = 0;
};

/// The one model family the benchmark trains. Fixed, because selection
/// across families picks a winner from timing-derived labels, which would
/// change what the serving path runs from one run to the next.
constexpr mb2::MlAlgorithm kModelFamily = mb2::MlAlgorithm::kLinear;

/// Runs the OU-runner sweep (OuRunnerConfig::Small with execution modes 0
/// and 2) on a scratch database and trains every bot on its records
/// (`train_s` is the time of one training).
TrainedModels TrainBehaviorModels(const std::vector<mb2::ModelBot *> &bots);

/// Shape of a plan (node types and table names, pre-order), used to report
/// the join order the optimizer chose.
std::string PlanShape(const mb2::PlanNode &plan);

}  // namespace perfbench
