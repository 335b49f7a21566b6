#include "schema.h"

#include <algorithm>
#include <cstdio>
#include <map>
#include <set>

#include "bench.h"
#include "common/rng.h"
#include "plan/plan_node.h"
#include "runner/ou_runner.h"

namespace perfbench {

using mb2::Result;
using mb2::Status;
using mb2::Tuple;
using mb2::Value;

namespace {

Status Exec(mb2::Database *db, const std::string &sql) {
  auto result = db->Execute(sql);
  if (!result.ok()) return result.status();
  return result.value().status;
}

std::string Num(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.2f", v);
  return buf;
}

/// Loads `rows` with multi-row INSERTs of kPerStatement rows each.
template <typename Row, typename Fmt>
Status InsertRows(mb2::Database *db, const std::string &table,
                  const std::vector<Row> &rows, Fmt fmt) {
  constexpr size_t kPerStatement = 256;
  for (size_t i = 0; i < rows.size(); i += kPerStatement) {
    std::string sql = "INSERT INTO " + table + " VALUES ";
    for (size_t j = i; j < std::min(rows.size(), i + kPerStatement); j++) {
      sql += (j == i ? "(" : ", (") + fmt(rows[j]) + ")";
    }
    Status s = Exec(db, sql);
    if (!s.ok()) return s;
  }
  return Status::Ok();
}

Value I(int64_t v) { return Value::Integer(v); }
Value D(double v) { return Value::Double(v); }

}  // namespace

Status CreateOltpSchema(mb2::Database *db) {
  for (const char *ddl :
       {"CREATE TABLE account (a_id INTEGER, a_client INTEGER, "
        "a_balance INTEGER, a_ytd INTEGER)",
        "CREATE INDEX account_pk ON account (a_id)",
        "CREATE TABLE history (h_client INTEGER, h_seq INTEGER, "
        "h_account INTEGER, h_amount INTEGER)"}) {
    Status s = Exec(db, ddl);
    if (!s.ok()) return s;
  }
  return Status::Ok();
}

Result<std::vector<int64_t>> LoadAccounts(mb2::Database *db, uint64_t seed,
                                          int clients) {
  mb2::Rng rng(seed * 1000003 + 11);
  std::vector<int64_t> balances(static_cast<size_t>(clients * kAccountsPerClient));
  std::vector<int64_t> ids(balances.size());
  for (size_t i = 0; i < balances.size(); i++) {
    ids[i] = static_cast<int64_t>(i);
    balances[i] = rng.Uniform(0, 99999);
  }
  Status s = InsertRows(db, "account", ids, [&](int64_t id) {
    return std::to_string(id) + ", " + std::to_string(id / kAccountsPerClient) +
           ", " + std::to_string(balances[static_cast<size_t>(id)]) + ", 0";
  });
  if (!s.ok()) return s;
  return balances;
}

std::string PointReadSql(int64_t account) {
  return "SELECT a_balance, a_ytd FROM account WHERE a_id = " +
         std::to_string(account);
}

std::string UpdateSql(int64_t account, int64_t delta) {
  return "UPDATE account SET a_balance = a_balance + " + std::to_string(delta) +
         ", a_ytd = a_ytd + 1 WHERE a_id = " + std::to_string(account);
}

std::string InsertSql(int64_t client, int64_t seq, int64_t account,
                      int64_t amount) {
  return "INSERT INTO history VALUES (" + std::to_string(client) + ", " +
         std::to_string(seq) + ", " + std::to_string(account) + ", " +
         std::to_string(amount) + ")";
}

AnalyticData GenerateAnalytic(uint64_t seed) {
  mb2::Rng rng(seed * 1000003 + 29);
  AnalyticData data;
  for (int64_t i = 0; i < kPartRows; i++) {
    data.parts.push_back({i, rng.Uniform(0, 24), rng.Uniform(1, 50)});
  }
  for (int64_t i = 0; i < kSupplierRows; i++) {
    data.suppliers.push_back({i, rng.Uniform(0, 24)});
  }
  for (int64_t i = 0; i < kLineRows; i++) {
    LineRow r;
    r.id = i;
    r.part = rng.Uniform(0, kPartRows - 1);
    r.supp = rng.Uniform(0, kSupplierRows - 1);
    r.qty = rng.Uniform(1, 50);
    r.price = static_cast<double>(rng.Uniform(400, 400000)) * 0.25;
    r.ship = rng.Uniform(0, 2555);
    r.flag = rng.Uniform(0, 3);
    data.lines.push_back(r);
  }
  return data;
}

Status LoadAnalytic(mb2::Database *db, const AnalyticData &data) {
  for (const char *ddl :
       {"CREATE TABLE lineitem (l_id INTEGER, l_part INTEGER, l_supp INTEGER, "
        "l_qty INTEGER, l_price DOUBLE, l_ship INTEGER, l_flag INTEGER) "
        "WITH (storage = disk)",
        "CREATE TABLE part (p_id INTEGER, p_brand INTEGER, p_size INTEGER)",
        "CREATE TABLE supplier (s_id INTEGER, s_nation INTEGER)"}) {
    Status s = Exec(db, ddl);
    if (!s.ok()) return s;
  }
  Status s = InsertRows(db, "part", data.parts, [](const PartRow &r) {
    return std::to_string(r.id) + ", " + std::to_string(r.brand) + ", " +
           std::to_string(r.size);
  });
  if (!s.ok()) return s;
  s = InsertRows(db, "supplier", data.suppliers, [](const SupplierRow &r) {
    return std::to_string(r.id) + ", " + std::to_string(r.nation);
  });
  if (!s.ok()) return s;
  return InsertRows(db, "lineitem", data.lines, [](const LineRow &r) {
    return std::to_string(r.id) + ", " + std::to_string(r.part) + ", " +
           std::to_string(r.supp) + ", " + std::to_string(r.qty) + ", " +
           Num(r.price) + ", " + std::to_string(r.ship) + ", " +
           std::to_string(r.flag);
  });
}

std::vector<AnalyticStatement> MakeAnalyticStatements(const AnalyticData &data,
                                                      uint64_t seed) {
  mb2::Rng rng(seed * 1000003 + 47);
  std::vector<AnalyticStatement> out;

  // T0: filtered aggregate over a ship-date window.
  for (int v = 0; v < kLiteralVariants; v++) {
    const int64_t lo = rng.Uniform(0, 2000);
    const int64_t hi = lo + rng.Uniform(90, 365);
    AnalyticStatement st;
    st.template_id = 0;
    st.kind = "scan_agg";
    st.sql = "SELECT COUNT(*), SUM(l_qty), SUM(l_price) FROM lineitem WHERE "
             "l_ship >= " + std::to_string(lo) + " AND l_ship < " +
             std::to_string(hi);
    int64_t count = 0;
    double qty = 0, price = 0;
    for (const LineRow &r : data.lines) {
      if (r.ship >= lo && r.ship < hi) {
        count++;
        qty += static_cast<double>(r.qty);
        price += r.price;
      }
    }
    st.expected = {{I(count), D(qty), D(price)}};
    out.push_back(std::move(st));
  }

  // T1: TPC-H Q1 shape, GROUP BY the flag, ORDER BY ordinal.
  for (int v = 0; v < kLiteralVariants; v++) {
    const int64_t until = rng.Uniform(1500, 2555);
    AnalyticStatement st;
    st.template_id = 1;
    st.kind = "scan_agg";
    st.sql = "SELECT l_flag, COUNT(*), SUM(l_qty), SUM(l_price), MAX(l_price) "
             "FROM lineitem WHERE l_ship <= " + std::to_string(until) +
             " GROUP BY l_flag ORDER BY 1";
    struct Acc { int64_t count = 0; double qty = 0, price = 0, max = 0; };
    std::map<int64_t, Acc> groups;
    for (const LineRow &r : data.lines) {
      if (r.ship > until) continue;
      Acc &a = groups[r.flag];
      a.max = a.count == 0 ? r.price : std::max(a.max, r.price);
      a.count++;
      a.qty += static_cast<double>(r.qty);
      a.price += r.price;
    }
    for (const auto &[flag, a] : groups) {
      st.expected.push_back({I(flag), I(a.count), D(a.qty), D(a.price), D(a.max)});
    }
    out.push_back(std::move(st));
  }

  // T2: two-way hash join with the part dimension, GROUP BY brand.
  for (int v = 0; v < kLiteralVariants; v++) {
    const int64_t size = rng.Uniform(5, 20);
    AnalyticStatement st;
    st.template_id = 2;
    st.kind = "join";
    st.sql = "SELECT p_brand, COUNT(*), SUM(l_qty) FROM lineitem JOIN part ON "
             "l_part = p_id WHERE p_size < " + std::to_string(size) +
             " GROUP BY p_brand ORDER BY 1";
    std::map<int64_t, std::pair<int64_t, double>> groups;
    for (const LineRow &r : data.lines) {
      const PartRow &p = data.parts[static_cast<size_t>(r.part)];
      if (p.size >= size) continue;
      auto &g = groups[p.brand];
      g.first++;
      g.second += static_cast<double>(r.qty);
    }
    for (const auto &[brand, g] : groups) {
      st.expected.push_back({I(brand), I(g.first), D(g.second)});
    }
    out.push_back(std::move(st));
  }

  // T3: join with the supplier dimension, top-5 nations by revenue.
  for (int v = 0; v < kLiteralVariants; v++) {
    const int64_t qty = rng.Uniform(10, 40);
    AnalyticStatement st;
    st.template_id = 3;
    st.kind = "join";
    st.sql = "SELECT s_nation, SUM(l_price) FROM lineitem JOIN supplier ON "
             "l_supp = s_id WHERE l_qty > " + std::to_string(qty) +
             " GROUP BY s_nation ORDER BY 2 DESC LIMIT 5";
    std::map<int64_t, double> groups;
    for (const LineRow &r : data.lines) {
      if (r.qty <= qty) continue;
      groups[data.suppliers[static_cast<size_t>(r.supp)].nation] += r.price;
    }
    std::vector<Tuple> rows;
    for (const auto &[nation, sum] : groups) rows.push_back({I(nation), D(sum)});
    std::stable_sort(rows.begin(), rows.end(), [](const Tuple &a, const Tuple &b) {
      return a[1].AsDouble() > b[1].AsDouble();
    });
    st.tie_col = 1;
    st.expected = std::move(rows);  // every group; the check takes the top 5
    out.push_back(std::move(st));
  }
  return out;
}

bool CheckAnalytic(const AnalyticStatement &stmt, const std::vector<Tuple> &rows) {
  if (stmt.tie_col < 0) return SameRows(rows, stmt.expected);
  // Top-k under ties: the k values of the sort column must be the k largest,
  // in order, and each returned row must be one of the expected groups.
  const size_t k = std::min<size_t>(5, stmt.expected.size());
  if (rows.size() != k) return false;
  std::set<std::string> seen;
  for (size_t i = 0; i < k; i++) {
    const auto col = static_cast<size_t>(stmt.tie_col);
    if (rows[i].size() != stmt.expected[i].size()) return false;
    if (rows[i][col].type() != mb2::TypeId::kDouble ||
        rows[i][col].AsDouble() != stmt.expected[i][col].AsDouble()) {
      return false;
    }
    const auto match = std::find_if(
        stmt.expected.begin(), stmt.expected.end(),
        [&](const Tuple &e) { return SameRows({e}, {rows[i]}); });
    if (match == stmt.expected.end()) return false;
    if (!seen.insert(rows[i][0].ToString()).second) return false;
  }
  return true;
}

TrainedModels TrainBehaviorModels(const std::vector<mb2::ModelBot *> &bots) {
  TrainedModels out;
  mb2::Database sweep_db;
  mb2::OuRunnerConfig config = mb2::OuRunnerConfig::Small();
  config.exec_modes = {0, 2};
  int64_t t0 = NowNs();
  std::vector<mb2::OuRecord> records;
  {
    mb2::OuRunner runner(&sweep_db, config);
    records = runner.RunAll();
  }
  out.sweep_s = static_cast<double>(NowNs() - t0) / 1e9;
  out.records = records.size();
  for (mb2::ModelBot *bot : bots) {
    t0 = NowNs();
    bot->TrainOuModels(records, {kModelFamily});
    out.train_s = static_cast<double>(NowNs() - t0) / 1e9;
  }
  return out;
}

std::string PlanShape(const mb2::PlanNode &plan) {
  std::string out = mb2::PlanNodeTypeName(plan.type);
  if (plan.type == mb2::PlanNodeType::kSeqScan) {
    out += ":" + plan.As<mb2::SeqScanPlan>()->table;
  } else if (plan.type == mb2::PlanNodeType::kIndexScan) {
    out += ":" + plan.As<mb2::IndexScanPlan>()->table;
  }
  if (!plan.children.empty()) {
    out += "(";
    for (size_t i = 0; i < plan.children.size(); i++) {
      out += (i == 0 ? "" : ",") + PlanShape(*plan.children[i]);
    }
    out += ")";
  }
  return out;
}

}  // namespace perfbench
