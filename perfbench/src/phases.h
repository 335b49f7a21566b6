#pragma once

/// \file phases.h
/// The measured phases shared by the two SQL workloads. A workload supplies
/// one StatementSource per client: a seeded stream of statements in whole
/// rounds, plus the check of each result. The same stream can then be
/// driven over the wire (closed loop, one connection per client), in
/// process through Database::Execute(sql), or in process through each
/// layer's public entry point with spans (the traced replay).

#include <cstdint>
#include <string>
#include <vector>

#include "bench.h"
#include "database.h"

namespace perfbench {

/// What the traced replay needs to know about one class of statement.
struct StatementClass {
  const char *op_span;    ///< span around the whole operation, e.g. "op.read"
  const char *exec_span;  ///< span around the executor call, e.g. "exec.point"
  bool write;             ///< runs Begin / ExecuteInTxn / Commit / FlushNow
  double share;           ///< fraction of a round's statements in this class
};

class StatementSource {
 public:
  virtual ~StatementSource() = default;
  /// Generates the next round of statements (seeded, whole rounds only).
  virtual void NextRound() = 0;
  virtual size_t RoundSize() const = 0;
  virtual const std::string &Sql(size_t i) const = 0;
  virtual int Class(size_t i) const = 0;
  /// Checks statement `i`'s result rows and, for an acknowledged write,
  /// updates the source's shadow state. Returns false with `why` set when
  /// the result is wrong.
  virtual bool Check(size_t i, const std::vector<mb2::Tuple> &rows,
                     std::string *why) = 0;
};

struct PhaseResult {
  int64_t start_ns = 0;
  double seconds = 0.0;
  uint64_t ops = 0;
  uint64_t failed = 0;  ///< statements that returned an error
  uint64_t aborts = 0;  ///< statements answered as aborted
  std::vector<double> all_us;                ///< latency of every statement
  std::vector<int64_t> end_ns;               ///< its completion time
  std::vector<std::vector<double>> class_us;  ///< latency by statement class
  std::vector<double> ping_us;               ///< Client::Ping round trips
  std::vector<std::string> failures;         ///< failed checks and errors
};

/// Closed loop over loopback: one thread and one connection per source,
/// whole rounds until `seconds` have passed. With `ping_every` > 0 each
/// client also sends a PING after every `ping_every`-th statement.
PhaseResult RunWirePhase(uint16_t port, const std::vector<StatementSource *> &sources,
                         size_t num_classes, double seconds, int ping_every = 0);

/// One thread, rounds taken from the sources in turn, every statement
/// through Database::Execute(sql).
PhaseResult RunInProcessPhase(mb2::Database *db,
                              const std::vector<StatementSource *> &sources,
                              size_t num_classes, double seconds);

/// Same stream, each statement through the public entry point of every
/// layer on its path, each call inside a span: sql::Tokenize,
/// NormalizeTokens + LiteralValues, PlanCache::Lookup, InstantiatePlan (or
/// sql::Parse on a miss), then ExecutionEngine::ExecuteQuery for reads, or
/// TransactionManager::Begin, ExecuteInTxn, Commit and LogManager::FlushNow
/// for writes. Op ids continue from `*next_op`.
PhaseResult RunTracedPhase(mb2::Database *db,
                           const std::vector<StatementSource *> &sources,
                           const std::vector<StatementClass> &classes,
                           double seconds, Tracer *tracer, uint64_t *next_op);

/// Sum of the traced layer medians on each class's blocking path over the
/// median of Database::Execute(sql) for that class, weighted by class share.
double SumToWhole(const Tracer &tracer, const std::vector<StatementClass> &classes,
                  const PhaseResult &whole);

/// Times EncodeSqlResponse and DecodeResponseHead + DecodeSqlResponseBody on
/// real result rows (one span each per call). False if a decoded result
/// differs from the encoded one.
bool TraceCodec(const std::vector<std::vector<mb2::Tuple>> &results, Tracer *tracer,
                uint64_t *next_op);

/// Nanoseconds per SettingsManager::GetInt with `threads` threads reading
/// the knobs the statement path reads, all at once.
double KnobReadNs(mb2::SettingsManager *settings, int threads);

/// Appends the failures of a phase to the report.
void MergeFailures(const PhaseResult &phase, Report *report);

}  // namespace perfbench
