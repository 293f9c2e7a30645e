#ifndef PAYG_SERVER_WIRE_H_
#define PAYG_SERVER_WIRE_H_

// Length-prefixed binary wire protocol of the network front door (S25).
//
// Every frame is a little-endian u32 payload length followed by the
// payload; requests and responses are one frame each, and a session is a
// strict request/response alternation (no pipelining — the admission
// queue, not the connection, is where concurrency lives).
//
// Request payload:
//   u8  opcode (Op)
//   u64 deadline_us — client budget relative to server receipt; 0 = none
//   str table
//   ... per-opcode operands (see EncodeRequest)
//
// Response payload:
//   u8  code (Code)
//   u64 query_id — server-side ExecContext id (0 when none was created),
//                  the correlation key into traces and slow-query dumps
//   code != kOk: str message
//   code == kOk: per-opcode result body (see EncodeResponse)
//
// Scalars are little-endian; `str` is u32 length + bytes; a Value is a u8
// type tag (ValueType) + i64 / double-bits / str.

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "table/table.h"

namespace payg::server::wire {

// One opcode per Table-2 query shape, plus admin verbs.
enum class Op : uint8_t {
  kPing = 0,
  kSelectByValue = 1,
  kCountByValue = 2,
  kRowIdsByValue = 3,
  kSelectRange = 4,
  kSumRange = 5,
  kSelectIn = 6,
  kCountIn = 7,
  kSelectPrefix = 8,
  kCountPrefix = 9,
  kSelectWhere = 10,
  kCountWhere = 11,
  // Admin: synchronous StatsDumper::DumpOnce into the server's stats dir —
  // the "SIGUSR1 over the wire" an operator scrapes metrics.prom through.
  kDumpStats = 12,
};

// True for the ops the admission layer may coalesce into one executor task
// (same table + filter column + select list → merged probe set).
inline bool IsBatchable(Op op) {
  return op == Op::kSelectByValue || op == Op::kCountByValue;
}

// The filter operands a request carries: a single-column conjunct of one
// Predicate kind (column + value / lo, hi / values / prefix), a WHERE list,
// or nothing (admin ops).
enum class Filter : uint8_t { kNone, kEq, kBetween, kIn, kPrefix, kWhere };

// The result a response carries, and so which Response field holds it.
// kRows requests also carry a select list, kSum requests a sum column.
enum class Shape : uint8_t { kNone, kRows, kCount, kSum, kRowIds };

// Per-op layout, read from one table by the request and response codecs
// and by the server's dispatch.
struct OpSpec {
  Filter filter;
  Shape shape;
};
OpSpec SpecOf(Op op);

// Response status. Values < 100 mirror payg::StatusCode one to one; values
// >= 100 are produced by the server shell itself, never by the engine —
// clients distinguish "the query failed" from "the server refused to run
// it" by the range.
enum class Code : uint8_t {
  kOk = 0,
  kInvalidArgument = 1,
  kNotFound = 2,
  kAlreadyExists = 3,
  kOutOfRange = 4,
  kIOError = 5,
  kCorruption = 6,
  kResourceExhausted = 7,
  kFailedPrecondition = 8,
  kUnsupported = 9,
  kInternal = 10,
  kDeadlineExceeded = 11,
  // Admission queue full — the request was shed before queueing (fast
  // fail; retry with backoff).
  kOverloaded = 100,
  // The client deadline expired while the request sat in the admission
  // queue; it never reached the executor.
  kShedDeadline = 101,
  // The request frame could not be parsed.
  kBadRequest = 102,
};

const char* CodeName(Code code);
Code CodeFromStatus(const Status& status);

// Parsed request. Operand fields beyond what the opcode uses are ignored.
struct Request {
  Op op = Op::kPing;
  uint64_t deadline_us = 0;
  std::string table;
  std::string column;      // filter column of the *ByValue/Range/In/Prefix ops
  std::string sum_column;  // kSumRange
  Value value;             // kSelectByValue/kCountByValue/kRowIdsByValue
  Value lo, hi;            // kSelectRange/kSumRange
  std::vector<Value> values;          // kSelectIn/kCountIn
  std::string prefix;                 // kSelectPrefix/kCountPrefix
  std::vector<Predicate> predicates;  // kSelectWhere/kCountWhere
  std::vector<std::string> select_columns;  // empty = SELECT *
};

// Response for any opcode; which result field is meaningful follows from
// the request opcode's Shape.
struct Response {
  Code code = Code::kOk;
  uint64_t query_id = 0;
  std::string message;          // code != kOk
  QueryResult result;           // select shapes
  uint64_t count = 0;           // count shapes
  double sum = 0;               // kSumRange
  std::vector<RowId> row_ids;   // kRowIdsByValue
};

// The request's filter as WHERE conjuncts (one for the single-column ops).
std::vector<Predicate> Conjuncts(const Request& req);

std::string EncodeRequest(const Request& req);
Status DecodeRequest(std::string_view payload, Request* out);

std::string EncodeResponse(Op op, const Response& resp);
Status DecodeResponse(Op op, std::string_view payload, Response* out);

// Frame transport over a connected stream socket. Both retry EINTR and
// loop over partial transfers; ReadFrame rejects frames larger than
// `max_len` (wire corruption / hostile peer) and reports a clean
// end-of-stream as kNotFound with message "eof".
inline constexpr uint32_t kMaxFrameBytes = 64u << 20;
Status WriteFrame(int fd, std::string_view payload);
Status ReadFrame(int fd, std::string* payload,
                 uint32_t max_len = kMaxFrameBytes);

}  // namespace payg::server::wire

#endif  // PAYG_SERVER_WIRE_H_
