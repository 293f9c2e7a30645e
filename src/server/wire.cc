#include "server/wire.h"

#include <sys/socket.h>
#include <unistd.h>

#include <bit>
#include <cerrno>
#include <cstring>
#include <iterator>

namespace payg::server::wire {

namespace {

// --- little-endian scalar + string packing --------------------------------

void PutU8(std::string* out, uint8_t v) {
  out->push_back(static_cast<char>(v));
}

void PutU32(std::string* out, uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
  }
}

void PutU64(std::string* out, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
  }
}

void PutString(std::string* out, std::string_view s) {
  PutU32(out, static_cast<uint32_t>(s.size()));
  out->append(s);
}

void PutValue(std::string* out, const Value& v) {
  PutU8(out, static_cast<uint8_t>(v.type()));
  switch (v.type()) {
    case ValueType::kInt64:
      PutU64(out, static_cast<uint64_t>(v.AsInt64()));
      break;
    case ValueType::kDouble:
      PutU64(out, std::bit_cast<uint64_t>(v.AsDouble()));
      break;
    case ValueType::kString:
      PutString(out, v.AsString());
      break;
  }
}

// Bounds-checked reader over the payload. Every Get* returns false on
// truncation; DecodeRequest/DecodeResponse surface that as one
// InvalidArgument instead of reading past the frame.
struct Cursor {
  std::string_view data;
  size_t pos = 0;

  bool GetU8(uint8_t* v) {
    if (pos + 1 > data.size()) return false;
    *v = static_cast<uint8_t>(data[pos++]);
    return true;
  }
  bool GetU32(uint32_t* v) {
    if (pos + 4 > data.size()) return false;
    uint32_t r = 0;
    for (int i = 0; i < 4; ++i) {
      r |= static_cast<uint32_t>(static_cast<uint8_t>(data[pos + i]))
           << (8 * i);
    }
    pos += 4;
    *v = r;
    return true;
  }
  bool GetU64(uint64_t* v) {
    if (pos + 8 > data.size()) return false;
    uint64_t r = 0;
    for (int i = 0; i < 8; ++i) {
      r |= static_cast<uint64_t>(static_cast<uint8_t>(data[pos + i]))
           << (8 * i);
    }
    pos += 8;
    *v = r;
    return true;
  }
  bool GetString(std::string* s) {
    uint32_t len = 0;
    if (!GetU32(&len) || pos + len > data.size()) return false;
    s->assign(data.substr(pos, len));
    pos += len;
    return true;
  }
  bool GetValue(Value* v) {
    uint8_t tag = 0;
    if (!GetU8(&tag)) return false;
    switch (tag) {
      case static_cast<uint8_t>(ValueType::kInt64): {
        uint64_t raw = 0;
        if (!GetU64(&raw)) return false;
        *v = Value(static_cast<int64_t>(raw));
        return true;
      }
      case static_cast<uint8_t>(ValueType::kDouble): {
        uint64_t raw = 0;
        if (!GetU64(&raw)) return false;
        *v = Value(std::bit_cast<double>(raw));
        return true;
      }
      case static_cast<uint8_t>(ValueType::kString): {
        std::string s;
        if (!GetString(&s)) return false;
        *v = Value(std::move(s));
        return true;
      }
      default:
        return false;
    }
  }
};

void PutValues(std::string* out, const std::vector<Value>& values) {
  PutU32(out, static_cast<uint32_t>(values.size()));
  for (const Value& v : values) PutValue(out, v);
}

bool GetValues(Cursor* c, std::vector<Value>* values) {
  uint32_t n = 0;
  if (!c->GetU32(&n)) return false;
  // Cheap hostile-length guard: every value costs at least 2 bytes.
  if (static_cast<size_t>(n) * 2 > c->data.size() - c->pos) return false;
  values->resize(n);
  for (Value& v : *values) {
    if (!c->GetValue(&v)) return false;
  }
  return true;
}

void PutStringList(std::string* out, const std::vector<std::string>& items) {
  PutU32(out, static_cast<uint32_t>(items.size()));
  for (const std::string& s : items) PutString(out, s);
}

bool GetStringList(Cursor* c, std::vector<std::string>* items) {
  uint32_t n = 0;
  if (!c->GetU32(&n)) return false;
  if (static_cast<size_t>(n) * 4 > c->data.size() - c->pos) return false;
  items->resize(n);
  for (std::string& s : *items) {
    if (!c->GetString(&s)) return false;
  }
  return true;
}

void PutPredicate(std::string* out, const Predicate& p) {
  PutU8(out, static_cast<uint8_t>(p.op));
  PutString(out, p.column);
  switch (p.op) {
    case Predicate::Op::kEq:
      PutValue(out, p.value);
      break;
    case Predicate::Op::kBetween:
      PutValue(out, p.lo);
      PutValue(out, p.hi);
      break;
    case Predicate::Op::kIn:
      PutValues(out, p.values);
      break;
    case Predicate::Op::kPrefix:
      PutString(out, p.prefix);
      break;
  }
}

bool GetPredicate(Cursor* c, Predicate* p) {
  uint8_t op = 0;
  if (!c->GetU8(&op) || op > static_cast<uint8_t>(Predicate::Op::kPrefix)) {
    return false;
  }
  p->op = static_cast<Predicate::Op>(op);
  if (!c->GetString(&p->column)) return false;
  switch (p->op) {
    case Predicate::Op::kEq:
      return c->GetValue(&p->value);
    case Predicate::Op::kBetween:
      return c->GetValue(&p->lo) && c->GetValue(&p->hi);
    case Predicate::Op::kIn:
      return GetValues(c, &p->values);
    case Predicate::Op::kPrefix:
      return c->GetString(&p->prefix);
  }
  return false;
}

void PutQueryResult(std::string* out, const QueryResult& result) {
  PutU32(out, static_cast<uint32_t>(result.rows.size()));
  for (const auto& row : result.rows) {
    PutU32(out, static_cast<uint32_t>(row.size()));
    for (const Value& v : row) PutValue(out, v);
  }
}

bool GetQueryResult(Cursor* c, QueryResult* result) {
  uint32_t n = 0;
  if (!c->GetU32(&n)) return false;
  if (static_cast<size_t>(n) * 4 > c->data.size() - c->pos) return false;
  result->rows.resize(n);
  for (auto& row : result->rows) {
    uint32_t cols = 0;
    if (!c->GetU32(&cols)) return false;
    if (static_cast<size_t>(cols) * 2 > c->data.size() - c->pos) return false;
    row.resize(cols);
    for (Value& v : row) {
      if (!c->GetValue(&v)) return false;
    }
  }
  return true;
}

Status Truncated() {
  return Status::InvalidArgument("truncated or malformed wire payload");
}

}  // namespace

const char* CodeName(Code code) {
  switch (code) {
    case Code::kOk: return "Ok";
    case Code::kInvalidArgument: return "InvalidArgument";
    case Code::kNotFound: return "NotFound";
    case Code::kAlreadyExists: return "AlreadyExists";
    case Code::kOutOfRange: return "OutOfRange";
    case Code::kIOError: return "IOError";
    case Code::kCorruption: return "Corruption";
    case Code::kResourceExhausted: return "ResourceExhausted";
    case Code::kFailedPrecondition: return "FailedPrecondition";
    case Code::kUnsupported: return "Unsupported";
    case Code::kInternal: return "Internal";
    case Code::kDeadlineExceeded: return "DeadlineExceeded";
    case Code::kOverloaded: return "Overloaded";
    case Code::kShedDeadline: return "ShedDeadline";
    case Code::kBadRequest: return "BadRequest";
  }
  return "Unknown";
}

Code CodeFromStatus(const Status& status) {
  // StatusCode and the low Code values are aligned by construction.
  return static_cast<Code>(static_cast<int>(status.code()));
}

OpSpec SpecOf(Op op) {
  static constexpr OpSpec kSpecs[] = {
      {Filter::kNone, Shape::kNone},       // kPing
      {Filter::kEq, Shape::kRows},         // kSelectByValue
      {Filter::kEq, Shape::kCount},        // kCountByValue
      {Filter::kEq, Shape::kRowIds},       // kRowIdsByValue
      {Filter::kBetween, Shape::kRows},    // kSelectRange
      {Filter::kBetween, Shape::kSum},     // kSumRange
      {Filter::kIn, Shape::kRows},         // kSelectIn
      {Filter::kIn, Shape::kCount},        // kCountIn
      {Filter::kPrefix, Shape::kRows},     // kSelectPrefix
      {Filter::kPrefix, Shape::kCount},    // kCountPrefix
      {Filter::kWhere, Shape::kRows},      // kSelectWhere
      {Filter::kWhere, Shape::kCount},     // kCountWhere
      {Filter::kNone, Shape::kNone},       // kDumpStats
  };
  const auto i = static_cast<size_t>(op);
  if (i >= std::size(kSpecs)) return OpSpec{Filter::kNone, Shape::kNone};
  return kSpecs[i];
}

std::vector<Predicate> Conjuncts(const Request& req) {
  switch (SpecOf(req.op).filter) {
    case Filter::kNone:
      break;
    case Filter::kEq:
      return {Predicate::Eq(req.column, req.value)};
    case Filter::kBetween:
      return {Predicate::Between(req.column, req.lo, req.hi)};
    case Filter::kIn:
      return {Predicate::In(req.column, req.values)};
    case Filter::kPrefix:
      return {Predicate::Prefix(req.column, req.prefix)};
    case Filter::kWhere:
      return req.predicates;
  }
  return {};
}

std::string EncodeRequest(const Request& req) {
  std::string out;
  PutU8(&out, static_cast<uint8_t>(req.op));
  PutU64(&out, req.deadline_us);
  PutString(&out, req.table);
  const OpSpec spec = SpecOf(req.op);
  switch (spec.filter) {
    case Filter::kNone:
      break;
    case Filter::kEq:
      PutString(&out, req.column);
      PutValue(&out, req.value);
      break;
    case Filter::kBetween:
      PutString(&out, req.column);
      PutValue(&out, req.lo);
      PutValue(&out, req.hi);
      break;
    case Filter::kIn:
      PutString(&out, req.column);
      PutValues(&out, req.values);
      break;
    case Filter::kPrefix:
      PutString(&out, req.column);
      PutString(&out, req.prefix);
      break;
    case Filter::kWhere:
      PutU32(&out, static_cast<uint32_t>(req.predicates.size()));
      for (const Predicate& p : req.predicates) PutPredicate(&out, p);
      break;
  }
  if (spec.shape == Shape::kRows) PutStringList(&out, req.select_columns);
  if (spec.shape == Shape::kSum) PutString(&out, req.sum_column);
  return out;
}

Status DecodeRequest(std::string_view payload, Request* out) {
  Cursor c{payload};
  uint8_t op = 0;
  if (!c.GetU8(&op) || op > static_cast<uint8_t>(Op::kDumpStats)) {
    return Status::InvalidArgument("unknown opcode");
  }
  out->op = static_cast<Op>(op);
  if (!c.GetU64(&out->deadline_us) || !c.GetString(&out->table)) {
    return Truncated();
  }
  const OpSpec spec = SpecOf(out->op);
  bool ok = true;
  switch (spec.filter) {
    case Filter::kNone:
      break;
    case Filter::kEq:
      ok = c.GetString(&out->column) && c.GetValue(&out->value);
      break;
    case Filter::kBetween:
      ok = c.GetString(&out->column) && c.GetValue(&out->lo) &&
           c.GetValue(&out->hi);
      break;
    case Filter::kIn:
      ok = c.GetString(&out->column) && GetValues(&c, &out->values);
      break;
    case Filter::kPrefix:
      ok = c.GetString(&out->column) && c.GetString(&out->prefix);
      break;
    case Filter::kWhere: {
      uint32_t n = 0;
      // Bound against the bytes actually left in the frame, not the frame
      // size: a payload whose table string eats the frame could otherwise
      // claim millions of predicates and force a huge resize before the
      // first GetPredicate ever fails. Every predicate costs at least
      // op:u8 + column-length:u32 = 5 bytes on the wire.
      ok = c.GetU32(&n) &&
           static_cast<size_t>(n) * 5 <= c.data.size() - c.pos;
      if (ok) {
        out->predicates.resize(n);
        for (Predicate& p : out->predicates) {
          if (!GetPredicate(&c, &p)) {
            ok = false;
            break;
          }
        }
      }
      break;
    }
  }
  if (ok && spec.shape == Shape::kRows) {
    ok = GetStringList(&c, &out->select_columns);
  }
  if (ok && spec.shape == Shape::kSum) ok = c.GetString(&out->sum_column);
  if (!ok) return Truncated();
  return Status::OK();
}

std::string EncodeResponse(Op op, const Response& resp) {
  std::string out;
  PutU8(&out, static_cast<uint8_t>(resp.code));
  PutU64(&out, resp.query_id);
  if (resp.code != Code::kOk) {
    PutString(&out, resp.message);
    return out;
  }
  switch (SpecOf(op).shape) {
    case Shape::kNone:
      break;
    case Shape::kRows:
      PutQueryResult(&out, resp.result);
      break;
    case Shape::kCount:
      PutU64(&out, resp.count);
      break;
    case Shape::kSum:
      PutU64(&out, std::bit_cast<uint64_t>(resp.sum));
      break;
    case Shape::kRowIds:
      PutU32(&out, static_cast<uint32_t>(resp.row_ids.size()));
      for (const RowId& id : resp.row_ids) {
        PutU32(&out, id.partition);
        PutU32(&out, id.row);
      }
      break;
  }
  return out;
}

Status DecodeResponse(Op op, std::string_view payload, Response* out) {
  Cursor c{payload};
  uint8_t code = 0;
  if (!c.GetU8(&code) || !c.GetU64(&out->query_id)) return Truncated();
  out->code = static_cast<Code>(code);
  if (out->code != Code::kOk) {
    if (!c.GetString(&out->message)) return Truncated();
    return Status::OK();
  }
  bool ok = true;
  switch (SpecOf(op).shape) {
    case Shape::kNone:
      break;
    case Shape::kRows:
      ok = GetQueryResult(&c, &out->result);
      break;
    case Shape::kCount:
      ok = c.GetU64(&out->count);
      break;
    case Shape::kSum: {
      uint64_t raw = 0;
      ok = c.GetU64(&raw);
      if (ok) out->sum = std::bit_cast<double>(raw);
      break;
    }
    case Shape::kRowIds: {
      uint32_t n = 0;
      ok = c.GetU32(&n) &&
           static_cast<size_t>(n) * 8 <= c.data.size() - c.pos;
      if (ok) {
        out->row_ids.resize(n);
        for (RowId& id : out->row_ids) {
          uint32_t part = 0, row = 0;
          if (!c.GetU32(&part) || !c.GetU32(&row)) {
            ok = false;
            break;
          }
          id.partition = part;
          id.row = row;
        }
      }
      break;
    }
  }
  if (!ok) return Truncated();
  return Status::OK();
}

// --- frame transport ------------------------------------------------------

Status WriteFrame(int fd, std::string_view payload) {
  std::string frame;
  frame.reserve(payload.size() + 4);
  PutU32(&frame, static_cast<uint32_t>(payload.size()));
  frame.append(payload);
  size_t off = 0;
  while (off < frame.size()) {
    const ssize_t n =
        ::send(fd, frame.data() + off, frame.size() - off, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::IOError(std::string("send: ") + std::strerror(errno));
    }
    off += static_cast<size_t>(n);
  }
  return Status::OK();
}

namespace {

Status ReadFull(int fd, char* buf, size_t len, bool* eof_at_start) {
  size_t off = 0;
  while (off < len) {
    const ssize_t n = ::recv(fd, buf + off, len - off, 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::IOError(std::string("recv: ") + std::strerror(errno));
    }
    if (n == 0) {
      if (off == 0 && eof_at_start != nullptr) *eof_at_start = true;
      return Status::IOError("connection closed mid-frame");
    }
    off += static_cast<size_t>(n);
  }
  return Status::OK();
}

}  // namespace

Status ReadFrame(int fd, std::string* payload, uint32_t max_len) {
  char hdr[4];
  bool eof = false;
  Status s = ReadFull(fd, hdr, sizeof hdr, &eof);
  if (!s.ok()) {
    // A peer that closes between frames is a clean disconnect, not an error.
    if (eof) return Status::NotFound("eof");
    return s;
  }
  uint32_t len = 0;
  for (int i = 0; i < 4; ++i) {
    len |= static_cast<uint32_t>(static_cast<uint8_t>(hdr[i])) << (8 * i);
  }
  if (len > max_len) {
    return Status::InvalidArgument("frame larger than limit");
  }
  payload->resize(len);
  if (len > 0) {
    PAYG_RETURN_IF_ERROR(ReadFull(fd, payload->data(), len, nullptr));
  }
  return Status::OK();
}

}  // namespace payg::server::wire
