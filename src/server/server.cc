#include "server/server.h"

#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>

#include "common/env.h"
#include "obs/stats_dumper.h"
#include "obs/trace.h"

namespace payg::server {

namespace {

using Clock = ExecContext::Clock;

uint64_t ElapsedUs(Clock::time_point from, Clock::time_point to) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(to - from)
          .count());
}

// Moves a query's result into its response field, or passes the error on.
template <typename T>
Status Take(Result<T> result, T* field) {
  if (!result.ok()) return result.status();
  *field = std::move(*result);
  return Status::OK();
}

wire::Response ErrorResponse(const Status& status, uint64_t query_id) {
  wire::Response resp;
  resp.code = wire::CodeFromStatus(status);
  resp.query_id = query_id;
  resp.message = status.message();
  return resp;
}

}  // namespace

ServerOptions ServerOptions::FromEnv() {
  ServerOptions o;
  if (const char* path = EnvRaw("PAYG_SERVER_SOCKET")) o.unix_path = path;
  o.tcp_port = static_cast<int>(
      EnvLong("PAYG_SERVER_PORT", 0, 65535, o.tcp_port));
  o.max_sessions = static_cast<uint32_t>(
      EnvLong("PAYG_SERVER_MAX_SESSIONS", 1, 4096, o.max_sessions));
  o.queue_capacity = static_cast<uint32_t>(
      EnvLong("PAYG_SERVER_QUEUE", 1, 1 << 20, o.queue_capacity));
  o.worker_threads = static_cast<uint32_t>(
      EnvLong("PAYG_SERVER_WORKERS", 1, 256, o.worker_threads));
  o.max_batch = static_cast<uint32_t>(
      EnvLong("PAYG_SERVER_MAX_BATCH", 1, 4096, o.max_batch));
  o.batch_window_us = static_cast<uint32_t>(
      EnvLong("PAYG_SERVER_BATCH_WINDOW_US", 0, 1000000, o.batch_window_us));
  if (const char* dir = EnvRaw("PAYG_STATS_DIR")) o.stats_dir = dir;
  return o;
}

Server::Server(ColumnStore* store, ServerOptions options)
    : store_(store), options_(std::move(options)) {
  auto& reg = obs::MetricsRegistry::Global();
  accepted_ = reg.counter("server.accepted");
  rejected_sessions_ = reg.counter("server.rejected_sessions");
  active_sessions_ = reg.gauge("server.active_sessions");
  requests_ = reg.counter("server.requests");
  queue_depth_ = reg.gauge("server.queue_depth");
  queue_wait_us_ = reg.histogram("server.queue_wait_us");
  request_latency_us_ = reg.histogram("server.request_latency_us");
  batches_ = reg.counter("server.batches");
  batch_size_ = reg.histogram("server.batch_size");
  shed_ = reg.counter("server.shed");
  shed_overload_ = reg.counter("server.shed_overload");
  shed_deadline_ = reg.counter("server.shed_deadline");
}

Server::~Server() { Stop(); }

Status Server::Listen() {
  if (!options_.unix_path.empty()) {
    listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (listen_fd_ < 0) {
      return Status::IOError(std::string("socket: ") + std::strerror(errno));
    }
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (options_.unix_path.size() >= sizeof addr.sun_path) {
      return Status::InvalidArgument("unix socket path too long");
    }
    std::strncpy(addr.sun_path, options_.unix_path.c_str(),
                 sizeof addr.sun_path - 1);
    ::unlink(options_.unix_path.c_str());
    if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
               sizeof addr) != 0) {
      return Status::IOError(std::string("bind ") + options_.unix_path +
                             ": " + std::strerror(errno));
    }
  } else {
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (listen_fd_ < 0) {
      return Status::IOError(std::string("socket: ") + std::strerror(errno));
    }
    const int one = 1;
    ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(static_cast<uint16_t>(options_.tcp_port));
    if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
               sizeof addr) != 0) {
      return Status::IOError(std::string("bind port ") +
                             std::to_string(options_.tcp_port) + ": " +
                             std::strerror(errno));
    }
    sockaddr_in bound{};
    socklen_t len = sizeof bound;
    if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound),
                      &len) != 0) {
      return Status::IOError(std::string("getsockname: ") +
                             std::strerror(errno));
    }
    port_ = ntohs(bound.sin_port);
  }
  if (::listen(listen_fd_, SOMAXCONN) != 0) {
    return Status::IOError(std::string("listen: ") + std::strerror(errno));
  }
  return Status::OK();
}

Status Server::Start() {
  if (started_.exchange(true)) {
    return Status::FailedPrecondition("server already started");
  }
  obs::StatsDumper::Global().StartFromEnv();
  PAYG_RETURN_IF_ERROR(Listen());
  for (uint32_t i = 0; i < options_.worker_threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
  acceptor_ = std::thread([this] { AcceptLoop(); });
  return Status::OK();
}

void Server::Stop() {
  if (!started_.load()) return;
  {
    MutexLock lk(queue_mu_);
    if (stopping_) return;  // second Stop (e.g. destructor after Stop)
    stopping_ = true;
  }
  queue_cv_.NotifyAll();
  // The acceptor polls with a short timeout, so flipping the flag ends it
  // within one tick; the fd is closed only after the join (no fd reuse
  // race). Shutting down session fds makes blocked recv() return 0.
  stop_accept_.store(true, std::memory_order_release);
  if (acceptor_.joinable()) acceptor_.join();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  {
    MutexLock lk(sessions_mu_);
    for (auto& s : sessions_) {
      if (s->fd >= 0) ::shutdown(s->fd, SHUT_RDWR);
    }
  }
  {
    // Join session threads outside sessions_mu_ (a session takes the lock
    // on its own exit path).
    std::vector<std::unique_ptr<Session>> taken;
    {
      MutexLock lk(sessions_mu_);
      taken.swap(sessions_);
    }
    for (auto& s : taken) {
      if (s->thread.joinable()) s->thread.join();
    }
  }
  for (std::thread& w : workers_) {
    if (w.joinable()) w.join();
  }
  workers_.clear();
}

void Server::AcceptLoop() {
  while (!stop_accept_.load(std::memory_order_acquire)) {
    pollfd pfd{listen_fd_, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, /*timeout_ms=*/100);
    if (ready < 0) {
      if (errno == EINTR) continue;
      return;
    }
    if (ready == 0) continue;  // timeout tick: re-check the stop flag
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR || errno == ECONNABORTED) continue;
      return;
    }
    accepted_->Inc();

    // Reap sessions that already finished so a long-lived server does not
    // accumulate dead thread objects.
    std::vector<std::unique_ptr<Session>> dead;
    bool at_capacity = false;
    {
      MutexLock lk(sessions_mu_);
      for (size_t i = 0; i < sessions_.size();) {
        if (sessions_[i]->finished.load(std::memory_order_acquire)) {
          dead.push_back(std::move(sessions_[i]));
          sessions_[i] = std::move(sessions_.back());
          sessions_.pop_back();
        } else {
          ++i;
        }
      }
      at_capacity = sessions_.size() >= options_.max_sessions;
    }
    for (auto& s : dead) {
      if (s->thread.joinable()) s->thread.join();
    }

    if (at_capacity) {
      rejected_sessions_->Inc();
      wire::Response resp;
      resp.code = wire::Code::kOverloaded;
      resp.message = "session limit reached";
      // Best effort: the peer may not even read it before the close.
      (void)wire::WriteFrame(  // analyzer:allow(status-swallow) courtesy frame
          fd, wire::EncodeResponse(wire::Op::kPing, resp));
      ::close(fd);
      continue;
    }

    auto session = std::make_unique<Session>();
    session->fd = fd;
    Session* raw = session.get();
    {
      MutexLock lk(sessions_mu_);
      sessions_.push_back(std::move(session));
    }
    active_sessions_->Add(1);
    raw->thread = std::thread([this, raw] { SessionLoop(raw); });
  }
}

void Server::SessionLoop(Session* session) {
  std::string payload;
  while (true) {
    payload.clear();
    Status s = wire::ReadFrame(session->fd, &payload);
    if (!s.ok()) break;  // clean eof or transport error: drop the session

    wire::Request req;
    wire::Response resp;
    Status parsed = wire::DecodeRequest(payload, &req);
    if (!parsed.ok()) {
      resp.code = wire::Code::kBadRequest;
      resp.message = parsed.message();
      // Echo as a kPing-shaped frame: code != kOk carries only the message,
      // so the op used for encoding is irrelevant.
      if (!wire::WriteFrame(session->fd,
                            wire::EncodeResponse(wire::Op::kPing, resp))
               .ok()) {
        break;
      }
      continue;
    }

    resp = Dispatch(req);
    if (!wire::WriteFrame(session->fd, wire::EncodeResponse(req.op, resp))
             .ok()) {
      break;
    }
  }
  ::close(session->fd);
  active_sessions_->Add(-1);
  session->finished.store(true, std::memory_order_release);
}

wire::Response Server::Dispatch(const wire::Request& req) {
  requests_->Inc();
  wire::Response resp;

  if (req.op == wire::Op::kPing) {
    return resp;
  }
  if (req.op == wire::Op::kDumpStats) {
    Status s = obs::StatsDumper::DumpOnce(options_.stats_dir);
    if (!s.ok()) return ErrorResponse(s, 0);
    resp.message = options_.stats_dir;
    return resp;
  }

  Pending pending;
  pending.req = req;
  pending.arrival = Clock::now();
  pending.deadline =
      req.deadline_us == 0
          ? Clock::time_point::max()
          : pending.arrival + std::chrono::microseconds(req.deadline_us);

  {
    MutexLock lk(queue_mu_);
    if (stopping_ || queue_.size() >= options_.queue_capacity) {
      shed_->Inc();
      shed_overload_->Inc();
      resp.code = wire::Code::kOverloaded;
      resp.message = stopping_ ? "server stopping" : "admission queue full";
      return resp;
    }
    queue_.push_back(&pending);
    queue_depth_->Set(static_cast<int64_t>(queue_.size()));
  }
  queue_cv_.NotifyOne();

  {
    MutexLock lk(pending.mu);
    while (!pending.done) pending.cv.Wait(pending.mu);
    resp = std::move(pending.resp);
  }
  request_latency_us_->Record(ElapsedUs(pending.arrival, Clock::now()));
  return resp;
}

void Server::Complete(Pending* p, wire::Response resp) {
  // Signal while holding the mutex: the Pending lives on the session
  // thread's stack and is destroyed as soon as the waiter sees `done`, so
  // an after-unlock signal could touch a condvar that no longer exists.
  // Under the lock, the waiter cannot re-acquire (and thus cannot return
  // and destroy the record) until this frame has fully released it.
  MutexLock lk(p->mu);
  p->resp = std::move(resp);
  p->done = true;
  p->cv.NotifyOne();
}

bool Server::SameBatchKey(const wire::Request& a, const wire::Request& b) {
  return a.op == b.op && a.table == b.table && a.column == b.column &&
         a.select_columns == b.select_columns;
}

void Server::CollectBatchLocked(const wire::Request& lead,
                                std::vector<Pending*>* batch) {
  for (auto it = queue_.begin();
       it != queue_.end() && batch->size() < options_.max_batch;) {
    if (SameBatchKey(lead, (*it)->req)) {
      batch->push_back(*it);
      it = queue_.erase(it);
    } else {
      ++it;
    }
  }
}

void Server::WorkerLoop() {
  while (true) {
    Pending* head = nullptr;
    std::vector<Pending*> batch;
    {
      UniqueLock lk(queue_mu_);
      while (queue_.empty() && !stopping_) queue_cv_.Wait(queue_mu_);
      if (queue_.empty() && stopping_) return;
      head = queue_.front();
      queue_.pop_front();

      if (wire::IsBatchable(head->req.op) && options_.max_batch > 1) {
        batch.push_back(head);
        // Opportunistic pass: coalesce whatever is already queued.
        CollectBatchLocked(head->req, &batch);
        // Optional batch window: trade latency for batch size by waiting
        // for more mates. Bounded by both the window and max_batch.
        if (options_.batch_window_us > 0 &&
            batch.size() < options_.max_batch) {
          const auto window_end =
              Clock::now() +
              std::chrono::microseconds(options_.batch_window_us);
          while (batch.size() < options_.max_batch && !stopping_) {
            const auto now = Clock::now();
            if (now >= window_end) break;
            (void)queue_cv_.WaitFor(queue_mu_, window_end - now);
            CollectBatchLocked(head->req, &batch);
          }
        }
      }
      queue_depth_->Set(static_cast<int64_t>(queue_.size()));
    }

    const auto now = Clock::now();
    if (batch.empty()) {
      // Non-batchable single request.
      queue_wait_us_->Record(ElapsedUs(head->arrival, now));
      if (now > head->deadline) {
        shed_->Inc();
        shed_deadline_->Inc();
        wire::Response resp;
        resp.code = wire::Code::kShedDeadline;
        resp.message = "deadline expired in admission queue";
        Complete(head, std::move(resp));
        continue;
      }
      Complete(head, ExecuteSingle(head->req, head->deadline));
      continue;
    }

    // Shed batch members whose deadline lapsed while queued; they never
    // reach the executor.
    std::vector<Pending*> live;
    live.reserve(batch.size());
    for (Pending* p : batch) {
      queue_wait_us_->Record(ElapsedUs(p->arrival, now));
      if (now > p->deadline) {
        shed_->Inc();
        shed_deadline_->Inc();
        wire::Response resp;
        resp.code = wire::Code::kShedDeadline;
        resp.message = "deadline expired in admission queue";
        Complete(p, std::move(resp));
      } else {
        live.push_back(p);
      }
    }
    if (!live.empty()) ExecuteBatch(live);
  }
}

void Server::ExecuteBatch(std::vector<Pending*>& batch) {
  batches_->Inc();
  batch_size_->Record(batch.size());

  const wire::Request& lead = batch.front()->req;
  auto table_result = store_->GetTable(lead.table);
  if (!table_result.ok()) {
    for (Pending* p : batch) {
      Complete(p, ErrorResponse(table_result.status(), 0));
    }
    return;
  }
  Table* table = *table_result;

  ExecContext ctx;
  // The batch runs under the loosest member deadline; members that wanted
  // less are not re-penalized — their result is simply a bit late, which
  // the client sees as latency, not an error.
  Clock::time_point deadline = Clock::time_point::min();
  for (Pending* p : batch) deadline = std::max(deadline, p->deadline);
  if (deadline != Clock::time_point::max()) ctx.deadline = deadline;

  // Invalid members (e.g. mistyped probe value) fail alone without
  // poisoning the merged probe set: each is checked as the conjunct it
  // would have run as on its own.
  std::vector<Pending*> valid;
  std::vector<Value> probes;
  valid.reserve(batch.size());
  probes.reserve(batch.size());
  for (Pending* p : batch) {
    Status ok =
        table->CheckPredicate(Predicate::Eq(p->req.column, p->req.value))
            .status();
    if (!ok.ok()) {
      Complete(p, ErrorResponse(ok, ctx.query_id));
    } else {
      valid.push_back(p);
      probes.push_back(p->req.value);
    }
  }
  if (valid.empty()) return;

  obs::TraceSpan span("server", "batch", ctx.query_id);
  obs::TraceTaskScope task(ctx.query_id);

  if (lead.op == wire::Op::kSelectByValue) {
    auto results = table->MultiSelectByValue(lead.column, probes,
                                             lead.select_columns, &ctx);
    for (size_t i = 0; i < valid.size(); ++i) {
      if (!results.ok()) {
        Complete(valid[i], ErrorResponse(results.status(), ctx.query_id));
        continue;
      }
      wire::Response resp;
      resp.query_id = ctx.query_id;
      resp.result = std::move((*results)[i]);
      Complete(valid[i], std::move(resp));
    }
  } else {
    auto counts = table->MultiCountByValue(lead.column, probes, &ctx);
    for (size_t i = 0; i < valid.size(); ++i) {
      if (!counts.ok()) {
        Complete(valid[i], ErrorResponse(counts.status(), ctx.query_id));
        continue;
      }
      wire::Response resp;
      resp.query_id = ctx.query_id;
      resp.count = (*counts)[i];
      Complete(valid[i], std::move(resp));
    }
  }
}

wire::Response Server::ExecuteSingle(const wire::Request& req,
                                     Clock::time_point deadline) {
  auto table_result = store_->GetTable(req.table);
  if (!table_result.ok()) {
    return ErrorResponse(table_result.status(), 0);
  }
  Table* table = *table_result;

  ExecContext ctx;
  // The remaining budget (absolute, anchored at receipt — queue wait has
  // already been spent from it) lets the executor cancel mid-query.
  if (deadline != Clock::time_point::max()) ctx.deadline = deadline;

  obs::TraceSpan span("server", "request", ctx.query_id);
  obs::TraceTaskScope task(ctx.query_id);

  // Every query op is its conjuncts plus a result shape; the table checks
  // the conjuncts' operands against the schema before running them.
  const std::vector<Predicate> conjuncts = wire::Conjuncts(req);
  wire::Response resp;
  resp.query_id = ctx.query_id;
  Status s;
  switch (wire::SpecOf(req.op).shape) {
    case wire::Shape::kRows:
      s = Take(table->SelectWhere(conjuncts, req.select_columns, &ctx),
               &resp.result);
      break;
    case wire::Shape::kCount:
      s = Take(table->CountWhere(conjuncts, &ctx), &resp.count);
      break;
    case wire::Shape::kSum:
      s = Take(table->SumWhere(conjuncts, req.sum_column, &ctx), &resp.sum);
      break;
    case wire::Shape::kRowIds:
      s = Take(table->RowIdsWhere(conjuncts, &ctx), &resp.row_ids);
      break;
    case wire::Shape::kNone:  // admin ops are answered in Dispatch
      s = Status::Internal("unreachable opcode");
      break;
  }
  if (!s.ok()) return ErrorResponse(s, ctx.query_id);
  return resp;
}

}  // namespace payg::server
