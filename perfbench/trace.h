// Bench-side session spans around the Store API (no instrumentation inside
// src/). TracedStore decorates any Store and is driven like any other
// engine.
//
// Every session gets a root span, from the Begin*Txn call to the end of the
// session object's destructor, which is what the client waits for; its `op`
// is the first call the session makes. A write retried after a conflict is
// one request but several sessions, so request latencies are timed by the
// caller, not from these spans. With child spans on, each call into the
// wrapped store is a child span of its session: begin, the read or write
// call, commit/abort, end-of-read, and each batch the scan cursor pulls.
#ifndef LIVEGRAPH_PERFBENCH_TRACE_H_
#define LIVEGRAPH_PERFBENCH_TRACE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "api/store.h"

namespace livegraph::perfbench {

inline uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

enum class SpanKind : uint8_t {
  kRequest,
  kBeginRead,
  kEndRead,
  kReadCall,
  kScanCall,
  kScanDrain,
  kBeginWrite,
  kWriteCall,
  kCommit,
  kAbort,
};

inline const char* SpanKindName(SpanKind kind) {
  static const char* kNames[] = {"request",     "begin_read", "end_read",
                                 "read_call",   "scan_call",  "scan_drain",
                                 "begin_write", "write_call", "commit",
                                 "abort"};
  return kNames[static_cast<int>(kind)];
}

/// What a request did, from the first call of its session.
enum class RequestOp : uint8_t {
  kNone,
  kGetNode,
  kGetLink,
  kCountLinks,
  kScanLinks,
  kWrite,
};

inline const char* RequestOpName(RequestOp op) {
  static const char* kNames[] = {"NONE",       "GET_NODE",   "GET_LINK",
                                 "COUNT_LINKS", "SCAN_LINKS", "WRITE"};
  return kNames[static_cast<int>(op)];
}

struct Span {
  uint64_t id;
  uint64_t parent;  // 0 for a request's root span
  uint64_t request;
  uint64_t start_ns;
  uint64_t end_ns;
  SpanKind kind;
  RequestOp op;  // root spans only
  bool ok;       // root spans only
};

/// Spans kept in memory, one buffer per client thread, merged on demand.
class SpanLog {
 public:
  /// Child spans are recorded only while this is set; root spans always.
  void set_children(bool on) { children_.store(on, std::memory_order_relaxed); }
  bool children() const { return children_.load(std::memory_order_relaxed); }

  uint64_t NextId() {
    Buffer& b = ThreadBuffer();
    return (b.thread << 40) | ++b.counter;
  }

  void Add(const Span& span) { ThreadBuffer().spans.push_back(span); }

  /// All spans recorded so far; call with no session open.
  std::vector<Span> Collect() const {
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<Span> all;
    for (const auto& b : buffers_) {
      all.insert(all.end(), b->spans.begin(), b->spans.end());
    }
    return all;
  }

 private:
  struct Buffer {
    uint64_t thread = 0;
    uint64_t counter = 0;
    std::vector<Span> spans;
  };

  Buffer& ThreadBuffer() {
    // One buffer per (thread, log): a thread may record into more than
    // one log over its life, so the cache is keyed on the log as well.
    thread_local const SpanLog* owner = nullptr;
    thread_local Buffer* buffer = nullptr;
    if (owner != this) {
      std::lock_guard<std::mutex> lock(mu_);
      buffers_.push_back(std::make_unique<Buffer>());
      buffer = buffers_.back().get();
      buffer->thread = buffers_.size();
      buffer->spans.reserve(1 << 14);
      owner = this;
    }
    return *buffer;
  }

  std::atomic<bool> children_{false};
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<Buffer>> buffers_;
};

/// Shared request bookkeeping of the two session wrappers.
class RequestScope {
 public:
  RequestScope(SpanLog* log, uint64_t start_ns)
      : log_(log),
        children_(log->children()),
        id_(log->NextId()),
        start_ns_(start_ns) {}

  /// Times `fn()` as a child span when child spans are on.
  template <typename Fn>
  auto Call(SpanKind kind, RequestOp op, Fn&& fn) {
    if (op_ == RequestOp::kNone) op_ = op;
    if (!children_) return fn();
    const uint64_t start = NowNs();
    struct Close {
      RequestScope* scope;
      SpanKind kind;
      uint64_t start;
      ~Close() { scope->Child(kind, start, NowNs()); }
    } close{this, kind, start};
    return fn();
  }

  void Child(SpanKind kind, uint64_t start, uint64_t end) {
    if (children_) {
      log_->Add(Span{log_->NextId(), id_, id_, start, end, kind,
                     RequestOp::kNone, true});
    }
  }

  void Fail() { ok_ = false; }
  bool children() const { return children_; }

  void Finish() {
    log_->Add(Span{id_, 0, id_, start_ns_, NowNs(), SpanKind::kRequest, op_,
                   ok_});
  }

 private:
  SpanLog* log_;
  bool children_;
  uint64_t id_;
  uint64_t start_ns_;
  RequestOp op_ = RequestOp::kNone;
  bool ok_ = true;
};

inline bool Served(Status st) {
  return st == Status::kOk || st == Status::kNotFound;
}

/// Re-batches the wrapped store's cursor so every pull from it is a
/// scan_drain span. Used only while child spans are on.
class DrainSource : public EdgeCursor::BatchSource {
 public:
  DrainSource(EdgeCursor inner, RequestScope* scope)
      : inner_(std::move(inner)), scope_(scope) {}

  bool Fill(std::vector<EdgeCursor::Edge>* edges,
            std::string* arena) override {
    constexpr size_t kBatch = 512;
    const uint64_t start = NowNs();
    edges->clear();
    arena->clear();
    for (; inner_.Valid() && edges->size() < kBatch; inner_.Next()) {
      std::string_view props = inner_.properties();
      edges->push_back(EdgeCursor::Edge{
          inner_.dst(), static_cast<uint32_t>(arena->size()),
          static_cast<uint32_t>(props.size()), inner_.creation_timestamp()});
      arena->append(props);
    }
    scope_->Child(SpanKind::kScanDrain, start, NowNs());
    return !edges->empty();
  }

 private:
  EdgeCursor inner_;
  RequestScope* scope_;
};

class TracedReadTxn : public StoreReadTxn {
 public:
  TracedReadTxn(std::unique_ptr<StoreReadTxn> inner, RequestScope scope)
      : inner_(std::move(inner)), scope_(scope) {}

  ~TracedReadTxn() override {
    if (inner_->SessionStatus() != Status::kOk) scope_.Fail();
    scope_.Call(SpanKind::kEndRead, RequestOp::kNone,
                [&] { inner_.reset(); });
    scope_.Finish();
  }

  StatusOr<std::string> GetNode(vertex_t id) override {
    auto r = scope_.Call(SpanKind::kReadCall, RequestOp::kGetNode,
                         [&] { return inner_->GetNode(id); });
    if (!Served(r.status())) scope_.Fail();
    return r;
  }
  StatusOr<std::string> GetLink(vertex_t src, label_t label,
                                vertex_t dst) override {
    auto r = scope_.Call(SpanKind::kReadCall, RequestOp::kGetLink,
                         [&] { return inner_->GetLink(src, label, dst); });
    if (!Served(r.status())) scope_.Fail();
    return r;
  }
  EdgeCursor ScanLinks(vertex_t src, label_t label, size_t limit) override {
    EdgeCursor cursor =
        scope_.Call(SpanKind::kScanCall, RequestOp::kScanLinks,
                    [&] { return inner_->ScanLinks(src, label, limit); });
    if (!scope_.children()) return cursor;
    return EdgeCursor(
        std::make_unique<DrainSource>(std::move(cursor), &scope_));
  }
  size_t CountLinks(vertex_t src, label_t label) override {
    return scope_.Call(SpanKind::kReadCall, RequestOp::kCountLinks,
                       [&] { return inner_->CountLinks(src, label); });
  }
  vertex_t VertexCount() override { return inner_->VertexCount(); }
  Status SessionStatus() const override { return inner_->SessionStatus(); }

 private:
  std::unique_ptr<StoreReadTxn> inner_;
  RequestScope scope_;
};

class TracedTxn : public StoreTxn {
 public:
  TracedTxn(std::unique_ptr<StoreTxn> inner, RequestScope scope)
      : inner_(std::move(inner)), scope_(scope) {}

  ~TracedTxn() override {
    inner_.reset();
    scope_.Finish();
  }

 private:
  // Defined before use: their return types are deduced.
  template <typename Fn>
  auto Read(Fn&& fn) {
    return scope_.Call(SpanKind::kReadCall, RequestOp::kWrite,
                       std::forward<Fn>(fn));
  }
  template <typename Fn>
  auto Write(Fn&& fn) {
    return scope_.Call(SpanKind::kWriteCall, RequestOp::kWrite,
                       std::forward<Fn>(fn));
  }

 public:

  StatusOr<std::string> GetNode(vertex_t id) override {
    return Read([&] { return inner_->GetNode(id); });
  }
  StatusOr<std::string> GetLink(vertex_t src, label_t label,
                                vertex_t dst) override {
    return Read([&] { return inner_->GetLink(src, label, dst); });
  }
  EdgeCursor ScanLinks(vertex_t src, label_t label, size_t limit) override {
    return Read([&] { return inner_->ScanLinks(src, label, limit); });
  }
  size_t CountLinks(vertex_t src, label_t label) override {
    return Read([&] { return inner_->CountLinks(src, label); });
  }
  vertex_t VertexCount() override { return inner_->VertexCount(); }
  Status SessionStatus() const override { return inner_->SessionStatus(); }

  StatusOr<vertex_t> AddNode(std::string_view data) override {
    return Write([&] { return inner_->AddNode(data); });
  }
  Status UpdateNode(vertex_t id, std::string_view data) override {
    return Write([&] { return inner_->UpdateNode(id, data); });
  }
  Status DeleteNode(vertex_t id) override {
    return Write([&] { return inner_->DeleteNode(id); });
  }
  StatusOr<bool> AddLink(vertex_t src, label_t label, vertex_t dst,
                         std::string_view data) override {
    return Write([&] { return inner_->AddLink(src, label, dst, data); });
  }
  Status UpdateLink(vertex_t src, label_t label, vertex_t dst,
                    std::string_view data) override {
    return Write([&] { return inner_->UpdateLink(src, label, dst, data); });
  }
  Status DeleteLink(vertex_t src, label_t label, vertex_t dst) override {
    return Write([&] { return inner_->DeleteLink(src, label, dst); });
  }

  StatusOr<timestamp_t> Commit() override {
    auto r = scope_.Call(SpanKind::kCommit, RequestOp::kWrite,
                         [&] { return inner_->Commit(); });
    if (!r.ok()) scope_.Fail();
    return r;
  }
  void Abort() override {
    scope_.Call(SpanKind::kAbort, RequestOp::kWrite, [&] { inner_->Abort(); });
  }

  bool SupportsThreadHandoff() const override {
    return inner_->SupportsThreadHandoff();
  }
  void DetachFromThread() override { inner_->DetachFromThread(); }
  void AttachToThread() override { inner_->AttachToThread(); }

 private:
  std::unique_ptr<StoreTxn> inner_;
  RequestScope scope_;
};

/// Store decorator recording one root span per session into `log`.
class TracedStore : public Store {
 public:
  TracedStore(Store* inner, SpanLog* log) : inner_(inner), log_(log) {}

  std::string Name() const override { return "traced/" + inner_->Name(); }
  StoreTraits Traits() const override { return inner_->Traits(); }

  std::unique_ptr<StoreTxn> BeginTxn() override {
    RequestScope scope(log_, NowNs());
    auto inner = scope.Call(SpanKind::kBeginWrite, RequestOp::kNone,
                            [&] { return inner_->BeginTxn(); });
    return std::make_unique<TracedTxn>(std::move(inner), scope);
  }
  std::unique_ptr<StoreReadTxn> BeginReadTxn() override {
    RequestScope scope(log_, NowNs());
    auto inner = scope.Call(SpanKind::kBeginRead, RequestOp::kNone,
                            [&] { return inner_->BeginReadTxn(); });
    return std::make_unique<TracedReadTxn>(std::move(inner), scope);
  }

 private:
  Store* inner_;
  SpanLog* log_;
};

}  // namespace livegraph::perfbench

#endif  // LIVEGRAPH_PERFBENCH_TRACE_H_
