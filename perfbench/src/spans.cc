#include "spans.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <unordered_map>

namespace perfbench {

namespace {

using payg::obs::TraceEvent;

bool Is(const char* a, const char* b) {
  return a != nullptr && std::strcmp(a, b) == 0;
}

bool StartsWith(const char* s, const char* prefix) {
  return s != nullptr && std::strncmp(s, prefix, std::strlen(prefix)) == 0;
}

// Maps a span to the module it measures. Client round trips and the
// server's own request/batch spans are the server layer; the executor's
// query span is exec; a partition task (columnar, paged and encoding work
// of one partition) is "partition"; page reads are storage; sweeps are
// buffer.
std::string LayerOf(const TraceEvent& e) {
  if (Is(e.category, "bench")) {
    return StartsWith(e.name, "client.") ? "server" : "table";
  }
  if (Is(e.category, "exec")) {
    return Is(e.name, "partition") ? "partition" : "exec";
  }
  if (Is(e.category, "io")) return "storage";
  if (Is(e.category, "server") || Is(e.category, "buffer")) {
    return e.category;
  }
  return "other";
}

uint64_t EndOf(const TraceEvent& e) { return e.start_ns + e.dur_ns; }

}  // namespace

bool TraceBudgetSpent() {
  auto& tracer = payg::obs::Tracer::Global();
  return payg::obs::Tracer::enabled() &&
         tracer.recorded() >= kTraceCapacity / 10 * 9;
}

const std::vector<std::string>& TraceLayers() {
  static const std::vector<std::string> kLayers = {
      "server", "table", "exec", "partition", "storage", "buffer"};
  return kLayers;
}

TraceSummary Summarize(const std::vector<TraceEvent>& events) {
  TraceSummary summary;
  summary.spans = events.size();
  summary.dropped = payg::obs::Tracer::Global().dropped();
  const size_t n = events.size();
  std::vector<std::vector<size_t>> children(n);

  // Same-thread nesting by time containment. The engine resets the span
  // stack when it installs a query scope, so parent ids alone would miss
  // e.g. an executor span opened under a benchmark span.
  std::unordered_map<uint32_t, std::vector<size_t>> by_thread;
  for (size_t i = 0; i < n; ++i) by_thread[events[i].tid].push_back(i);
  for (auto& [tid, idx] : by_thread) {
    std::sort(idx.begin(), idx.end(), [&](size_t a, size_t b) {
      if (events[a].start_ns != events[b].start_ns) {
        return events[a].start_ns < events[b].start_ns;
      }
      return events[a].dur_ns > events[b].dur_ns;
    });
    std::vector<size_t> stack;
    for (size_t i : idx) {
      while (!stack.empty() && EndOf(events[stack.back()]) <= events[i].start_ns) {
        stack.pop_back();
      }
      if (!stack.empty() && EndOf(events[i]) <= EndOf(events[stack.back()])) {
        children[stack.back()].push_back(i);
      }
      stack.push_back(i);
    }
  }

  // Cross-thread links: explicit parent ids (executor tasks on pool
  // threads), and client round trips to the server span that ran the
  // request (both carry the engine's query id as their argument).
  std::unordered_map<uint64_t, size_t> by_span_id;
  std::unordered_map<uint64_t, std::vector<size_t>> server_by_query;
  for (size_t i = 0; i < n; ++i) {
    by_span_id[events[i].span_id] = i;
    if (Is(events[i].category, "server")) {
      server_by_query[events[i].arg].push_back(i);
    }
  }
  for (size_t i = 0; i < n; ++i) {
    const TraceEvent& e = events[i];
    auto parent = by_span_id.find(e.parent_id);
    if (e.parent_id != 0 && parent != by_span_id.end() &&
        events[parent->second].tid != e.tid) {
      children[parent->second].push_back(i);
    }
    if (Is(e.category, "bench")) {
      ++summary.bench_calls;
      if (StartsWith(e.name, "client.")) {
        auto it = server_by_query.find(e.arg);
        if (it != server_by_query.end()) {
          children[i].insert(children[i].end(), it->second.begin(),
                             it->second.end());
        }
      }
    }
  }

  std::vector<std::pair<uint64_t, uint64_t>> spans;
  for (size_t i = 0; i < n; ++i) {
    const uint64_t lo = events[i].start_ns;
    const uint64_t hi = EndOf(events[i]);
    spans.clear();
    for (size_t c : children[i]) {
      const uint64_t a = std::max(lo, events[c].start_ns);
      const uint64_t b = std::min(hi, EndOf(events[c]));
      if (a < b) spans.emplace_back(a, b);
    }
    std::sort(spans.begin(), spans.end());
    uint64_t covered = 0;
    uint64_t reach = lo;
    for (const auto& [a, b] : spans) {
      const uint64_t from = std::max(a, reach);
      if (b > from) {
        covered += b - from;
        reach = b;
      }
    }
    summary.self_us[LayerOf(events[i])] +=
        static_cast<double>(events[i].dur_ns - covered) / 1e3;
  }
  return summary;
}

payg::Status WriteSpans(
    const std::string& path,
    const std::vector<std::pair<std::string, std::vector<TraceEvent>>>&
        windows) {
  std::error_code ec;
  const auto parent = std::filesystem::path(path).parent_path();
  if (!parent.empty()) std::filesystem::create_directories(parent, ec);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return payg::Status::IOError("cannot write spans to " + path);
  }
  std::fprintf(f,
               "window,category,name,start_ns,dur_ns,tid,arg,span_id,"
               "parent_id,query_id\n");
  for (const auto& [window, events] : windows) {
    for (const TraceEvent& e : events) {
      std::fprintf(f, "%s,%s,%s,%llu,%llu,%u,%llu,%llu,%llu,%llu\n",
                   window.c_str(), e.category, e.name,
                   static_cast<unsigned long long>(e.start_ns),
                   static_cast<unsigned long long>(e.dur_ns), e.tid,
                   static_cast<unsigned long long>(e.arg),
                   static_cast<unsigned long long>(e.span_id),
                   static_cast<unsigned long long>(e.parent_id),
                   static_cast<unsigned long long>(e.query_id));
    }
  }
  if (std::fclose(f) != 0) {
    return payg::Status::IOError("cannot finish writing " + path);
  }
  return payg::Status::OK();
}

}  // namespace perfbench
