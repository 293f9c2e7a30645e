#include "obs/query_profile.h"

#include <cinttypes>
#include <cstdarg>
#include <cstdio>

namespace payg::obs {

namespace {

void Append(std::string* out, const char* fmt, ...) {
  char buf[512];
  va_list args;
  va_start(args, fmt);
  int n = std::vsnprintf(buf, sizeof(buf), fmt, args);
  va_end(args);
  if (n > 0) {
    size_t len = static_cast<size_t>(n);
    if (len > sizeof(buf) - 1) len = sizeof(buf) - 1;
    out->append(buf, len);
  }
}

}  // namespace

std::string QueryProfile::ToText() const {
  std::string out;
  Append(&out,
         "qid=%" PRIu64 " wall_us=%" PRIu64 " queue_us=%" PRIu64
         " scan_us=%" PRIu64 " parts=%" PRIu64 " cold=%" PRIu64 "/%" PRIu64
         "us hit=%" PRIu64 "/%" PRIu64 "us bytes=%" PRIu64 " rows=%" PRIu64
         " index=%" PRIu64 " vscan=%" PRIu64 " codec=%" PRIu64 "n/%" PRIu64
         "f prefetch=%" PRIu64 "/%" PRIu64 "%s",
         query_id, wall_us, queue_wait_us, scan_us, partitions,
         page_cold_count, page_cold_us, page_hit_count, page_hit_us,
         bytes_read, rows_scanned, index_lookups, vector_scans, codec_native,
         codec_fallback, prefetch_issued, prefetch_hits,
         deadline_exceeded ? " DEADLINE" : "");
  return out;
}

std::string QueryProfile::ToJson() const {
  std::string out;
  Append(&out,
         "{\"query_id\":%" PRIu64 ",\"wall_us\":%" PRIu64
         ",\"queue_wait_us\":%" PRIu64 ",\"scan_us\":%" PRIu64
         ",\"partitions\":%" PRIu64,
         query_id, wall_us, queue_wait_us, scan_us, partitions);
#define PAYG_QUERY_JSON(name, scale) \
  Append(&out, ",\"" #name "\":%" PRIu64, name);
  PAYG_QUERY_COUNTERS(PAYG_QUERY_JSON)
#undef PAYG_QUERY_JSON
  Append(&out, ",\"deadline_exceeded\":%s,\"partition_us\":[",
         deadline_exceeded ? "true" : "false");
  for (size_t i = 0; i < partition_us.size(); ++i) {
    Append(&out, "%s%" PRIu64, i == 0 ? "" : ",", partition_us[i]);
  }
  out += "]}";
  return out;
}

}  // namespace payg::obs
