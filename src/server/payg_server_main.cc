// payg_server — the network front door binary (S25).
//
// Opens (or creates and seeds) a ColumnStore and serves the wire protocol
// until SIGINT/SIGTERM. Knobs (all env):
//   PAYG_SERVER_SOCKET          unix socket path (preferred for local use)
//   PAYG_SERVER_PORT            TCP port on 127.0.0.1 (when no socket path;
//                               0 = kernel-assigned, printed at startup)
//   PAYG_SERVER_MAX_SESSIONS    concurrent connections before reject (64)
//   PAYG_SERVER_QUEUE           admission queue bound (256)
//   PAYG_SERVER_WORKERS         executor-facing worker threads (4)
//   PAYG_SERVER_MAX_BATCH       max coalesced point lookups per task (64)
//   PAYG_SERVER_BATCH_WINDOW_US extra wait for batch mates (0 = off)
//   PAYG_SERVER_DATA            store directory (default payg_server_data)
//   PAYG_SERVER_SEED_ROWS       rows of the demo table seeded into a fresh
//                               store (default 100000; 0 = no seeding)
//   PAYG_SERVER_LATENCY_US      simulated per-page read latency
//   PAYG_STATS_DUMP_SECS/PAYG_STATS_DIR  periodic metrics export

#include <csignal>
#include <cstdio>
#include <memory>
#include <string>

#include "common/env.h"
#include "core/column_store.h"
#include "server/seed.h"
#include "server/server.h"

namespace {

// Signal handler → flag; the main thread does the actual shutdown.
volatile std::sig_atomic_t g_stop = 0;

void OnSignal(int) { g_stop = 1; }

}  // namespace

int main() {
  using payg::ColumnStore;
  using payg::ColumnStoreOptions;

  ColumnStoreOptions store_options;
  store_options.directory =
      payg::EnvRaw("PAYG_SERVER_DATA") ? payg::EnvRaw("PAYG_SERVER_DATA")
                                       : "payg_server_data";
  store_options.storage.simulated_read_latency_us = static_cast<uint32_t>(
      payg::EnvLong("PAYG_SERVER_LATENCY_US", 0, 1000000, 0));

  auto store = ColumnStore::Open(store_options);
  if (!store.ok()) {
    std::fprintf(stderr, "payg_server: open %s: %s\n",
                 store_options.directory.c_str(),
                 store.status().ToString().c_str());
    return 1;
  }

  // Seed a fresh store so the binary is usable out of the box, and
  // checkpoint it: a restarted store keeps its checkpointed tables.
  if (!(*store)->GetTable("T").ok()) {
    payg::server::SeedSpec seed;
    seed.rows = static_cast<uint64_t>(
        payg::EnvLong("PAYG_SERVER_SEED_ROWS", 0, 100000000, 100000));
    if (seed.rows > 0) {
      payg::Status s = payg::server::SeedDemoTable(store->get(), seed);
      if (!s.ok()) {
        std::fprintf(stderr, "payg_server: seed: %s\n", s.ToString().c_str());
        return 1;
      }
      s = (*store)->Checkpoint();
      if (!s.ok()) {
        std::fprintf(stderr, "payg_server: checkpoint: %s\n",
                     s.ToString().c_str());
        return 1;
      }
      std::fprintf(stderr, "payg_server: seeded table T with %llu rows\n",
                   static_cast<unsigned long long>(seed.rows));
    }
  }

  payg::server::Server server(store->get(),
                              payg::server::ServerOptions::FromEnv());
  payg::Status started = server.Start();
  if (!started.ok()) {
    std::fprintf(stderr, "payg_server: start: %s\n",
                 started.ToString().c_str());
    return 1;
  }
  if (!server.unix_path().empty()) {
    std::fprintf(stderr, "payg_server: listening on %s\n",
                 server.unix_path().c_str());
  } else {
    std::fprintf(stderr, "payg_server: listening on 127.0.0.1:%d\n",
                 server.port());
  }
  std::fflush(stderr);

  std::signal(SIGINT, OnSignal);
  std::signal(SIGTERM, OnSignal);
  sigset_t empty;
  sigemptyset(&empty);
  while (g_stop == 0) {
    sigsuspend(&empty);  // returns on any delivered signal
  }

  std::fprintf(stderr, "payg_server: shutting down\n");
  server.Stop();
  return 0;
}
