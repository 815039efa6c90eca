// Campaign worker binary: connect to a campaign_daemon and execute fault
// shards until it shuts us down.
//
//   campaign_worker ADDR [--name=S] [--lanes=N] [--threads=N]
//                        [--max-shards=N] [--abrupt] [--reconnect]
//
// --lanes / --threads override the campaign's own settings LOCALLY —
// results are invariant to both, which is exactly what lets heterogeneous
// workers (different --lanes / --threads) serve one byte-deterministic
// campaign. --max-shards/--abrupt are the worker-loss test hooks: after N
// shards the worker severs its connection the instant the next shard
// arrives, exercising the daemon's re-queue path like a SIGKILL would.
// --reconnect makes the worker survive transport loss and daemon restarts
// by redialing with exponential backoff; a daemon unreachable for a whole
// connect-timeout window retires the worker cleanly.
#include <cstdlib>
#include <iostream>
#include <string>

#include "service/worker.h"

int main(int argc, char** argv) {
  sck::service::WorkerOptions opt;
  int positional = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--name=", 0) == 0) {
      opt.name = arg.substr(7);
    } else if (arg.rfind("--lanes=", 0) == 0) {
      opt.lanes = std::atoi(arg.c_str() + 8);
    } else if (arg.rfind("--threads=", 0) == 0) {
      opt.threads = std::atoi(arg.c_str() + 10);
    } else if (arg.rfind("--max-shards=", 0) == 0) {
      opt.max_shards = std::atoi(arg.c_str() + 13);
    } else if (arg == "--abrupt") {
      opt.abrupt = true;
    } else if (arg == "--reconnect") {
      opt.reconnect = true;
    } else if (positional == 0) {
      opt.connect = arg;
      ++positional;
    } else {
      std::cerr << "unknown option: " << arg << "\n";
      return 2;
    }
  }
  if (positional == 0) {
    std::cerr << "usage: campaign_worker ADDR [--name=S] [--lanes=N] "
                 "[--threads=N] [--max-shards=N] [--abrupt] [--reconnect]\n";
    return 2;
  }
  return sck::service::run_worker(opt);
}
