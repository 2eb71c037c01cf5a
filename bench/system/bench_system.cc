// System benchmark entry point. One process runs one workload (or the host
// ceiling probe) and prints one JSON line; see README.md.
//
//   bench_system --workload=<name> --seed=<S> [--seconds=<T>] [--trace=<dir>]
//                [--data=<dir>] [--host=<host.json>] [--smoke]
//   bench_system --workload=host [--host=<host.json>] [--smoke]
#include <malloc.h>

#include <cstdio>

#include "bench_system.h"

int main(int argc, char** argv) {
  using namespace tilespmv::bench_system;
  // A fixed mmap threshold makes peak_rss_mb track live memory. With glibc's
  // default dynamic threshold, freed plan-sized blocks stayed resident or
  // not depending on which thread freed them: peak RSS of one rwr-interactive
  // seed ranged 180-290 MiB run to run, against 125-137 MiB with this. At
  // 8 MiB every per-solve buffer (at most a 6.4 MB panel) stays on the heap,
  // so only plan-sized blocks take a different allocator path.
  mallopt(M_MMAP_THRESHOLD, 8 << 20);
  tilespmv::Result<Args> args = ParseArgs(argc, argv);
  if (!args.ok()) {
    std::fprintf(stderr, "bench_system: %s\n", args.status().ToString().c_str());
    return 2;
  }
  if (args.value().workload == "host") return RunHostProbe(args.value());
  return RunWorkload(args.value());
}
