// The four workloads.  Each runs in its own process, draws every input
// from the one seeded generator (common.hpp `stream`), and returns a
// Report whose end-to-end metrics main.cpp prints.
#pragma once

#include "common.hpp"

namespace pb {

/// Closed loop, one caller: repeated cold source -> artifact compiles
/// (front::parse_module, front::resolve, serve::compile_program at O2)
/// over the 12 benchmark programs, in whole passes of seeded order.
Report run_compile_cold(const Options& opt);

/// Closed loop, one caller: every benchmark program compiled in set-up, then
/// run on one large seeded input per pass, once on the serial engine and
/// once with RunConfig::parallel_backend.
Report run_engine_bulk(const Options& opt);

/// Open loop at a fixed offered rate: warm Service::load + submit of small
/// seeded queries from one generator thread, while a second client loads a
/// fresh variant of every benchmark program on a fixed schedule.
Report run_serve_open(const Options& opt);

/// Repeated bursts of warm requests submitted at once against preloaded
/// handles: batch assembly, response split and arenas at full occupancy.
Report run_serve_burst(const Options& opt);

}  // namespace pb
