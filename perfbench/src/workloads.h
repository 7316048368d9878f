#pragma once

// The three workloads. Each runs its set-up, its timed phase and its output
// checks, and fills `out` with its metrics: the end-to-end set on an untraced
// run, its per-layer metrics on a traced run.

#include <map>
#include <string>

#include "common.h"

namespace perfbench {

/// Metric values by name; units are fixed by the metric tables in main.cpp.
using Metrics = std::map<std::string, double>;

/// Set-ups per run; setup_s is their median.
constexpr int kSetups = 5;

void run_reduce(const Args& args, Report& report, Metrics& out);
void run_study(const Args& args, Report& report, Metrics& out);
void run_serve(const Args& args, Report& report, Metrics& out);

}  // namespace perfbench
