// varmor benchmark program.
//
//   varmor_perfbench --workload reduce|study|serve --seed N --seconds S
//                    --trace 0|1 --work-dir DIR [--rates LIGHT,REF,HEAVY]
//                    [--trace-out FILE]
//
// Prints progress, attribution lines and a context line, then as the last
// line one JSON object {"correct", "attempted", "failed", "metrics"}: the
// end-to-end metrics on an untraced run, the per-layer metrics on a traced
// run. A per-layer metric of a layer the workload does not load reads 0.

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <string>
#include <vector>

#include "common.h"
#include "workloads.h"

using namespace perfbench;

namespace {

struct MetricDef {
    const char* name;
    const char* unit;
};

const std::vector<MetricDef> kEndToEnd = {
    {"setup_s", "s"}, {"peak_rss_mb", "MB"}, {"pass_s", "s"}, {"p50_ms", "ms"}, {"p90_ms", "ms"},
};

const std::vector<MetricDef> kPerLayer = {
    // reduce
    {"circuit.assemble_ms", "ms"},
    {"service.cache_key_ms", "ms"},
    {"sparse.factor_ms", "ms"},
    {"sparse.solve_us", "us"},
    {"mor.sparse_solves", "count"},
    {"mor.lowrank_ms", "ms"},
    {"mor.dense_ms", "ms"},
    {"mor.rom_order", "count"},
    {"mor.lowrank_over_prima", "ratio"},
    {"service.persist_ms", "ms"},
    {"service.reload_ms", "ms"},
    {"disk_store.bytes", "bytes"},
    {"model_cache.builds", "count"},
    {"model_cache.disk_hits", "count"},
    {"reduce.pass_s", "s"},
    {"reduce.reload_s", "s"},
    {"reduce.rom_err_max", "ratio"},
    // study
    {"rom_eval.grid_ms", "ms"},
    {"rom_eval.stamp_us", "us"},
    {"rom_eval.prep_us", "us"},
    {"rom_eval.point_us", "us"},
    {"rom_eval.residual_pct", "%"},
    {"analysis.poles_ms", "ms"},
    {"poles.full_ms", "ms"},
    {"poles.rom_us", "us"},
    {"analysis.transient_ms", "ms"},
    {"transient.corner_ms.p50", "ms"},
    {"transient.corner_ms.p99", "ms"},
    {"solve.refactorizations", "count"},
    {"solve.fallback_ratio", "ratio"},
    {"pool.speedup.grid", "ratio"},
    {"pool.speedup.poles", "ratio"},
    {"pool.speedup.transient", "ratio"},
    {"pool.steals", "count"},
    {"pool.chunks", "count"},
    {"pool.queue_high_water", "count"},
    {"study.pass_s", "s"},
    {"study.pole_err_p99", "ratio"},
    {"study.rom_err_max", "ratio"},
    // serve
    {"service.submit_us.p50", "us"},
    {"service.submit_us.p99", "us"},
    {"query.queue_wait_ms.p50", "ms"},
    {"query.queue_wait_ms.p99", "ms"},
    {"query.stamp_ms.p50", "ms"},
    {"query.stamp_ms.p99", "ms"},
    {"query.solve_ms.p50", "ms"},
    {"query.solve_ms.p99", "ms"},
    {"query.fulfil_ms.p50", "ms"},
    {"query.fulfil_ms.p99", "ms"},
    {"serve.small.p99_ms", "ms"},
    {"serve.large.p99_ms", "ms"},
    {"serve.residual_pct", "%"},
    {"batcher.coalesce", "ratio"},
    {"batcher.batch_mean", "count"},
    {"batcher.shed", "count"},
    {"batcher.expired", "count"},
    {"slab_transfer.capacity", "count"},
    {"obs.trace_evict_ratio", "ratio"},
    {"bench.gen_lag_ms.p99", "ms"},
    {"bench.backlog", "count"},
    {"serve.p50_ms", "ms"},
    {"serve.p99_ms", "ms"},
    {"serve.p99_ms.light", "ms"},
    {"serve.p99_ms.heavy", "ms"},
    {"serve.max_rps", "1/s"},
    {"serve.capacity_rps", "1/s"},
    {"serve.rom_err_max", "ratio"},
    // every workload
    {"bench.trace_overhead_pct", "%"},
};

int usage(const char* why) {
    std::fprintf(stderr,
                 "varmor_perfbench: %s\nusage: varmor_perfbench --workload reduce|study|serve "
                 "--seed N --seconds S --trace 0|1 --work-dir DIR [--rates L,R,H] "
                 "[--trace-out FILE]\n",
                 why);
    return 2;
}

}  // namespace

int main(int argc, char** argv) {
    Args args;
    std::string trace_out;
    bool have_trace = false;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc) return usage(("missing value for " + flag).c_str());
        const std::string value = argv[++i];
        if (flag == "--workload") args.workload = value;
        else if (flag == "--seed") args.seed = std::strtoull(value.c_str(), nullptr, 10);
        else if (flag == "--seconds") args.seconds = std::atof(value.c_str());
        else if (flag == "--trace") { args.trace = value == "1"; have_trace = value == "0" || value == "1"; }
        else if (flag == "--work-dir") args.work_dir = value;
        else if (flag == "--trace-out") trace_out = value;
        else if (flag == "--rates") {
            if (std::sscanf(value.c_str(), "%lf,%lf,%lf", &args.rates.light, &args.rates.ref,
                            &args.rates.heavy) != 3)
                return usage("--rates takes LIGHT,REF,HEAVY");
        } else {
            return usage(("unknown flag " + flag).c_str());
        }
    }
    void (*run)(const Args&, Report&, Metrics&) = nullptr;
    if (args.workload == "reduce") run = run_reduce;
    else if (args.workload == "study") run = run_study;
    else if (args.workload == "serve") run = run_serve;
    if (!run) return usage("unknown workload");
    if (!have_trace) return usage("--trace must be 0 or 1");
    if (args.work_dir.empty()) return usage("--work-dir is required");
    if (!(args.seconds > 0.0)) return usage("--seconds must be positive");

    namespace fs = std::filesystem;
    fs::remove_all(args.work_dir);
    fs::create_directories(args.work_dir);

    Report report;
    record_host(probe_host(), report);
    report.context("workload", "\"" + args.workload + "\"");
    report.context("seed", static_cast<double>(args.seed));
    report.context("trace", args.trace ? 1.0 : 0.0);

    Metrics out;
    Tracer::global().enable(args.trace);
    try {
        run(args, report, out);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "varmor_perfbench: %s failed: %s\n", args.workload.c_str(), e.what());
        fs::remove_all(args.work_dir);
        return 1;
    }
    Tracer::global().enable(false);
    fs::remove_all(args.work_dir);

    if (args.trace) {
        for (const MetricDef& m : kPerLayer) {
            const auto it = out.find(m.name);
            report.metric(m.name, it == out.end() ? 0.0 : it->second, m.unit);
        }
        if (!trace_out.empty()) Tracer::global().write(trace_out);
    } else {
        out["peak_rss_mb"] = peak_rss_mb();
        for (const MetricDef& m : kEndToEnd) {
            const auto it = out.find(m.name);
            if (it == out.end()) {
                std::fprintf(stderr, "varmor_perfbench: %s did not measure %s\n",
                             args.workload.c_str(), m.name);
                return 1;
            }
            report.metric(m.name, it->second, m.unit);
        }
    }
    report.print();
    return 0;
}
