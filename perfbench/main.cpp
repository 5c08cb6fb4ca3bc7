// The repository benchmark's driver binary (README.md). One process
// runs one workload: rounds of set-up + run until --seconds of host time
// are used, then the output checks, then one JSON result line.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --scratch <dir>
//   perfbench_traced ... (the same, filling the per-layer table instead)
//   perfbench --selftest --scratch <dir>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>

#include "perfbench/bench.hpp"
#include "src/obs/json.hpp"
#include "src/obs/observability.hpp"
#include "src/util/thread_pool.hpp"

extern char** environ;

namespace perfbench {
namespace {

using Json = hypatia::obs::json::Value;

struct MetricDef {
    const char* name;
    const char* unit;
};

// Must match BENCHMARK.json (run.py compares the two).
constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},         {"rtf", "sim-s/s"},        {"step_ms_p50", "ms"},
    {"step_ms_late", "ms"},   {"peak_rss_mb", "MB"},
};

constexpr MetricDef kPerLayer[] = {
    {"orbit.sgp4_s", "s"},
    {"orbit.sgp4_calls", "count"},
    {"routing.snapshot_refresh_s", "s"},
    {"routing.snapshot_refresh_calls", "count"},
    {"routing.gsl_rows_patched", "count"},
    {"routing.search_s", "s"},
    {"routing.search_runs", "count"},
    {"routing.search_pops", "count"},
    {"routing.search_settled", "count"},
    {"routing.fstate_install_s", "s"},
    {"routing.fstate_entries_changed", "count"},
    {"routing.sweep_step_s", "s"},
    {"routing.allocs_per_step", "count"},
    {"sim.event_loop_s", "s"},
    {"sim.ns_per_event", "ns"},
    {"sim.allocs_per_event", "count"},
    {"sim.events", "count"},
    {"sim.event_queue_peak", "count"},
    {"core.network_build_s", "s"},
    {"flowsim.run_s", "s"},
    {"flowsim.paths_s", "s"},
    {"flowsim.solve_s", "s"},
    {"flowsim.advance_s", "s"},
    {"flowsim.solver_rounds", "count"},
    {"flowsim.allocs_per_epoch", "count"},
    {"flowsim.epochs", "count"},
    {"fault.schedule_build_s", "s"},
    {"fault.segments", "count"},
    {"emu.background_s", "s"},
    {"emu.compute_step_s", "s"},
    {"emu.render_s", "s"},
    {"emu.rendered_bytes", "bytes"},
    {"ckpt.epoch_overhead_s", "s"},
    {"ckpt.write_s", "s"},
    {"ckpt.bytes_written", "bytes"},
};

double median(std::vector<double> v) {
    if (v.empty()) return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile (p in (0, 1]).
double percentile(std::vector<double> v, double p) {
    if (v.empty()) return 0.0;
    std::sort(v.begin(), v.end());
    const auto rank = static_cast<std::size_t>(std::ceil(p * static_cast<double>(v.size())));
    return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

/// The program's own profile scopes and counters since the last reset,
/// under the per-layer names. Scope times are self times summed over
/// threads.
LayerValues program_layers() {
    const auto phases = hypatia::obs::profiler().snapshot();
    const auto self_s = [&](const char* name) {
        const auto it = phases.find(name);
        return it == phases.end() ? 0.0 : static_cast<double>(it->second.self_ns) * 1e-9;
    };
    const auto calls = [&](const char* name) {
        const auto it = phases.find(name);
        return it == phases.end() ? 0.0 : static_cast<double>(it->second.calls);
    };
    auto& m = hypatia::obs::metrics();
    const auto c = [&](const char* name) { return static_cast<double>(m.counter(name).value()); };
    LayerValues v;
    v["orbit.sgp4_s"] = self_s("propagation.sgp4");
    v["orbit.sgp4_calls"] = calls("propagation.sgp4");
    v["routing.snapshot_refresh_s"] = self_s("routing.snapshot_refresh") + self_s("routing.snapshot");
    v["routing.snapshot_refresh_calls"] = calls("routing.snapshot_refresh") + calls("routing.snapshot");
    v["routing.gsl_rows_patched"] = c("route.gsl_rows_patched");
    v["routing.search_s"] = self_s("routing.dijkstra") + self_s("routing.astar");
    v["routing.search_runs"] = c("route.dijkstra_runs") + c("route.astar_runs");
    v["routing.search_pops"] = c("route.dijkstra_pops") + c("route.astar_pops");
    v["routing.search_settled"] = c("route.dijkstra_settled") + c("route.astar_settled");
    v["routing.fstate_install_s"] = self_s("routing.fstate_install");
    v["routing.fstate_entries_changed"] = c("route.fstate_entries_changed");
    v["sim.event_loop_s"] = self_s("sim.event_loop");
    v["sim.events"] = c("sim.events_executed");
    v["sim.event_queue_peak"] = m.gauge("sim.event_queue_peak").value();
    v["sim.ns_per_event"] =
        v["sim.events"] > 0 ? v["sim.event_loop_s"] * 1e9 / v["sim.events"] : 0.0;
    v["flowsim.paths_s"] = self_s("flowsim.paths");
    v["flowsim.solve_s"] = self_s("flowsim.solve");
    v["flowsim.advance_s"] = self_s("flowsim.advance");
    v["flowsim.solver_rounds"] = c("flowsim.solver_rounds");
    v["flowsim.epochs"] = c("flowsim.epochs");
    v["fault.segments"] = c("fault.segments");
    v["ckpt.write_s"] = static_cast<double>(m.histogram("ckpt.write_us").sum()) * 1e-6;
    v["ckpt.bytes_written"] = c("ckpt.bytes_written");
    return v;
}

double peak_rss_mb() {
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::string cpu_model() {
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("model name", 0) == 0) {
            const auto colon = line.find(':');
            return colon == std::string::npos ? line : line.substr(colon + 2);
        }
    }
    return "unknown";
}

/// Host, build and the HYPATIA_* environment the run saw.
Json config_json() {
    Json env = Json::object();
    for (char** e = environ; *e != nullptr; ++e) {
        const std::string kv = *e;
        if (kv.rfind("HYPATIA_", 0) != 0) continue;
        const auto eq = kv.find('=');
        env[kv.substr(0, eq)] = eq == std::string::npos ? "" : kv.substr(eq + 1);
    }
    Json j = Json::object();
    j["cpu"] = cpu_model();
    j["nproc"] = static_cast<double>(std::thread::hardware_concurrency());
    j["compiler"] = PERFBENCH_CXX_COMPILER;
    j["build_type"] = PERFBENCH_BUILD_TYPE;
    j["pool_threads"] = static_cast<double>(hypatia::util::ThreadPool::global().num_threads());
    j["env"] = std::move(env);
    return j;
}

Json map_json(const std::map<std::string, double>& values) {
    Json j = Json::object();
    for (const auto& [k, v] : values) j[k] = v;
    return j;
}

bool print_checks(const std::vector<Check>& checks) {
    bool ok = true;
    for (const Check& c : checks) {
        std::printf("check %s %s examined=%zu%s%s\n", c.name.c_str(), c.ok ? "ok" : "FAILED",
                    c.examined, c.ok ? "" : " ", c.detail.c_str());
        ok = ok && c.ok;
    }
    return ok;
}

int run_workload(const std::string& name, const Options& opts, double seconds) {
    const auto workload = make_workload(name, opts);
    if (!workload) {
        std::fprintf(stderr, "perfbench: unknown workload '%s'\n", name.c_str());
        return 2;
    }
    std::printf("config %s\n", config_json().dump().c_str());

    std::vector<Round> rounds;
    const auto start = Clock::now();
    std::vector<double> round_s;
    do {
        if (opts.traced) hypatia::obs::Observability::instance().reset();
        Round r = workload->round();
        if (opts.traced) {
            for (const auto& [k, v] : program_layers()) r.layers[k] = v;
        }
        std::fprintf(stderr, "round %zu: setup %.4f s, run %.4f s, rtf %.4f\n", rounds.size(),
                     r.setup_s, r.run_s, r.sim_s / r.run_s);
        round_s.push_back(r.setup_s + r.run_s);
        rounds.push_back(std::move(r));
    } while (seconds_between(start, Clock::now()) + median(round_s) <= seconds);
    const double rss_mb = peak_rss_mb();

    // late_steps: the last tenth (rounded up) of each round's steps, where
    // a per-step cost that grows with run length shows.
    std::vector<double> setup, rtf, steps, late_steps;
    for (const Round& r : rounds) {
        setup.push_back(r.setup_s);
        rtf.push_back(r.sim_s / r.run_s);
        steps.insert(steps.end(), r.step_s.begin(), r.step_s.end());
        const std::size_t late = (r.step_s.size() + 9) / 10;
        late_steps.insert(late_steps.end(), r.step_s.end() - static_cast<std::ptrdiff_t>(late),
                          r.step_s.end());
    }
    const bool correct = print_checks(workload->check());

    Json facts = map_json(rounds.back().facts);
    facts["rounds"] = static_cast<double>(rounds.size());
    facts["steps"] = static_cast<double>(steps.size());
    facts["step_ms_p90"] = percentile(steps, 0.90) * 1e3;
    facts["step_ms_p95"] = percentile(steps, 0.95) * 1e3;
    facts["step_ms_p99"] = percentile(steps, 0.99) * 1e3;
    facts["rtf"] = median(rtf);
    facts["setup_s"] = median(setup);
    std::printf("facts %s\n", facts.dump().c_str());

    Json metrics = Json::object();
    const auto put = [&](const MetricDef& def, double value) {
        Json m = Json::object();
        m["value"] = value;
        m["unit"] = def.unit;
        metrics[def.name] = std::move(m);
    };
    if (opts.traced) {
        for (const MetricDef& def : kPerLayer) {
            std::vector<double> values;
            for (const Round& r : rounds) {
                const auto it = r.layers.find(def.name);
                values.push_back(it == r.layers.end() ? 0.0 : it->second);
            }
            put(def, median(values));
        }
    } else {
        const double values[] = {median(setup), median(rtf), percentile(steps, 0.50) * 1e3,
                                 median(late_steps) * 1e3, rss_mb};
        for (std::size_t i = 0; i < std::size(kEndToEnd); ++i) put(kEndToEnd[i], values[i]);
    }
    Json result = Json::object();
    result["correct"] = correct;
    result["attempted"] = static_cast<double>(steps.size());
    result["failed"] = 0.0;
    result["metrics"] = std::move(metrics);
    std::printf("%s\n", result.dump().c_str());
    std::fflush(stdout);
    return correct ? 0 : 1;
}

/// Smoke round of every workload: its checks must pass on the real
/// outputs and each must fail on an output perturbed for it.
int selftest(const Options& base) {
    static const char* const kChecks[] = {
        "rtt_lower_bound", "line_rate",  "source_access", "completed_flows",
        "shortest_paths",  "outage_severing", "rate_caps", "checkpoint_readback"};
    bool ok = true;
    for (const std::string& name : workload_names()) {
        Options opts = base;
        opts.smoke = true;
        const auto workload = make_workload(name, opts);
        const Round r = workload->round();
        std::printf("selftest %s: %zu steps, facts %s\n", name.c_str(), r.step_s.size(),
                    map_json(r.facts).dump().c_str());
        ok = print_checks(workload->check()) && ok;
        for (const char* check : kChecks) {
            if (!workload->perturb(check)) continue;
            bool caught = false;
            for (const Check& c : workload->check()) caught = caught || (c.name == check && !c.ok);
            std::printf("selftest %s: perturbed %s %s\n", name.c_str(), check,
                        caught ? "caught" : "NOT CAUGHT");
            ok = ok && caught;
        }
        workload->perturb("");
    }
    std::printf("selftest %s\n", ok ? "passed" : "FAILED");
    return ok ? 0 : 1;
}

int usage() {
    std::fprintf(stderr,
                 "usage: perfbench --workload <name> --seed <n> --seconds <s> --scratch <dir>\n"
                 "       perfbench --selftest --scratch <dir>\n");
    return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
    using namespace perfbench;
    Options opts;
    std::string workload;
    double seconds = 10.0;
    bool self = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const bool has_value = i + 1 < argc;
        if (arg == "--selftest") {
            self = true;
        } else if (arg == "--workload" && has_value) {
            workload = argv[++i];
        } else if (arg == "--seed" && has_value) {
            opts.seed = static_cast<unsigned>(std::strtoul(argv[++i], nullptr, 10));
        } else if (arg == "--seconds" && has_value) {
            seconds = std::strtod(argv[++i], nullptr);
        } else if (arg == "--scratch" && has_value) {
            opts.scratch_dir = argv[++i];
        } else {
            return usage();
        }
    }
    if (opts.scratch_dir.empty() || (!self && workload.empty())) return usage();
    opts.traced = kTracedBinary;
    std::filesystem::create_directories(opts.scratch_dir);
    try {
        return self ? selftest(opts) : run_workload(workload, opts, seconds);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 1;
    }
}
