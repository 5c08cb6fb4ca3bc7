// Shared types of the repository benchmark (see README.md): what a
// workload round measures, the per-layer table a traced round fills,
// and the output checks every run makes.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
    return std::chrono::duration<double>(b - a).count();
}

/// Heap allocations made by this process so far. The traced binary
/// counts them by replacing the global operator new (alloc_count.cpp);
/// the end-to-end binary replaces nothing and always returns 0.
std::uint64_t allocations();

/// True in perfbench_traced, the binary that fills the per-layer table.
extern const bool kTracedBinary;

/// One output check: the name of the property, whether every examined
/// item held it, how many items it examined and the first violation.
struct Check {
    explicit Check(std::string check_name) : name(std::move(check_name)) {}
    std::string name;
    bool ok = true;
    std::size_t examined = 0;
    std::string detail;
};

/// Per-layer values of one round, by metric name (README.md, "Per-layer
/// table"). Workloads add what they time around public calls; the
/// driver adds the program's profile scopes and counters.
using LayerValues = std::map<std::string, double>;

/// What one round of a workload measured, plus the simulated statistics
/// it produced (printed as facts, never as metrics).
struct Round {
    double setup_s = 0.0;         // workload start -> first simulated step
    double run_s = 0.0;           // first step -> last output written
    double sim_s = 0.0;           // simulated seconds the run covered
    std::vector<double> step_s;   // host seconds per simulated step
    LayerValues layers;           // benchmark-timed layer values
    std::map<std::string, double> facts;
};

struct Options {
    unsigned seed = 0;
    bool traced = false;           // fill the benchmark-timed layer values
    bool smoke = false;            // a few steps per workload (self-test)
    std::string scratch_dir;       // checkpoints and rendered schedules
};

/// One workload. round() sets up and runs it once and keeps the outputs
/// of that round for check(); rounds of one workload and seed repeat the
/// same operations on the same inputs.
class Workload {
  public:
    virtual ~Workload() = default;
    virtual Round round() = 0;
    /// Checks the last round's outputs against computations made apart
    /// from the program. Runs outside every timed region.
    virtual std::vector<Check> check() = 0;
    /// Perturbs the last round's outputs so that the check named
    /// `check_name` must fail (self-test only); false when the workload
    /// has no such check.
    virtual bool perturb(const std::string& check_name) = 0;
};

std::unique_ptr<Workload> make_workload(const std::string& name, const Options& options);
const std::vector<std::string>& workload_names();

}  // namespace perfbench
