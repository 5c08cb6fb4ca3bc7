// Output checks of the repository benchmark. Each compares what the
// program produced with a bound or a result computed here, apart from
// the program: great-circle geometry, line-rate and access-link
// arithmetic, a textbook Dijkstra, and the outage list of the fault
// schedule. None compares against stored output.
#pragma once

#include <string>
#include <vector>

#include "perfbench/bench.hpp"
#include "src/emu/schedule.hpp"
#include "src/fault/fault.hpp"
#include "src/flowsim/engine.hpp"
#include "src/orbit/ground_station.hpp"
#include "src/routing/pair_sweep.hpp"
#include "src/topology/shell_group.hpp"

namespace perfbench {

/// Twice the great-circle distance between two stations over c, on a
/// sphere of the polar radius (6,356.75 km): no route through space can
/// be shorter, so every RTT the program reports must be at least this.
double rtt_lower_bound_s(const hypatia::orbit::Geodetic& a,
                         const hypatia::orbit::Geodetic& b);

struct RttSample {
    int src_gs = 0;
    int dst_gs = 0;
    double rtt_s = 0.0;
};

/// Every sample is at least rtt_lower_bound_s of its pair.
Check check_rtt_lower_bound(const std::vector<RttSample>& samples,
                            const std::vector<hypatia::orbit::GroundStation>& stations);

/// No flow delivers more payload than line rate x 1440/1500 over the run.
Check check_line_rate(const std::vector<double>& delivered_bits, double line_rate_bps,
                      double duration_s);

/// Per source station, the final-epoch rates of its still-active flows
/// sum to at most the GSL rate x (1 + 1e-9).
Check check_source_access(const hypatia::flowsim::TrafficMatrix& matrix,
                          const hypatia::flowsim::RunSummary& summary,
                          double gsl_rate_bps, int num_gs);

/// Every completed finite flow sent its size (to 1e-9 relative) and took
/// at least size / GSL rate.
Check check_completed_flows(const hypatia::flowsim::TrafficMatrix& matrix,
                            const hypatia::flowsim::RunSummary& summary,
                            double gsl_rate_bps);

struct SweepSample {
    hypatia::TimeNs t = 0;
    std::size_t pair = 0;
    double rtt_s = 0.0;   // +inf when the sweep found the pair unreachable
};

/// Each sampled RTT equals (to 1e-9 relative) 2 x the shortest distance
/// over c that a textbook Dijkstra finds on build_group_snapshot at the
/// same instant; unreachable pairs must be unreachable there too.
Check check_shortest_paths(const hypatia::topo::ShellGroup& group,
                           const std::vector<hypatia::orbit::GroundStation>& stations,
                           const std::vector<hypatia::route::GsPair>& pairs,
                           const std::vector<SweepSample>& samples);

/// Every schedule entry whose step lies strictly inside an outage of its
/// source or destination station is unreachable.
Check check_outage_severing(const std::vector<hypatia::emu::PairSchedule>& schedules,
                            const hypatia::fault::FaultSchedule& faults);

/// Every schedule rate lies in [0, cap].
Check check_rate_caps(const std::vector<hypatia::emu::PairSchedule>& schedules,
                      double cap_bps);

/// ckpt::Manager::load_latest on `dir` returns generation
/// `expected_generation` (the last one this run wrote), carrying the
/// exporter section, stamped at a step boundary inside the run; and
/// nothing when the run wrote no generation (writes are wall-clock
/// periodic, so a fast enough run may finish before the first).
Check check_checkpoint_readback(const std::string& dir,
                                std::uint64_t expected_generation,
                                hypatia::TimeNs step, std::size_t num_steps);

}  // namespace perfbench
