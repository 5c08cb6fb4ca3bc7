#include "perfbench/checks.hpp"

#include <cmath>
#include <cstdio>
#include <limits>
#include <queue>
#include <utility>

#include "src/ckpt/checkpoint.hpp"
#include "src/routing/multi_shell.hpp"

namespace perfbench {

using namespace hypatia;

namespace {

constexpr double kPolarRadiusKm = 6356.75;
constexpr double kLightKmPerS = 299792.458;
constexpr double kPi = 3.14159265358979323846;
constexpr double kInf = std::numeric_limits<double>::infinity();

std::string format(const char* fmt, double a, double b, double c = 0.0) {
    char buf[256];
    std::snprintf(buf, sizeof buf, fmt, a, b, c);
    return buf;
}

void fail(Check& c, std::string detail) {
    if (c.ok) c.detail = std::move(detail);
    c.ok = false;
}

}  // namespace

double rtt_lower_bound_s(const orbit::Geodetic& a, const orbit::Geodetic& b) {
    const double rad = kPi / 180.0;
    const double lat1 = a.latitude_deg * rad;
    const double lat2 = b.latitude_deg * rad;
    const double dlat = lat2 - lat1;
    const double dlon = (b.longitude_deg - a.longitude_deg) * rad;
    const double h = std::sin(dlat / 2) * std::sin(dlat / 2) +
                     std::cos(lat1) * std::cos(lat2) * std::sin(dlon / 2) *
                         std::sin(dlon / 2);
    const double km = 2.0 * kPolarRadiusKm * std::asin(std::min(1.0, std::sqrt(h)));
    return 2.0 * km / kLightKmPerS;
}

Check check_rtt_lower_bound(const std::vector<RttSample>& samples,
                            const std::vector<orbit::GroundStation>& stations) {
    Check c{"rtt_lower_bound"};
    for (const RttSample& s : samples) {
        ++c.examined;
        const double bound = rtt_lower_bound_s(stations.at(s.src_gs).geodetic(),
                                               stations.at(s.dst_gs).geodetic());
        if (!(s.rtt_s >= bound)) {
            fail(c, format("gs %.0f -> %.0f: rtt below 2 x great circle / c",
                           s.src_gs, s.dst_gs) +
                        format(" (%.9f s < %.9f s)", s.rtt_s, bound));
        }
    }
    return c;
}

Check check_line_rate(const std::vector<double>& delivered_bits, double line_rate_bps,
                      double duration_s) {
    Check c{"line_rate"};
    const double limit = line_rate_bps * 1440.0 / 1500.0 * duration_s;
    for (std::size_t i = 0; i < delivered_bits.size(); ++i) {
        ++c.examined;
        if (delivered_bits[i] > limit) {
            fail(c, format("flow %.0f delivered %.0f bits > %.0f", static_cast<double>(i),
                           delivered_bits[i], limit));
        }
    }
    return c;
}

Check check_source_access(const flowsim::TrafficMatrix& matrix,
                          const flowsim::RunSummary& summary, double gsl_rate_bps,
                          int num_gs) {
    Check c{"source_access"};
    std::vector<double> sum(static_cast<std::size_t>(num_gs), 0.0);
    for (std::size_t f = 0; f < matrix.flows.size(); ++f) {
        if (summary.flows[f].completion >= 0) continue;
        sum.at(static_cast<std::size_t>(matrix.flows[f].src_gs)) +=
            summary.flows[f].last_rate_bps;
    }
    for (int gs = 0; gs < num_gs; ++gs) {
        ++c.examined;
        if (sum[static_cast<std::size_t>(gs)] > gsl_rate_bps * (1.0 + 1e-9)) {
            fail(c, format("gs %.0f sends %.3f bit/s > GSL %.3f bit/s", gs,
                           sum[static_cast<std::size_t>(gs)], gsl_rate_bps));
        }
    }
    return c;
}

Check check_completed_flows(const flowsim::TrafficMatrix& matrix,
                            const flowsim::RunSummary& summary, double gsl_rate_bps) {
    Check c{"completed_flows"};
    for (std::size_t f = 0; f < matrix.flows.size(); ++f) {
        const flowsim::Flow& flow = matrix.flows[f];
        const flowsim::FlowOutcome& out = summary.flows[f];
        if (out.completion < 0) continue;
        ++c.examined;
        if (flow.size_bits == flowsim::kUnboundedSize) {
            fail(c, format("flow %.0f is unbounded but completed at %.0f ns",
                           static_cast<double>(f), static_cast<double>(out.completion)));
            continue;
        }
        if (std::abs(out.bits_sent - flow.size_bits) > 1e-9 * flow.size_bits) {
            fail(c, format("flow %.0f sent %.3f bits of %.3f", static_cast<double>(f),
                           out.bits_sent, flow.size_bits));
        }
        // Completion instants are whole nanoseconds: allow one.
        const double took_s = static_cast<double>(out.completion - flow.arrival) * 1e-9;
        if (took_s + 1e-9 < flow.size_bits / gsl_rate_bps) {
            fail(c, format("flow %.0f finished in %.9f s < size / GSL rate %.9f s",
                           static_cast<double>(f), took_s,
                           flow.size_bits / gsl_rate_bps));
        }
    }
    return c;
}

Check check_shortest_paths(const topo::ShellGroup& group,
                           const std::vector<orbit::GroundStation>& stations,
                           const std::vector<route::GsPair>& pairs,
                           const std::vector<SweepSample>& samples) {
    Check c{"shortest_paths"};
    route::Graph graph(0, 0);
    TimeNs graph_t = std::numeric_limits<TimeNs>::min();
    std::vector<double> dist;
    for (const SweepSample& s : samples) {
        ++c.examined;
        if (s.t != graph_t) {
            graph = route::build_group_snapshot(group, stations, s.t);
            graph_t = s.t;
        }
        // Textbook Dijkstra from the destination station with a binary
        // heap and lazy deletion; ground stations other than the root
        // terminate paths unless the graph marks them as relays.
        const route::GsPair& pair = pairs.at(s.pair);
        const int root = graph.gs_node(pair.dst_gs);
        dist.assign(static_cast<std::size_t>(graph.num_nodes()), kInf);
        using Item = std::pair<double, int>;
        std::priority_queue<Item, std::vector<Item>, std::greater<>> heap;
        dist[static_cast<std::size_t>(root)] = 0.0;
        heap.push({0.0, root});
        while (!heap.empty()) {
            const auto [d, u] = heap.top();
            heap.pop();
            if (d > dist[static_cast<std::size_t>(u)]) continue;
            if (u != root && graph.is_ground_station(u) && !graph.can_relay(u)) continue;
            graph.for_each_neighbor(u, [&](const route::Edge& e) {
                const double nd = d + e.distance_km;
                if (nd < dist[static_cast<std::size_t>(e.to)]) {
                    dist[static_cast<std::size_t>(e.to)] = nd;
                    heap.push({nd, e.to});
                }
            });
        }
        const double km = dist[static_cast<std::size_t>(graph.gs_node(pair.src_gs))];
        const double expected = km == kInf ? kInf : 2.0 * km / kLightKmPerS;
        const bool same = expected == kInf
                              ? s.rtt_s == kInf
                              : std::abs(s.rtt_s - expected) <= 1e-9 * expected;
        if (!same) {
            fail(c, format("t %.3f s pair %.0f: sweep rtt %.12f s", static_cast<double>(s.t) * 1e-9,
                           static_cast<double>(s.pair), s.rtt_s) +
                        format(", Dijkstra %.12f s", expected, 0.0));
        }
    }
    return c;
}

Check check_outage_severing(const std::vector<emu::PairSchedule>& schedules,
                            const fault::FaultSchedule& faults) {
    Check c{"outage_severing"};
    std::vector<std::vector<std::pair<TimeNs, TimeNs>>> outages(
        static_cast<std::size_t>(faults.num_ground_stations()));
    for (const fault::FaultEvent& e : faults.events()) {
        if (e.kind == fault::FaultKind::kGroundStation) {
            outages.at(static_cast<std::size_t>(e.a)).push_back({e.start, e.end});
        }
    }
    for (const emu::PairSchedule& s : schedules) {
        for (const emu::ScheduleEntry& e : s.entries) {
            for (const int gs : {s.src_gs, s.dst_gs}) {
                for (const auto& [start, end] : outages.at(static_cast<std::size_t>(gs))) {
                    if (!(start < e.t && e.t + s.step < end)) continue;
                    ++c.examined;
                    if (e.reachable) {
                        fail(c, format("gs %.0f down over [%.3f s, %.3f s)", gs,
                                       static_cast<double>(start) * 1e-9,
                                       static_cast<double>(end) * 1e-9) +
                                    " but " + s.src_name + " -> " + s.dst_name +
                                    format(" is reachable at %.3f s",
                                           static_cast<double>(e.t) * 1e-9, 0.0));
                    }
                }
            }
        }
    }
    return c;
}

Check check_rate_caps(const std::vector<emu::PairSchedule>& schedules, double cap_bps) {
    Check c{"rate_caps"};
    for (const emu::PairSchedule& s : schedules) {
        for (const emu::ScheduleEntry& e : s.entries) {
            ++c.examined;
            if (!(e.rate_bps >= 0.0 && e.rate_bps <= cap_bps)) {
                fail(c, s.src_name + " -> " + s.dst_name +
                            format(": rate %.3f bit/s outside [0, %.0f]", e.rate_bps,
                                   cap_bps));
            }
        }
    }
    return c;
}

Check check_checkpoint_readback(const std::string& dir, std::uint64_t expected_generation,
                                TimeNs step, std::size_t num_steps) {
    Check c{"checkpoint_readback"};
    ++c.examined;
    ckpt::Policy policy;
    policy.dir = dir;
    ckpt::Manager manager(policy);
    const std::optional<ckpt::Checkpoint> latest = manager.load_latest();
    if (!latest.has_value()) {
        if (expected_generation != 0) fail(c, "no readable checkpoint in " + dir);
    } else if (latest->generation != expected_generation) {
        fail(c, format("latest generation %.0f, this run wrote %.0f",
                       static_cast<double>(latest->generation),
                       static_cast<double>(expected_generation)));
    } else if (latest->find("emu.exporter") == nullptr) {
        fail(c, "checkpoint lacks the emu.exporter section");
    } else if (latest->epoch_index == 0 || latest->epoch_index >= num_steps ||
               latest->sim_time != static_cast<TimeNs>(latest->epoch_index) * step) {
        fail(c, format("checkpoint stamped at epoch %.0f, t %.0f ns",
                       static_cast<double>(latest->epoch_index),
                       static_cast<double>(latest->sim_time)));
    }
    return c;
}

}  // namespace perfbench
