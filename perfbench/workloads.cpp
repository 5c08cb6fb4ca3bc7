// The four workloads of the repository benchmark. Each drives the
// program through its public API; see README.md for why each was chosen
// and the make-up of its inputs.
#include <filesystem>
#include <fstream>
#include <optional>
#include <stdexcept>

#include "perfbench/bench.hpp"
#include "perfbench/checks.hpp"
#include "src/core/experiment.hpp"
#include "src/emu/realtime.hpp"
#include "src/obs/observability.hpp"
#include "src/topology/cities.hpp"
#include "src/topology/isl.hpp"

namespace perfbench {

using namespace hypatia;

namespace {

constexpr TimeNs kStep = 100 * kNsPerMs;

std::uint64_t counter(const char* name) { return obs::metrics().counter(name).value(); }

/// Inclusive time of a profile scope, summed over its threads (seconds).
double profile_total_s(const char* name) {
    const auto phases = obs::profiler().snapshot();
    const auto it = phases.find(name);
    return it == phases.end() ? 0.0 : static_cast<double>(it->second.total_ns) * 1e-9;
}

std::vector<double> step_deltas(Clock::time_point start,
                                const std::vector<Clock::time_point>& stamps) {
    std::vector<double> out;
    out.reserve(stamps.size());
    Clock::time_point prev = start;
    for (const auto& s : stamps) {
        out.push_back(seconds_between(prev, s));
        prev = s;
    }
    return out;
}

core::Scenario top_cities(const std::string& shell, int num_gs) {
    core::Scenario s = core::Scenario::paper_default(shell);
    s.ground_stations.erase(s.ground_stations.begin() + num_gs, s.ground_stations.end());
    return s;
}

/// Where in the orbital timeline a run starts. On packet_tcp the seed
/// moves this window and keeps Fig 2's permutation: a new permutation
/// changes the simulated work by up to ±8 %, a new window by about half
/// that, and runs of different seeds must stay comparable.
TimeNs seed_start_offset(unsigned seed) { return static_cast<TimeNs>(seed) * 97 * kNsPerSec; }

/// Pairs (i, i + num_gs / 2) for i < count: every pair crosses half the
/// city list, so source and destination sets are disjoint.
std::vector<route::GsPair> half_offset_pairs(int num_gs, int count) {
    std::vector<route::GsPair> pairs;
    for (int i = 0; i < count; ++i) pairs.push_back({i, i + num_gs / 2});
    return pairs;
}

// --- packet_tcp ----------------------------------------------------------
// Fig 2's setting: Kuiper K1, the top cities, a random permutation of
// NewReno flows, every link at 25 Mbit/s, 100 ms fstate installs.
class PacketTcp final : public Workload {
  public:
    explicit PacketTcp(const Options& o)
        : opts_(o), num_gs_(o.smoke ? 20 : 100), duration_(o.smoke ? 0.3 : 2.0) {}

    Round round() override {
        flows_.clear();  // flows reference the network: release them first
        leo_.reset();
        Round r;
        const auto t0 = Clock::now();
        core::Scenario scenario = top_cities("kuiper_k1", num_gs_);
        scenario.isl_rate_bps = kRateBps;
        scenario.gsl_rate_bps = kRateBps;
        scenario.start_offset = seed_start_offset(opts_.seed);
        leo_ = std::make_unique<core::LeoNetwork>(scenario);
        pairs_ = route::random_permutation_pairs(num_gs_, 42);
        flows_ = core::attach_tcp_flows(*leo_, pairs_, "newreno", {}, 1 * kNsPerMs);
        installs_.clear();
        installs_.reserve(static_cast<std::size_t>(duration_ / 0.1) + 2);
        leo_->on_fstate_update = [this](TimeNs) { installs_.push_back(Clock::now()); };
        const std::uint64_t tx0 = counter("net.tx_packets");
        const std::uint64_t allocs0 = allocations();
        const auto t1 = Clock::now();
        r.setup_s = seconds_between(t0, t1);

        leo_->run(seconds_to_ns(duration_));
        std::uint64_t delivered = 0, retransmissions = 0;
        for (const auto& f : flows_) {
            delivered += f->delivered_bytes();
            retransmissions += f->retransmissions();
        }
        const auto t2 = Clock::now();
        const std::uint64_t allocs = allocations() - allocs0;

        r.run_s = seconds_between(t1, t2);
        r.sim_s = duration_;
        // One step per fstate interval: install to install.
        if (!installs_.empty()) {
            r.step_s = step_deltas(installs_.front(), installs_);
            r.step_s.erase(r.step_s.begin());
        }
        const double events = static_cast<double>(leo_->simulator().events_executed());
        r.layers["core.network_build_s"] = r.setup_s;
        r.layers["sim.allocs_per_event"] = events > 0 ? static_cast<double>(allocs) / events : 0;
        r.facts["goodput_bps"] = static_cast<double>(delivered) * 8.0 / duration_;
        r.facts["events"] = events;
        r.facts["events_per_s"] = events / r.run_s;
        r.facts["net_tx_packets"] = static_cast<double>(counter("net.tx_packets") - tx0);
        r.facts["queue_drops"] = static_cast<double>(leo_->network().total_queue_drops());
        r.facts["retransmissions"] = static_cast<double>(retransmissions);
        return r;
    }

    std::vector<Check> check() override {
        std::vector<RttSample> rtts;
        std::vector<double> delivered;
        for (std::size_t i = 0; i < flows_.size(); ++i) {
            for (const auto& s : flows_[i]->rtt_trace()) {
                rtts.push_back({pairs_[i].src_gs, pairs_[i].dst_gs, ns_to_seconds(s.rtt)});
            }
            delivered.push_back(static_cast<double>(flows_[i]->delivered_bytes()) * 8.0);
        }
        const double limit = kRateBps * 1440.0 / 1500.0 * duration_;
        if (perturb_ == "rtt_lower_bound" && !rtts.empty()) rtts.front().rtt_s = 0.0;
        if (perturb_ == "line_rate" && !delivered.empty()) delivered.back() = limit * 1.001;
        const auto& stations = leo_->scenario().ground_stations;
        return {check_rtt_lower_bound(rtts, stations),
                check_line_rate(delivered, kRateBps, duration_)};
    }

    bool perturb(const std::string& name) override {
        perturb_ = name;
        return name == "rtt_lower_bound" || name == "line_rate";
    }

  private:
    static constexpr double kRateBps = 25e6;
    Options opts_;
    int num_gs_;
    double duration_;
    std::unique_ptr<core::LeoNetwork> leo_;
    std::vector<route::GsPair> pairs_;
    std::vector<std::unique_ptr<sim::TcpFlow>> flows_;
    std::vector<Clock::time_point> installs_;  // host clock at each fstate install
    std::string perturb_;
};

// --- flowsim_churn -------------------------------------------------------
// Starlink S1 fluid run: 100k unbounded gravity flows plus Poisson short
// flows, re-routed and re-solved every 1 s epoch.
class FlowsimChurn final : public Workload {
  public:
    explicit FlowsimChurn(const Options& o)
        : opts_(o),
          num_flows_(o.smoke ? 2000 : 100000),
          duration_s_(o.smoke ? 3.0 : 40.0) {}

    Round round() override {
        engine_.reset();
        Round r;
        const auto t0 = Clock::now();
        const core::Scenario scenario = core::Scenario::paper_default("starlink_s1");
        const int num_gs = static_cast<int>(scenario.ground_stations.size());
        flowsim::GravityTrafficConfig gravity;
        gravity.num_gs = num_gs;
        gravity.num_flows = num_flows_;
        gravity.seed = 1 + opts_.seed;
        flowsim::PoissonTrafficConfig poisson;
        poisson.num_gs = num_gs;
        poisson.arrivals_per_s = 100.0;
        poisson.mean_size_bits = 8e6;
        poisson.window = seconds_to_ns(duration_s_);
        poisson.seed = 7 + opts_.seed;
        flowsim::TrafficMatrix matrix = flowsim::gravity_traffic(gravity);
        matrix.merge(flowsim::poisson_traffic(poisson));

        flowsim::EngineOptions eopt;
        eopt.epoch = kNsPerSec;
        eopt.duration = seconds_to_ns(duration_s_);
        eopt.epoch_hook = [this](std::size_t, TimeNs) {
            epochs_.push_back(Clock::now());
            return true;
        };
        engine_.emplace(scenario, std::move(matrix), eopt);
        epochs_.clear();
        epochs_.reserve(static_cast<std::size_t>(duration_s_) + 16);
        const std::uint64_t allocs0 = allocations();
        const auto t1 = Clock::now();
        r.setup_s = seconds_between(t0, t1);

        summary_ = engine_->run();
        const auto t2 = Clock::now();
        const std::uint64_t allocs = allocations() - allocs0;

        r.run_s = seconds_between(t1, t2);
        r.sim_s = duration_s_;
        r.step_s = step_deltas(t1, epochs_);
        r.layers["flowsim.run_s"] = r.run_s;
        r.layers["flowsim.allocs_per_epoch"] =
            static_cast<double>(allocs) / static_cast<double>(summary_.epochs.size());
        r.facts["flows"] = static_cast<double>(engine_->matrix().size());
        r.facts["flows_completed"] = static_cast<double>(summary_.completed);
        return r;
    }

    std::vector<Check> check() override {
        const auto& scenario = engine_->scenario();
        const double gsl = scenario.gsl_rate_bps;
        const auto& flows = engine_->matrix().flows;
        flowsim::RunSummary summary = summary_;
        for (std::size_t f = 0; f < flows.size(); ++f) {
            auto& out = summary.flows[f];
            if (perturb_ == "source_access" && out.completion < 0 &&
                flows[f].arrival == 0) {
                out.last_rate_bps = gsl * 1.01;
                perturb_.clear();
            }
            if (perturb_ == "completed_flows" && out.completion >= 0) {
                out.bits_sent *= 0.99;
                perturb_.clear();
            }
        }
        return {check_source_access(engine_->matrix(), summary, gsl,
                                    static_cast<int>(scenario.ground_stations.size())),
                check_completed_flows(engine_->matrix(), summary, gsl)};
    }

    bool perturb(const std::string& name) override {
        perturb_ = name;
        return name == "source_access" || name == "completed_flows";
    }

  private:
    Options opts_;
    std::size_t num_flows_;
    double duration_s_;
    std::optional<flowsim::Engine> engine_;
    flowsim::RunSummary summary_;
    std::vector<Clock::time_point> epochs_;  // host clock at each epoch boundary
    std::string perturb_;
};

// --- fullsky_sweep -------------------------------------------------------
// route::PairSweeper over the full_sky ShellGroup (every Table-1 shell):
// 12 pairs (i, i + 50), 100 ms steps, no clustering, no faults.
class FullskySweep final : public Workload {
  public:
    explicit FullskySweep(const Options& o)
        : opts_(o), steps_(o.smoke ? 4 : 150) {}

    Round round() override {
        sweeper_.reset();
        group_.reset();
        Round r;
        const auto t0 = Clock::now();
        group_ = std::make_unique<topo::ShellGroup>(topo::full_sky_shells(),
                                                    topo::default_epoch());
        stations_ = topo::top100_cities();
        pairs_ = half_offset_pairs(static_cast<int>(stations_.size()), kPairs);
        sweeper_.emplace(*group_, stations_, pairs_);
        rtts_.assign(steps_ * pairs_.size(), 0.0);
        std::vector<Clock::time_point> stamps;
        stamps.reserve(steps_);
        const std::uint64_t allocs0 = allocations();
        const auto t1 = Clock::now();
        r.setup_s = seconds_between(t0, t1);

        for (std::size_t k = 0; k < steps_; ++k) {
            const auto& samples = sweeper_->step(step_time(k));
            for (std::size_t p = 0; p < samples.size(); ++p) {
                rtts_[k * pairs_.size() + p] = samples[p].rtt_s;
            }
            stamps.push_back(Clock::now());
        }
        const auto t2 = Clock::now();
        const std::uint64_t allocs = allocations() - allocs0;

        r.run_s = seconds_between(t1, t2);
        r.sim_s = ns_to_seconds(static_cast<TimeNs>(steps_) * kStep);
        r.step_s = step_deltas(t1, stamps);
        r.layers["routing.sweep_step_s"] = r.run_s;
        r.layers["routing.allocs_per_step"] =
            static_cast<double>(allocs) / static_cast<double>(steps_);
        std::size_t unreachable = 0;
        for (const double rtt : rtts_) unreachable += rtt == route::kInfDistance ? 1 : 0;
        r.facts["samples"] = static_cast<double>(rtts_.size());
        r.facts["unreachable_samples"] = static_cast<double>(unreachable);
        return r;
    }

    std::vector<Check> check() override {
        std::vector<RttSample> reachable;
        std::vector<SweepSample> sampled;
        for (std::size_t k = 0; k < steps_; ++k) {
            // The first, middle and last step go through the oracle.
            const bool oracle = k == 0 || k == steps_ / 2 || k + 1 == steps_;
            for (std::size_t p = 0; p < pairs_.size(); ++p) {
                const double rtt = rtts_[k * pairs_.size() + p];
                if (rtt != route::kInfDistance) {
                    reachable.push_back({pairs_[p].src_gs, pairs_[p].dst_gs, rtt});
                }
                if (oracle) sampled.push_back({step_time(k), p, rtt});
            }
        }
        if (perturb_ == "rtt_lower_bound" && !reachable.empty()) {
            reachable.back().rtt_s *= 0.5;
        }
        if (perturb_ == "shortest_paths" && !sampled.empty()) {
            sampled.front().rtt_s *= 1.0 + 1e-6;
        }
        return {check_rtt_lower_bound(reachable, stations_),
                check_shortest_paths(*group_, stations_, pairs_, sampled)};
    }

    bool perturb(const std::string& name) override {
        perturb_ = name;
        return name == "rtt_lower_bound" || name == "shortest_paths";
    }

  private:
    static constexpr int kPairs = 12;
    TimeNs step_time(std::size_t k) const {
        return seed_start_offset(opts_.seed) + static_cast<TimeNs>(k) * kStep;
    }

    Options opts_;
    std::size_t steps_;
    std::unique_ptr<topo::ShellGroup> group_;
    std::vector<orbit::GroundStation> stations_;
    std::vector<route::GsPair> pairs_;
    std::optional<route::PairSweeper> sweeper_;
    std::vector<double> rtts_;  // [step][pair]
    std::string perturb_;
};

// --- emu_faulted ---------------------------------------------------------
// emu::RealtimePacer free-running on Starlink S1 under a seeded fault
// schedule, checkpointing periodically, rendering every schedule at the
// end.
class EmuFaulted final : public Workload {
  public:
    explicit EmuFaulted(const Options& o)
        : opts_(o),
          num_pairs_(o.smoke ? 5 : 50),
          steps_(o.smoke ? 30 : 300),
          checkpoint_interval_s_(o.smoke ? 0.0 : 1.0),
          ckpt_dir_(o.scratch_dir + "/ckpt"),
          render_dir_(o.scratch_dir + "/render") {}

    Round round() override {
        pacer_.reset();
        std::filesystem::remove_all(ckpt_dir_);
        std::filesystem::remove_all(render_dir_);
        std::filesystem::create_directories(render_dir_);
        Round r;
        const auto t0 = Clock::now();
        scenario_ = core::Scenario::paper_default("starlink_s1");
        scenario_.faults = fault::FaultSpec{fault_config(), ""};
        const int num_gs = static_cast<int>(scenario_.ground_stations.size());
        emu::ExportOptions eopt;
        eopt.t_end = static_cast<TimeNs>(steps_) * kStep;
        eopt.step = kStep;
        eopt.rate_cap_bps = kRateCapBps;
        stamps_.clear();
        stamps_.reserve(steps_);
        emu::PacerOptions popt;
        popt.speed = 0.0;
        popt.serve_schedule = false;
        popt.on_epoch = [this](std::size_t, TimeNs) { stamps_.push_back(Clock::now()); };
        ckpt::Policy policy;
        policy.dir = ckpt_dir_;
        policy.interval_s = checkpoint_interval_s_;
        popt.checkpoint = policy;
        const double background0 = opts_.traced ? profile_total_s("flowsim.run") : 0.0;
        pacer_.emplace(scenario_, half_offset_pairs(num_gs, num_pairs_), eopt, popt);
        const double background = opts_.traced ? profile_total_s("flowsim.run") - background0 : 0.0;
        const std::uint64_t generations0 = counter("ckpt.generations_written");
        const auto t1 = Clock::now();
        r.setup_s = seconds_between(t0, t1);

        emu::PacerReport report = pacer_->run();
        const auto t2 = Clock::now();
        std::size_t rendered = 0;
        for (const auto& s : report.schedules) {
            const std::string stem = render_dir_ + "/" + std::to_string(s.src_gs) + "_" +
                                     std::to_string(s.dst_gs);
            rendered += write_file(stem + ".csv", emu::to_csv(s));
            rendered += write_file(stem + ".jsonl", emu::to_jsonl(s));
            rendered += write_file(stem + "_netem.sh", emu::render_netem_script(s));
        }
        const auto t3 = Clock::now();
        generations_ = counter("ckpt.generations_written") - generations0;

        r.run_s = seconds_between(t1, t3);
        r.sim_s = ns_to_seconds(static_cast<TimeNs>(steps_) * kStep);
        r.step_s = step_deltas(t1, stamps_);
        schedules_ = std::move(report.schedules);
        r.layers["emu.background_s"] = background;
        r.layers["emu.compute_step_s"] = report.busy_s;
        r.layers["emu.render_s"] = seconds_between(t2, t3);
        r.layers["emu.rendered_bytes"] = static_cast<double>(rendered);
        r.layers["ckpt.epoch_overhead_s"] = report.wall_s - report.busy_s;
        if (opts_.traced) {
            const auto f0 = Clock::now();
            build_faults();
            r.layers["fault.schedule_build_s"] = seconds_between(f0, Clock::now());
        }
        std::size_t entries = 0, severed = 0, changes = 0;
        for (const auto& s : schedules_) {
            entries += s.entries.size();
            changes += static_cast<std::size_t>(s.path_changes());
            for (const auto& e : s.entries) severed += e.reachable ? 0 : 1;
        }
        r.facts["schedule_entries"] = static_cast<double>(entries);
        r.facts["severed_entries"] = static_cast<double>(severed);
        r.facts["path_changes"] = static_cast<double>(changes);
        r.facts["checkpoints_written"] = static_cast<double>(generations_);
        return r;
    }

    std::vector<Check> check() override {
        if (!faults_.has_value()) build_faults();
        std::vector<RttSample> rtts;
        for (const auto& s : schedules_) {
            for (const auto& e : s.entries) {
                if (e.reachable) rtts.push_back({s.src_gs, s.dst_gs, e.rtt_us * 1e-6});
            }
        }
        fault::FaultSchedule faults = *faults_;
        std::vector<emu::PairSchedule> schedules = schedules_;
        if (perturb_ == "rtt_lower_bound" && !rtts.empty()) rtts.front().rtt_s *= 0.5;
        if (perturb_ == "rate_caps") schedules.front().entries.front().rate_bps = kRateCapBps * 1.01;
        if (perturb_ == "outage_severing") {
            // A ground-station outage around a step the schedule routed.
            const auto& s = schedules.front();
            for (const auto& e : s.entries) {
                if (!e.reachable) continue;
                std::vector<fault::FaultEvent> events = faults.events();
                events.push_back({fault::FaultKind::kGroundStation, s.src_gs, -1, e.t - 1,
                                  e.t + 2 * s.step});
                faults = fault::FaultSchedule::from_events(
                    std::move(events), faults.num_satellites(), faults.num_ground_stations());
                break;
            }
        }
        if (perturb_ == "checkpoint_readback") corrupt_newest_checkpoint();
        return {check_rtt_lower_bound(rtts, scenario_.ground_stations),
                check_outage_severing(schedules, faults),
                check_rate_caps(schedules, kRateCapBps),
                check_checkpoint_readback(ckpt_dir_, generations_, kStep, steps_)};
    }

    bool perturb(const std::string& name) override {
        perturb_ = name;
        return name == "rtt_lower_bound" || name == "outage_severing" ||
               name == "rate_caps" || name == "checkpoint_readback";
    }

  private:
    static constexpr double kRateCapBps = 10e6;

    fault::FaultConfig fault_config() const {
        fault::FaultConfig c;
        c.seed = 2026 + opts_.seed;
        c.horizon = static_cast<TimeNs>(steps_) * kStep;
        c.sat_mtbf_s = 600.0;
        c.sat_mttr_s = 30.0;
        c.gs_mtbf_s = 300.0;
        c.gs_mttr_s = 10.0;
        return c;
    }

    /// The fault schedule the exporter resolves, rebuilt here from the
    /// same spec for the outage check (and timed in traced runs).
    void build_faults() {
        const topo::Constellation constellation(scenario_.shell, topo::default_epoch());
        faults_ = fault::FaultSchedule::from_spec(
            *scenario_.faults, constellation.num_satellites(),
            topo::build_isls(constellation, scenario_.isl_pattern),
            scenario_.ground_stations);
    }

    static std::size_t write_file(const std::string& path, const std::string& body) {
        std::ofstream out(path, std::ios::binary);
        out << body;
        if (!out) throw std::runtime_error("cannot write " + path);
        return body.size();
    }

    void corrupt_newest_checkpoint() const {
        std::filesystem::path newest;
        for (const auto& entry : std::filesystem::directory_iterator(ckpt_dir_)) {
            if (newest.empty() || entry.path().filename() > newest.filename()) {
                newest = entry.path();
            }
        }
        if (newest.empty()) return;
        std::fstream f(newest, std::ios::in | std::ios::out | std::ios::binary);
        f.seekp(16);
        f.put('\x5a');
    }

    Options opts_;
    std::size_t num_pairs_;
    std::size_t steps_;
    double checkpoint_interval_s_;  // 0 = every step boundary
    std::string ckpt_dir_;
    std::string render_dir_;
    core::Scenario scenario_;
    std::optional<emu::RealtimePacer> pacer_;
    std::vector<Clock::time_point> stamps_;  // host clock after each pacer epoch
    std::vector<emu::PairSchedule> schedules_;
    std::optional<fault::FaultSchedule> faults_;
    std::uint64_t generations_ = 0;
    std::string perturb_;
};

}  // namespace

const std::vector<std::string>& workload_names() {
    static const std::vector<std::string> names = {"packet_tcp", "flowsim_churn",
                                                   "fullsky_sweep", "emu_faulted"};
    return names;
}

std::unique_ptr<Workload> make_workload(const std::string& name, const Options& options) {
    if (name == "packet_tcp") return std::make_unique<PacketTcp>(options);
    if (name == "flowsim_churn") return std::make_unique<FlowsimChurn>(options);
    if (name == "fullsky_sweep") return std::make_unique<FullskySweep>(options);
    if (name == "emu_faulted") return std::make_unique<EmuFaulted>(options);
    return nullptr;
}

}  // namespace perfbench
