#include "sim/stream.h"

#include <cmath>
#include <cstring>
#include <limits>
#include <map>
#include <optional>
#include <set>
#include <unordered_map>
#include <utility>

#include "common/error.h"
#include "common/stopwatch.h"
#include "common/units.h"

namespace tsajs::sim {

namespace {

/// FNV-1a over raw bit patterns; the checkpoint's configuration witness.
struct Digest {
  std::uint64_t h = 1469598103934665603ULL;

  void mix_u64(std::uint64_t x) noexcept {
    for (int i = 0; i < 8; ++i) {
      h ^= (x >> (8 * i)) & 0xFFULL;
      h *= 1099511628211ULL;
    }
  }
  void mix(double d) noexcept {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &d, sizeof(bits));
    mix_u64(bits);
  }
  void mix(std::size_t s) noexcept { mix_u64(static_cast<std::uint64_t>(s)); }
  void mix(bool b) noexcept { mix_u64(b ? 1ULL : 0ULL); }
};

}  // namespace

void StreamConfig::validate() const {
  GridConfig::validate();
  TSAJS_REQUIRE(std::isfinite(duration_s) && duration_s > 0.0,
                "stream duration must be positive and finite");
  TSAJS_REQUIRE(std::isfinite(arrival_rate_hz) && arrival_rate_hz > 0.0,
                "arrival rate must be positive and finite");
  TSAJS_REQUIRE(std::isfinite(lifetime_min_s) && lifetime_min_s > 0.0 &&
                    lifetime_max_s >= lifetime_min_s &&
                    std::isfinite(lifetime_max_s),
                "session lifetime range must be positive and ordered");
  if (fault.enabled()) {
    TSAJS_REQUIRE(std::isfinite(fault_interval_s) && fault_interval_s > 0.0,
                  "fault interval must be positive when faults are enabled");
  }
  decision_budget.validate();
  // A wall-clock deadline would let host timing decide how far each solve
  // gets, leaking non-determinism into the event log; only the
  // deterministic iteration cap is allowed here.
  TSAJS_REQUIRE(decision_budget.max_seconds == 0.0,
                "streaming decisions allow only iteration budgets "
                "(wall-clock deadlines break replay bit-identity)");
  TSAJS_REQUIRE(
      std::isfinite(checkpoint_interval_s) && checkpoint_interval_s >= 0.0,
      "checkpoint interval must be >= 0 (0 disables)");
}

std::uint64_t StreamConfig::digest() const noexcept {
  // A retired setting keeps its position and type, mixed at the value it
  // was fixed at, so the digest of every config matches the one an older
  // build stored in its bundle.
  Digest d;
  d.mix(duration_s);
  d.mix(arrival_rate_hz);
  d.mix(lifetime_min_s);
  d.mix(lifetime_max_s);
  d.mix(kMinMegacycles);
  d.mix(kMaxMegacycles);
  d.mix(kMinInputKb);
  d.mix(kMaxInputKb);
  d.mix(cloud_cpu_hz);
  d.mix(kCloudBackhaulBps);
  d.mix(kCloudBackhaulLatencyS);
  d.mix(cloud_max_forwarded);
  d.mix(fault.server_mtbf_epochs);
  d.mix(fault.server_mttr_epochs);
  d.mix(fault.subchannel_blackout_prob);
  d.mix(0.0);  // noise-burst probability
  d.mix(3.0);  // noise-burst sigma [dB]
  d.mix(fault.backhaul_mtbf_epochs);
  d.mix(fault.backhaul_mttr_epochs);
  d.mix(fault_interval_s);
  d.mix(breaker.trip_after);
  d.mix(breaker.cooldown_epochs);
  d.mix(breaker.close_after);
  d.mix(decision_budget.max_seconds);
  d.mix(decision_budget.max_iterations);
  d.mix(checkpoint_interval_s);
  d.mix(warm);
  d.mix(std::size_t{0});  // active-session cap (0: admission_capacity)
  d.mix(admission.max_backlog);
  d.mix(std::size_t{0});  // capacity headroom
  return d.h;
}

std::size_t admission_capacity(std::size_t num_servers,
                               std::size_t num_subchannels,
                               const mec::Availability& mask,
                               bool cloud_enabled,
                               std::size_t cloud_max_forwarded) {
  const std::size_t total = num_servers * num_subchannels;
  std::size_t available = total;
  if (!mask.unconstrained()) {
    TSAJS_REQUIRE(mask.num_servers() == num_servers &&
                      mask.num_subchannels() == num_subchannels,
                  "availability mask does not match the grid");
    available = total - mask.num_unavailable_slots();
  }
  std::size_t cloud_bonus = 0;
  if (cloud_enabled) {
    // Forwarding needs at least one up server with a live backhaul; the
    // cloud then adds its forwarding cap worth of extra admissions (or, in
    // the uncapped case, lets every edge slot in principle hand off —
    // another full complement of the unmasked slots).
    bool reachable = false;
    for (std::size_t s = 0; s < num_servers && !reachable; ++s) {
      reachable = mask.server_available(s) && mask.backhaul_available(s);
    }
    if (reachable) {
      cloud_bonus = cloud_max_forwarded > 0 ? cloud_max_forwarded : available;
    }
  }
  return available + cloud_bonus;
}

const char* stream_event_name(StreamEventType type) noexcept {
  switch (type) {
    case StreamEventType::kFault:
      return "fault";
    case StreamEventType::kDepart:
      return "depart";
    case StreamEventType::kCheckpoint:
      return "checkpoint";
    case StreamEventType::kArrival:
      return "arrival";
    case StreamEventType::kAdmit:
      return "admit";
    case StreamEventType::kQueue:
      return "queue";
    case StreamEventType::kReject:
      return "reject";
    case StreamEventType::kPromote:
      return "promote";
    case StreamEventType::kSolve:
      return "solve";
  }
  return "unknown";
}

StreamDriver::StreamDriver(std::size_t num_servers,
                           std::size_t num_subchannels, StreamConfig config)
    : config_(config), grid_(num_servers, num_subchannels) {
  config_.validate();
}

StreamReport StreamDriver::run(const algo::Scheduler& scheduler,
                               std::uint64_t seed, StreamSink* sink) const {
  StreamCheckpoint fresh;
  fresh.config_digest = config_.digest();
  fresh.seed = seed;
  // Arrival k's derived stream yields its interarrival gap first, then its
  // attributes; the first arrival's time is therefore known up front.
  Rng first(stream_seed(seed, kArrivalStream, 0));
  fresh.next_arrival_time_s = first.exponential(config_.arrival_rate_hz);
  return run_loop(scheduler, std::move(fresh), sink);
}

StreamReport StreamDriver::resume(const algo::Scheduler& scheduler,
                                  const StreamCheckpoint& checkpoint,
                                  StreamSink* sink) const {
  TSAJS_REQUIRE(checkpoint.config_digest == config_.digest(),
                "checkpoint was taken under a different stream "
                "configuration; refusing to resume");
  // The digest does not cover the grid; a carried slot outside it means
  // the checkpoint came from a larger one.
  for (const SessionState& s : checkpoint.active) {
    TSAJS_REQUIRE(!s.has_slot || (s.server < num_servers() &&
                                  s.subchannel < num_subchannels()),
                  "checkpoint carries session " + std::to_string(s.id) +
                      "'s slot outside this driver's grid; refusing to "
                      "resume");
  }
  return run_loop(scheduler, checkpoint, sink);
}

StreamReport StreamDriver::run_loop(const algo::Scheduler& scheduler,
                                    StreamCheckpoint state,
                                    StreamSink* sink) const {
  StreamReport report;
  Stopwatch wall;
  const double horizon = config_.duration_s;
  constexpr double kNever = std::numeric_limits<double>::infinity();

  // Live state, reconstructed from the (possibly fresh) checkpoint.
  std::map<std::uint64_t, SessionState> sessions;  // ascending id
  for (const auto& s : state.active) sessions.emplace(s.id, s);
  std::deque<SessionState> backlog(state.backlog.begin(),
                                   state.backlog.end());
  std::set<std::pair<double, std::uint64_t>> departures;
  for (const auto& [id, s] : sessions) departures.insert({s.depart_time_s, id});
  state.active.clear();
  state.backlog.clear();

  // The injector is a pure function of its seed and step count, and the
  // breaker a counter-driven pure function of the raw outages, so a resumed
  // run reconstructs both by replaying the checkpointed number of steps.
  GridState env(grid_, config_, stream_seed(state.seed, kFaultStream, 0));
  for (std::uint64_t i = 0; i < state.fault_steps; ++i) env.step_faults();
  // A resumed segment reports only its own breaker transitions.
  const std::uint64_t base_trips = env.breaker().trips();
  const std::uint64_t base_half_opens = env.breaker().half_opens();
  const std::uint64_t base_closes = env.breaker().closes();
  // Path-loss cache ids of the live sessions. Sessions never move, so a
  // session's row is computed at its first staging and read back until it
  // departs; its id then returns to the free list for a later session, and
  // the cache holds only as many ids as sessions were ever live at once. A
  // resumed or recovered run starts empty and refills it: a row only ever
  // holds the value the redraw would recompute, and the shadowing draws
  // take the decision's channel stream in the same order either way.
  std::unordered_map<std::uint64_t, std::size_t> pathloss_id;  // session->id
  std::vector<std::size_t> free_pathloss_ids;
  std::size_t num_pathloss_ids = 0;

  const auto capacity = [&] {
    return admission_capacity(num_servers(), num_subchannels(), env.mask(),
                              config_.has_cloud(),
                              config_.cloud_max_forwarded);
  };

  const auto emit = [&](const StreamEvent& event) {
    if (sink != nullptr) sink->on_event(event);
  };

  // One scheduling decision: stage the active sessions (ascending id) with
  // their carried slots, redraw gains from the decision's derived channel
  // stream, solve through the SolveRequest API — warm-started from the
  // repaired slots when configured — and carry the resulting slots on.
  const auto solve_decision = [&](double now) {
    if (sessions.empty()) return;
    const std::uint64_t d = state.decisions++;
    env.begin_stage();
    for (const auto& [id, s] : sessions) {
      const auto [held, fresh] = pathloss_id.try_emplace(id, 0);
      if (fresh && free_pathloss_ids.empty()) {
        held->second = num_pathloss_ids++;  // a new peak of live sessions
      } else if (fresh) {
        held->second = free_pathloss_ids.back();
        free_pathloss_ids.pop_back();
      }
      CarriedSlot carried{std::nullopt, s.forwarded};
      if (s.has_slot) carried.slot = jtora::Slot{s.server, s.subchannel};
      env.stage(mec::Task(s.input_bits, s.cycles), {s.x, s.y}, held->second,
                carried);
    }
    Rng channel_rng(stream_seed(state.seed, kChannelStream, d));
    const jtora::CompiledProblem& problem = env.compile(channel_rng);
    const RepairedHint hint = env.repair_hint(config_.warm);
    Rng solve_rng(stream_seed(state.seed, kSolveStream, d));
    algo::SolveRequest request;
    request.problem = &problem;
    if (hint.assignment.has_value()) request.hint = &*hint.assignment;
    if (!config_.decision_budget.unlimited()) {
      request.budget = &config_.decision_budget;
    }
    request.rng = &solve_rng;
    const algo::ScheduleResult result =
        algo::run_and_validate(scheduler, request);

    std::size_t i = 0;
    for (auto& [id, s] : sessions) {
      const std::optional<jtora::Slot> slot = result.assignment.slot_of(i);
      s.has_slot = slot.has_value();
      if (slot.has_value()) {
        s.server = slot->server;
        s.subchannel = slot->subchannel;
      }
      s.forwarded = result.assignment.is_forwarded(i);
      ++i;
    }

    StreamEvent event;
    event.type = StreamEventType::kSolve;
    event.sim_time_s = now;
    event.decision = d;
    event.active = sessions.size();
    event.backlog = backlog.size();
    event.offloaded = result.assignment.num_offloaded();
    event.forwarded = result.assignment.num_forwarded();
    event.utility = result.system_utility;
    event.evaluations = result.evaluations;
    emit(event);

    DecisionRecord record;
    record.decision = d;
    record.sim_time_s = now;
    record.active = sessions.size();
    record.backlog = backlog.size();
    record.offloaded = event.offloaded;
    record.forwarded = event.forwarded;
    record.utility = result.system_utility;
    record.evaluations = result.evaluations;
    record.solve_seconds = result.solve_seconds;
    if (sink != nullptr) sink->on_decision(record);

    ++report.decisions;
    report.utility.add(result.system_utility);
    report.solve_seconds.add(result.solve_seconds);
    report.solve_p50.add(result.solve_seconds);
    report.solve_p99.add(result.solve_seconds);
    report.active_sessions.add(static_cast<double>(sessions.size()));
    report.backlog_depth.add(static_cast<double>(backlog.size()));
  };

  const auto admit_session = [&](SessionState s, double now, bool promoted) {
    s.admit_time_s = now;
    s.depart_time_s = now + s.lifetime_s;
    departures.insert({s.depart_time_s, s.id});
    StreamEvent event;
    event.type =
        promoted ? StreamEventType::kPromote : StreamEventType::kAdmit;
    event.sim_time_s = now;
    event.session_id = s.id;
    sessions.emplace(s.id, std::move(s));
    event.active = sessions.size();
    event.backlog = backlog.size();
    emit(event);
  };

  // Drains the backlog into any free capacity (after departures and fault
  // recoveries). Returns whether the active set changed.
  const auto promote_backlog = [&](double now) -> bool {
    bool changed = false;
    while (!backlog.empty() && sessions.size() < capacity()) {
      SessionState s = std::move(backlog.front());
      backlog.pop_front();
      admit_session(std::move(s), now, /*promoted=*/true);
      ++state.promoted;
      ++report.promoted;
      changed = true;
    }
    return changed;
  };

  const auto build_checkpoint = [&](double now) {
    StreamCheckpoint cp = state;
    cp.sim_time_s = now;
    cp.active.reserve(sessions.size());
    for (const auto& [id, s] : sessions) cp.active.push_back(s);
    cp.backlog.assign(backlog.begin(), backlog.end());
    return cp;
  };

  // The event loop. Four event sources compete on the simulated clock; at
  // equal timestamps the fixed priority fault < departure < checkpoint <
  // arrival resolves the tie, so the ordering is a pure function of state.
  while (true) {
    const double t_fault =
        env.faults_enabled()
            ? static_cast<double>(state.fault_steps + 1) *
                  config_.fault_interval_s
            : kNever;
    const double t_depart =
        departures.empty() ? kNever : departures.begin()->first;
    const double t_checkpoint =
        config_.checkpoint_interval_s > 0.0
            ? static_cast<double>(state.checkpoints_emitted + 1) *
                  config_.checkpoint_interval_s
            : kNever;
    const double t_arrival = state.next_arrival_time_s;
    const double t_next = std::min(std::min(t_fault, t_depart),
                                   std::min(t_checkpoint, t_arrival));
    if (t_next > horizon) break;

    if (t_fault == t_next) {
      ++state.fault_steps;
      ++report.fault_steps;
      env.step_faults();
      StreamEvent event;
      event.type = StreamEventType::kFault;
      event.sim_time_s = t_next;
      event.active = sessions.size();
      event.backlog = backlog.size();
      event.servers_down = env.injector().servers_down();
      event.backhauls_down = env.injector().backhauls_down();
      event.slots_unavailable = env.mask().num_unavailable_slots();
      event.breakers_open = env.breaker().blocked_count();
      emit(event);
      // Recovered capacity may drain the backlog; the new mask may strand
      // carried slots. Either way the standing assignment must be re-made
      // against the new availability.
      promote_backlog(t_next);
      solve_decision(t_next);
    } else if (t_depart == t_next) {
      const std::uint64_t id = departures.begin()->second;
      departures.erase(departures.begin());
      sessions.erase(id);
      if (const auto held = pathloss_id.find(id); held != pathloss_id.end()) {
        free_pathloss_ids.push_back(held->second);
        pathloss_id.erase(held);
      }
      ++state.departed;
      ++report.departed;
      StreamEvent event;
      event.type = StreamEventType::kDepart;
      event.sim_time_s = t_next;
      event.session_id = id;
      event.active = sessions.size();
      event.backlog = backlog.size();
      emit(event);
      promote_backlog(t_next);
      solve_decision(t_next);
    } else if (t_checkpoint == t_next) {
      ++state.checkpoints_emitted;
      ++report.checkpoints;
      StreamEvent event;
      event.type = StreamEventType::kCheckpoint;
      event.sim_time_s = t_next;
      event.active = sessions.size();
      event.backlog = backlog.size();
      event.checkpoint_ordinal = state.checkpoints_emitted;
      emit(event);
      // The checkpoint carries the *post-event* counters, so a resume
      // schedules the next checkpoint (not this one) and replays exactly
      // the events that follow this line of the log.
      if (sink != nullptr) sink->on_checkpoint(build_checkpoint(t_next));
    } else {
      const std::uint64_t k = state.next_arrival_index;
      Rng arrival_rng(stream_seed(state.seed, kArrivalStream, k));
      // The gap was consumed into next_arrival_time_s when this arrival
      // was scheduled (or by run()); skip it to reach the attribute draws.
      (void)arrival_rng.exponential(config_.arrival_rate_hz);
      SessionState s;
      s.id = k + 1;  // 1-based; 0 means "no session" in the event log
      const geo::Point position = grid_.layout().sample_in_network(arrival_rng);
      s.x = position.x;
      s.y = position.y;
      s.input_bits = units::kilobytes_to_bits(
          arrival_rng.uniform(kMinInputKb, kMaxInputKb));
      s.cycles = units::megacycles_to_cycles(
          arrival_rng.uniform(kMinMegacycles, kMaxMegacycles));
      s.lifetime_s =
          arrival_rng.uniform(config_.lifetime_min_s, config_.lifetime_max_s);
      ++state.arrivals;
      ++report.arrivals;
      state.next_arrival_index = k + 1;
      Rng next_rng(stream_seed(state.seed, kArrivalStream, k + 1));
      state.next_arrival_time_s =
          t_next + next_rng.exponential(config_.arrival_rate_hz);

      StreamEvent event;
      event.type = StreamEventType::kArrival;
      event.sim_time_s = t_next;
      event.session_id = s.id;
      event.active = sessions.size();
      event.backlog = backlog.size();
      emit(event);

      if (sessions.size() < capacity()) {
        ++state.admitted;
        ++report.admitted;
        admit_session(std::move(s), t_next, /*promoted=*/false);
        solve_decision(t_next);
      } else if (backlog.size() < config_.admission.max_backlog) {
        ++state.queued;
        ++report.queued;
        StreamEvent queued_event;
        queued_event.type = StreamEventType::kQueue;
        queued_event.sim_time_s = t_next;
        queued_event.session_id = s.id;
        backlog.push_back(std::move(s));
        queued_event.active = sessions.size();
        queued_event.backlog = backlog.size();
        emit(queued_event);
      } else {
        ++state.rejected;
        ++report.rejected;
        StreamEvent rejected_event;
        rejected_event.type = StreamEventType::kReject;
        rejected_event.sim_time_s = t_next;
        rejected_event.session_id = s.id;
        rejected_event.active = sessions.size();
        rejected_event.backlog = backlog.size();
        emit(rejected_event);
      }
    }
  }

  report.sim_time_s = horizon;
  report.wall_seconds = wall.elapsed_seconds();
  report.breaker_trips = env.breaker().trips() - base_trips;
  report.breaker_half_opens = env.breaker().half_opens() - base_half_opens;
  report.breaker_closes = env.breaker().closes() - base_closes;
  return report;
}

}  // namespace tsajs::sim
