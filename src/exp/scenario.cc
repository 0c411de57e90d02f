#include "exp/scenario.h"

#include <algorithm>
#include <set>
#include <stdexcept>
#include <utility>

#include "netsim/latency_model.h"

namespace jqos::exp {
namespace {

// Stream-id namespaces under the scenario seed. Path streams use the global
// path index directly; named streams use label hashing (Rng::derive on a
// string_view), which cannot collide with small integer ids in practice.
constexpr std::uint64_t kPathStreamBase = 0x70617468u;  // "path"

std::uint64_t path_seed(std::uint64_t scenario_seed, std::size_t global_index) {
  return Rng::derive(scenario_seed, kPathStreamBase + global_index);
}

// The whole scenario as one shard's paths: path i gets global index i.
std::vector<IndexedPath> whole_scenario(std::vector<geo::PathSample> paths,
                                        const netsim::FaultPlan& faults) {
  if (!faults.empty()) validate_fault_plan(faults, paths);
  std::vector<IndexedPath> indexed;
  indexed.reserve(paths.size());
  for (std::size_t i = 0; i < paths.size(); ++i) {
    indexed.push_back(IndexedPath{i, std::move(paths[i])});
  }
  return indexed;
}

// Jitter of the direct path. Spikes are rare: a delayed packet that gets
// recovered anyway is reclassified as delivered when the direct copy lands,
// but spikes still cost NACK/recovery traffic.
constexpr double kDirectJitterSigma = 0.5;
constexpr double kDirectJitterScaleMs = 1.5;
constexpr double kDirectSpikeProb = 0.003;

}  // namespace

double settle_outcome(const endpoint::DeliveryRecord& rec, double rtt_ms, Outcome& outcome) {
  if (rec.late_direct) {
    if (outcome == Outcome::kRecovered) outcome = Outcome::kDirect;
    return -1.0;
  }
  const double delay_ms = rec.recovered && rec.detected_missing_at > 0
                              ? to_ms(rec.delivered_at - rec.detected_missing_at)
                              : -1.0;
  if (outcome != Outcome::kPending) return delay_ms;
  if (rec.lost) {
    outcome = Outcome::kLost;
  } else if (rec.recovered) {
    outcome = delay_ms <= rtt_ms ? Outcome::kRecovered : Outcome::kLost;
  } else {
    outcome = Outcome::kDirect;
  }
  return delay_ms;
}

std::uint64_t FaultSummary::total_dc_crashes() const {
  std::uint64_t total = 0;
  for (const auto& [site, n] : dc_crashes) total += n;
  return total;
}

FaultSummary& FaultSummary::operator+=(const FaultSummary& other) {
  link_fault_drops += other.link_fault_drops;
  dc_fault_dropped += other.dc_fault_dropped;
  for (const auto& [site, n] : other.dc_crashes) {
    auto& mine = dc_crashes[site];
    mine = std::max(mine, n);
  }
  failovers += other.failovers;
  reengages += other.reengages;
  probes_sent += other.probes_sent;
  nacks_suppressed += other.nacks_suppressed;
  failover_direct_sent += other.failover_direct_sent;
  cloud_suppressed += other.cloud_suppressed;
  flushes_suppressed += other.flushes_suppressed;
  injector.link_downs += other.injector.link_downs;
  injector.brownouts += other.injector.brownouts;
  injector.node_crashes += other.injector.node_crashes;
  injector.skipped_unbound += other.injector.skipped_unbound;
  return *this;
}

void validate_fault_plan(const netsim::FaultPlan& plan,
                         const std::vector<geo::PathSample>& paths) {
  std::set<std::string> sites;
  std::set<std::pair<std::string, std::string>> groups;  // Unordered site pairs.
  for (const auto& p : paths) {
    sites.insert(p.dc1.name);
    sites.insert(p.dc2.name);
    groups.insert(std::minmax(p.dc1.name, p.dc2.name));
  }
  for (const netsim::FaultSpec& spec : plan.specs()) {
    const std::string& t = spec.target;
    if (t.rfind("dc:", 0) == 0) {
      if (sites.count(t.substr(3)) == 0) {
        throw std::invalid_argument("fault plan: unknown DC target '" + t + "'");
      }
    } else if (t.rfind("link:", 0) == 0) {
      const std::string pair = t.substr(5);
      const auto sep = pair.find('>');
      if (sep == std::string::npos) {
        throw std::invalid_argument("fault plan: malformed link target '" + t +
                                    "' (want link:<A>><B>)");
      }
      const std::string a = pair.substr(0, sep);
      const std::string b = pair.substr(sep + 1);
      if (groups.count(std::minmax(a, b)) == 0) {
        // The link either does not exist or spans two interaction groups:
        // faulting it could not be replicated consistently across shards.
        throw std::invalid_argument(
            "fault plan: link target '" + t +
            "' is not inside a single (DC1, DC2) interaction group");
      }
    } else if (t.rfind("direct:", 0) == 0) {
      std::size_t idx = 0;
      try {
        idx = std::stoul(t.substr(7));
      } catch (const std::exception&) {
        throw std::invalid_argument("fault plan: malformed direct target '" + t + "'");
      }
      if (idx >= paths.size()) {
        throw std::invalid_argument("fault plan: direct target '" + t +
                                    "' exceeds path count");
      }
    } else {
      throw std::invalid_argument("fault plan: unknown target namespace in '" + t + "'");
    }
  }
}

ScenarioShard::ScenarioShard(std::vector<IndexedPath> paths, const WanScenarioParams& params,
                             netsim::EvqBackend backend)
    : params_(params),
      sim_(backend),
      net_(sim_, 0, PacketPool::env_enabled() ? &pool_ : nullptr),
      injector_(sim_),
      rng_(params.seed),
      registry_(std::make_shared<services::FlowRegistry>()),
      sessions_(registry_) {
  build_overlay(paths);
  for (auto& path : paths) build_path(std::move(path));
  // Arm the fault schedule once the whole shard topology is bound; plan
  // targets living in other shards are skipped (counted skipped_unbound).
  if (!params_.faults.empty()) injector_.arm(params_.faults);
}

ScenarioShard::ScenarioShard(std::vector<geo::PathSample> paths, const WanScenarioParams& params)
    : ScenarioShard(whole_scenario(std::move(paths), params.faults), params,
                    netsim::evq_default_backend()) {}

ScenarioShard::~ScenarioShard() = default;

const PacketPool& ScenarioShard::pool(std::size_t index) const {
  if (index != 0) {
    throw std::out_of_range("ScenarioShard::pool: no pool " + std::to_string(index) +
                            "; a shard has exactly one (index 0)");
  }
  return pool_;
}

void ScenarioShard::trim_pool() { pool_.trim(); }

void ScenarioShard::build_overlay(const std::vector<IndexedPath>& paths) {
  // Collect the distinct cloud sites the shard's paths touch. The overlay
  // keys its link streams by site NAME (see OverlayNetwork), so building it
  // from this subset leaves every link's random sequence unchanged relative
  // to the monolithic run.
  std::set<std::string> names;
  std::vector<geo::CloudSite> sites;
  for (const auto& p : paths) {
    for (const geo::CloudSite* site : {&p.sample.dc1, &p.sample.dc2}) {
      if (names.insert(site->name).second) sites.push_back(*site);
    }
  }
  overlay_ = std::make_unique<overlay::OverlayNetwork>(net_, sites, rng_);

  // Install the full service stack on every DC. Forwarding runs first (it
  // claims in-transit packets), then the local services.
  for (std::size_t i = 0; i < overlay_->dc_count(); ++i) {
    overlay::DataCenter& dc = overlay_->dc(i);
    auto fwd = std::make_shared<services::ForwardingService>();
    forwarders_.push_back(fwd);
    dc.install(fwd);
    dc.install(std::make_shared<services::CachingService>());
    auto encoder =
        std::make_shared<services::CodingEncoderService>(dc, params_.coding, registry_);
    encoders_.push_back(encoder);
    dc.install(encoder);
    auto recovery = std::make_shared<services::RecoveryService>(
        dc, services::RecoveryParams{}, registry_);
    recoverers_.push_back(recovery);
    dc.install(recovery);
  }

  if (params_.faults.empty()) return;
  // Bind the plan's symbolic overlay targets. Only done for non-empty plans
  // so the default path stays byte-for-byte untouched.
  for (std::size_t i = 0; i < overlay_->dc_count(); ++i) {
    overlay::DataCenter& dc = overlay_->dc(i);
    injector_.bind_node("dc:" + dc.name(), &dc);
    for (std::size_t j = 0; j < overlay_->dc_count(); ++j) {
      if (i == j) continue;
      overlay::DataCenter& peer = overlay_->dc(j);
      netsim::Link* l = net_.link(dc.id(), peer.id());
      if (l != nullptr) {
        injector_.bind_link("link:" + dc.name() + ">" + peer.name(), l);
      }
    }
  }
  // Let encoders see peer-DC liveness: a flush toward a crashed DC2 is
  // suppressed and retried with backoff instead of feeding a black hole.
  overlay::OverlayNetwork* ov = overlay_.get();
  for (auto& enc : encoders_) {
    enc->set_peer_health([ov](NodeId dc2) {
      for (std::size_t i = 0; i < ov->dc_count(); ++i) {
        if (ov->dc(i).id() == dc2) return !ov->dc(i).down();
      }
      return true;  // Not a DC we know; assume reachable.
    });
  }
}

void ScenarioShard::build_path(IndexedPath path) {
  geo::PathSample sample = std::move(path.sample);
  // Every stochastic choice this path makes -- severity, loss processes,
  // jitter, access links, receiver straggler behavior, workload skew --
  // draws from streams derived from (scenario seed, GLOBAL path index).
  // Nothing is drawn from shard-shared state, so the path's entire random
  // future is fixed before we know which shard (or thread) runs it.
  const std::uint64_t pseed = path_seed(params_.seed, path.global_index);
  Rng path_rng(pseed);

  auto rt = std::make_unique<PathRuntime>();
  rt->path = sample;
  rt->label = geo::region_pair_label(sample);
  rt->global_index = path.global_index;
  rt->rtt_ms = 2.0 * sample.y_ms;
  rt->dc1 = overlay_->dc_by_site(sample.dc1.name);
  rt->dc2 = overlay_->dc_by_site(sample.dc2.name);

  // --- endpoints ---
  rt->sender = std::make_unique<endpoint::Sender>(net_);

  endpoint::ReceiverConfig rc;
  rc.dc2 = rt->dc2->id();
  rc.recovery_service =
      params_.service == ServiceType::kCache ? ServiceType::kCache : ServiceType::kCode;
  rc.rtt_estimate = msec_f(rt->rtt_ms);
  rc.use_markov = params_.use_markov;
  // Track holes longer than the success criterion so late recoveries are
  // observed and classified (the paper's rule -- "any packet that takes
  // longer than one RTT to recover is a lost packet" -- is applied at
  // accounting time by settle_outcome, not by aborting recovery).
  rc.recovery_give_up =
      std::max<SimDuration>(msec(600), 3 * msec_f(rt->rtt_ms));
  // Wide-area testbed hosts are sometimes slow to answer cooperative
  // requests (the straggler problem, Section 4.4).
  rc.coop_slow_prob = params_.coop_slow_prob;
  rc.rng_seed = Rng::derive(pseed, "receiver-coop");
  rc.failover = params_.failover;
  // Path-switching flows have no direct copies: overlay death shows up as
  // outright data silence, so that detector is implied.
  if (!params_.send_direct) rc.failover.overlay_carries_data = true;
  PathRuntime* rt_raw = rt.get();
  rt->receiver = std::make_unique<endpoint::Receiver>(
      net_, rc, [rt_raw](const endpoint::DeliveryRecord& rec, const PacketPtr&) {
        if (rec.seq >= rt_raw->outcome.size()) rt_raw->outcome.resize(rec.seq + 1);
        Outcome& outcome = rt_raw->outcome[rec.seq];
        const Outcome before = outcome;
        const double delay_ms = settle_outcome(rec, rt_raw->rtt_ms, outcome);
        if (delay_ms >= 0.0) rt_raw->recovery_ms.add(delay_ms);
        if (outcome == before) return;
        if (before != Outcome::kPending) --rt_raw->count(before);
        ++rt_raw->count(outcome);
      });

  if (params_.failover.enabled) {
    // Overlay up/down notifications reach the sender over a control channel
    // modeled as half the path RTT (receiver -> sender one-way).
    endpoint::Sender* snd = rt->sender.get();
    netsim::Simulator* simp = &sim_;
    const SimDuration ctrl = msec_f(rt->rtt_ms / 2.0);
    rt->receiver->set_overlay_handler([snd, simp, ctrl, rt_raw](bool up, SimTime at) {
      rt_raw->failover_events.push_back(FailoverEvent{at, up});
      simp->after(ctrl, [snd, up] { snd->set_overlay_down(!up); });
    });
  }

  // --- links ---
  // Direct Internet path with the configured loss mix, scaled by a
  // per-path severity factor (paths span orders of magnitude in loss rate).
  Rng loss_rng = path_rng.fork("direct-loss");
  const double severity =
      params_.direct.path_severity_sigma > 0.0
          ? loss_rng.lognormal(0.0, params_.direct.path_severity_sigma)
          : 1.0;
  netsim::LossModelPtr loss = netsim::make_bernoulli_loss(
      std::min(0.05, params_.direct.bernoulli_loss * severity), loss_rng.fork("bern"));
  // Compose: Gilbert-Elliott bursts on top of the random-loss floor.
  struct Composite final : netsim::LossModel {
    netsim::LossModelPtr a, b;
    Composite(netsim::LossModelPtr x, netsim::LossModelPtr y)
        : a(std::move(x)), b(std::move(y)) {}
    bool should_drop(SimTime now) override {
      const bool da = a->should_drop(now);
      const bool db = b->should_drop(now);
      return da || db;
    }
  };
  netsim::GilbertElliottParams ge = params_.direct.gilbert;
  ge.p_good_to_bad = std::min(0.02, ge.p_good_to_bad * severity);
  loss = std::make_unique<Composite>(std::move(loss),
                                     netsim::make_gilbert_elliott(ge, loss_rng.fork("ge")));
  if (path_rng.fork("outage-sel").bernoulli(params_.direct.outage_path_fraction)) {
    loss = netsim::make_outage_over(std::move(loss), params_.direct.outage,
                                    loss_rng.fork("outage"));
  }
  netsim::JitterParams jp;
  jp.base = msec_f(sample.y_ms);
  jp.jitter_sigma = kDirectJitterSigma;
  jp.jitter_scale_ms = kDirectJitterScaleMs;
  jp.spike_prob = kDirectSpikeProb;
  netsim::Link& direct_link =
      net_.add_link(rt->sender->id(), rt->receiver->id(),
                    netsim::make_jitter_latency(jp, path_rng.fork("direct-lat")),
                    std::move(loss));
  if (!params_.faults.empty()) {
    injector_.bind_link("direct:" + std::to_string(rt->global_index), &direct_link);
  }

  // Access links to the nearby DCs, drawn from path-keyed streams so attach
  // order across paths cannot shift them.
  Rng access_s = path_rng.fork("access-s");
  Rng access_r = path_rng.fork("access-r");
  overlay_->attach_host(rt->sender->id(), *rt->dc1, msec_f(sample.delta_s_ms), access_s);
  overlay_->attach_host(rt->receiver->id(), *rt->dc2, msec_f(sample.delta_r_ms), access_r);

  // Forwarding-service routing: packets for this receiver entering DC1 ride
  // the inter-DC path to DC2, which has the access link to the receiver.
  for (std::size_t i = 0; i < overlay_->dc_count(); ++i) {
    if (&overlay_->dc(i) == rt->dc1 && rt->dc1 != rt->dc2) {
      forwarders_[i]->set_next_hop(rt->receiver->id(), rt->dc2->id());
    }
  }

  // --- J-QoS registration ---
  rt->flow = sessions_.register_flow(*rt->sender, *rt->receiver, register_request(*rt)).flow;

  // The workload app is instantiated in run(), where per-path skew is known.
  paths_.push_back(std::move(rt));
}

endpoint::RegisterRequest ScenarioShard::register_request(const PathRuntime& rt) const {
  endpoint::RegisterRequest req;
  req.force_service = params_.service;
  req.send_direct = params_.send_direct;
  req.dc1 = rt.dc1->id();
  req.dc2 = rt.dc2->id();
  req.delays.y_ms = rt.path.y_ms;
  req.delays.delta_s_ms = rt.path.delta_s_ms;
  req.delays.delta_r_ms = rt.path.delta_r_ms;
  req.delays.x_ms = rt.path.x_ms;
  req.delays.delta_r_median_ms = rt.path.delta_r_ms;
  req.coding_rate = params_.coding.cross_rate();
  return req;
}

FlowId ScenarioShard::open_session(std::size_t path_index) {
  PathRuntime& rt = *paths_.at(path_index);
  return sessions_.register_flow(*rt.sender, *rt.receiver, register_request(rt)).flow;
}

void ScenarioShard::close_session(std::size_t path_index, FlowId flow) {
  PathRuntime& rt = *paths_.at(path_index);
  // Notify the encoder BEFORE unwinding the registry entry: its
  // residual-queue flush re-reads the registry.
  if (registry_->find(flow) != nullptr) {
    for (std::size_t i = 0; i < overlay_->dc_count(); ++i) {
      if (&overlay_->dc(i) == rt.dc1) {
        encoders_[i]->flow_departed(flow);
        break;
      }
    }
  }
  sessions_.unregister_flow(*rt.sender, *rt.receiver, flow);
}

void ScenarioShard::flush_encoders() {
  for (auto& enc : encoders_) enc->flush_all();
}

void ScenarioShard::run(SimDuration duration) {
  // One shared ON-interval schedule with small per-path skew: the
  // deployment's control channel keeps senders loosely synchronized so the
  // encoder always sees concurrent streams (Section 6.2.1). The schedule is
  // derived purely from (seed, "schedule"), so every shard of one scenario
  // computes the identical schedule.
  Rng sched_rng = Rng::derived(params_.seed, "schedule");
  const auto schedule = transport::CbrApp::make_schedule(
      sim_.now(), sim_.now() + duration, params_.cbr, sched_rng);
  for (std::size_t i = 0; i < paths_.size(); ++i) {
    const std::uint64_t pseed = path_seed(params_.seed, paths_[i]->global_index);
    transport::CbrParams p = params_.cbr;
    p.initial_skew = static_cast<SimDuration>(
        Rng::derived(pseed, "cbr-skew").uniform_int(0, msec(500)));
    // CbrApp holds its params by value; rebuild with the skew.
    paths_[i]->app = std::make_unique<transport::CbrApp>(
        sim_, *paths_[i]->sender, paths_[i]->flow, p, Rng::derived(pseed, "cbr-run"));
    paths_[i]->app->start_with_schedule(schedule, sim_.now() + duration);
  }
  sim_.run_until(sim_.now() + duration);
  // Drain: flush encoder queues and let outstanding recoveries finish.
  flush_encoders();
  sim_.run_until(sim_.now() + sec(30));

  // Ground-truth closing of the books: every sequence number the sender
  // emitted that produced no delivery record is a loss (tail losses the
  // receiver could never distinguish from a paused stream).
  for (auto& rt : paths_) {
    const SeqNo sent = rt->sender->next_seq(rt->flow);
    if (rt->outcome.size() < sent) rt->outcome.resize(sent, Outcome::kPending);
    for (SeqNo s = 0; s < sent; ++s) {
      if (rt->outcome[s] == Outcome::kPending) {
        rt->outcome[s] = Outcome::kLost;
        ++rt->lost;
      }
    }
  }
}

services::EncoderStats ScenarioShard::encoder_totals() const {
  services::EncoderStats total;
  for (const auto& e : encoders_) total += e->stats();
  return total;
}

services::RecoveryStatsDc ScenarioShard::recovery_totals() const {
  services::RecoveryStatsDc total;
  for (const auto& r : recoverers_) total += r->stats();
  return total;
}

FaultSummary ScenarioShard::fault_summary() const {
  FaultSummary s;
  net_.for_each_link(
      [&s](const netsim::Link& l) { s.link_fault_drops += l.stats().fault_drops; });
  for (std::size_t i = 0; i < overlay_->dc_count(); ++i) {
    const overlay::DataCenter& dc = overlay_->dc(i);
    s.dc_fault_dropped += dc.fault_dropped_packets();
    if (dc.crashes() > 0) s.dc_crashes[dc.name()] = dc.crashes();
  }
  for (const auto& rt : paths_) {
    const endpoint::ReceiverStats& r = rt->receiver->stats();
    s.failovers += r.failovers;
    s.reengages += r.reengages;
    s.probes_sent += r.probes_sent;
    s.nacks_suppressed += r.nacks_suppressed;
    const endpoint::SenderStats& snd = rt->sender->stats();
    s.failover_direct_sent += snd.failover_direct_sent;
    s.cloud_suppressed += snd.cloud_suppressed;
  }
  s.flushes_suppressed = encoder_totals().flushes_suppressed;
  s.injector = injector_.stats();
  return s;
}

}  // namespace jqos::exp
