// Deterministic fault injection for the simulated deployment.
//
// A FaultPlan is a declarative, seeded schedule of faults -- link down/up,
// link brownout (a degraded loss/latency overlay swapped in temporarily),
// and node (data center) crash/restart. A FaultInjector binds the plan's
// symbolic targets ("dc:FRA", "link:FRA>LHR", "direct:3") to the concrete
// links and nodes of one simulation and schedules every fault as an ordinary
// simulator event, so fault traces are bit-identical across thread counts
// and event-queue backends.
//
// Determinism contract: seeded fault processes (link_flaps) derive their
// random stream via Rng::derive(seed, target) -- a pure function of stable
// identities, never of construction order or shard layout. Shard safety: a
// fault may only touch entities inside one (DC1, DC2) interaction group;
// the scenario layer enforces that at plan-validation time, and arm() simply
// skips targets the local shard does not own (counted in stats), so every
// shard replica of a shared entity faults at the same simulated time.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "common/sim_time.h"
#include "netsim/link.h"
#include "netsim/loss_model.h"
#include "netsim/simulator.h"

namespace jqos::netsim {

enum class FaultKind {
  kLinkDown,      // Link drops everything for the window (fault_drops).
  kLinkBrownout,  // Link keeps forwarding but with extra loss + latency.
  kNodeCrash,     // Node loses all service state, ignores traffic while down.
};

const char* to_string(FaultKind kind);

// Degraded operating point applied to a link during a brownout.
struct BrownoutProfile {
  double extra_loss = 0.05;            // Additional Bernoulli drop probability.
  SimDuration extra_latency = msec(50);  // Added to every arrival.
};

struct FaultSpec {
  FaultKind kind = FaultKind::kLinkDown;
  std::string target;       // Symbolic name the injector binds ("dc:FRA").
  SimTime start = 0;
  SimDuration duration = 0;  // Fault clears at start + duration.
  BrownoutProfile brownout;  // kLinkBrownout only.
};

// A declarative fault schedule. Builders return *this so plans read as a
// sentence; specs() is the materialized schedule in insertion order.
class FaultPlan {
 public:
  explicit FaultPlan(std::uint64_t seed = 0) : seed_(seed) {}

  FaultPlan& link_down(std::string target, SimTime start, SimDuration duration);
  FaultPlan& link_brownout(std::string target, SimTime start, SimDuration duration,
                           BrownoutProfile profile = {});
  FaultPlan& node_crash(std::string target, SimTime start, SimDuration duration);

  // Seeded recurring link-down process: materializes the outage windows of
  // `params` over [kSimStart, horizon) using Rng::derive(seed, target), the
  // same draw sequence as make_outage_over -- so a wall-clock outage process
  // and a fault-layer flap schedule with the same seed agree exactly.
  FaultPlan& link_flaps(std::string target, const OutageParams& params, SimTime horizon);

  std::uint64_t seed() const { return seed_; }
  const std::vector<FaultSpec>& specs() const { return specs_; }
  bool empty() const { return specs_.empty(); }

  // Fault windows, for classifying deliveries as inside/outside a fault.
  // Unsorted (insertion order); filter by target with windows_for().
  std::vector<OutageWindow> windows() const;
  std::vector<OutageWindow> windows_for(std::string_view target) const;

 private:
  std::uint64_t seed_;
  std::vector<FaultSpec> specs_;
};

// Implemented by nodes that can crash and restart (DataCenter). A crash
// wipes soft state (installed services decide what that means); a restart
// brings the node back cold.
class FaultableNode {
 public:
  virtual ~FaultableNode() = default;
  virtual void fault_crash() = 0;
  virtual void fault_restart() = 0;
};

struct FaultInjectorStats {
  std::uint64_t link_downs = 0;      // Down windows scheduled.
  std::uint64_t brownouts = 0;       // Brownout windows scheduled.
  std::uint64_t node_crashes = 0;    // Crash windows scheduled.
  std::uint64_t skipped_unbound = 0;  // Plan targets this shard does not own.
};

// Binds plan targets to one simulation's links/nodes and schedules the
// plan's faults as simulator events. One injector per shard; each shard
// arms the same plan, and unbound targets (entities living in other shards)
// are skipped, so a DC replicated into several shards crashes everywhere at
// the same simulated instant.
class FaultInjector {
 public:
  explicit FaultInjector(Simulator& sim) : sim_(sim) {}

  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  // A target may bind several directed links (both directions of a site
  // pair); a fault hits all of them together.
  void bind_link(const std::string& target, Link* link);
  void bind_node(const std::string& target, FaultableNode* node);

  // Schedules every spec in the plan whose target is bound here. Faults with
  // start < now() are rejected (fault plans are armed before run()). May be
  // called once per plan; arming twice schedules twice.
  void arm(const FaultPlan& plan);

  const FaultInjectorStats& stats() const { return stats_; }

 private:
  void arm_spec(const FaultSpec& spec, std::uint64_t plan_seed);

  Simulator& sim_;
  std::map<std::string, std::vector<Link*>, std::less<>> links_;
  std::map<std::string, FaultableNode*, std::less<>> nodes_;
  FaultInjectorStats stats_;
};

}  // namespace jqos::netsim
