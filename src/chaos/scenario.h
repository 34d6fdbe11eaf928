// Chaos scenarios: composable, seeded, replayable fault schedules.
//
// A ChaosSchedule is a list of timed fault entries against named nodes of a
// KvService — slowdowns, GC-pause windows, crash-restart cycles, and
// crash flapping — expressed either programmatically, via a tiny scripted
// DSL, or generated pseudo-randomly from a seed. Everything is
// deterministic: the generator draws only from its own seed (never the
// simulator RNG), ToDsl() round-trips through ParseDsl() bit-exactly, and
// ApplySchedule() attaches only RNG-free modulators, so a scenario replays
// the same event sequence on every run, platform, and sweep thread count.
//
// DSL grammar — one statement per line or ';', '#' starts a comment:
//   slow       node=<i> at=<dur> for=<dur> x<factor>
//   gc         node=<i> at=<dur> for=<dur> pause=<dur> every=<dur>
//   crash      node=<i> at=<dur> down=<dur> [warmup=<dur> x<factor>]
//   flap       node=<i> at=<dur> down=<dur> period=<dur> n=<count>
//   gray       node=<i> at=<dur> for=<dur> x<factor>
//   correlated nodes=<i,j,...> at=<dur> mode=slow for=<dur> x<factor>
//   correlated nodes=<i,j,...> at=<dur> mode=crash down=<dur>
//   retrystorm at=<dur> for=<dur> surge=<factor> x<factor>
// Durations take a unit suffix: ns, us, ms, or s (e.g. at=5s, pause=120ms).
// ParseDsl throws std::invalid_argument on malformed input.
//
// The three shapes that defeat naive policies each get a first-class kind:
//   * `gray` is mechanically a step slowdown, but names the calibrated
//     band below the hysteresis detectors' enter_deficit (1.5) and above
//     the ExpectationTracker's score_threshold (1.2) — visible to the live
//     plane, invisible to the legacy state machine.
//   * `correlated` is a shared-fate domain (one rack PDU, one SCSI chain):
//     a single draw fans the same episode out to every member at the same
//     instant, the failure shape that breaks independent-failure math.
//   * `retrystorm` is fleet-wide: every node slows by x<factor> while the
//     open-loop arrival rate surges by `surge` for the window — the
//     overload trigger for retry-driven metastable collapse. The slowdown
//     half is injected by ApplySchedule; the arrival half is returned by
//     SurgeWindows() for the workload to hand its fleet.
//
// Besides a fixed index, `node=` accepts the selector `leader`: the event
// binds to *whoever leads the consensus group at fire time*, resolved by
// the LeaderResolver passed to ApplySchedule. "gc-pause whichever replica
// currently leads" is the paper's stuttering-coordinator scenario, and it
// is inexpressible with a fixed index because elections move the target.
// `node=leader` round-trips through ToDsl()/ParseDsl() exactly.
#ifndef SRC_CHAOS_SCENARIO_H_
#define SRC_CHAOS_SCENARIO_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "src/cluster/cluster.h"
#include "src/cluster/fleet/arrivals.h"
#include "src/faults/injector.h"
#include "src/simcore/simulator.h"
#include "src/simcore/time.h"

namespace fst {

enum class ChaosKind {
  kSlow,        // step slowdown: x`magnitude` for `duration`
  kGc,          // repeated offline pauses of `pause` every `period` for `duration`
  kCrash,       // crash, down `duration`, optional warm-up stutter on restart
  kFlap,        // `count` crash/restart cycles, one every `period`
  kGray,        // sub-threshold step slowdown (detector-invisible band)
  kCorrelated,  // shared-fate domain: `inner` episode on every member at once
  kRetryStorm,  // fleet-wide slowdown + arrival surge (metastable trigger)
};

const char* ChaosKindName(ChaosKind k);

// ChaosEvent::node value meaning "the current consensus leader at fire
// time" (serialized as `node=leader`).
inline constexpr int kLeaderNode = -1;

struct ChaosEvent {
  ChaosKind kind = ChaosKind::kSlow;
  int node = 0;  // data-plane index, or kLeaderNode for the live leader
  Duration at;                      // offset from simulation start
  Duration duration;                // slow/gc: episode length; crash/flap: down time
  double magnitude = 1.0;           // slow factor / crash warm-up factor
  Duration period;                  // gc: pause spacing; flap: cycle spacing
  Duration pause;                   // gc: single pause length
  Duration warmup;                  // crash: warm-up length after restart
  int count = 1;                    // flap: number of cycles
  // Correlated shared-fate domain: the member nodes and the episode shape
  // fanned out to each of them (kSlow → simultaneous slowdown by
  // `magnitude` for `duration`; kCrash → simultaneous crash, down
  // `duration`). Only meaningful when kind == kCorrelated.
  std::vector<int> members;
  ChaosKind inner = ChaosKind::kCrash;
  // Retry-storm arrival multiplier over [at, at + duration). Only
  // meaningful when kind == kRetryStorm.
  double surge = 1.0;
};

struct ChaosSchedule {
  std::vector<ChaosEvent> events;

  // Serializes to the DSL; ParseDsl(ToDsl()) reproduces the schedule
  // exactly (durations are emitted in ns, factors with full precision).
  std::string ToDsl() const;
};

// Parses the DSL described above. Throws std::invalid_argument with a
// line-referenced message on any malformed statement.
ChaosSchedule ParseDsl(const std::string& text);

struct RandomScenarioParams {
  int nodes = 4;
  Duration horizon = Duration::Seconds(20.0);
  int stutter_faults = 2;
  int crash_faults = 2;
  // Crash windows are serialized: consecutive crashes are separated by at
  // least the previous down time plus this gap, giving anti-entropy repair
  // room to restore the replication factor between losses. With R = 2 this
  // is what makes "no acked write lost" an achievable invariant.
  Duration min_crash_gap = Duration::Seconds(8.0);
  Duration max_down = Duration::Seconds(2.0);
  double max_slow_factor = 6.0;
  bool allow_flap = true;
  // Gray stutters: slowdowns drawn from [gray_min_factor, gray_max_factor),
  // deliberately below the hysteresis detectors' default enter_deficit of
  // 1.5 so the legacy path cannot see them — the live plane's
  // ExpectationTracker is what should. Zero (the default) draws nothing
  // and leaves every pre-existing schedule for a seed bit-identical.
  int gray_faults = 0;
  double gray_min_factor = 1.25;
  double gray_max_factor = 1.45;
  // Leader-targeted faults (node=leader): slowdowns, gc storms with
  // pauses long enough to breach election timeouts, and outright crashes
  // aimed at whoever leads the metadata quorum when the fault fires.
  // Drawn after every other class, so zero (the default) keeps all
  // pre-existing schedules bit-identical.
  int leader_faults = 0;
  // Correlated shared-fate domains: each draws a 2..max(2, domain) member
  // set and fans one episode out to all of them. Crash-mode domains with
  // replication 2 can legitimately lose acked writes, so campaigns that
  // assert durability set correlated_crash_prob = 0 to keep domains in
  // slow mode. Drawn after leader faults; zero keeps old schedules exact.
  int correlated_faults = 0;
  int correlated_domain = 2;
  double correlated_crash_prob = 0.0;
  double correlated_slow_factor = 3.0;
  // First-class gray events (kind kGray). Distinct from the legacy
  // `gray_faults` knob above, which predates the primitive and emits
  // kSlow entries — that loop is kept as-is so historical schedules stay
  // bit-identical. Drawn after correlated faults.
  int gray_events = 0;
  // Metastable retry-storm triggers: fleet-wide slowdown of roughly
  // retry_storm_slow_factor plus an arrival surge in
  // [retry_storm_min_surge, retry_storm_max_surge). Drawn last.
  int retry_storms = 0;
  double retry_storm_slow_factor = 3.0;
  double retry_storm_min_surge = 3.0;
  double retry_storm_max_surge = 5.0;
};

// When the event's last fault effect ends, in nanoseconds from simulation
// start: at + for for slow, gray, retrystorm and correlated-slow episodes;
// for a gc, the later of at + for and the end of its last pause (one
// starts at every `every` step below `for`); the restart (plus any
// warm-up) for crash and correlated-crash events; the last cycle's
// restart, at + (n-1)*period + down, for a flap. A double, so no DSL
// duration can overflow the sum.
double EventEndNs(const ChaosEvent& e);

// Seeded scenario generator: same seed, same schedule, bit-for-bit. Crash
// entries never overlap and always restart well before the horizon.
ChaosSchedule RandomScenario(uint64_t seed, const RandomScenarioParams& params);

// Resolves `node=leader` events to a device at fire time. Returning
// nullptr skips the event (no target exists).
using LeaderResolver = std::function<FaultableDevice*()>;

// Binds every entry of `schedule` to the service's nodes through the fault
// injector (ground truth recorded per entry). Entries naming nodes outside
// [0, service.params().nodes) throw std::invalid_argument, as do
// `node=leader` entries when no resolver is supplied. Leader events
// schedule a resolution point at `at`; the fault's timing then runs
// relative to that instant against whichever device leads.
void ApplySchedule(Simulator& sim, KvService& service,
                   const ChaosSchedule& schedule, FaultInjector& injector,
                   const LeaderResolver& leader_of = {});

// The arrival half of every kRetryStorm entry in the schedule, in schedule
// order: the open-loop client fleet multiplies its arrival rate by
// `factor` over [at, at + duration). ApplySchedule injects only the
// service-side slowdown; the workload passes these windows to its
// fleet (FleetParams::surges) before the run starts.
std::vector<ArrivalSurge> SurgeWindows(const ChaosSchedule& schedule);

}  // namespace fst

#endif  // SRC_CHAOS_SCENARIO_H_
