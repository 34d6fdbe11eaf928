#include "src/chaos/scenario.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iterator>
#include <sstream>
#include <stdexcept>
#include <utility>

namespace fst {

namespace {

// ChaosKind names in enum order: ToDsl writes them, ParseDsl reads them.
constexpr const char* kKindNames[] = {"slow", "gc",         "crash",
                                      "flap", "gray",       "correlated",
                                      "retrystorm"};
static_assert(std::size(kKindNames) ==
              static_cast<size_t>(ChaosKind::kRetryStorm) + 1);

}  // namespace

const char* ChaosKindName(ChaosKind k) {
  return kKindNames[static_cast<int>(k)];
}

namespace {

// Emits a duration exactly: integer nanoseconds. Human-authored scripts use
// friendlier units; generated ones only need to round-trip.
std::string DurToken(Duration d) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%lldns", static_cast<long long>(d.nanos()));
  return buf;
}

std::string FactorToken(double f) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "x%.17g", f);
  return buf;
}

// Parses the numeric prefix of `tok` (std::stod's rule) and sets `*pos` to
// its length. No numeric prefix, or a non-finite value, is malformed.
double ParseFinite(const std::string& tok, size_t* pos, const char* what,
                   const std::string& stmt) {
  double value = 0.0;
  try {
    value = std::stod(tok, pos);
  } catch (const std::exception&) {
    *pos = 0;
  }
  if (*pos == 0 || !std::isfinite(value)) {
    throw std::invalid_argument(std::string("chaos dsl: bad ") + what + " '" +
                                tok + "' in '" + stmt + "'");
  }
  return value;
}

// A duration is a non-negative number and a unit, nothing more. `ns` (the
// round-trip unit) takes an integer only; every value is range-checked
// before it becomes int64 nanoseconds.
Duration ParseDur(const std::string& tok, const std::string& stmt) {
  const auto bad = [&tok, &stmt](const char* why) {
    return std::invalid_argument("chaos dsl: duration '" + tok + "' " + why +
                                 " in '" + stmt + "'");
  };
  size_t pos = 0;
  const double value = ParseFinite(tok, &pos, "duration", stmt);
  if (std::signbit(value)) {
    throw bad("is negative");
  }
  const std::string unit = tok.substr(pos);
  if (unit == "ns") {
    if (!std::all_of(tok.begin(), tok.begin() + static_cast<long>(pos),
                     [](char c) { return c >= '0' && c <= '9'; })) {
      throw bad("needs an integer count of ns");
    }
    try {
      return Duration(static_cast<int64_t>(std::stoll(tok.substr(0, pos))));
    } catch (const std::out_of_range&) {
      throw bad("is out of range");
    }
  }
  double scale = 0.0;
  if (unit == "us") {
    scale = 1e3;
  } else if (unit == "ms") {
    scale = 1e6;
  } else if (unit == "s") {
    scale = 1e9;
  } else {
    throw bad("needs a unit (ns/us/ms/s)");
  }
  const double ns = value * scale;
  // Every double below 2^63 truncates to a representable int64.
  if (!(ns < 0x1p63)) {
    throw bad("is out of range");
  }
  return Duration(static_cast<int64_t>(ns));
}

int ParseInt(const std::string& tok, const std::string& stmt) {
  try {
    size_t pos = 0;
    const int v = std::stoi(tok, &pos);
    if (pos != tok.size()) {
      throw std::invalid_argument(tok);
    }
    return v;
  } catch (const std::exception&) {
    throw std::invalid_argument("chaos dsl: bad integer '" + tok + "' in '" +
                                stmt + "'");
  }
}

double ParseFactor(const std::string& tok, const std::string& stmt) {
  size_t pos = 0;
  const double value = ParseFinite(tok, &pos, "factor", stmt);
  if (pos != tok.size()) {
    throw std::invalid_argument("chaos dsl: bad factor '" + tok + "' in '" +
                                stmt + "'");
  }
  return value;
}

// Parses a comma-separated member list (`nodes=0,1,2`). Empty segments and
// an empty list are malformed: a shared-fate domain with no members is a
// script bug, not a no-op.
std::vector<int> ParseMembers(const std::string& tok, const std::string& stmt) {
  std::vector<int> out;
  std::string seg;
  const auto flush = [&out, &seg, &stmt]() {
    if (seg.empty()) {
      throw std::invalid_argument("chaos dsl: empty member in nodes= list in '" +
                                  stmt + "'");
    }
    out.push_back(ParseInt(seg, stmt));
    seg.clear();
  };
  for (char c : tok) {
    if (c == ',') {
      flush();
    } else {
      seg += c;
    }
  }
  flush();
  return out;
}

std::vector<std::string> Tokenize(const std::string& stmt) {
  std::vector<std::string> out;
  std::istringstream in(stmt);
  std::string tok;
  while (in >> tok) {
    out.push_back(tok);
  }
  return out;
}

ChaosEvent ParseStatement(const std::string& stmt) {
  const std::vector<std::string> toks = Tokenize(stmt);
  ChaosEvent e;
  const std::string& kind = toks.front();
  const auto* name =
      std::find(std::begin(kKindNames), std::end(kKindNames), kind);
  if (name == std::end(kKindNames)) {
    throw std::invalid_argument("chaos dsl: unknown kind '" + kind + "' in '" +
                                stmt + "'");
  }
  e.kind = static_cast<ChaosKind>(name - std::begin(kKindNames));
  for (size_t i = 1; i < toks.size(); ++i) {
    const std::string& tok = toks[i];
    if (tok.size() > 1 && tok[0] == 'x' &&
        (std::isdigit(static_cast<unsigned char>(tok[1])) || tok[1] == '.')) {
      e.magnitude = ParseFactor(tok.substr(1), stmt);
      continue;
    }
    const size_t eq = tok.find('=');
    if (eq == std::string::npos) {
      throw std::invalid_argument("chaos dsl: expected key=value, got '" + tok +
                                  "' in '" + stmt + "'");
    }
    const std::string key = tok.substr(0, eq);
    const std::string val = tok.substr(eq + 1);
    if (key == "node" && e.kind != ChaosKind::kCorrelated &&
        e.kind != ChaosKind::kRetryStorm) {
      e.node = (val == "leader") ? kLeaderNode : ParseInt(val, stmt);
    } else if (key == "nodes" && e.kind == ChaosKind::kCorrelated) {
      e.members = ParseMembers(val, stmt);
    } else if (key == "mode" && e.kind == ChaosKind::kCorrelated) {
      if (val == "slow") {
        e.inner = ChaosKind::kSlow;
      } else if (val == "crash") {
        e.inner = ChaosKind::kCrash;
      } else {
        throw std::invalid_argument("chaos dsl: bad mode '" + val +
                                    "' (want slow|crash) in '" + stmt + "'");
      }
    } else if (key == "at") {
      e.at = ParseDur(val, stmt);
    } else if (key == "for" &&
               (e.kind == ChaosKind::kSlow || e.kind == ChaosKind::kGc ||
                e.kind == ChaosKind::kGray ||
                e.kind == ChaosKind::kCorrelated ||
                e.kind == ChaosKind::kRetryStorm)) {
      e.duration = ParseDur(val, stmt);
    } else if (key == "down" &&
               (e.kind == ChaosKind::kCrash || e.kind == ChaosKind::kFlap ||
                e.kind == ChaosKind::kCorrelated)) {
      e.duration = ParseDur(val, stmt);
    } else if (key == "surge" && e.kind == ChaosKind::kRetryStorm) {
      e.surge = ParseFactor(val, stmt);
    } else if (key == "pause" && e.kind == ChaosKind::kGc) {
      e.pause = ParseDur(val, stmt);
    } else if (key == "every" && e.kind == ChaosKind::kGc) {
      e.period = ParseDur(val, stmt);
    } else if (key == "period" && e.kind == ChaosKind::kFlap) {
      e.period = ParseDur(val, stmt);
    } else if (key == "warmup" && e.kind == ChaosKind::kCrash) {
      e.warmup = ParseDur(val, stmt);
    } else if (key == "n" && e.kind == ChaosKind::kFlap) {
      e.count = ParseInt(val, stmt);
    } else {
      throw std::invalid_argument("chaos dsl: key '" + key +
                                  "' not valid for '" + kind + "' in '" + stmt +
                                  "'");
    }
  }
  if (e.kind == ChaosKind::kCorrelated && e.members.empty()) {
    throw std::invalid_argument(
        "chaos dsl: correlated needs a nodes= member list in '" + stmt + "'");
  }
  return e;
}

}  // namespace

std::string ChaosSchedule::ToDsl() const {
  std::string out;
  for (const ChaosEvent& e : events) {
    out += ChaosKindName(e.kind);
    if (e.kind == ChaosKind::kCorrelated) {
      out += " nodes=";
      for (size_t i = 0; i < e.members.size(); ++i) {
        if (i > 0) {
          out += ",";
        }
        out += std::to_string(e.members[i]);
      }
    } else if (e.kind != ChaosKind::kRetryStorm) {
      out += " node=";
      out += (e.node == kLeaderNode) ? "leader" : std::to_string(e.node);
    }
    out += " at=" + DurToken(e.at);
    switch (e.kind) {
      case ChaosKind::kSlow:
      case ChaosKind::kGray:
        out += " for=" + DurToken(e.duration);
        out += " " + FactorToken(e.magnitude);
        break;
      case ChaosKind::kGc:
        out += " for=" + DurToken(e.duration);
        out += " pause=" + DurToken(e.pause);
        out += " every=" + DurToken(e.period);
        break;
      case ChaosKind::kCrash:
        out += " down=" + DurToken(e.duration);
        if (!e.warmup.IsZero()) {
          out += " warmup=" + DurToken(e.warmup);
          out += " " + FactorToken(e.magnitude);
        }
        break;
      case ChaosKind::kFlap:
        out += " down=" + DurToken(e.duration);
        out += " period=" + DurToken(e.period);
        out += " n=" + std::to_string(e.count);
        break;
      case ChaosKind::kCorrelated:
        if (e.inner == ChaosKind::kSlow) {
          out += " mode=slow for=" + DurToken(e.duration);
          out += " " + FactorToken(e.magnitude);
        } else {
          out += " mode=crash down=" + DurToken(e.duration);
        }
        break;
      case ChaosKind::kRetryStorm: {
        out += " for=" + DurToken(e.duration);
        char buf[40];
        std::snprintf(buf, sizeof(buf), " surge=%.17g", e.surge);
        out += buf;
        out += " " + FactorToken(e.magnitude);
        break;
      }
    }
    out += "\n";
  }
  return out;
}

ChaosSchedule ParseDsl(const std::string& text) {
  ChaosSchedule schedule;
  std::string stmt;
  const auto flush = [&schedule, &stmt]() {
    // Strip comments and whitespace-only statements.
    const size_t hash = stmt.find('#');
    if (hash != std::string::npos) {
      stmt.resize(hash);
    }
    if (stmt.find_first_not_of(" \t\r") != std::string::npos) {
      schedule.events.push_back(ParseStatement(stmt));
    }
    stmt.clear();
  };
  for (char c : text) {
    if (c == '\n' || c == ';') {
      flush();
    } else {
      stmt += c;
    }
  }
  flush();
  return schedule;
}

ChaosSchedule RandomScenario(uint64_t seed, const RandomScenarioParams& p) {
  // Salted so a campaign's scenario stream is unrelated to the simulator
  // seeded with the same value.
  Rng rng(seed ^ 0xc4a05c10a5ef31b7ULL);
  ChaosSchedule s;
  const double h = p.horizon.ToSeconds();

  // Crashes first: strictly serialized windows. Each crash fully restarts,
  // then at least min_crash_gap elapses (repair headroom) before the next;
  // everything lands in the first ~75% of the horizon so recovery and
  // repair complete inside the run.
  double t = h * 0.08 + rng.UniformDouble(0.0, h * 0.08);
  for (int k = 0; k < p.crash_faults; ++k) {
    const double max_down = std::max(1.3, p.max_down.ToSeconds());
    const double down = rng.UniformDouble(1.2, max_down);
    const bool flap = p.allow_flap && rng.Bernoulli(0.25);
    const double period = down + rng.UniformDouble(1.0, 2.0);
    const int cycles = 2;
    const double span = flap ? period * (cycles - 1) + down : down;
    if (t + span > h * 0.75) {
      break;
    }
    ChaosEvent e;
    e.node = static_cast<int>(rng.UniformInt(0, p.nodes - 1));
    e.at = Duration::Seconds(t);
    e.duration = Duration::Seconds(down);
    if (flap) {
      e.kind = ChaosKind::kFlap;
      e.period = Duration::Seconds(period);
      e.count = cycles;
    } else {
      e.kind = ChaosKind::kCrash;
      if (rng.Bernoulli(0.5)) {
        e.warmup = Duration::Seconds(rng.UniformDouble(0.5, 1.5));
        e.magnitude = rng.UniformDouble(1.5, 3.0);
      }
    }
    s.events.push_back(e);
    t += span + p.min_crash_gap.ToSeconds() + rng.UniformDouble(0.0, 2.0);
  }

  // Stutters: performance faults may land anywhere early-to-mid run and may
  // overlap crashes on other nodes — that composition (crash while a peer
  // stutters) is the fail-stutter scenario the paper's conclusion asks for.
  for (int k = 0; k < p.stutter_faults; ++k) {
    ChaosEvent e;
    e.node = static_cast<int>(rng.UniformInt(0, p.nodes - 1));
    e.at = Duration::Seconds(rng.UniformDouble(h * 0.05, h * 0.6));
    e.duration = Duration::Seconds(rng.UniformDouble(1.0, 4.0));
    if (rng.Bernoulli(0.5)) {
      e.kind = ChaosKind::kSlow;
      e.magnitude = rng.UniformDouble(2.0, std::max(2.5, p.max_slow_factor));
    } else {
      e.kind = ChaosKind::kGc;
      e.pause = Duration::Seconds(rng.UniformDouble(0.08, 0.25));
      e.period = Duration::Seconds(rng.UniformDouble(0.5, 1.2));
    }
    s.events.push_back(e);
  }

  // Gray stutters last (appended after every pre-existing draw, so
  // gray_faults == 0 reproduces historical schedules bit-for-bit). Long
  // and shallow: several seconds at a factor under the detectors'
  // enter_deficit, the shape that erodes goodput without ever tripping a
  // state transition.
  for (int k = 0; k < p.gray_faults; ++k) {
    ChaosEvent e;
    e.kind = ChaosKind::kSlow;
    e.node = static_cast<int>(rng.UniformInt(0, p.nodes - 1));
    e.at = Duration::Seconds(rng.UniformDouble(h * 0.15, h * 0.55));
    e.duration = Duration::Seconds(rng.UniformDouble(2.0, 5.0));
    e.magnitude = rng.UniformDouble(p.gray_min_factor, p.gray_max_factor);
    s.events.push_back(e);
  }

  // Leader faults last (again: appending keeps leader_faults == 0 seeds
  // bit-identical). The mix is deliberately stutter-heavy — the point is a
  // coordinator that limps, not one that dies: gc pauses are drawn longer
  // than a heartbeat interval so followers' election timers can expire
  // while the leader is merely paused, the false-failover shape.
  for (int k = 0; k < p.leader_faults; ++k) {
    ChaosEvent e;
    e.node = kLeaderNode;
    e.at = Duration::Seconds(rng.UniformDouble(h * 0.10, h * 0.65));
    const double draw = rng.UniformDouble(0.0, 1.0);
    if (draw < 0.4) {
      e.kind = ChaosKind::kSlow;
      e.duration = Duration::Seconds(rng.UniformDouble(1.5, 4.0));
      e.magnitude = rng.UniformDouble(3.0, 8.0);
    } else if (draw < 0.8) {
      e.kind = ChaosKind::kGc;
      e.duration = Duration::Seconds(rng.UniformDouble(1.5, 4.0));
      e.pause = Duration::Seconds(rng.UniformDouble(0.15, 0.45));
      e.period = Duration::Seconds(rng.UniformDouble(0.6, 1.2));
    } else {
      e.kind = ChaosKind::kCrash;
      e.duration = Duration::Seconds(rng.UniformDouble(1.2, 2.0));
    }
    s.events.push_back(e);
  }

  // Correlated shared-fate domains (appended after leader faults, so
  // correlated_faults == 0 keeps old schedules exact). Each domain picks a
  // contiguous member window — racks are contiguous in the node numbering —
  // and fans one episode out to every member at the same instant.
  for (int k = 0; k < p.correlated_faults; ++k) {
    ChaosEvent e;
    e.kind = ChaosKind::kCorrelated;
    const int span = std::min(p.nodes, std::max(2, p.correlated_domain));
    const int first =
        static_cast<int>(rng.UniformInt(0, std::max(0, p.nodes - span)));
    for (int m = 0; m < span; ++m) {
      e.members.push_back(first + m);
    }
    e.at = Duration::Seconds(rng.UniformDouble(h * 0.15, h * 0.55));
    if (rng.Bernoulli(p.correlated_crash_prob)) {
      e.inner = ChaosKind::kCrash;
      e.duration = Duration::Seconds(rng.UniformDouble(1.2, 2.0));
    } else {
      e.inner = ChaosKind::kSlow;
      e.duration = Duration::Seconds(rng.UniformDouble(1.5, 4.0));
      e.magnitude =
          rng.UniformDouble(2.0, std::max(2.5, p.correlated_slow_factor));
    }
    s.events.push_back(e);
  }

  // First-class gray events: same shallow-and-long shape as the legacy
  // gray_faults loop, but carried as kGray so campaigns can attribute
  // gray-span exposure to the primitive.
  for (int k = 0; k < p.gray_events; ++k) {
    ChaosEvent e;
    e.kind = ChaosKind::kGray;
    e.node = static_cast<int>(rng.UniformInt(0, p.nodes - 1));
    e.at = Duration::Seconds(rng.UniformDouble(h * 0.15, h * 0.55));
    e.duration = Duration::Seconds(rng.UniformDouble(2.0, 5.0));
    e.magnitude = rng.UniformDouble(p.gray_min_factor, p.gray_max_factor);
    s.events.push_back(e);
  }

  // Retry storms last. The trigger window sits mid-run so there is a clean
  // pre-trigger baseline and several multiples of the window after it
  // clears — metastability is defined by what happens *after* the trigger
  // is gone, so the tail must be observable.
  for (int k = 0; k < p.retry_storms; ++k) {
    ChaosEvent e;
    e.kind = ChaosKind::kRetryStorm;
    e.at = Duration::Seconds(rng.UniformDouble(h * 0.25, h * 0.35));
    e.duration = Duration::Seconds(rng.UniformDouble(1.5, 2.5));
    e.surge =
        rng.UniformDouble(p.retry_storm_min_surge, p.retry_storm_max_surge);
    e.magnitude = rng.UniformDouble(
        std::max(1.5, p.retry_storm_slow_factor * 0.8),
        std::max(2.0, p.retry_storm_slow_factor * 1.2));
    s.events.push_back(e);
  }
  return s;
}

namespace {

// A flap with no period cycles once a second past its down time.
Duration FlapPeriod(const ChaosEvent& e) {
  return e.period.IsZero() ? e.duration + Duration::Seconds(1.0) : e.period;
}

// A gc with no `every` pauses once a second.
Duration GcPeriod(const ChaosEvent& e) {
  return e.period.IsZero() ? Duration::Seconds(1.0) : e.period;
}

// Arms one event's fault processes against a concrete device, with the
// event's episode starting at `at`. Fixed-node events pass their absolute
// offset; leader events pass the resolution instant, so the episode's
// internal timing (gc windows, flap cycles) is relative to whoever was
// elected when the fault fired.
void InjectEvent(FaultInjector& injector, FaultableDevice& dev,
                 const ChaosEvent& e, SimTime at) {
  switch (e.kind) {
    case ChaosKind::kSlow:
    case ChaosKind::kGray:
      injector.InjectStepChange(dev,
                                {{at, e.magnitude}, {at + e.duration, 1.0}});
      break;
    case ChaosKind::kGc: {
      std::vector<std::pair<SimTime, Duration>> windows;
      const Duration period = GcPeriod(e);
      for (Duration off = Duration::Zero(); off < e.duration; off += period) {
        windows.emplace_back(at + off, e.pause);
      }
      injector.InjectOfflineWindows(dev, windows, "chaos-gc");
      break;
    }
    case ChaosKind::kCrash: {
      CrashRestartFault f;
      f.at = at;
      f.down_for = e.duration;
      f.warmup_factor = e.magnitude;
      f.warmup_for = e.warmup;
      injector.ScheduleCrashRestart(dev, f);
      break;
    }
    case ChaosKind::kFlap: {
      const Duration period = FlapPeriod(e);
      for (int k = 0; k < std::max(1, e.count); ++k) {
        CrashRestartFault f;
        f.at = at + period * static_cast<double>(k);
        f.down_for = e.duration;
        injector.ScheduleCrashRestart(dev, f);
      }
      break;
    }
    case ChaosKind::kCorrelated:
    case ChaosKind::kRetryStorm:
      // Fan-out kinds never reach the single-device injector: ApplySchedule
      // expands them into per-member / per-node sub-events first.
      break;
  }
}

}  // namespace

double EventEndNs(const ChaosEvent& e) {
  const auto ns = [](Duration d) { return static_cast<double>(d.nanos()); };
  switch (e.kind) {
    case ChaosKind::kCrash:
      return ns(e.at) + ns(e.duration) + ns(e.warmup);
    case ChaosKind::kFlap:
      return ns(e.at) + ns(FlapPeriod(e)) * (std::max(1, e.count) - 1) +
             ns(e.duration);
    case ChaosKind::kGc: {
      // A pause starts at every period step below `for`; the last one can
      // outlast `for`.
      const int64_t span = e.duration.nanos();
      const int64_t period = GcPeriod(e).nanos();
      const double last_pause_end =
          span > 0 ? ns(e.at) + static_cast<double>((span - 1) / period * period) +
                         ns(e.pause)
                   : 0.0;
      return std::max(ns(e.at) + ns(e.duration), last_pause_end);
    }
    default:  // episodes (`for`) and correlated domains (`for` or `down`)
      return ns(e.at) + ns(e.duration);
  }
}

void ApplySchedule(Simulator& sim, KvService& service,
                   const ChaosSchedule& schedule, FaultInjector& injector,
                   const LeaderResolver& leader_of) {
  for (const ChaosEvent& e : schedule.events) {
    if (e.kind == ChaosKind::kCorrelated) {
      // One draw, every member: the same episode fires on each domain
      // member at the same instant. Expansion happens here (not in the
      // generator) so the DSL entry stays one statement — the shared fate
      // is visible in the script, not smeared into per-node lines.
      for (int member : e.members) {
        if (member < 0 || member >= service.params().nodes) {
          throw std::invalid_argument("chaos schedule: node " +
                                      std::to_string(member) +
                                      " out of range");
        }
        ChaosEvent sub = e;
        sub.kind = e.inner;
        sub.node = member;
        sub.members.clear();
        InjectEvent(injector, *service.node(member), sub,
                    SimTime::Zero() + e.at);
      }
      continue;
    }
    if (e.kind == ChaosKind::kRetryStorm) {
      // Service-side half only: every node slows by `magnitude` for the
      // window. The arrival surge is the client fleet's job — see
      // SurgeWindows().
      ChaosEvent sub = e;
      sub.kind = ChaosKind::kSlow;
      for (int n = 0; n < service.params().nodes; ++n) {
        sub.node = n;
        InjectEvent(injector, *service.node(n), sub, SimTime::Zero() + e.at);
      }
      continue;
    }
    if (e.node == kLeaderNode) {
      if (!leader_of) {
        throw std::invalid_argument(
            "chaos schedule: node=leader event but no leader resolver bound");
      }
      // Leader identity is a runtime property — resolve when the fault
      // fires, not when the schedule is applied. A dead or not-yet-elected
      // leader skips the event (there is nothing to stutter).
      sim.ScheduleAt(SimTime::Zero() + e.at,
                     [&sim, &injector, resolve = leader_of, e]() {
                       FaultableDevice* dev = resolve();
                       if (dev == nullptr || dev->has_failed()) {
                         return;
                       }
                       InjectEvent(injector, *dev, e, sim.Now());
                     });
      continue;
    }
    if (e.node < 0 || e.node >= service.params().nodes) {
      throw std::invalid_argument("chaos schedule: node " +
                                  std::to_string(e.node) + " out of range");
    }
    InjectEvent(injector, *service.node(e.node), e, SimTime::Zero() + e.at);
  }
}

std::vector<ArrivalSurge> SurgeWindows(const ChaosSchedule& schedule) {
  std::vector<ArrivalSurge> out;
  for (const ChaosEvent& e : schedule.events) {
    if (e.kind == ChaosKind::kRetryStorm) {
      out.push_back(ArrivalSurge{e.at, e.duration, e.surge});
    }
  }
  return out;
}

}  // namespace fst
