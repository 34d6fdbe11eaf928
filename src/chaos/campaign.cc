#include "src/chaos/campaign.h"

#include <cstdio>
#include <utility>

#include "src/obs/export.h"
#include "src/obs/live/report.h"

namespace fst {

CellSpec ChaosCellSpec(const CampaignParams& p, uint64_t seed) {
  CellSpec spec;
  spec.seed = seed;
  spec.cluster.nodes = p.nodes;
  spec.cluster.shard.replication = p.replication;
  spec.cluster.write_quorum = p.write_quorum;
  spec.cluster.retry.enabled = true;
  spec.cluster.retry.deadline = Duration::Millis(800);
  spec.cluster.recovery.enabled = true;
  if (p.telemetry) {
    spec.cluster.live = p.live;
    spec.cluster.live.enabled = true;
  }
  spec.fleet.arrivals_per_sec = p.arrivals_per_sec;
  spec.fleet.run_for = p.run_for;
  spec.fleet.read_fraction = p.read_fraction;
  spec.fleet.key_space = p.key_space;
  RandomScenarioParams sp = p.scenario;
  sp.nodes = p.nodes;
  sp.horizon = p.run_for;
  if (p.control_plane) {
    spec.consensus = p.consensus;
    // Drawn after every other class: the rest is the plain schedule.
    sp.leader_faults = p.leader_faults;
  }
  spec.schedule = RandomScenario(seed, sp);
  spec.settle = p.settle;
  spec.scorecard = p.scorecard;
  spec.unavailability_bound = p.unavailability_bound;
  return spec;
}

SeedOutcome RunChaosSeed(const CampaignParams& p, uint64_t seed) {
  return RunCell(ChaosCellSpec(p, seed), p.telemetry);
}

CampaignResult RunCampaign(const CampaignParams& p) {
  std::vector<CellSpec> specs;
  for (int i = 0; i < p.seeds; ++i) {
    specs.push_back(ChaosCellSpec(p, p.first_seed + static_cast<uint64_t>(i)));
  }
  CampaignResult res;
  res.params = p;
  res.outcomes = RunCells(specs, p.threads, p.telemetry);
  for (const SeedOutcome& o : res.outcomes) {
    if (!o.ok) {
      ++res.violations;
    }
    if (o.telemetry) {
      res.scorecard.Merge(o.scorecard);
    }
  }
  return res;
}

int CampaignResult::ExemplarIndex() const {
  int first_violating = -1;
  for (size_t i = 0; i < outcomes.size(); ++i) {
    if (!outcomes[i].telemetry) {
      return -1;
    }
    if (outcomes[i].gray_spans > 0) {
      return static_cast<int>(i);
    }
    if (first_violating < 0 && !outcomes[i].ok) {
      first_violating = static_cast<int>(i);
    }
  }
  if (first_violating >= 0) {
    return first_violating;
  }
  return outcomes.empty() ? -1 : 0;
}

std::string CampaignResult::UnifiedBundleJson() const {
  std::vector<ReportSection> sections;
  char buf[256];

  int total_faults = 0;
  std::string violating = "[";
  std::string seed_rows = "[\n";
  for (size_t i = 0; i < outcomes.size(); ++i) {
    const SeedOutcome& o = outcomes[i];
    total_faults += o.scorecard.faults;
    if (!o.ok) {
      if (violating.size() > 1) {
        violating += ", ";
      }
      violating += std::to_string(o.seed);
    }
    std::snprintf(buf, sizeof(buf),
                  "%s  {\"seed\": %llu, \"ok\": %s, "
                  "\"goodput_per_sec\": %.3f, \"gray_spans\": %d, "
                  "\"burn_raised\": %d, \"burn_cleared\": %d, "
                  "\"max_stutter_score\": %.4f, \"scorecard\": ",
                  i == 0 ? "" : ",\n", static_cast<unsigned long long>(o.seed),
                  o.ok ? "true" : "false", o.goodput_per_sec, o.gray_spans,
                  o.burn_raised, o.burn_cleared, o.max_stutter_score);
    seed_rows += buf;
    seed_rows += o.scorecard.ToJson();
    seed_rows += "}";
  }
  violating += "]";
  seed_rows += "\n]";

  std::snprintf(buf, sizeof(buf),
                "{\"name\": \"%s\", \"nodes\": %d, \"seeds\": %d, "
                "\"first_seed\": %llu, \"violations\": %d, \"faults\": %d, "
                "\"violating_seeds\": ",
                params.name.c_str(), params.nodes, params.seeds,
                static_cast<unsigned long long>(params.first_seed),
                violations, total_faults);
  std::string campaign = buf;
  campaign += violating + "}";
  sections.push_back({"campaign", campaign});
  sections.push_back({"scorecard", scorecard.ToJson()});
  sections.push_back({"seeds", seed_rows});

  const int ex = ExemplarIndex();
  if (ex >= 0) {
    const SeedOutcome& o = outcomes[static_cast<size_t>(ex)];
    sections.push_back(
        {"exemplar_seed", std::to_string(o.seed)});
    sections.push_back({"exemplar_live", o.live_json});
    sections.push_back({"slo", o.slo_json});
  }
  return BundleJson(sections);
}

bool CampaignResult::WriteBundle(const std::string& dir) const {
  const std::string bundle = UnifiedBundleJson();
  const std::string base = dir + "/" + params.name;
  bool ok = WriteTextFile(base + "_bundle.json", bundle);
  ok = WriteTextFile(base + "_report.html",
                     HtmlReport("Chaos campaign: " + params.name, bundle)) &&
       ok;
  return ok;
}

std::string CampaignResult::ReportJson() const {
  std::string out;
  char buf[384];
  std::snprintf(buf, sizeof(buf),
                "{\"campaign\": \"%s\", \"nodes\": %d, \"seeds\": %d, "
                "\"first_seed\": %llu, \"violating_seeds\": %d,\n"
                " \"results\": [\n",
                params.name.c_str(), params.nodes, params.seeds,
                static_cast<unsigned long long>(params.first_seed),
                violations);
  out += buf;
  for (size_t i = 0; i < outcomes.size(); ++i) {
    const SeedOutcome& o = outcomes[i];
    std::snprintf(
        buf, sizeof(buf),
        "  {\"seed\": %llu, \"ok\": %s, \"digest\": \"%016llx\", "
        "\"outcome_digest\": \"%016llx\", "
        "\"goodput_per_sec\": %.3f, \"crashes\": %d, \"recoveries\": %d, "
        "\"keys_repaired\": %lld, \"read_misses\": %lld, \"retries\": %lld, "
        "\"acked_keys\": %lld, \"lost_acked\": %lld, "
        "\"under_replicated\": %lld",
        static_cast<unsigned long long>(o.seed), o.ok ? "true" : "false",
        static_cast<unsigned long long>(o.fire_digest),
        static_cast<unsigned long long>(o.outcome_digest), o.goodput_per_sec,
        o.crashes, o.recoveries, static_cast<long long>(o.keys_repaired),
        static_cast<long long>(o.read_misses),
        static_cast<long long>(o.retries),
        static_cast<long long>(o.acked_keys),
        static_cast<long long>(o.lost_acked),
        static_cast<long long>(o.under_replicated));
    out += buf;
    if (o.control_plane) {
      char cbuf[320];
      std::snprintf(
          cbuf, sizeof(cbuf),
          ", \"elections\": %d, \"elections_won\": %d, "
          "\"false_failovers\": %d, \"entries_committed\": %lld, "
          "\"snapshots\": %d, \"reconfigs\": %d, "
          "\"reconfig_mean_ms\": %.3f, \"reconfig_max_ms\": %.3f, "
          "\"leaderless_s\": %.3f, \"max_leaderless_s\": %.3f",
          o.elections, o.elections_won, o.false_failovers,
          static_cast<long long>(o.entries_committed), o.snapshots,
          o.reconfigs, o.reconfig_mean_ms, o.reconfig_max_ms, o.leaderless_s,
          o.max_leaderless_s);
      out += cbuf;
    }
    if (!o.ok) {
      out += ", \"violations\": [";
      for (size_t v = 0; v < o.violations.size(); ++v) {
        if (v > 0) {
          out += ", ";
        }
        out += "\"" + JsonEscape(o.violations[v]) + "\"";
      }
      out += "], \"dsl\": \"" + JsonEscape(o.dsl) + "\"";
      out += ", \"fault_timeline\": [";
      for (size_t f = 0; f < o.fault_timeline.size(); ++f) {
        if (f > 0) {
          out += ", ";
        }
        out += "\"" + JsonEscape(o.fault_timeline[f]) + "\"";
      }
      out += "]";
    }
    out += i + 1 < outcomes.size() ? "},\n" : "}\n";
  }
  out += " ]}\n";
  return out;
}

}  // namespace fst
