#include "src/cluster/fleet/fleet.h"

#include <stdexcept>
#include <utility>

namespace fst {

namespace {

ColumnarFleetParams Validate(ColumnarFleetParams p) {
  if (p.window < 1) {
    throw std::invalid_argument("ColumnarFleetParams.window must be >= 1");
  }
  if (!(p.drain_every > Duration::Zero())) {
    throw std::invalid_argument(
        "ColumnarFleetParams.drain_every must be > 0");
  }
  return p;
}

}  // namespace

ColumnarFleet::ColumnarFleet(Simulator& sim, ColumnarFleetParams params)
    : sim_(sim), params_(Validate(std::move(params))),
      gen_(sim, params_.base, params_.mode, params_.phases,
           params_.num_clients),
      seq_(sim) {
  if (params_.num_clients > 0) {
    tallies_.resize(params_.num_clients);
  }
}

ColumnarFleet::ColumnarFleet(Simulator& sim, const FleetParams& base)
    : ColumnarFleet(sim, [&base] {
        ColumnarFleetParams p;
        p.base = base;
        return p;
      }()) {}

void ColumnarFleet::Run(KvService& service,
                        std::function<void(const FleetResult&)> done) {
  service_ = &service;
  done_ = std::move(done);
  horizon_ = sim_.Now() + params_.base.run_for;
  gen_.StartAt(sim_.Now());
  seq_.Start(&batch_.at, [this](size_t i) { IssueAt(i); },
             [this] { return Refill(); });
}

size_t ColumnarFleet::Refill() {
  // Refill boundaries are the coalescing points: absorb everything that
  // completed during the previous window before generating the next one.
  DrainTick();
  gen_.FillWindow(batch_, params_.window, horizon_);
  if (batch_.size() == 0) {
    TailTick();
    return 0;
  }
  return batch_.size();
}

void ColumnarFleet::IssueAt(size_t i) {
  ++result_.ops_issued;
  ++pending_;
  const uint64_t key = batch_.key[i];
  const uint64_t tag = batch_.client[i];
  if (!tallies_.empty()) {
    // A million-client tally array is a guaranteed cache miss per op; the
    // next window entries' client ids are already columnar, so start their
    // tally lines toward the core while this op dispatches.
    if (i + 1 < batch_.client.size()) {
      __builtin_prefetch(&tallies_[batch_.client[i + 1]], 1);
    }
    if (i + 2 < batch_.client.size()) {
      __builtin_prefetch(&tallies_[batch_.client[i + 2]], 1);
    }
    ++tallies_[tag].issued;
  }
  if (i + 1 < batch_.key.size()) {
    service_->PrefetchRoute(batch_.key[i + 1]);
  }
  if (batch_.is_read[i] != 0) {
    ++result_.reads_issued;
    service_->GetTagged(key, tag);
  } else {
    ++result_.writes_issued;
    service_->PutTagged(key, tag);
  }
}

void ColumnarFleet::DrainTick() {
  const std::vector<CompletionRecord>& recs = service_->DrainCompletions();
  for (size_t j = 0; j < recs.size(); ++j) {
    const CompletionRecord& r = recs[j];
    if (!tallies_.empty() && j + 8 < recs.size()) {
      // Same trick as IssueAt: completion tags are random client ids, so
      // walk 8 records ahead of the tally updates.
      __builtin_prefetch(&tallies_[recs[j + 8].tag], 1);
    }
    const bool ok = r.outcome == SloOutcome::kAck;
    if (ok) {
      ++result_.ops_ok;
    } else {
      ++result_.ops_failed;
    }
    if (!tallies_.empty()) {
      ClientTally& t = tallies_[r.tag];
      if (ok) {
        ++t.ok;
      } else {
        ++t.failed;
      }
    }
    --pending_;
  }
}

void ColumnarFleet::TailTick() {
  DrainTick();
  if (pending_ == 0 && service_->pending_completions() == 0) {
    Finish();
    return;
  }
  sim_.Schedule(params_.drain_every, [this] { TailTick(); });
}

void ColumnarFleet::Finish() {
  if (!done_) {
    return;
  }
  auto cb = std::move(done_);
  done_ = nullptr;
  cb(result_);
}

uint64_t ColumnarFleet::ClientDigest() const {
  uint64_t h = 14695981039346656037ull;  // FNV-1a offset basis
  const auto fold = [&h](uint64_t v) {
    for (int b = 0; b < 8; ++b) {
      h ^= (v >> (8 * b)) & 0xff;
      h *= 1099511628211ull;
    }
  };
  for (const ClientTally& t : tallies_) {
    fold(static_cast<uint64_t>(t.issued));
    fold(static_cast<uint64_t>(t.ok));
    fold(static_cast<uint64_t>(t.failed));
  }
  return h;
}

}  // namespace fst
