#include "core/buffers.h"

#include <algorithm>

namespace cityhunter::core {

BufferSelector::BufferSelector(BufferSelectorConfig cfg, support::Rng rng)
    : cfg_(cfg), rng_(std::move(rng)), pb_size_(cfg.initial_pb_size) {
  pb_size_ = std::clamp(pb_size_, cfg_.min_buffer_size,
                        cfg_.budget - cfg_.min_buffer_size);
}

void BufferSelector::collect(const std::vector<SsidId>& ranked,
                             std::size_t want, const SsidIdSet* already_sent,
                             std::vector<SsidId>& out) {
  out.clear();
  for (const SsidId id : ranked) {
    if (out.size() >= want) break;
    if (used_[id] == epoch_) continue;
    if (already_sent != nullptr && already_sent->contains(id)) continue;
    out.push_back(id);
  }
}

void BufferSelector::emit_buffer(const SsidDatabase& db,
                                 const std::vector<SsidId>& cands,
                                 std::size_t main_size, SelectionTag main_tag,
                                 SelectionTag ghost_tag,
                                 std::vector<SsidChoice>& out) {
  // cands = [main | ghosts]: the buffer, then its ghost list.
  const std::size_t n_main = std::min(main_size, cands.size());
  const std::size_t n_ghosts = cands.size() - n_main;
  std::size_t picks = 0;
  if (cfg_.use_ghosts) {
    picks = std::min({static_cast<std::size_t>(cfg_.ghost_picks), n_ghosts,
                      n_main});
  }
  const auto emit = [&](SsidId id, SelectionTag tag) {
    chosen_[id] = epoch_;
    out.push_back(SsidChoice{id, tag, db.record(id).source});
  };
  // Replace the lowest-ranked `picks` of the buffer with random ghosts.
  for (std::size_t i = 0; i + picks < n_main; ++i) emit(cands[i], main_tag);
  if (picks > 0) {
    for (const auto i : rng_.sample_indices(n_ghosts, picks)) {
      emit(cands[n_main + i], ghost_tag);
    }
  }
  for (const SsidId id : cands) used_[id] = epoch_;
}

std::vector<SsidChoice> BufferSelector::select(const SsidDatabase& db,
                                               const SsidIdSet* already_sent) {
  const auto budget = static_cast<std::size_t>(cfg_.budget);
  std::vector<SsidChoice> out;
  out.reserve(budget);
  ++epoch_;
  used_.resize(db.size(), 0);
  chosen_.resize(db.size(), 0);

  // Popularity buffer first: an SSID that is both popular and fresh belongs
  // to (and is attributed to) PB; FB captures the fresh-but-not-popular
  // tail — the companion effect the paper's freshness mechanism targets.
  const auto pb_target = cfg_.use_freshness
                             ? static_cast<std::size_t>(pb_size())
                             : budget;
  collect(db.by_weight(),
          pb_target + static_cast<std::size_t>(cfg_.ghost_size), already_sent,
          cands_);
  emit_buffer(db, cands_, pb_target, SelectionTag::kPopularity,
              SelectionTag::kPopularityGhost, out);

  // Freshness buffer fills the remaining budget (all of it when the
  // popularity side ran out of untried SSIDs).
  if (cfg_.use_freshness && out.size() < budget) {
    const std::size_t fresh_want = budget - out.size();
    collect(db.by_freshness(),
            fresh_want + static_cast<std::size_t>(cfg_.ghost_size),
            already_sent, cands_);
    emit_buffer(db, cands_, fresh_want, SelectionTag::kFreshness,
                SelectionTag::kFreshnessGhost, out);
  }

  // Early in a deployment few SSIDs have hit yet: backfill any freshness
  // deficit with more popularity candidates rather than waste budget.
  for (const SsidId id : db.by_weight()) {
    if (out.size() >= budget) break;
    if (chosen_[id] == epoch_) continue;
    if (already_sent != nullptr && already_sent->contains(id)) continue;
    out.push_back(
        SsidChoice{id, SelectionTag::kPopularity, db.record(id).source});
  }
  return out;
}

void BufferSelector::notify_hit(SelectionTag tag) {
  if (!cfg_.adaptive) return;
  const int lo = cfg_.min_buffer_size;
  const int hi = cfg_.budget - cfg_.min_buffer_size;
  if (tag == SelectionTag::kPopularityGhost) {
    if (pb_size_ < hi) {
      ++pb_size_;
      ++pb_grows_;
    }
  } else if (tag == SelectionTag::kFreshnessGhost) {
    if (pb_size_ > lo) {
      --pb_size_;
      ++pb_shrinks_;
    }
  }
}

}  // namespace cityhunter::core
