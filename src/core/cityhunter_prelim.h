// Preliminary City-Hunter (paper §III).
//
// MANA plus the two fixes of the preliminary design:
//   1. per-client untried tracking — respond with up to 40 database SSIDs
//      *not yet sent to this client*, so static victims see the whole
//      database over successive scans instead of the same first 40;
//   2. WiGLE seeding — 100 nearby + 200 popular free SSIDs.
// Selection is deliberately unordered (database insertion order): ranking by
// probability of success is the advanced design's contribution, and its
// absence is why this version collapses in the subway passage (Table III).
#pragma once

#include <algorithm>
#include <functional>

#include "core/attacker.h"

namespace cityhunter::core {

class CityHunterPrelim : public Attacker {
 public:
  struct Config {
    Attacker::BaseConfig base;
    double learned_weight = 30.0;
  };

  CityHunterPrelim(medium::Medium& medium, Config cfg)
      : Attacker(medium, cfg.base), cfg_(cfg) {}

 protected:
  void handle_direct_probe_ssid(const std::string& ssid,
                                SimTime now) override {
    db_.add(ssid, cfg_.learned_weight, SsidSource::kDirectProbe, now);
  }

  void on_hit(const ClientRecord&, const std::string& ssid,
              SimTime now) override {
    db_.record_hit(ssid, 0.0, now);
  }

  std::vector<SsidChoice> select_ssids(const ClientRecord& client,
                                       int budget) override {
    refresh_order();
    std::vector<SsidChoice> out;
    out.reserve(static_cast<std::size_t>(budget));
    for (const SsidId id : ordered_) {
      if (out.size() >= static_cast<std::size_t>(budget)) break;
      if (client.sent.contains(id)) continue;
      out.push_back(SsidChoice{id, SelectionTag::kUntriedSweep,
                               db_.record(id).source});
    }
    return out;
  }

 private:
  /// The preliminary design has no notion of ranking: its database is an
  /// unordered set and responses come out in whatever order the container
  /// yields (§III). We model that with a deterministic hash order, which is
  /// as good as random with respect to SSID popularity.
  /// Records are only appended, so each new id is filed once, after the
  /// older ids of an equal hash.
  void refresh_order() {
    const auto hash = [this](SsidId id) {
      return std::hash<std::string>{}(db_.record(id).ssid);
    };
    for (auto id = static_cast<SsidId>(ordered_.size()); id < db_.size();
         ++id) {
      ordered_.insert(std::upper_bound(ordered_.begin(), ordered_.end(),
                                       hash(id),
                                       [&hash](std::size_t h, SsidId b) {
                                         return h < hash(b);
                                       }),
                      id);
    }
  }

  Config cfg_;
  std::vector<SsidId> ordered_;
};

}  // namespace cityhunter::core
