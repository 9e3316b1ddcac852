// The attacker's SSID database (paper Fig 3, steps 1-2).
//
// Each record carries: the SSID, its weight (initialised from WiGLE rank
// weights, bumped by hits and by re-observations in direct probes), its
// provenance, and its hit history (count + time of latest hit = freshness).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "support/dense_bitset.h"
#include "support/sim_time.h"

namespace cityhunter::core {

using support::SimTime;

enum class SsidSource {
  kWigleNearby,   // among the 100 free APs nearest the attack location
  kWiglePopular,  // among the 200 highest heat-value (or AP-count) SSIDs
  kDirectProbe,   // learned on site from a disclosed PNL
  kCarrierSeed,   // operator hotspot SSIDs added out of band (§V-B)
};

const char* to_string(SsidSource s);

struct SsidRecord {
  std::string ssid;
  double weight = 1.0;
  SsidSource source = SsidSource::kDirectProbe;
  int hits = 0;
  std::optional<SimTime> last_hit;
  SimTime added;
};

/// Dense id of an SSID within one SsidDatabase: its index in records(),
/// which is its insertion order. Ids are stable for the database's lifetime
/// (records are only appended) and survive a checkpoint, which stores
/// records in insertion order.
using SsidId = std::uint32_t;
inline constexpr SsidId kNoSsid = ~SsidId{0};
/// Per-client untried tracking: the ids already offered.
using SsidIdSet = support::DenseBitset;

class SsidDatabase {
 public:
  /// Insert a new SSID or, when present, raise the existing weight to at
  /// least `weight` (a WiGLE re-seed never downgrades a learned SSID).
  /// Returns true when the SSID was new.
  bool add(const std::string& ssid, double weight, SsidSource source,
           SimTime now);

  /// Re-observation bonus: the SSID appeared in a direct probe on site.
  /// Adds the SSID when unknown (initial weight `initial_weight`), else
  /// bumps its weight by `seen_bonus`.
  void observe_direct(const std::string& ssid, double initial_weight,
                      double seen_bonus, SimTime now);

  /// A successful hit through this SSID: weight += `hit_bonus`, hit count
  /// and freshness updated. Unknown SSIDs are ignored.
  void record_hit(const std::string& ssid, double hit_bonus, SimTime now);

  const SsidRecord* find(const std::string& ssid) const;
  /// The SSID's id, kNoSsid when unknown.
  SsidId id_of(const std::string& ssid) const;
  const SsidRecord& record(SsidId id) const { return records_[id]; }
  std::size_t size() const { return records_.size(); }

  /// Every id by descending weight, insertion order (= id) breaking ties.
  /// Maintained in place by every mutation (no re-sort per read).
  const std::vector<SsidId>& by_weight() const { return by_weight_; }

  /// Ids with at least one hit, most recent hit first, insertion order
  /// breaking ties. Maintained in place like by_weight().
  const std::vector<SsidId>& by_freshness() const { return by_freshness_; }

  std::size_t count_from(SsidSource source) const;

  /// Insertion-ordered backing records (index == SsidId) — the database's
  /// full state, used by the campaign checkpoint (sim/checkpoint) to
  /// serialize it verbatim.
  const std::vector<SsidRecord>& records() const { return records_; }

  /// Rebuild the database from checkpointed records (must be in insertion
  /// order, no NaN weight). The index and both orders are reconstructed so
  /// that subsequent add()/record_hit() behaviour is bit-identical to the
  /// database the records came from.
  void restore(std::vector<SsidRecord> records);

 private:
  /// Set `id`'s weight and re-file it in by_weight_.
  void set_weight(SsidId id, double weight);

  std::vector<SsidRecord> records_;
  std::unordered_map<std::string, SsidId> index_;
  std::vector<SsidId> by_weight_;
  std::vector<SsidId> by_freshness_;
};

}  // namespace cityhunter::core
