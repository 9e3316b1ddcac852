#include "core/ssid_db.h"

#include <algorithm>

namespace cityhunter::core {

const char* to_string(SsidSource s) {
  switch (s) {
    case SsidSource::kWigleNearby: return "wigle-nearby";
    case SsidSource::kWiglePopular: return "wigle-popular";
    case SsidSource::kDirectProbe: return "direct-probe";
    case SsidSource::kCarrierSeed: return "carrier-seed";
  }
  return "?";
}

namespace {

/// The orders' comparators: weight desc / latest hit desc, then insertion
/// order, which is the id.
struct ByWeight {
  const std::vector<SsidRecord>& r;
  bool operator()(SsidId a, SsidId b) const {
    if (r[a].weight != r[b].weight) return r[a].weight > r[b].weight;
    return a < b;
  }
};
struct ByFreshness {
  const std::vector<SsidRecord>& r;
  bool operator()(SsidId a, SsidId b) const {
    if (*r[a].last_hit != *r[b].last_hit) return *r[a].last_hit > *r[b].last_hit;
    return a < b;
  }
};

/// Insert `id` into the sorted `order` at its place under `before`.
template <typename Before>
void file(std::vector<SsidId>& order, SsidId id, Before before) {
  order.insert(std::lower_bound(order.begin(), order.end(), id, before), id);
}

/// Remove `id`, found under its current key, from the sorted `order`.
template <typename Before>
void unfile(std::vector<SsidId>& order, SsidId id, Before before) {
  const auto it = std::lower_bound(order.begin(), order.end(), id, before);
  if (it != order.end() && *it == id) order.erase(it);
}

}  // namespace

void SsidDatabase::set_weight(SsidId id, double weight) {
  unfile(by_weight_, id, ByWeight{records_});
  records_[id].weight = weight;
  file(by_weight_, id, ByWeight{records_});
}

bool SsidDatabase::add(const std::string& ssid, double weight,
                       SsidSource source, SimTime now) {
  const SsidId existing = id_of(ssid);
  if (existing != kNoSsid) {
    set_weight(existing, std::max(records_[existing].weight, weight));
    return false;
  }
  const auto id = static_cast<SsidId>(records_.size());
  SsidRecord rec;
  rec.ssid = ssid;
  rec.weight = weight;
  rec.source = source;
  rec.added = now;
  index_.emplace(ssid, id);
  records_.push_back(std::move(rec));
  file(by_weight_, id, ByWeight{records_});
  return true;
}

void SsidDatabase::observe_direct(const std::string& ssid,
                                  double initial_weight, double seen_bonus,
                                  SimTime now) {
  const SsidId id = id_of(ssid);
  if (id == kNoSsid) {
    add(ssid, initial_weight, SsidSource::kDirectProbe, now);
    return;
  }
  set_weight(id, records_[id].weight + seen_bonus);
}

void SsidDatabase::record_hit(const std::string& ssid, double hit_bonus,
                              SimTime now) {
  const SsidId id = id_of(ssid);
  if (id == kNoSsid) return;
  SsidRecord& rec = records_[id];
  set_weight(id, rec.weight + hit_bonus);
  ++rec.hits;
  if (rec.last_hit) unfile(by_freshness_, id, ByFreshness{records_});
  rec.last_hit = now;
  file(by_freshness_, id, ByFreshness{records_});
}

const SsidRecord* SsidDatabase::find(const std::string& ssid) const {
  const SsidId id = id_of(ssid);
  return id == kNoSsid ? nullptr : &records_[id];
}

SsidId SsidDatabase::id_of(const std::string& ssid) const {
  const auto it = index_.find(ssid);
  return it == index_.end() ? kNoSsid : it->second;
}

void SsidDatabase::restore(std::vector<SsidRecord> records) {
  records_ = std::move(records);
  index_.clear();
  by_weight_.clear();
  by_freshness_.clear();
  for (SsidId id = 0; id < records_.size(); ++id) {
    index_.emplace(records_[id].ssid, id);
    by_weight_.push_back(id);
    if (records_[id].last_hit) by_freshness_.push_back(id);
  }
  std::sort(by_weight_.begin(), by_weight_.end(), ByWeight{records_});
  std::sort(by_freshness_.begin(), by_freshness_.end(), ByFreshness{records_});
}

std::size_t SsidDatabase::count_from(SsidSource source) const {
  std::size_t n = 0;
  for (const auto& r : records_) {
    if (r.source == source) ++n;
  }
  return n;
}

}  // namespace cityhunter::core
