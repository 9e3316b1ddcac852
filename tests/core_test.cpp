#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <unordered_set>

#include "client/smartphone.h"
#include "core/buffers.h"
#include "core/cityhunter.h"
#include "core/cityhunter_prelim.h"
#include "core/deauth.h"
#include "core/karma.h"
#include "core/mana.h"
#include "core/ssid_db.h"
#include "core/wigle_seed.h"
#include "support/rng.h"

namespace cityhunter::core {
namespace {

using dot11::MacAddress;
using support::Rng;
using support::SimTime;

// --- SsidDatabase ---

TEST(SsidDatabase, AddAndFind) {
  SsidDatabase db;
  EXPECT_TRUE(db.add("a", 10, SsidSource::kWiglePopular, SimTime::zero()));
  EXPECT_FALSE(db.add("a", 5, SsidSource::kDirectProbe, SimTime::zero()));
  EXPECT_EQ(db.size(), 1u);
  const auto* rec = db.find("a");
  ASSERT_NE(rec, nullptr);
  EXPECT_DOUBLE_EQ(rec->weight, 10.0);  // re-add never downgrades
  EXPECT_EQ(rec->source, SsidSource::kWiglePopular);
  EXPECT_EQ(db.find("zz"), nullptr);
}

TEST(SsidDatabase, ReAddRaisesWeight) {
  SsidDatabase db;
  db.add("a", 5, SsidSource::kDirectProbe, SimTime::zero());
  db.add("a", 50, SsidSource::kWiglePopular, SimTime::zero());
  EXPECT_DOUBLE_EQ(db.find("a")->weight, 50.0);
  // Source stays as first recorded.
  EXPECT_EQ(db.find("a")->source, SsidSource::kDirectProbe);
}

TEST(SsidDatabase, ObserveDirectAddsOrBumps) {
  SsidDatabase db;
  db.observe_direct("new", 60, 15, SimTime::zero());
  EXPECT_DOUBLE_EQ(db.find("new")->weight, 60.0);
  db.observe_direct("new", 60, 15, SimTime::zero());
  EXPECT_DOUBLE_EQ(db.find("new")->weight, 75.0);
}

TEST(SsidDatabase, RecordHitUpdatesEverything) {
  SsidDatabase db;
  db.add("a", 10, SsidSource::kWigleNearby, SimTime::zero());
  db.record_hit("a", 8, SimTime::seconds(30));
  const auto* rec = db.find("a");
  EXPECT_DOUBLE_EQ(rec->weight, 18.0);
  EXPECT_EQ(rec->hits, 1);
  ASSERT_TRUE(rec->last_hit.has_value());
  EXPECT_EQ(*rec->last_hit, SimTime::seconds(30));
  // Hits on unknown SSIDs are ignored, not crashes.
  db.record_hit("unknown", 8, SimTime::seconds(31));
  EXPECT_EQ(db.size(), 1u);
}

TEST(SsidDatabase, ByWeightOrdering) {
  SsidDatabase db;
  db.add("low", 1, SsidSource::kDirectProbe, SimTime::zero());
  db.add("high", 100, SsidSource::kWiglePopular, SimTime::zero());
  db.add("mid", 50, SsidSource::kWigleNearby, SimTime::zero());
  const auto& v = db.by_weight();
  ASSERT_EQ(v.size(), 3u);
  EXPECT_EQ(db.record(v[0]).ssid, "high");
  EXPECT_EQ(db.record(v[1]).ssid, "mid");
  EXPECT_EQ(db.record(v[2]).ssid, "low");
}

TEST(SsidDatabase, ByWeightTieBreaksByInsertion) {
  SsidDatabase db;
  db.add("first", 10, SsidSource::kDirectProbe, SimTime::zero());
  db.add("second", 10, SsidSource::kDirectProbe, SimTime::zero());
  const auto& v = db.by_weight();
  EXPECT_EQ(db.record(v[0]).ssid, "first");
  EXPECT_EQ(db.record(v[1]).ssid, "second");
}

TEST(SsidDatabase, ByFreshnessOnlyHitRecordsMostRecentFirst) {
  SsidDatabase db;
  db.add("never-hit", 100, SsidSource::kWiglePopular, SimTime::zero());
  db.add("old-hit", 1, SsidSource::kDirectProbe, SimTime::zero());
  db.add("new-hit", 1, SsidSource::kDirectProbe, SimTime::zero());
  db.record_hit("old-hit", 0, SimTime::seconds(10));
  db.record_hit("new-hit", 0, SimTime::seconds(20));
  const auto& v = db.by_freshness();
  ASSERT_EQ(v.size(), 2u);
  EXPECT_EQ(db.record(v[0]).ssid, "new-hit");
  EXPECT_EQ(db.record(v[1]).ssid, "old-hit");
}

TEST(SsidDatabase, CountFromSource) {
  SsidDatabase db;
  db.add("a", 1, SsidSource::kWiglePopular, SimTime::zero());
  db.add("b", 1, SsidSource::kWiglePopular, SimTime::zero());
  db.add("c", 1, SsidSource::kDirectProbe, SimTime::zero());
  EXPECT_EQ(db.count_from(SsidSource::kWiglePopular), 2u);
  EXPECT_EQ(db.count_from(SsidSource::kDirectProbe), 1u);
  EXPECT_EQ(db.count_from(SsidSource::kCarrierSeed), 0u);
}

// The orders as a full sort computes them (the comparators by_weight() and
// by_freshness() used to re-sort with on every read).
std::vector<SsidId> sorted_by_weight(const SsidDatabase& db) {
  std::vector<SsidId> out(db.size());
  for (SsidId id = 0; id < out.size(); ++id) out[id] = id;
  std::sort(out.begin(), out.end(), [&db](SsidId a, SsidId b) {
    const auto& x = db.record(a);
    const auto& y = db.record(b);
    if (x.weight != y.weight) return x.weight > y.weight;
    return a < b;  // insertion order
  });
  return out;
}

std::vector<SsidId> sorted_by_freshness(const SsidDatabase& db) {
  std::vector<SsidId> out;
  for (SsidId id = 0; id < db.size(); ++id) {
    if (db.record(id).last_hit) out.push_back(id);
  }
  std::sort(out.begin(), out.end(), [&db](SsidId a, SsidId b) {
    const auto& x = db.record(a);
    const auto& y = db.record(b);
    if (*x.last_hit != *y.last_hit) return *x.last_hit > *y.last_hit;
    return a < b;  // insertion order
  });
  return out;
}

TEST(SsidDatabase, MaintainedOrdersMatchFullSortUnderRandomMutation) {
  Rng rng(0x5D1D);
  SsidDatabase db;
  // Few distinct names, integer weights and coarse times: plenty of ties
  // on both keys, re-adds, and hits that move records both ways.
  const auto name = [&rng] { return "s" + std::to_string(rng.index(120)); };
  for (int op = 0; op < 4000; ++op) {
    switch (rng.index(8)) {
      case 0:
      case 1:
      case 2:
        db.add(name(), static_cast<double>(rng.uniform_int(0, 20)),
               SsidSource::kWiglePopular, SimTime::zero());
        break;
      case 3:
      case 4:
        db.observe_direct(name(), static_cast<double>(rng.uniform_int(0, 20)),
                          static_cast<double>(rng.uniform_int(-3, 5)),
                          SimTime::zero());
        break;
      case 5:
      case 6:
        db.record_hit(name(), static_cast<double>(rng.uniform_int(-2, 4)),
                      SimTime::seconds(rng.uniform_int(0, 30)));
        break;
      default: {
        SsidDatabase copy;
        copy.restore(db.records());
        db = copy;
        break;
      }
    }
    ASSERT_EQ(db.by_weight(), sorted_by_weight(db)) << "op " << op;
    ASSERT_EQ(db.by_freshness(), sorted_by_freshness(db)) << "op " << op;
  }
  EXPECT_GT(db.by_freshness().size(), 10u);
}

// --- BufferSelector ---

SsidDatabase weighted_db(int n) {
  SsidDatabase db;
  for (int i = 0; i < n; ++i) {
    db.add("pop-" + std::to_string(i), static_cast<double>(n - i),
           SsidSource::kWiglePopular, SimTime::zero());
  }
  return db;
}

TEST(BufferSelector, FillsBudgetFromPopularityWhenNothingFresh) {
  auto db = weighted_db(100);
  BufferSelectorConfig cfg;
  BufferSelector sel(cfg, Rng(1));
  const auto choices = sel.select(db, nullptr);
  EXPECT_EQ(choices.size(), 40u);
  // Highest-weight SSIDs come first (modulo the ghost swap at the tail).
  EXPECT_EQ(db.record(choices[0].id).ssid, "pop-0");
  EXPECT_EQ(choices[0].tag, SelectionTag::kPopularity);
}

TEST(BufferSelector, GhostPicksComeFromBeyondTheBuffer) {
  auto db = weighted_db(100);
  BufferSelectorConfig cfg;
  cfg.use_freshness = false;  // single-buffer: budget = 40, 2 ghost picks
  BufferSelector sel(cfg, Rng(2));
  const auto choices = sel.select(db, nullptr);
  ASSERT_EQ(choices.size(), 40u);
  int ghost_count = 0;
  for (const auto& c : choices) {
    if (c.tag == SelectionTag::kPopularityGhost) {
      ++ghost_count;
      // Ghost candidates are ranks 39..58 (0-based): beyond the main 38.
      const int rank = std::stoi(db.record(c.id).ssid.substr(4));
      EXPECT_GE(rank, 38);
      EXPECT_LT(rank, 58);
    }
  }
  EXPECT_EQ(ghost_count, 2);
}

TEST(BufferSelector, NoGhostsWhenDisabled) {
  auto db = weighted_db(100);
  BufferSelectorConfig cfg;
  cfg.use_ghosts = false;
  BufferSelector sel(cfg, Rng(3));
  for (const auto& c :
       sel.select(db, nullptr)) {
    EXPECT_NE(c.tag, SelectionTag::kPopularityGhost);
    EXPECT_NE(c.tag, SelectionTag::kFreshnessGhost);
  }
}

TEST(BufferSelector, FreshEntriesFillTheFreshnessBuffer) {
  auto db = weighted_db(100);
  // Make some low-weight SSIDs fresh.
  for (int i = 90; i < 99; ++i) {
    db.record_hit("pop-" + std::to_string(i), 0.0, SimTime::seconds(i));
  }
  BufferSelectorConfig cfg;
  cfg.initial_pb_size = 32;  // FB = 8
  BufferSelector sel(cfg, Rng(4));
  const auto choices = sel.select(db, nullptr);
  EXPECT_EQ(choices.size(), 40u);
  int fresh = 0;
  for (const auto& c : choices) {
    if (c.tag == SelectionTag::kFreshness ||
        c.tag == SelectionTag::kFreshnessGhost) {
      ++fresh;
    }
  }
  EXPECT_GE(fresh, 6);
  EXPECT_LE(fresh, 8);
}

TEST(BufferSelector, NoDuplicateSsidsInOneSelection) {
  auto db = weighted_db(60);
  for (int i = 0; i < 30; ++i) {
    db.record_hit("pop-" + std::to_string(i), 0.0, SimTime::seconds(i));
  }
  BufferSelector sel(BufferSelectorConfig{}, Rng(5));
  const auto choices = sel.select(db, nullptr);
  std::set<std::string> seen;
  for (const auto& c : choices) {
    const std::string& ssid = db.record(c.id).ssid;
    EXPECT_TRUE(seen.insert(ssid).second) << "duplicate " << ssid;
  }
}

TEST(BufferSelector, UntriedFilterSkipsSentSsids) {
  auto db = weighted_db(100);
  SsidIdSet sent;
  for (int i = 0; i < 40; ++i) sent.insert(db.id_of("pop-" + std::to_string(i)));
  BufferSelector sel(BufferSelectorConfig{}, Rng(6));
  const auto choices = sel.select(db, &sent);
  for (const auto& c : choices) {
    EXPECT_FALSE(sent.contains(c.id)) << db.record(c.id).ssid;
  }
  EXPECT_EQ(choices.size(), 40u);  // ranks 40..99 remain
}

TEST(BufferSelector, ExhaustedDatabaseYieldsShortSelection) {
  auto db = weighted_db(25);
  SsidIdSet sent;
  for (int i = 0; i < 20; ++i) sent.insert(db.id_of("pop-" + std::to_string(i)));
  BufferSelector sel(BufferSelectorConfig{}, Rng(7));
  const auto choices = sel.select(db, &sent);
  EXPECT_EQ(choices.size(), 5u);
}

// The string-set selector the id-based one replaced, verbatim apart from
// its choice type: the single oracle for selection equivalence.
struct OracleChoice {
  std::string ssid;
  SelectionTag tag;
  SsidSource source;
};

class OracleSelector {
 public:
  OracleSelector(BufferSelectorConfig cfg, support::Rng rng)
      : cfg_(cfg), rng_(std::move(rng)), pb_size_(cfg.initial_pb_size) {
    pb_size_ = std::clamp(pb_size_, cfg_.min_buffer_size,
                          cfg_.budget - cfg_.min_buffer_size);
  }
  int pb_size() const { return pb_size_; }
  void set_pb_size(int pb) { pb_size_ = pb; }

  static std::vector<const SsidRecord*> collect(
      const std::vector<const SsidRecord*>& ranked, std::size_t want,
      const std::unordered_set<std::string>* already_sent,
      const std::unordered_set<const SsidRecord*>& used) {
    std::vector<const SsidRecord*> out;
    out.reserve(want);
    for (const auto* rec : ranked) {
      if (out.size() >= want) break;
      if (used.count(rec) != 0) continue;
      if (already_sent != nullptr && already_sent->count(rec->ssid) != 0) {
        continue;
      }
      out.push_back(rec);
    }
    return out;
  }

  void emit_buffer(const std::vector<const SsidRecord*>& candidates,
                   std::size_t main_size, SelectionTag main_tag,
                   SelectionTag ghost_tag, std::vector<OracleChoice>& out) {
    std::vector<const SsidRecord*> main(
        candidates.begin(),
        candidates.begin() + static_cast<long>(
                                 std::min(main_size, candidates.size())));
    std::vector<const SsidRecord*> ghosts(
        candidates.begin() + static_cast<long>(main.size()), candidates.end());

    std::size_t picks = 0;
    if (cfg_.use_ghosts) {
      picks = std::min({static_cast<std::size_t>(cfg_.ghost_picks),
                        ghosts.size(), main.size()});
    }
    main.resize(main.size() - picks);
    for (const auto* rec : main) {
      out.push_back(OracleChoice{rec->ssid, main_tag, rec->source});
    }
    if (picks > 0) {
      const auto idx = rng_.sample_indices(ghosts.size(), picks);
      for (const auto i : idx) {
        out.push_back(
            OracleChoice{ghosts[i]->ssid, ghost_tag, ghosts[i]->source});
      }
    }
  }

  std::vector<OracleChoice> select(
      const std::vector<const SsidRecord*>& by_weight,
      const std::vector<const SsidRecord*>& by_freshness,
      const std::unordered_set<std::string>* already_sent) {
    const auto budget = static_cast<std::size_t>(cfg_.budget);
    std::vector<OracleChoice> out;
    out.reserve(budget);
    std::unordered_set<const SsidRecord*> used;
    const auto pb_target = cfg_.use_freshness
                               ? static_cast<std::size_t>(pb_size())
                               : budget;
    const auto p_cands = collect(
        by_weight, pb_target + static_cast<std::size_t>(cfg_.ghost_size),
        already_sent, used);
    emit_buffer(p_cands, std::min(pb_target, p_cands.size()),
                SelectionTag::kPopularity, SelectionTag::kPopularityGhost, out);
    for (const auto* rec : p_cands) used.insert(rec);
    if (cfg_.use_freshness && out.size() < budget) {
      const std::size_t fresh_want = budget - out.size();
      const auto f_cands = collect(
          by_freshness, fresh_want + static_cast<std::size_t>(cfg_.ghost_size),
          already_sent, used);
      emit_buffer(f_cands, std::min(fresh_want, f_cands.size()),
                  SelectionTag::kFreshness, SelectionTag::kFreshnessGhost, out);
      for (const auto* rec : f_cands) used.insert(rec);
    }
    if (out.size() < budget) {
      std::unordered_set<std::string> chosen;
      for (const auto& c : out) chosen.insert(c.ssid);
      for (const auto* rec : by_weight) {
        if (out.size() >= budget) break;
        if (chosen.count(rec->ssid) != 0) continue;
        if (already_sent != nullptr && already_sent->count(rec->ssid) != 0) {
          continue;
        }
        out.push_back(
            OracleChoice{rec->ssid, SelectionTag::kPopularity, rec->source});
      }
    }
    return out;
  }

 private:
  BufferSelectorConfig cfg_;
  support::Rng rng_;
  int pb_size_;
};

std::vector<const SsidRecord*> pointers(const SsidDatabase& db,
                                        const std::vector<SsidId>& ids) {
  std::vector<const SsidRecord*> out;
  for (const SsidId id : ids) out.push_back(&db.record(id));
  return out;
}

TEST(BufferSelector, MatchesStringSetOracleOnRandomDatabases) {
  Rng rng(0xB0FF);
  for (int trial = 0; trial < 300; ++trial) {
    SCOPED_TRACE(trial);
    SsidDatabase db;
    const int n = static_cast<int>(rng.index(260));
    for (int i = 0; i < n; ++i) {
      db.add("n" + std::to_string(rng.index(400)),
             static_cast<double>(rng.uniform_int(1, 60)),
             static_cast<SsidSource>(rng.index(4)), SimTime::zero());
    }
    const int hits = static_cast<int>(rng.index(60));
    for (int i = 0; i < hits; ++i) {
      db.record_hit("n" + std::to_string(rng.index(400)), 8.0,
                    SimTime::seconds(rng.uniform_int(0, 20)));
    }
    BufferSelectorConfig cfg;
    cfg.budget = static_cast<int>(rng.uniform_int(8, 60));
    cfg.initial_pb_size = static_cast<int>(rng.uniform_int(0, cfg.budget));
    cfg.ghost_size = static_cast<int>(rng.uniform_int(0, 30));
    cfg.ghost_picks = static_cast<int>(rng.uniform_int(0, 6));
    cfg.use_freshness = rng.chance(0.8);
    cfg.use_ghosts = rng.chance(0.8);
    const bool track = rng.chance(0.8);
    const std::uint64_t seed = rng.next_u64();
    BufferSelector sel(cfg, Rng(seed));
    OracleSelector oracle(cfg, Rng(seed));
    const auto by_weight = pointers(db, db.by_weight());
    const auto by_fresh = pointers(db, db.by_freshness());
    SsidIdSet sent;
    std::unordered_set<std::string> sent_names;
    // Successive scans of one client: each train joins its sent set.
    for (int scan = 0; scan < 4; ++scan) {
      const auto got = sel.select(db, track ? &sent : nullptr);
      const auto want =
          oracle.select(by_weight, by_fresh, track ? &sent_names : nullptr);
      ASSERT_EQ(got.size(), want.size()) << "scan " << scan;
      for (std::size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(db.record(got[i].id).ssid, want[i].ssid) << i;
        EXPECT_EQ(got[i].tag, want[i].tag) << i;
        EXPECT_EQ(got[i].source, want[i].source) << i;
        sent.insert(got[i].id);
        sent_names.insert(want[i].ssid);
      }
      // Ghost feedback moves both selectors' split the same way.
      if (!got.empty()) {
        sel.notify_hit(got.back().tag);
        oracle.set_pb_size(sel.pb_size());
      }
    }
  }
}

TEST(BufferSelector, AdaptationGrowsAndShrinksPb) {
  BufferSelectorConfig cfg;
  cfg.initial_pb_size = 20;
  BufferSelector sel(cfg, Rng(8));
  const int pb0 = sel.pb_size();
  sel.notify_hit(SelectionTag::kPopularityGhost);
  EXPECT_EQ(sel.pb_size(), pb0 + 1);
  sel.notify_hit(SelectionTag::kFreshnessGhost);
  sel.notify_hit(SelectionTag::kFreshnessGhost);
  EXPECT_EQ(sel.pb_size(), pb0 - 1);
  // Non-ghost tags do nothing.
  sel.notify_hit(SelectionTag::kPopularity);
  sel.notify_hit(SelectionTag::kFreshness);
  EXPECT_EQ(sel.pb_size(), pb0 - 1);
  EXPECT_EQ(sel.fb_size(), cfg.budget - sel.pb_size());
}

TEST(BufferSelector, AdaptationClampsAtMinBufferSize) {
  BufferSelectorConfig cfg;
  cfg.min_buffer_size = 2;
  BufferSelector sel(cfg, Rng(9));
  for (int i = 0; i < 100; ++i) sel.notify_hit(SelectionTag::kPopularityGhost);
  EXPECT_EQ(sel.pb_size(), cfg.budget - 2);
  for (int i = 0; i < 200; ++i) sel.notify_hit(SelectionTag::kFreshnessGhost);
  EXPECT_EQ(sel.pb_size(), 2);
}

TEST(BufferSelector, AdaptationDisabledIsFrozen) {
  BufferSelectorConfig cfg;
  cfg.adaptive = false;
  cfg.initial_pb_size = 30;
  BufferSelector sel(cfg, Rng(10));
  for (int i = 0; i < 50; ++i) sel.notify_hit(SelectionTag::kFreshnessGhost);
  EXPECT_EQ(sel.pb_size(), 30);
}

// --- WiGLE seeding ---

TEST(WigleSeed, SeedsNearbyAndPopularWithRankWeights) {
  std::vector<world::AccessPointInfo> recs;
  auto mk = [&](const std::string& ssid, double x, int copies) {
    for (int i = 0; i < copies; ++i) {
      world::AccessPointInfo ap;
      ap.ssid = ssid;
      ap.pos = {x, 0};
      ap.open = true;
      recs.push_back(ap);
    }
  };
  mk("huge-chain", 5000, 50);
  mk("mid-chain", 5000, 10);
  mk("local-cafe", 5, 1);
  const auto wigle = world::WigleDb::from_records(recs);

  SsidDatabase db;
  WigleSeedConfig cfg;
  cfg.nearby_count = 2;
  cfg.popular_count = 2;
  cfg.ranking = PopularRanking::kApCount;
  seed_from_wigle(db, wigle, nullptr, {0, 0}, cfg, SimTime::zero());

  // Popular: huge-chain (weight 2), mid-chain (weight 1).
  ASSERT_NE(db.find("huge-chain"), nullptr);
  EXPECT_DOUBLE_EQ(db.find("huge-chain")->weight, 2.0);
  EXPECT_EQ(db.find("huge-chain")->source, SsidSource::kWiglePopular);
  // Nearby: local-cafe nearest (weight 2).
  ASSERT_NE(db.find("local-cafe"), nullptr);
  EXPECT_DOUBLE_EQ(db.find("local-cafe")->weight, 2.0);
  EXPECT_EQ(db.find("local-cafe")->source, SsidSource::kWigleNearby);
}

TEST(WigleSeed, HeatRankingRequiresHeatMap) {
  const auto wigle = world::WigleDb::from_records({});
  SsidDatabase db;
  WigleSeedConfig cfg;
  cfg.ranking = PopularRanking::kHeat;
  EXPECT_THROW(
      seed_from_wigle(db, wigle, nullptr, {0, 0}, cfg, SimTime::zero()),
      std::invalid_argument);
}

TEST(WigleSeed, CarrierSeedAddsWithGivenWeight) {
  SsidDatabase db;
  seed_carrier_ssids(db, {"PCCW1x", "Y5ZONE"}, 200.0, SimTime::zero());
  EXPECT_EQ(db.size(), 2u);
  EXPECT_DOUBLE_EQ(db.find("PCCW1x")->weight, 200.0);
  EXPECT_EQ(db.find("PCCW1x")->source, SsidSource::kCarrierSeed);
}

// --- Attackers against real smartphones ---

class AttackerTest : public ::testing::Test {
 protected:
  AttackerTest() : medium_(events_) {
    base_.bssid = *MacAddress::parse("0a:00:00:00:00:77");
    base_.pos = {0, 0};
  }

  world::Person person(std::uint64_t id, bool direct,
                       std::vector<world::PnlEntry> pnl) {
    world::Person p;
    p.id = id;
    p.sends_direct_probes = direct;
    p.pnl = std::move(pnl);
    return p;
  }

  client::SmartphoneConfig phone_cfg() {
    client::SmartphoneConfig cfg;
    cfg.mean_scan_interval = SimTime::seconds(20);
    cfg.first_scan_delay_max = SimTime::seconds(1);
    return cfg;
  }

  medium::EventQueue events_;
  medium::Medium medium_;
  Attacker::BaseConfig base_;
  Rng rng_{42};
};

TEST_F(AttackerTest, KarmaLuresDirectProberWithOpenEntry) {
  KarmaAttacker karma(medium_, base_);
  karma.start();
  client::Smartphone victim(
      person(1, true, {{"OpenCafe", true, world::PnlOrigin::kPublicVisit}}),
      medium_, {5, 0}, phone_cfg(), rng_.fork("v"));
  victim.start();
  events_.run_until(SimTime::seconds(30));
  EXPECT_TRUE(victim.connected_to_attacker());
  EXPECT_EQ(karma.clients_connected(), 1u);
  const auto& rec = karma.clients().begin()->second;
  EXPECT_TRUE(rec.direct_prober);
  EXPECT_EQ(rec.hit_ssid, "OpenCafe");
  ASSERT_TRUE(rec.hit_choice.has_value());
  EXPECT_EQ(rec.hit_choice->tag, SelectionTag::kDirectReply);
}

TEST_F(AttackerTest, KarmaCannotLureBroadcastClients) {
  KarmaAttacker karma(medium_, base_);
  karma.start();
  client::Smartphone victim(
      person(2, false, {{"OpenCafe", true, world::PnlOrigin::kPublicVisit}}),
      medium_, {5, 0}, phone_cfg(), rng_.fork("v"));
  victim.start();
  events_.run_until(SimTime::minutes(3));
  EXPECT_FALSE(victim.connected_to_attacker());
  EXPECT_EQ(karma.clients_connected(), 0u);
  EXPECT_EQ(karma.clients_seen(), 1u);  // probes were recorded
}

TEST_F(AttackerTest, ManaLearnsFromDirectAndReplaysToBroadcast) {
  ManaAttacker::Config cfg;
  cfg.base = base_;
  ManaAttacker mana(medium_, cfg);
  mana.start();

  // The discloser leaks 'SharedNet'; it cannot join (entry protected).
  client::Smartphone discloser(
      person(3, true, {{"SharedNet", false, world::PnlOrigin::kHome}}),
      medium_, {5, 0}, phone_cfg(), rng_.fork("d"));
  discloser.start();
  events_.run_until(SimTime::seconds(15));
  EXPECT_EQ(mana.database().size(), 1u);
  ASSERT_NE(mana.database().find("SharedNet"), nullptr);

  // A broadcast-only victim that stored SharedNet as open gets hit.
  client::Smartphone victim(
      person(4, false, {{"SharedNet", true, world::PnlOrigin::kPublicVisit}}),
      medium_, {6, 0}, phone_cfg(), rng_.fork("v"));
  victim.start();
  events_.run_until(SimTime::minutes(2));
  EXPECT_TRUE(victim.connected_to_attacker());
  const auto& rec = mana.clients().at(victim.mac());
  ASSERT_TRUE(rec.hit_choice.has_value());
  EXPECT_EQ(rec.hit_choice->tag, SelectionTag::kPlainDump);
  EXPECT_EQ(rec.hit_choice->source, SsidSource::kDirectProbe);
}

TEST_F(AttackerTest, ManaRepeatsTheSameHeadOfDatabase) {
  ManaAttacker::Config cfg;
  cfg.base = base_;
  ManaAttacker mana(medium_, cfg);
  mana.start();
  // Fill the database with 80 junk SSIDs via add().
  for (int i = 0; i < 80; ++i) {
    mana.database().add("junk-" + std::to_string(i), 1.0,
                        SsidSource::kDirectProbe, SimTime::zero());
  }
  // Victim stores junk-60 (beyond the 40-response budget): never reached,
  // no matter how many times it scans.
  client::Smartphone victim(
      person(5, false, {{"junk-60", true, world::PnlOrigin::kPublicVisit}}),
      medium_, {5, 0}, phone_cfg(), rng_.fork("v"));
  victim.start();
  events_.run_until(SimTime::minutes(5));
  EXPECT_FALSE(victim.connected_to_attacker());
  // Whereas a victim of junk-10 connects on the first scan.
  client::Smartphone easy(
      person(6, false, {{"junk-10", true, world::PnlOrigin::kPublicVisit}}),
      medium_, {6, 0}, phone_cfg(), rng_.fork("e"));
  easy.start();
  events_.run_until(SimTime::minutes(7));
  EXPECT_TRUE(easy.connected_to_attacker());
}

TEST_F(AttackerTest, PrelimUntriedSweepEventuallyReachesDeepSsids) {
  CityHunterPrelim::Config cfg;
  cfg.base = base_;
  CityHunterPrelim prelim(medium_, cfg);
  prelim.start();
  for (int i = 0; i < 80; ++i) {
    prelim.database().add("db-" + std::to_string(i), 1.0,
                          SsidSource::kWiglePopular, SimTime::zero());
  }
  // Wherever 'db-60' lands in the hash order, two scans (80 SSIDs) cover
  // the whole 80-entry database.
  client::Smartphone victim(
      person(7, false, {{"db-60", true, world::PnlOrigin::kPublicVisit}}),
      medium_, {5, 0}, phone_cfg(), rng_.fork("v"));
  victim.start();
  // A bystander with no matching PNL keeps scanning: its untried sweep must
  // cover the entire 80-entry database across two scans.
  client::Smartphone bystander(person(70, false, {}), medium_, {6, 0},
                               phone_cfg(), rng_.fork("b"));
  bystander.start();
  events_.run_until(SimTime::minutes(3));
  EXPECT_TRUE(victim.connected_to_attacker());
  const auto& rec = prelim.clients().at(victim.mac());
  EXPECT_EQ(rec.hit_choice->tag, SelectionTag::kUntriedSweep);
  EXPECT_EQ(prelim.clients().at(bystander.mac()).ssids_sent, 80);
}

TEST_F(AttackerTest, CityHunterRanksByWeightAndRecordsHit) {
  CityHunter::Config cfg;
  cfg.base = base_;
  CityHunter hunter(medium_, cfg, rng_.fork("h"));
  hunter.start();
  for (int i = 0; i < 200; ++i) {
    hunter.database().add("w-" + std::to_string(i),
                          static_cast<double>(200 - i),
                          SsidSource::kWiglePopular, SimTime::zero());
  }
  // Victim knows the top-weight SSID: hit on the very first scan.
  client::Smartphone victim(
      person(8, false, {{"w-0", true, world::PnlOrigin::kPublicVisit}}),
      medium_, {5, 0}, phone_cfg(), rng_.fork("v"));
  victim.start();
  events_.run_until(SimTime::seconds(20));
  EXPECT_TRUE(victim.connected_to_attacker());
  const auto& rec = hunter.clients().at(victim.mac());
  EXPECT_LE(rec.ssids_sent, 40);
  EXPECT_EQ(rec.hit_choice->tag, SelectionTag::kPopularity);
  // The hit bumped the database record.
  EXPECT_EQ(hunter.database().find("w-0")->hits, 1);
  EXPECT_TRUE(hunter.database().find("w-0")->last_hit.has_value());
}

TEST_F(AttackerTest, CityHunterFreshnessReachesCompanions) {
  CityHunter::Config cfg;
  cfg.base = base_;
  CityHunter hunter(medium_, cfg, rng_.fork("h"));
  hunter.start();
  // 500 popular decoys, plus one mid-tail SSID at the bottom.
  for (int i = 0; i < 500; ++i) {
    hunter.database().add("decoy-" + std::to_string(i),
                          static_cast<double>(500 - i),
                          SsidSource::kWiglePopular, SimTime::zero());
  }
  hunter.database().add("family-cafe", 0.5, SsidSource::kDirectProbe,
                        SimTime::zero());
  // Mark it freshly hit (as if a family member just connected through it).
  hunter.database().record_hit("family-cafe", 0.0, SimTime::zero());

  // The companion's only joinable SSID is family-cafe — rank ~501 by weight,
  // but rank 1 by freshness, so the FB must deliver it within one scan.
  client::Smartphone companion(
      person(9, false,
             {{"family-cafe", true, world::PnlOrigin::kGroupShared}}),
      medium_, {5, 0}, phone_cfg(), rng_.fork("c"));
  companion.start();
  events_.run_until(SimTime::seconds(20));
  EXPECT_TRUE(companion.connected_to_attacker());
  const auto& rec = hunter.clients().at(companion.mac());
  EXPECT_TRUE(rec.hit_choice->tag == SelectionTag::kFreshness ||
              rec.hit_choice->tag == SelectionTag::kFreshnessGhost);
}

TEST_F(AttackerTest, CityHunterUntriedTrackingSweepsDeep) {
  CityHunter::Config cfg;
  cfg.base = base_;
  CityHunter hunter(medium_, cfg, rng_.fork("h"));
  hunter.start();
  for (int i = 0; i < 200; ++i) {
    hunter.database().add("w-" + std::to_string(i),
                          static_cast<double>(200 - i),
                          SsidSource::kWiglePopular, SimTime::zero());
  }
  // Victim knows only rank ~150: needs several scans of untried sweeps.
  client::Smartphone victim(
      person(10, false, {{"w-150", true, world::PnlOrigin::kPublicVisit}}),
      medium_, {5, 0}, phone_cfg(), rng_.fork("v"));
  victim.start();
  events_.run_until(SimTime::minutes(5));
  EXPECT_TRUE(victim.connected_to_attacker());
  EXPECT_GT(hunter.clients().at(victim.mac()).ssids_sent, 100);
}

TEST_F(AttackerTest, CityHunterWithoutUntriedTrackingRepeatsItself) {
  CityHunter::Config cfg;
  cfg.base = base_;
  cfg.untried_tracking = false;
  CityHunter hunter(medium_, cfg, rng_.fork("h"));
  hunter.start();
  for (int i = 0; i < 200; ++i) {
    hunter.database().add("w-" + std::to_string(i),
                          static_cast<double>(200 - i),
                          SsidSource::kWiglePopular, SimTime::zero());
  }
  client::Smartphone victim(
      person(11, false, {{"w-150", true, world::PnlOrigin::kPublicVisit}}),
      medium_, {5, 0}, phone_cfg(), rng_.fork("v"));
  victim.start();
  events_.run_until(SimTime::minutes(5));
  // Always the same top-40 (minus ghost randomness): w-150 unreachable
  // through the main buffer; only a lucky ghost pick could reach rank 150,
  // and ghosts only cover ranks ~38-58.
  EXPECT_FALSE(victim.connected_to_attacker());
}

TEST_F(AttackerTest, DirectProbeObservationsEnterCityHunterDb) {
  CityHunter::Config cfg;
  cfg.base = base_;
  CityHunter hunter(medium_, cfg, rng_.fork("h"));
  hunter.start();
  client::Smartphone discloser(
      person(12, true, {{"LeakedNet", false, world::PnlOrigin::kHome}}),
      medium_, {5, 0}, phone_cfg(), rng_.fork("d"));
  discloser.start();
  events_.run_until(SimTime::seconds(10));
  const auto* rec = hunter.database().find("LeakedNet");
  ASSERT_NE(rec, nullptr);
  EXPECT_EQ(rec->source, SsidSource::kDirectProbe);
  EXPECT_DOUBLE_EQ(rec->weight, cfg.direct_initial_weight);
}

TEST_F(AttackerTest, GhostHitAdjustsBufferSplit) {
  CityHunter::Config cfg;
  cfg.base = base_;
  CityHunter hunter(medium_, cfg, rng_.fork("h"));
  const int pb0 = hunter.selector().pb_size();
  // Simulate the hit path directly through the protected interface by
  // sending a crafted association after an offer; simpler: exercise the
  // selector's notify contract via a synthetic ClientRecord in on_hit is
  // private — instead verify through selector() directly.
  hunter.selector().notify_hit(SelectionTag::kFreshnessGhost);
  EXPECT_EQ(hunter.selector().pb_size(), pb0 - 1);
}

// --- DeauthModule ---

TEST_F(AttackerTest, DeauthModuleBroadcastsPerTarget) {
  KarmaAttacker attacker(medium_, base_);
  attacker.start();
  DeauthModule::Config dcfg;
  dcfg.target_bssids = {*MacAddress::parse("02:00:00:00:00:01"),
                        *MacAddress::parse("02:00:00:00:00:02")};
  dcfg.interval = SimTime::seconds(10);
  DeauthModule deauth(medium_, attacker.radio(), dcfg);
  deauth.start();
  events_.run_until(SimTime::seconds(35));
  // Rounds at t=0, 10, 20, 30 -> 4 rounds x 2 targets.
  EXPECT_EQ(deauth.deauths_sent(), 8u);
  deauth.stop();
  events_.run_until(SimTime::minutes(2));
  EXPECT_EQ(deauth.deauths_sent(), 8u);
}

TEST(SelectionTagNames, AllDistinct) {
  std::set<std::string> names;
  for (const auto t :
       {SelectionTag::kDirectReply, SelectionTag::kPlainDump,
        SelectionTag::kUntriedSweep, SelectionTag::kPopularity,
        SelectionTag::kPopularityGhost, SelectionTag::kFreshness,
        SelectionTag::kFreshnessGhost}) {
    names.insert(to_string(t));
  }
  EXPECT_EQ(names.size(), 7u);
}

TEST(SsidSourceNames, AllDistinct) {
  std::set<std::string> names;
  for (const auto s : {SsidSource::kWigleNearby, SsidSource::kWiglePopular,
                       SsidSource::kDirectProbe, SsidSource::kCarrierSeed}) {
    names.insert(to_string(s));
  }
  EXPECT_EQ(names.size(), 4u);
}

}  // namespace
}  // namespace cityhunter::core
