// Attacker framework shared by KARMA, MANA and City-Hunter.
//
// The base class owns the rogue-AP radio and the evil-twin handshake: it
// mimics whatever SSID a victim asks for (direct probes), serves open-system
// authentication and association, and keeps a per-client record — category
// (direct/broadcast prober), every SSID already sent to it (the untried-list
// machinery of §III-A), and how a hit was eventually achieved (for the Fig 6
// source breakdown). Subclasses implement one hook: which SSIDs to offer a
// broadcast probe.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <unordered_set>
#include <vector>

#include "core/ssid_db.h"
#include "dot11/frame.h"
#include "medium/medium.h"

namespace cityhunter::obs {
class MetricsRegistry;
}

namespace cityhunter::core {

using support::SimTime;

/// Which selection path put an SSID into a response train.
enum class SelectionTag {
  kDirectReply,      // mimicked a direct probe (KARMA path)
  kPlainDump,        // MANA: database replayed in insertion order
  kUntriedSweep,     // preliminary City-Hunter: first-N untried
  kPopularity,       // advanced: Popularity Buffer
  kPopularityGhost,  // advanced: PB ghost list sample
  kFreshness,        // advanced: Freshness Buffer
  kFreshnessGhost,   // advanced: FB ghost list sample
};

const char* to_string(SelectionTag t);

/// One SSID chosen for a response train, with attribution. `id` names a
/// record of the attacker's database (kNoSsid only for a direct reply to an
/// SSID outside it).
struct SsidChoice {
  SsidId id = kNoSsid;
  SelectionTag tag = SelectionTag::kUntriedSweep;
  SsidSource source = SsidSource::kDirectProbe;
};

/// Everything the attacker knows about one client MAC.
struct ClientRecord {
  dot11::MacAddress mac;
  bool direct_prober = false;  // sent at least one direct probe
  bool connected = false;
  SimTime first_seen;
  SimTime connect_time;
  int broadcast_probes = 0;

  /// Distinct SSIDs offered to this client in broadcast responses.
  int ssids_sent = 0;
  SsidIdSet sent;
  /// Attribution of the latest offer of each database id: its tag + 1, or 0
  /// when never offered. The source is the record's (kDirectProbe for a
  /// direct reply).
  std::vector<std::uint8_t> offered;
  /// SSIDs outside the database this client got a direct reply for
  /// (KARMA's case).
  std::unordered_set<std::string> replied_unknown;

  /// Filled in on association.
  std::string hit_ssid;
  std::optional<SsidChoice> hit_choice;
};

class Attacker : public medium::FrameSink {
 public:
  struct BaseConfig {
    dot11::MacAddress bssid;
    medium::Position pos;
    std::uint8_t channel = 6;
    double tx_power_dbm = 20.0;  // 100 mW, the paper's Raspberry Pi setting
    /// Probe responses per broadcast probe (the paper's 40).
    int response_budget = 40;
  };

  Attacker(medium::Medium& medium, BaseConfig cfg);
  ~Attacker() override;

  Attacker(const Attacker&) = delete;
  Attacker& operator=(const Attacker&) = delete;

  void start();
  void stop();

  const dot11::MacAddress& bssid() const { return cfg_.bssid; }
  medium::Radio& radio() { return radio_; }
  SsidDatabase& database() { return db_; }
  const SsidDatabase& database() const { return db_; }

  const std::map<dot11::MacAddress, ClientRecord>& clients() const {
    return clients_;
  }

  std::size_t clients_seen() const { return clients_.size(); }
  std::size_t clients_connected() const { return connected_count_; }

  /// Broadcast probes answered (one scan-window fill each) and probe
  /// responses transmitted into those windows. Maintained unconditionally.
  std::uint64_t scan_windows() const { return scan_windows_; }
  std::uint64_t responses_sent() const { return responses_sent_; }

  /// Attach (or detach with nullptr) a structured trace sink.
  void set_trace(obs::TraceBuffer* trace) { trace_ = trace; }
  /// Attach a metrics registry; registers the attacker's distribution
  /// points (scan-window fill). Observed per broadcast window — cold.
  void set_metrics(obs::MetricsRegistry* metrics);

  // medium::FrameSink
  void on_frame(const dot11::Frame& frame, const medium::RxInfo& info) override;

 protected:
  /// Strategy hook: choose up to `budget` database SSIDs for a broadcast
  /// probe from `client`, each with its record's source. Entries already
  /// offered to the client (`client.sent`) are the subclass's business (MANA
  /// deliberately repeats itself; City-Hunter filters).
  virtual std::vector<SsidChoice> select_ssids(const ClientRecord& client,
                                               int budget) = 0;

  /// Notification hooks.
  virtual void handle_direct_probe_ssid(const std::string& ssid, SimTime now);
  virtual void on_hit(const ClientRecord& client, const std::string& ssid,
                      SimTime now);

  medium::Medium& medium_;
  SsidDatabase db_;
  obs::TraceBuffer* trace_ = nullptr;        // null = tracing off
  obs::MetricsRegistry* metrics_ = nullptr;  // null = metrics off
  std::size_t scan_fill_id_ = 0;             // valid iff metrics_ != null

  SimTime now() const { return medium_.events().now(); }
  std::uint16_t next_seq() { return seq_ = (seq_ + 1) & 0x0fff; }

 private:
  ClientRecord& client(const dot11::MacAddress& mac);
  void respond_to_direct_probe(ClientRecord& c, const std::string& ssid);
  void respond_to_broadcast_probe(ClientRecord& c);
  /// Record an offer of database SSID `id` for hit attribution.
  static void note_offer(ClientRecord& c, SsidId id, SelectionTag tag);

  BaseConfig cfg_;
  medium::Radio radio_;
  /// Reused transmit scratch: the 40-response train rebuilds this frame in
  /// place instead of reallocating IE storage per response.
  dot11::Frame tx_frame_;
  bool started_ = false;
  bool stopped_ = false;
  std::map<dot11::MacAddress, ClientRecord> clients_;
  std::size_t connected_count_ = 0;
  std::uint64_t scan_windows_ = 0;
  std::uint64_t responses_sent_ = 0;
  std::uint16_t seq_ = 0;
  std::uint16_t next_aid_ = 1;
};

}  // namespace cityhunter::core
