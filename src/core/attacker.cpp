#include "core/attacker.h"

#include "obs/metrics.h"
#include "obs/trace.h"

namespace cityhunter::core {

using dot11::Frame;

const char* to_string(SelectionTag t) {
  switch (t) {
    case SelectionTag::kDirectReply: return "direct-reply";
    case SelectionTag::kPlainDump: return "plain-dump";
    case SelectionTag::kUntriedSweep: return "untried-sweep";
    case SelectionTag::kPopularity: return "popularity";
    case SelectionTag::kPopularityGhost: return "popularity-ghost";
    case SelectionTag::kFreshness: return "freshness";
    case SelectionTag::kFreshnessGhost: return "freshness-ghost";
  }
  return "?";
}

Attacker::Attacker(medium::Medium& medium, BaseConfig cfg)
    : medium_(medium), cfg_(cfg) {}

Attacker::~Attacker() { stop(); }

void Attacker::start() {
  if (started_) return;
  started_ = true;
  radio_ = medium_.attach(cfg_.pos, cfg_.channel, cfg_.tx_power_dbm, this);
}

void Attacker::stop() {
  if (!started_ || stopped_) return;
  stopped_ = true;
  medium_.detach(radio_);
}

ClientRecord& Attacker::client(const dot11::MacAddress& mac) {
  auto it = clients_.find(mac);
  if (it == clients_.end()) {
    ClientRecord rec;
    rec.mac = mac;
    rec.first_seen = now();
    it = clients_.emplace(mac, std::move(rec)).first;
  }
  return it->second;
}

void Attacker::set_metrics(obs::MetricsRegistry* metrics) {
  metrics_ = metrics;
  if (metrics_ != nullptr) {
    scan_fill_id_ = metrics_->distribution("attacker.scan_window_fill", 1.0);
  }
}

void Attacker::handle_direct_probe_ssid(const std::string&, SimTime) {}

void Attacker::on_hit(const ClientRecord&, const std::string&, SimTime) {}

void Attacker::respond_to_direct_probe(ClientRecord& c,
                                       const std::string& ssid) {
  // KARMA's core move: mimic whatever the victim asks for, as an open AP.
  dot11::make_probe_response_into(tx_frame_, cfg_.bssid, c.mac, ssid,
                                  cfg_.channel, /*open=*/true, next_seq());
  radio_.transmit(tx_frame_);
  const SsidId id = db_.id_of(ssid);
  if (id != kNoSsid) {
    note_offer(c, id, SelectionTag::kDirectReply);
  } else {
    c.replied_unknown.insert(ssid);
  }
}

void Attacker::note_offer(ClientRecord& c, SsidId id, SelectionTag tag) {
  if (id >= c.offered.size()) c.offered.resize(id + 1, 0);
  c.offered[id] = static_cast<std::uint8_t>(static_cast<int>(tag) + 1);
}

void Attacker::respond_to_broadcast_probe(ClientRecord& c) {
  const auto choices = select_ssids(c, cfg_.response_budget);
  ++scan_windows_;
  responses_sent_ += choices.size();
  if (trace_ != nullptr) {
    trace_->record(now(), obs::Category::kAttacker,
                   obs::Event::kScanWindowFill, choices.size(),
                   static_cast<std::uint64_t>(cfg_.response_budget));
  }
  if (metrics_ != nullptr) {
    metrics_->observe(scan_fill_id_, static_cast<double>(choices.size()));
  }
  for (const auto& choice : choices) {
    dot11::make_probe_response_into(tx_frame_, cfg_.bssid, c.mac,
                                    db_.record(choice.id).ssid, cfg_.channel,
                                    /*open=*/true, next_seq());
    radio_.transmit(tx_frame_);
    if (c.sent.insert(choice.id)) ++c.ssids_sent;
    note_offer(c, choice.id, choice.tag);
  }
}

void Attacker::on_frame(const Frame& frame, const medium::RxInfo&) {
  if (stopped_) return;
  switch (frame.subtype()) {
    case dot11::MgmtSubtype::kProbeRequest: {
      const auto* body = frame.as<dot11::ProbeRequest>();
      auto& c = client(frame.header.addr2);
      if (c.connected) return;  // already ours
      if (body->is_broadcast()) {
        ++c.broadcast_probes;
        respond_to_broadcast_probe(c);
      } else {
        c.direct_prober = true;
        const auto ssid = body->ies.ssid();
        if (ssid && !ssid->empty()) {
          handle_direct_probe_ssid(*ssid, now());
          respond_to_direct_probe(c, *ssid);
        }
      }
      return;
    }
    case dot11::MgmtSubtype::kAuthentication: {
      if (!(frame.header.addr1 == cfg_.bssid)) return;
      const auto* body = frame.as<dot11::Authentication>();
      if (body->sequence != 1) return;
      radio_.transmit(dot11::make_auth_response(cfg_.bssid, frame.header.addr2,
                                                dot11::StatusCode::kSuccess,
                                                next_seq()));
      return;
    }
    case dot11::MgmtSubtype::kAssociationRequest: {
      if (!(frame.header.addr1 == cfg_.bssid)) return;
      const auto* body = frame.as<dot11::AssociationRequest>();
      auto& c = client(frame.header.addr2);
      radio_.transmit(dot11::make_assoc_response(
          cfg_.bssid, c.mac, dot11::StatusCode::kSuccess, next_aid_++,
          next_seq()));
      if (!c.connected) {
        c.connected = true;
        c.connect_time = now();
        ++connected_count_;
        const auto ssid = body->ies.ssid().value_or("");
        c.hit_ssid = ssid;
        // Records are never removed, so an offer by id is newer than any
        // reply to the same SSID from before it joined the database.
        const SsidId id = db_.id_of(ssid);
        if (id < c.offered.size() && c.offered[id] != 0) {
          const auto tag = static_cast<SelectionTag>(c.offered[id] - 1);
          c.hit_choice = SsidChoice{id, tag,
                                    tag == SelectionTag::kDirectReply
                                        ? SsidSource::kDirectProbe
                                        : db_.record(id).source};
        } else if (c.replied_unknown.count(ssid) != 0) {
          c.hit_choice = SsidChoice{kNoSsid, SelectionTag::kDirectReply,
                                    SsidSource::kDirectProbe};
        }
        on_hit(c, ssid, now());
      }
      return;
    }
    default:
      return;
  }
}

}  // namespace cityhunter::core
