// The simulated wireless medium.
//
// Replaces the monitor-mode NIC + real airspace of the paper's testbed.
// Frames are serialized to wire bytes and parsed back on transmit, so the
// dot11 codec is on the hot path of every simulation — an attacker can only
// act on information that survives the actual 802.11 wire format.
//
// Delivery fanout is culled by a uniform spatial grid over radio positions:
// the cell size tracks the maximum deliverable range of the strongest
// attached transmitter, so a transmission only probes the few cells its own
// range box overlaps instead of scanning every radio in the venue.
//
// One delivery pipeline (deliver_batched): radio position and a fused
// listening key (attached ∧ has-sink ∧ channel) are mirrored into flat
// parallel arrays indexed by slot. Slots are issued monotonically and never
// recycled (slot ≡ id − 1), so slot order IS radio-id order: grid buckets
// keep their slots sorted, the 3x3 cell probe filters per-cell runs that are
// already ordered, and a ≤9-way merge walks them in global id order — no
// per-frame sort, yet the fanout order (and with it the fault-stream draw
// order) is bit-identical to an id-sorted scan. Candidates are filtered in
// the squared-distance domain against a precomputed per-tx-power range², so
// sqrt/log10 never run for radios that turn out to be out of range;
// survivors get their RX power from a monotone piecewise-linear path-loss
// LUT over d² (error ≪ RSSI quantization) fronted by an epoch-invalidated
// per-(tx,rx) slot-pair cache that makes static AP↔AP beacon fanout
// transcendental-free. Exact log-distance math is retained behind the
// pathloss_lut/pathloss_cache toggles and always used on the fault path,
// where the erasure draw must see bit-identical RX power.
//
// The only other fanout is the full scan over every attached radio
// (spatial_grid = false): exact math, no index. It is the test oracle every
// equivalence test compares the batched pipeline against, byte for byte.
//
// Spatial index: buckets are keyed by (cell, fused listening key), so the
// 3x3 probe streams only radios that can actually hear the transmission's
// channel. Bucket storage (slots/xs/ys/keys) lives in one compacted slab
// arena of four parallel arrays instead of per-cell heap vectors scattered
// by the cell map, so a probe's candidate stream is contiguous lines. Churn
// (attach/detach/set_position/set_channel/set_sink) migrates radios between
// buckets incrementally: out-of-order arrivals append to a per-bucket
// unsorted tail that is merged into the sorted prefix lazily, at the
// bucket's next probe — an attach storm into one cell is amortized O(1) per
// radio instead of an O(occupancy) sorted insert. Buckets still expose
// ascending slot order to every probe, so the merge fanout (and the fault
// draw order with it) is unchanged. The filter still compares each entry's
// key against the transmission's channel; FanoutStats counts the entries
// that fail it as index waste (zero while the partition is the key).
//
// Receive-address filter: a radio may declare the address its NIC answers
// to (Radio::set_rx_address). A unicast frame for any other address still
// counts as delivered to it (frames_received, deliveries(), the kDeliver
// trace record and, on a lossy channel, the erasure draw are unchanged) but
// skips path loss and the sink call — the sink would have dropped it on its
// first line. Radios that declare nothing stay promiscuous. The full scan
// never filters, so every batched-vs-scan equivalence test doubles as a
// proof that the filter changes no output.
//
// Everything runs on the calling thread: parallelism comes from world
// shards (sim/shard) and the campaign pool (sim/parallel), not from inside
// one fanout.
//
// Hot-path storage: radio state lives in a dense slab indexed by slot, and
// each in-flight transmission borrows a pooled object that owns the wire
// buffer, the decoded frame every receiver shares, and the fault RNG. At
// steady state a transmit→deliver round trip performs no heap allocation.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "dot11/frame.h"
#include "medium/event_queue.h"
#include "medium/fault.h"
#include "medium/geometry.h"
#include "medium/propagation.h"
#include "medium/radio.h"

namespace cityhunter::obs {
class TraceBuffer;
}

namespace cityhunter::medium {

class Medium {
 public:
  struct Config {
    LogDistancePathLoss::Config propagation{};
    /// Effective airtime multiplier for channel contention: 2.0 means half
    /// the channel is consumed by other traffic, which turns the 20 ms scan
    /// listen window into the paper's 40-response budget (20 ms / (0.25 ms
    /// * 2) = 40).
    double contention_factor = 2.0;
    /// Management frame rate used for airtime computation.
    double mgmt_rate_mbps = 11.0;
    /// Spatial-grid receiver culling in deliver() through the batched
    /// pipeline. Disable to force the full scan over every attached radio —
    /// the exact-math test oracle (and the bench/micro_medium baseline).
    /// The delivery sets are identical either way; RSSI matches bit for bit
    /// when pathloss_lut is off (the scan always uses exact math).
    bool spatial_grid = true;
    /// Piecewise-linear path-loss LUT for survivor RX power on the batched
    /// path. Disable for exact log10 math on every survivor. The LUT error
    /// (< PathLossLut::max_error_db(), ~4.5e-4 dB at default exponent) is
    /// orders of magnitude below RSSI quantization.
    bool pathloss_lut = true;
    /// Per-(tx slot, rx slot) RX-power cache, invalidated by per-radio link
    /// epochs (bumped on every move / TX-power change). Static AP↔AP pairs
    /// hit it on every beacon. Stores exactly what the LUT/exact path would
    /// compute, so toggling it cannot change results.
    bool pathloss_cache = true;
    /// Deterministic fault injection (loss, corruption, retries). Disabled
    /// by default: the perfect channel stays byte-identical to the seed.
    FaultModel::Config fault{};
  };

  explicit Medium(EventQueue& events);
  /// Throws std::invalid_argument when `cfg` is nonsense
  /// (contention_factor <= 0, mgmt_rate_mbps <= 0, bad fault config).
  Medium(EventQueue& events, Config cfg);

  /// Create a radio at `pos` on `channel` with `tx_power_dbm`.
  Radio attach(Position pos, std::uint8_t channel, double tx_power_dbm,
               FrameSink* sink = nullptr);

  /// Remove a radio; its handle becomes invalid and queued frames are
  /// dropped.
  void detach(Radio& radio);

  /// Boundary radio handoff for the sharded city (sim/shard): everything a
  /// destination shard's Medium needs to continue a radio that just crossed
  /// a shard boundary. Local radio ids stay monotone per Medium and never
  /// transfer — the importing Medium issues a fresh id — so the snapshot
  /// carries the radio's physical state and lifetime counters instead.
  struct RadioSnapshot {
    Position pos;
    std::uint8_t channel = 1;
    double tx_power_dbm = 0.0;
    std::uint64_t frames_sent = 0;
    std::uint64_t frames_received = 0;
    std::uint64_t tx_seq = 0;
    std::uint64_t tx_retries = 0;
    std::uint64_t rx_lost = 0;
    /// Declared RX address (Radio::set_rx_address); nullopt = promiscuous.
    std::optional<dot11::MacAddress> rx_address;
  };

  /// Snapshot `radio` and detach it. Precondition: the radio is idle (no
  /// queued or in-flight transmission) — the sharded city guarantees this
  /// by keeping clients radio-silent in the guard gaps, so a handoff never
  /// races a fanout. Detaching runs the normal epoch invalidation, so any
  /// stale pair-cache entries and bucket slots die with the local id.
  RadioSnapshot export_radio(Radio& radio);

  /// Attach a radio from another Medium's snapshot, restoring its counters
  /// and fault-stream sequence so the radio's observable behaviour
  /// continues exactly where the exporting shard left off.
  Radio import_radio(const RadioSnapshot& snapshot,
                     FrameSink* sink = nullptr);

  EventQueue& events() { return events_; }
  const Config& config() const { return cfg_; }
  const LogDistancePathLoss& propagation() const { return propagation_; }
  const FaultModel& fault() const { return fault_; }

  /// Whether `id` currently names an attached radio. Safe for any 64-bit
  /// id: values outside the slot table (0, one past the last issued id,
  /// anything larger) resolve to false rather than indexing out of bounds.
  bool has_radio(RadioId id) const { return slot_of(id) != kNoSlot; }

  /// Total frames ever delivered (for tests/benches).
  std::uint64_t deliveries() const { return deliveries_; }
  std::uint64_t transmissions() const { return transmissions_; }
  /// Fault-injection totals: per-receiver erasures, transmissions whose
  /// final attempt was bit-corrupted, and 802.11 retransmissions. All zero
  /// while the fault model is disabled.
  std::uint64_t frames_lost() const { return frames_lost_; }
  std::uint64_t frames_corrupted() const { return frames_corrupted_; }
  std::uint64_t retries() const { return retries_; }

  /// Pathloss pair-cache effectiveness (batched, fault-free path only).
  std::uint64_t pathloss_cache_hits() const { return pathloss_cache_hits_; }
  std::uint64_t pathloss_cache_misses() const {
    return pathloss_cache_misses_;
  }

  /// Batched-fanout counters: how many bucket entries the 3x3 probes
  /// streamed into the filter and how many of them matched the fused
  /// listening key.
  struct FanoutStats {
    std::uint64_t fanouts = 0;            // deliver_batched invocations
    std::uint64_t candidates_loaded = 0;  // bucket entries filtered
    /// Candidates that passed the fused listening-key compare (before the
    /// self/range tests). candidates_loaded − key_matched is pure index
    /// waste: bucket entries that cost a cache line only to be discarded by
    /// the key filter. Zero with channel-partitioned buckets — the
    /// partition key IS the fused key, so every streamed entry matches.
    std::uint64_t key_matched = 0;

    std::uint64_t wasted_candidates() const {
      return candidates_loaded - key_matched;
    }
  };
  const FanoutStats& fanout_stats() const { return fanout_stats_; }

  /// Occupancy snapshot of the live spatial index (metrics/bench surface).
  struct BucketOccupancy {
    std::uint64_t buckets = 0;       // live (non-empty) buckets
    std::uint64_t radios = 0;        // sum of bucket occupancies
    std::uint32_t max_occupancy = 0;

    double mean() const {
      return buckets > 0
                 ? static_cast<double>(radios) / static_cast<double>(buckets)
                 : 0.0;
    }
  };
  BucketOccupancy bucket_occupancy() const;

  /// Slab-arena health counters (see DESIGN.md §5g): elements filed in live
  /// buckets, abandoned (unreachable) elements awaiting compaction, and how
  /// many times maybe_compact_arena() actually rebuilt the arena. Lets
  /// tests drive the `garbage > live && garbage >= 4096` trigger explicitly
  /// instead of inferring it from timing.
  struct ArenaStats {
    std::size_t live = 0;
    std::size_t garbage = 0;
    std::uint64_t compactions = 0;
  };
  ArenaStats arena_stats() const {
    return {arena_live_, arena_garbage_, arena_compactions_};
  }

  /// Visit every live bucket as (partition key, occupancy). Traversal order
  /// follows the cell map — callers must be order-insensitive (histogram
  /// and min/max/sum aggregation are).
  template <typename Fn>
  void for_each_bucket(Fn&& fn) const {
    for (const auto& [cell, ce] : cells_) {
      for (const auto& [part, bid] : ce.parts) {
        fn(part, buckets_[bid].size);
      }
    }
  }

  /// Why frames died, split by cause. Additive to the aggregate counters
  /// above (frames_lost == erasure + collision; a crc_reject is one
  /// frames_corrupted transmission whose bytes every receiver then refused).
  struct DropCounters {
    std::uint64_t erasure = 0;      // per-receiver SNR/collision draw in
                                    // deliver() erased the frame on one link
    std::uint64_t collision = 0;    // retry budget exhausted on a collision:
                                    // the frame never left the sender
    std::uint64_t crc_reject = 0;   // bit damage survived the retries; the
                                    // FCS check rejected the frame at RX
    std::uint64_t retry_exhausted = 0;  // unicast attempts that ran the full
                                        // 802.11 retry budget and still died

    bool operator==(const DropCounters&) const = default;
  };
  const DropCounters& drops() const { return drops_; }

  /// Attach (or detach with nullptr) a structured trace sink. Disabled cost
  /// is one pointer test per hook.
  void set_trace(obs::TraceBuffer* trace) { trace_ = trace; }

 private:
  friend class Radio;

  /// Slot-table marker for "no slot": the radio id was detached (or never
  /// existed).
  static constexpr std::uint32_t kNoSlot = ~std::uint32_t{0};

  struct RadioState {
    Position pos;
    std::uint8_t channel = 1;
    bool attached = true;           // false once detached; slots never recycle
    /// Declared RX address, valid iff rx_filter. Sits in the padding after
    /// `attached`, so the filter costs the slab no bytes.
    dot11::MacAddress rx_addr;
    double tx_power_dbm = 0.0;
    FrameSink* sink = nullptr;
    SimTime tx_busy_until;
    std::uint64_t queue_epoch = 0;  // bumped by clear_tx_queue()
    std::size_t tx_backlog = 0;
    std::uint64_t frames_sent = 0;
    std::uint64_t frames_received = 0;
    std::uint64_t tx_seq = 0;       // fault-stream key, one per transmit()
    std::uint64_t tx_retries = 0;   // 802.11 retransmissions by this radio
    std::uint64_t rx_lost = 0;      // frames erased on the way to this radio
    std::uint64_t cell = 0;         // current grid cell key (valid iff in_grid)
    /// Partition key the radio is filed under within its cell (valid iff
    /// in_grid): its fused listening key at filing time. Lets erase/migrate
    /// find the bucket after soa_key_ has already moved on.
    std::uint16_t part = 0;
    // Explicit membership flag: every 64-bit key is a legal cell (the cell
    // at (-1,-1) packs to all ones), so no in-band sentinel exists.
    bool in_grid = false;
    /// The radio declared rx_addr: unicast frames for any other address are
    /// counted as delivered but skip path loss and the sink call.
    bool rx_filter = false;
  };
  static_assert(sizeof(void*) != 8 || sizeof(RadioState) == 120,
                "the RX-address filter must fit RadioState's padding");

  /// An in-flight transmission. Pooled: the wire buffer, the decoded frame
  /// every receiver shares, and the fault RNG keep their storage across
  /// transmissions, and the delivery closure captures only {this, txn}.
  struct Transmission {
    RadioId from = 0;
    std::uint64_t epoch = 0;       // sender's queue_epoch at transmit time
    Position tx_pos;
    double tx_dbm = 0.0;
    std::uint8_t channel = 1;
    bool erased = false;           // collided away after the retry budget
    bool frame_ok = false;         // wire bytes decoded (FCS intact)
    std::vector<std::uint8_t> wire;
    dot11::Frame frame;            // valid iff frame_ok
    support::Rng fault_rng{0};     // re-seeded per frame iff faults are on
  };

  /// A full-scan fanout candidate: id for identity (stable forever), slot
  /// for O(1) state access while the topology is unchanged.
  struct Candidate {
    RadioId id = 0;
    std::uint32_t slot = kNoSlot;
    /// Transmitter→receiver distance frozen at gather time. Delivery
    /// semantics: the frame is in flight, so the receiver set and link
    /// budget are fixed when the transmission fans out; a sink callback
    /// moving radios mid-fanout cannot change who hears this frame or at
    /// what power (only detach revokes delivery). The batched pipeline
    /// snapshots positions the same way, keeping both paths bit-identical
    /// under mid-fanout churn.
    double d = 0.0;
  };

  /// Directory entry of one slab-resident bucket: a [offset, offset + size)
  /// window into the arena's four parallel arrays (slots/xs/ys/keys at the
  /// same index). The prefix [0, sorted) is ascending by slot (== radio-id
  /// order); [sorted, size) is the unsorted churn tail — out-of-order
  /// arrivals land there in O(1) and are merged into the prefix lazily, the
  /// next time the bucket is probed (bucket_normalize). Growth abandons the
  /// old window (tracked as garbage and reclaimed by arena compaction).
  struct BucketRef {
    std::uint32_t offset = 0;
    std::uint32_t size = 0;
    std::uint32_t capacity = 0;
    std::uint32_t sorted = 0;
  };

  /// Partition directory of one cell: (partition key → bucket id), sorted
  /// by key. One entry per listening key present in the cell (typically the
  /// venue's 1–3 channels plus the non-listener partition).
  struct CellEntry {
    std::vector<std::pair<std::uint16_t, std::uint32_t>> parts;
  };

  /// One in-range batched-fanout survivor, in bucket (== slot == radio-id)
  /// order.
  struct Survivor {
    std::uint32_t slot;
    double dist_sq;
    /// Receiver position frozen at gather time. Delivery semantics fix the
    /// receiver set and link budget when the transmission fans out, so the
    /// RX power must come from this snapshot — a sink callback moving the
    /// radio mid-fanout must not change what this frame measures.
    double x;
    double y;
  };

  /// One entry of the pair pathloss cache. Valid for a lookup iff key,
  /// tx_dbm and both link epochs match; any move or power change of either
  /// endpoint bumps its epoch and silently invalidates every entry touching
  /// it. Stores exactly the RX power the LUT/exact path computes, so a hit
  /// is behaviorally indistinguishable from a recompute.
  struct PairEntry {
    std::uint64_t key = ~std::uint64_t{0};  // (tx_slot << 32) | rx_slot
    double tx_dbm = 0.0;
    double rx_dbm = 0.0;
    std::uint32_t tx_epoch = 0;
    std::uint32_t rx_epoch = 0;
  };

  /// Slot for `id`: ids are issued monotonically and slots never recycle,
  /// so slot ≡ id − 1 for the radio's whole lifetime. kNoSlot once detached.
  /// The bound compares in RadioId's own unsigned 64-bit domain (slots_
  /// .size() cast up, never id narrowed down), so an id one past the table —
  /// or wider than 32 bits — can never alias a live slot.
  std::uint32_t slot_of(RadioId id) const {
    if (id < 1 || id > static_cast<RadioId>(slots_.size())) return kNoSlot;
    const std::size_t idx = static_cast<std::size_t>(id - 1);
    return slots_[idx].attached ? static_cast<std::uint32_t>(idx) : kNoSlot;
  }

  RadioState& state(RadioId id);
  const RadioState& state(RadioId id) const;

  void transmit(RadioId from, const dot11::Frame& frame);
  /// Completion of a scheduled transmission: backlog/epoch bookkeeping, then
  /// delivery fanout (unless the frame was erased or failed its FCS).
  void finish_transmission(Transmission& t);
  /// `fault_rng` is the transmission's dedicated fault stream (nullptr when
  /// fault injection is off); per-receiver erasure draws consume from it in
  /// id-sorted fanout order (which the batched path reproduces as slot
  /// order), so delivery stays deterministic.
  void deliver(RadioId from, const dot11::Frame& frame, std::uint8_t channel,
               Position tx_pos, double tx_power_dbm,
               support::Rng* fault_rng = nullptr);
  /// Batched SoA fanout: sorted-bucket filter in the squared-distance
  /// domain, fixed-order merge in slot order, LUT/cached RX power for
  /// survivors.
  void deliver_batched(RadioId from, const dot11::Frame& frame,
                       std::uint8_t channel, Position tx_pos,
                       double tx_power_dbm, support::Rng* fault_rng);

  Transmission& acquire_txn();

  /// Radio moved: update its grid cell membership in O(cell occupancy) and
  /// invalidate its pair-cache entries via the link epoch.
  void set_position(RadioId id, Position pos);
  /// TX power raised: the grid cell size may need to grow to keep a range
  /// box within a 3x3 cell neighbourhood (and the LUT coverage with it).
  void set_tx_power(RadioId id, double dbm);
  void set_channel(RadioId id, std::uint8_t ch);
  void set_sink(RadioId id, FrameSink* sink);
  void set_rx_address(RadioId id, std::optional<dot11::MacAddress> addr);

  /// Refresh the radio's fused SoA listening key: 0 when it cannot receive
  /// (detached or no sink), channel + 1 otherwise. One uint16 compare in the
  /// gather loop then covers the attached/sink/channel filters at once.
  /// While the radio is in the grid, a key change migrates it to its new
  /// (cell, key) bucket — the partition IS the key.
  void update_soa_key(std::uint32_t slot);

  /// Memoized per-TX-power range data (venues use a handful of power
  /// classes): the cull-box radius (exactly the legacy max_range) and the
  /// squared-distance acceptance threshold, -1 when the link budget is
  /// negative so the filter matches the exact `deliverable()` predicate at
  /// both ends.
  struct RangeEntry {
    double dbm = 0.0;
    double box_r = 0.0;
    double range_sq = -1.0;
  };
  const RangeEntry& range_for(double tx_power_dbm);

  /// Survivor RX power through the pair cache (batched fault-free path): a
  /// hit skips the LUT evaluation, a miss computes survivor_rx_dbm().
  double pair_cached_rx_dbm(std::uint32_t tx_slot, std::uint32_t rx_slot,
                            double tx_dbm, double dist_sq, Position tx_pos,
                            Position rx_pos);
  /// Survivor RX power: LUT when enabled and covering, exact (fresh hypot,
  /// bit-identical to the full scan) otherwise. `rx_pos` is the
  /// receiver position frozen at gather time — the link budget must not see
  /// moves a sink callback makes mid-fanout.
  double survivor_rx_dbm(double tx_dbm, double dist_sq, Position tx_pos,
                         Position rx_pos) const;

  /// (Re)build the d² path-loss LUT to cover the strongest transmitter.
  void rebuild_lut();
  /// Grow the pair cache with the population (attach-time only; clears it,
  /// which is invisible — entries are pure memoization).
  void maybe_grow_pair_cache();

  static std::uint64_t cell_key(std::int64_t cx, std::int64_t cy) {
    return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(cx)) << 32) |
           static_cast<std::uint32_t>(cy);
  }
  std::int64_t cell_coord(double v) const;
  std::uint64_t cell_of(Position pos) const;
  void grid_insert(std::uint32_t slot, RadioState& st);
  void grid_erase(RadioState& st, std::uint32_t slot);
  /// Recompute the cell size from the strongest transmitter and re-bucket
  /// every radio (rare: only when a new power class appears). Rebuilds the
  /// arena from scratch — fully sorted, zero garbage.
  void grid_rebuild();

  /// --- Slab arena management (see DESIGN.md §5g). ---
  static constexpr std::size_t kNpos = ~std::size_t{0};
  /// Reserve `cap` fresh elements at the arena tail; returns their offset.
  std::uint32_t arena_alloc(std::uint32_t cap);
  /// Double the bucket's window (the old one becomes garbage).
  void bucket_grow(BucketRef& b);
  /// Rewrite every live bucket contiguously once abandoned windows outgrow
  /// the live population. Layout-only: member order inside each bucket is
  /// preserved, so probe results cannot change. Never runs during a fanout —
  /// only insert paths call it, and those run from sink callbacks or
  /// top-level code, never while a filter is streaming the arena.
  void maybe_compact_arena();
  /// The cell's bucket for `part`, nullptr when absent.
  BucketRef* find_bucket(std::uint64_t cell, std::uint16_t part);
  BucketRef* find_bucket_in(CellEntry& ce, std::uint16_t part);
  /// Find-or-create, registering a fresh bucket in the cell's partition
  /// directory (bucket ids are recycled via free_buckets_).
  BucketRef& find_or_create_bucket(std::uint64_t cell, std::uint16_t part);
  /// Merge the bucket's unsorted churn tail into the sorted prefix (in
  /// place, backward merge — no arena growth, so the other probed buckets'
  /// windows stay valid). Called before a bucket is probed.
  void bucket_normalize(BucketRef& b);
  /// Index of `slot` within the bucket (binary search over the sorted
  /// prefix, linear scan over the tail), kNpos when absent.
  std::size_t bucket_locate(const BucketRef& b, std::uint32_t slot) const;

  EventQueue& events_;
  Config cfg_;
  LogDistancePathLoss propagation_;
  FaultModel fault_;
  RadioId next_id_ = 1;

  // Flat radio table, indexed by slot ≡ id − 1. Slots are never recycled:
  // the table grows with every attach (~200 bytes per radio ever attached),
  // buying the slot-order ≡ id-order invariant the batched fanout relies
  // on. active_slots_ stays sorted — slots only ever increase, so attach
  // appends.
  std::vector<RadioState> slots_;
  std::vector<std::uint32_t> active_slots_;
  /// Bumped on attach/detach; lets the full scan trust cached candidate
  /// slots until the topology actually changes under a sink callback.
  std::uint64_t topology_epoch_ = 0;

  // SoA mirror of the per-slot fields the gather loop touches, kept in sync
  // by attach/detach/set_position/set_channel/set_sink. Separate arrays keep
  // the gather's memory traffic at 18 bytes/radio instead of the ~200-byte
  // RadioState stride.
  std::vector<double> soa_x_;
  std::vector<double> soa_y_;
  std::vector<std::uint16_t> soa_key_;
  /// Per-slot link epoch for the pair cache: bumped on set_position (power
  /// changes are caught by the entry's stored tx_dbm).
  std::vector<std::uint32_t> link_epoch_;

  // Pair pathloss cache: open-addressed, overwrite-on-collision, sized as a
  // power of two at attach time. Never touched by the fault path (which
  // needs exact math anyway) and never resized mid-frame.
  std::vector<PairEntry> pair_cache_;
  std::uint64_t pair_mask_ = 0;
  std::uint64_t pathloss_cache_hits_ = 0;
  std::uint64_t pathloss_cache_misses_ = 0;

  // Memoized range data per distinct TX power, linear-scanned (a venue has
  // a handful of power classes).
  std::vector<RangeEntry> range_cache_;

  PathLossLut lut_;

  // Transmission pool. all_txns_ owns; free_txns_ holds the idle ones.
  std::vector<std::unique_ptr<Transmission>> all_txns_;
  std::vector<Transmission*> free_txns_;

  // Fanout scratches, reused across calls (depth-guarded: reentrant
  // delivery falls back to local vectors).
  std::vector<Candidate> scan_scratch_;
  std::vector<Survivor> survivor_scratch_;
  int deliver_depth_ = 0;
  FanoutStats fanout_stats_;

  double cell_size_ = 0.0;
  double max_tx_power_dbm_ = -1e300;
  /// Spatial index: cell map → partition directory → slab-resident buckets.
  /// Buckets hold slots sorted ascending (== ascending radio id, modulo the
  /// lazily-merged churn tail), so per-cell gather runs come out pre-sorted
  /// for the merge fanout.
  std::unordered_map<std::uint64_t, CellEntry> cells_;
  std::vector<BucketRef> buckets_;
  std::vector<std::uint32_t> free_buckets_;
  /// The arena: four parallel arrays every bucket windows into. Grown at
  /// the tail; abandoned windows are tracked as garbage and reclaimed by
  /// maybe_compact_arena().
  std::vector<std::uint32_t> arena_slots_;
  std::vector<double> arena_xs_;
  std::vector<double> arena_ys_;
  std::vector<std::uint16_t> arena_keys_;
  std::size_t arena_live_ = 0;     // elements currently filed in buckets
  std::size_t arena_garbage_ = 0;  // abandoned (unreachable) elements
  std::uint64_t arena_compactions_ = 0;  // maybe_compact_arena rebuilds
  /// bucket_normalize scratch for the churn tail, reused across calls
  /// (normalize never suspends — no sink runs inside it — so one scratch
  /// serves nested delivery too).
  struct TailEntry {
    std::uint32_t slot;
    double x;
    double y;
    std::uint16_t key;
  };
  std::vector<TailEntry> tail_scratch_;
  std::uint64_t deliveries_ = 0;
  std::uint64_t transmissions_ = 0;
  std::uint64_t frames_lost_ = 0;
  std::uint64_t frames_corrupted_ = 0;
  std::uint64_t retries_ = 0;
  DropCounters drops_;
  obs::TraceBuffer* trace_ = nullptr;  // null = tracing off
};

}  // namespace cityhunter::medium
