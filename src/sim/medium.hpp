// The shared radio medium: tracks every (device, technology) endpoint, its
// mobility and inquiry state, answers range/quality queries and delivers
// unicast frames with per-technology latency, bandwidth and in-order
// guarantees. Everything above (sockets, plugins, daemon) is built on these
// primitives.
//
// Neighbour queries are served by a per-technology uniform spatial grid
// (cell edge == radio range) instead of a linear scan, and every endpoint's
// mobility model is sampled at most once per distinct simulation time via a
// generation-tagged position cache. Complexity per discovery round:
//
//            | pre-grid                 | grid + cache
//   ---------+--------------------------+---------------------------------
//   in_range_of / discoverable_in_range
//            | O(N) position_at calls   | O(local density) after one
//            |   per query -> O(N^2)    |   O(N) rebuild per SimTime
//   in_range / distance / quality
//            | 2 position_at per call   | positions cached once per
//            |                          |   SimTime; quality per call
//   endpoint lookup (every read above, every frame)
//            | hash-map probe           | one probe of a flat open-
//            |                          |   addressing index
//   observer re-check (100 ms per observed link)
//            | quality + 2 velocity_at  | quality only; the velocities
//            |   + look-ahead slope     |   and slope only on a crossing
//   observer re-check inside its quiet horizon
//            | quality                  | bookkeeping only: no position,
//            |                          |   no path loss
//   frame delivery whose range was proven at send time
//            | 2 lookups + range check  | receiver lookup only
//   connection keepalive inside its range horizon (SimNetwork)
//            | 2 lookups + range check  | one epoch and clock compare
//
// Horizons. Every mobility model bounds its speed (MobilityModel::
// max_speed), so a link measured at distance d now cannot reach distance d'
// before |d' - d| / (speed_a + speed_b) has passed (less the models' slack).
// Three checks turn that into a horizon before which they cannot change
// their outcome: an observer re-check (the distance band in which its edge
// detector stays where it is), a frame delivery (still in range at its
// delivery time, proven when sent) and a connection keepalive (still in
// range). A medium-wide epoch, bumped by register_endpoint,
// unregister_endpoint and configure, invalidates every horizon: the proofs
// assume the same models, endpoints and range.
//
// The grid is rebuilt lazily when the clock advances (the Simulator time
// observer bumps `position_gen_`) and maintained incrementally while time
// stands still (register/unregister between events).
#pragma once

#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "common/bytes.hpp"
#include "common/mac_address.hpp"
#include "sim/fault.hpp"
#include "sim/mobility.hpp"
#include "sim/radio.hpp"
#include "sim/simulator.hpp"
#include "sim/spatial_grid.hpp"
#include "sim/vec2.hpp"

namespace peerhood::sim {

struct TrafficStats {
  std::uint64_t inquiries{0};
  std::uint64_t inquiry_responses{0};
  std::uint64_t frames{0};
  std::uint64_t frame_bytes{0};
  std::uint64_t drops{0};
};

// Counters for the link-quality plane. `evaluations` counts measurements:
// distance -> path-loss computations, one per quality read; the look-ahead
// that completes a probe or a pushed crossing with its motion, and the band
// ends of an observer's quiet horizon, are not counted. `observer_evals`
// counts observer re-checks, measured or proven quiet (the O(moved
// endpoints) bound is asserted against this one); `events_emitted`
// threshold/coverage crossing callbacks delivered. `cache_hits` is kept
// only because the benchmark (perfbench/) reads it; the medium has no link
// cache, so it always reads 0.
struct QualityStats {
  std::uint64_t evaluations{0};
  std::uint64_t cache_hits{0};
  std::uint64_t observer_evals{0};
  std::uint64_t events_emitted{0};
};

// A threshold/coverage crossing on an observed link, pushed by the medium to
// subscribers (the predictive handover engine) instead of being polled.
struct LinkQualityEvent {
  enum class Edge : std::uint8_t {
    kFell,      // quality crossed below the observer's threshold
    kRose,      // quality recovered above threshold + hysteresis
    // Left coverage, or an endpoint vanished. Crossings are detected on the
    // link's next evaluation, which requires a surviving *mobile* endpoint:
    // if the only mobile side of a link unregisters (daemon churn), no
    // kLost is pushed — the transport keepalive / reactive monitor is the
    // detector for that case.
    kLost,
    kRestored,  // re-entered coverage
  };

  MacAddress a;  // the subscribing side, as passed to observe_quality
  MacAddress b;
  Technology tech{Technology::kBluetooth};
  Edge edge{Edge::kFell};
  // Noise-free quality at `at`; 0 when out of range.
  int quality{0};
  // Signed quality slope (units/s) derived from the mobility models'
  // velocities — negative while the endpoints separate.
  double slope_per_s{0.0};
  double distance_m{0.0};
  // d(distance)/dt in m/s; positive = separating. With distance_m and the
  // technology range this is what time-to-loss prediction runs on.
  double radial_speed_mps{0.0};
  SimTime at;
};

// kRose only fires once quality clears the observer's threshold + this
// band, so a link hovering at the threshold cannot chatter fell/rose every
// tick.
inline constexpr int kQualityHysteresis = 5;

// Slot+generation handle, same scheme as EventId: stale unsubscribes are
// detected and ignored, so unsubscribe is idempotent.
using QualityObserverId = std::uint64_t;
inline constexpr QualityObserverId kInvalidQualityObserver = 0;

class RadioMedium {
 public:
  using FrameHandler =
      std::function<void(MacAddress from, const Bytes& frame)>;
  // Frames travel through the medium as shared immutable buffers: the
  // payload is allocated once by the sender and every queued delivery event
  // captures a 16-byte reference, never a copy of the bytes.
  using FramePtr = std::shared_ptr<const Bytes>;

  explicit RadioMedium(Simulator& sim, LinkQualityModel quality_model = {});
  ~RadioMedium();

  RadioMedium(const RadioMedium&) = delete;
  RadioMedium& operator=(const RadioMedium&) = delete;

  // Replaces the parameter set for one technology (defaults are installed
  // for all three at construction). Resizes that technology's grid cells.
  void configure(const TechnologyParams& params);
  [[nodiscard]] const TechnologyParams& params(Technology tech) const;
  [[nodiscard]] const LinkQualityModel& quality_model() const {
    return quality_model_;
  }

  // --- Endpoint registry ---------------------------------------------------
  void register_endpoint(MacAddress mac, Technology tech,
                         std::shared_ptr<const MobilityModel> mobility,
                         FrameHandler handler);
  void unregister_endpoint(MacAddress mac, Technology tech);
  [[nodiscard]] bool has_endpoint(MacAddress mac, Technology tech) const;

  void set_inquiring(MacAddress mac, Technology tech, bool inquiring);
  // The "PeerHood tag" found via SDP query (§2.3); endpoints without it are
  // detected but not PeerHood capable.
  void set_peerhood_tag(MacAddress mac, Technology tech, bool tagged);
  [[nodiscard]] bool peerhood_tag(MacAddress mac, Technology tech) const;

  // --- Geometry / link quality ---------------------------------------------
  [[nodiscard]] bool in_range(MacAddress a, MacAddress b,
                              Technology tech) const;
  // in_range with its horizon: the last instant up to which the link
  // provably stays in range (now if nothing more is proven), or nullopt
  // when it is out of range now. The proof holds while horizon_epoch()
  // reads what it read when the horizon was taken.
  [[nodiscard]] std::optional<SimTime> in_range_until(MacAddress a,
                                                      MacAddress b,
                                                      Technology tech) const;
  // Bumped by every register_endpoint, unregister_endpoint and configure;
  // never 0, so 0 can mean "nothing proven".
  [[nodiscard]] std::uint32_t horizon_epoch() const { return horizon_epoch_; }
  // Noisy sample of the RSSI-style quality (0 when out of range / missing).
  [[nodiscard]] int sample_quality(MacAddress a, MacAddress b,
                                   Technology tech);

  // --- Push-based quality observers ----------------------------------------
  // Subscribes to threshold/coverage crossings on the (a, b) link. The
  // medium re-evaluates an observed link only when the clock advances AND at
  // least one of its endpoints is mobile, at most once per 100 ms. The walk
  // over mobile endpoints' observers records the earliest time any of them
  // is next due and is skipped on every advance before it, so a tick between
  // evaluations costs O(1); a subscribe, unsubscribe or endpoint
  // (un)registration makes the next advance walk. The first evaluation
  // happens synchronously (priming the edge detector) but emits nothing;
  // only crossings after subscription are pushed. A due re-check inside the
  // link's quiet horizon (see the header comment) does not measure: the
  // link cannot have left the distance band that keeps the detector still.
  //
  // Handler lifecycle follows the HandlerSlot rules: the handler is pinned
  // before each call, so a callback may unsubscribe any observer (including
  // itself), subscribe new ones, or destroy its owning controller. It must
  // not register/unregister endpoints or destroy the medium.
  using QualityHandler = std::function<void(const LinkQualityEvent&)>;
  QualityObserverId observe_quality(MacAddress a, MacAddress b,
                                    Technology tech, int threshold,
                                    QualityHandler handler);
  // Idempotent; stale ids (already unsubscribed, or from a reused slot) are
  // ignored. Safe to call from inside a quality event.
  void unobserve_quality(QualityObserverId id);
  [[nodiscard]] std::size_t quality_observer_count() const {
    return live_observers_;
  }
  [[nodiscard]] const QualityStats& quality_stats() const {
    return quality_stats_;
  }
  // One-shot measurement of a link in observer-event form (edge is
  // meaningless here): noise-free quality, distance, radial speed and
  // quality slope. What an armed predictor polls between crossing events.
  [[nodiscard]] LinkQualityEvent probe_link(MacAddress a, MacAddress b,
                                            Technology tech) const;

  // Endpoints (other than `mac`) currently within radio range, in ascending
  // MAC order.
  [[nodiscard]] std::vector<MacAddress> in_range_of(MacAddress mac,
                                                    Technology tech) const;
  // As in_range_of, but honouring the Bluetooth inquiry asymmetry (a device
  // that is itself inquiring does not respond, §3.4.2) and blackouts.
  [[nodiscard]] std::vector<MacAddress> discoverable_in_range(
      MacAddress mac, Technology tech) const;

  // --- Frame transport -------------------------------------------------------
  // Unicast, in-order per (from,to,tech) direction. The frame is dropped
  // (stats.drops++) if the peers are out of range at delivery time; a copy
  // whose range is proven at send time for its delivery time skips that
  // re-check.
  void send_frame(MacAddress from, MacAddress to, Technology tech,
                  Bytes frame) {
    send_frame(from, to, tech,
               std::make_shared<const Bytes>(std::move(frame)));
  }
  // Copy-free variant: forwarding the same FramePtr across several hops
  // (bridging, relays) shares one payload allocation end to end.
  void send_frame(MacAddress from, MacAddress to, Technology tech,
                  FramePtr frame);

  // --- Fault injection -------------------------------------------------------
  // Lazily creates the fault plane. The dedicated RNG stream is forked on
  // first use, so runs that never touch the plane draw exactly the seed
  // sequences they always did (fault-free regression stays bit-stable).
  [[nodiscard]] LinkFaultModel& fault_plane();
  [[nodiscard]] bool has_fault_plane() const { return faults_ != nullptr; }
  // True while an active blackout window silences the (a, b) link. The
  // connection-establishment path and the inquiry plane honour partitions
  // too, not just in-flight data frames.
  [[nodiscard]] bool link_blacked_out(MacAddress a, MacAddress b) const;

  // Evicts `last_delivery_` entries whose delivery time has already passed —
  // they can no longer influence in-order bumping, since every new delivery
  // lands at or after `now`. Invoked automatically once the map crosses a
  // high-water mark, so long-running scenarios with many distinct
  // (from,to,tech) pairs stay bounded; public so tests and long-lived hosts
  // can force a sweep.
  void age_last_delivery();
  [[nodiscard]] std::size_t last_delivery_entries() const {
    return last_delivery_.size();
  }

  [[nodiscard]] TrafficStats& stats() { return stats_; }
  [[nodiscard]] Simulator& simulator() { return sim_; }

 private:
  struct Endpoint {
    MacAddress mac;
    Technology tech;
    std::shared_ptr<const MobilityModel> mobility;
    FrameHandler handler;
    bool inquiring{false};
    bool peerhood_tag{true};
    // Static endpoints are sampled once and never re-indexed: the grid
    // refresh skips them entirely (mobility->is_static() at registration).
    bool is_static{false};
    double max_speed{0.0};  // mobility->max_speed() at registration
    // Position memoised against position_gen_; recomputed at most once per
    // distinct SimTime no matter how many queries touch this endpoint.
    mutable Vec2 cached_position{};
    mutable std::uint64_t cached_gen{0};
    // The position this endpoint's grid entry currently holds — the grid
    // refresh compares against it, so point queries that re-sample the
    // cache between refreshes cannot desynchronise the index.
    mutable Vec2 grid_position{};
    // Indices into observers_ watching a link that touches this endpoint.
    // Dead entries are dropped lazily during the per-tick walk.
    mutable std::vector<std::uint32_t> watchers;
  };

  struct QualityObserver {
    std::uint32_t gen{0};
    bool live{false};
    MacAddress a;
    MacAddress b;
    Technology tech{Technology::kBluetooth};
    int threshold{LinkQualityModel::kDefaultThreshold};
    // Pinned (shared_ptr copy) before every call — HandlerSlot discipline
    // without the slot, since observers are arena entries, not members.
    std::shared_ptr<const QualityHandler> handler;
    // Edge-detector state.
    bool below{false};
    bool in_range{false};
    SimTime next_eval{};
    std::uint64_t eval_gen{0};  // position_gen_ of the last evaluation
    // Quiet horizon: no re-check up to quiet_until can push a crossing,
    // while horizon_epoch_ still reads quiet_epoch.
    SimTime quiet_until{};
    std::uint32_t quiet_epoch{0};
  };

  struct TechState {
    TechnologyParams params{};
    SpatialGrid grid{1.0};
    // position_gen_ value the grid was built against; 0 = needs a full
    // rebuild (params changed / never built). A stale non-zero grid is
    // refreshed incrementally: only mobile endpoints are revisited (and of
    // those, only ones whose position moved touch their cells), so a
    // technology with no mobile endpoints revalidates in O(1) and a mostly
    // static deployment pays O(mobiles), not O(endpoints), per query tick.
    std::uint64_t grid_gen{0};
    // Registered endpoints whose mobility model is not static — the only
    // ones the incremental refresh must look at. Pointers stay valid:
    // endpoints_ is node-based.
    std::vector<const Endpoint*> mobiles;
  };

  // (mac, tech) in one word: MACs are 48-bit.
  [[nodiscard]] static std::uint64_t key(MacAddress mac, Technology tech) {
    return (mac.as_u64() << 8) | static_cast<std::uint8_t>(tech);
  }
  // A (mac, mac, tech) link: the first MAC, then the second packed with the
  // technology.
  struct LinkKey {
    std::uint64_t a{0};
    std::uint64_t b_tech{0};
    friend bool operator==(const LinkKey&, const LinkKey&) = default;
  };
  struct LinkKeyHash {
    std::size_t operator()(const LinkKey& k) const noexcept {
      std::uint64_t h = k.a * 0x9e3779b97f4a7c15ULL ^ k.b_tech;
      h ^= h >> 31;
      h *= 0xbf58476d1ce4e5b9ULL;
      return static_cast<std::size_t>(h ^ (h >> 29));
    }
  };
  [[nodiscard]] static LinkKey link_key(std::uint64_t a, std::uint64_t b,
                                        Technology tech) {
    return {a, (b << 8) | static_cast<std::uint8_t>(tech)};
  }

  [[nodiscard]] static std::size_t tech_index(Technology tech);
  // Squared-distance range predicate shared by every in-range check (grid,
  // point queries, frame delivery) so their results are bit-identical.
  [[nodiscard]] static bool within_range(Vec2 a, Vec2 b, double range_m);

  // One probe of index_; null when (mac, tech) is not registered.
  [[nodiscard]] Endpoint* find(MacAddress mac, Technology tech) const;
  [[nodiscard]] std::size_t home_slot(std::uint64_t k) const;
  // Adds a newly registered endpoint to index_, doubling it first when it
  // would be more than half full.
  void index_insert(std::uint64_t k, Endpoint* endpoint);
  void place(std::uint64_t k, Endpoint* endpoint);
  void index_erase(std::uint64_t k);

  [[nodiscard]] Vec2 cached_position(const Endpoint& endpoint) const;
  [[nodiscard]] TechState& state(Technology tech) const;
  // Terminal delivery of a scheduled frame: range-check at delivery time,
  // unless `epoch` (0 = nothing proven) is still current, and invoke the
  // receiver's handler.
  void deliver_frame(MacAddress from, MacAddress to, Technology tech,
                     std::uint32_t epoch, const FramePtr& frame);
  // Brings all stale technology grids current (single pass over the
  // endpoints); no-op when `ts`'s grid is already current. Never-built grids
  // are rebuilt wholesale, built ones refreshed incrementally (moved
  // endpoints only).
  void ensure_grid(TechState& ts) const;
  // In-range endpoints other than `origin`, ascending MAC order.
  void collect_in_range(const Endpoint& origin, TechState& ts,
                        std::vector<const Endpoint*>& out) const;

  // Noise-free quality of a `tech` link at `distance_m`; <= 0 means dead.
  // Counts one evaluation.
  [[nodiscard]] double base_quality(Technology tech, double distance_m) const;
  // probe_link in two halves. measure_link fills the event's distance and
  // noise-free quality (one evaluation); add_link_motion then adds the
  // radial speed and quality slope from both models' velocities (not
  // counted). An observer re-check needs the motion only for a crossing.
  void measure_link(const Endpoint& ea, const Endpoint& eb,
                    LinkQualityEvent& event) const;
  void add_link_motion(const Endpoint& ea, const Endpoint& eb,
                       LinkQualityEvent& event) const;
  // The last instant up to which the distance of the (ea, eb) link, now
  // `margin_m` inside a band edge, provably stays inside: both models'
  // speed bounds and slack. `now` when nothing more is proven.
  [[nodiscard]] static SimTime quiet_until(SimTime now, const Endpoint& ea,
                                           const Endpoint& eb,
                                           double margin_m);
  // quiet_until for the (ea, eb) link, in range now with its ends at a_at
  // and b_at, to stay in range: the bound frame delivery and the
  // connection keepalive share.
  [[nodiscard]] SimTime range_until(const Endpoint& ea, Vec2 a_at,
                                    const Endpoint& eb, Vec2 b_at,
                                    double range_m) const {
    const Vec2 gap = a_at - b_at;
    return quiet_until(sim_.now(), ea, eb,
                       range_m - std::sqrt(gap.x * gap.x + gap.y * gap.y));
  }
  // How far obs's link, now at `distance_m`, provably is inside the band of
  // distances whose quality keeps obs's detector in its current state; not
  // positive if nothing is proven.
  [[nodiscard]] double quiet_margin(const QualityObserver& obs,
                                    double distance_m) const;
  // Re-checks observers attached to mobile endpoints; runs from the clock's
  // time observer, after position_gen_ was bumped. Skipped while the clock
  // is before next_walk_.
  void evaluate_quality_observers();
  // One observer re-check: updates the edge detector and pushes crossing
  // events. Takes the index (not a reference): the handler may grow
  // observers_ reentrantly.
  void evaluate_observer(std::uint32_t index, SimTime now, bool emit);
  void attach_watcher(std::uint32_t index);
  void bump_horizon_epoch() {
    if (++horizon_epoch_ == 0) horizon_epoch_ = 1;
  }

  Simulator& sim_;
  Simulator::TimeObserverId time_observer_{0};
  LinkQualityModel quality_model_;
  Rng noise_rng_;
  // Owns every endpoint, keyed by key(). Node-based, so Endpoint pointers
  // (grid payloads, mobile lists, index_) stay valid across rehashes.
  std::unordered_map<std::uint64_t, Endpoint> endpoints_;
  // Open-addressing index over endpoints_: every frame, sample and inquiry
  // resolves its endpoints here. Power-of-two size, at most half full,
  // multiplicative hash (home_slot), linear probing; an empty slot has a
  // null endpoint. Maintained by register/unregister (backward-shift
  // deletion keeps probe runs gap-free without tombstones).
  struct IndexSlot {
    std::uint64_t key{0};
    Endpoint* endpoint{nullptr};
  };
  static constexpr std::size_t kIndexMinSlots = 16;
  std::vector<IndexSlot> index_ = std::vector<IndexSlot>(kIndexMinSlots);
  int index_shift_{64 - std::countr_zero(kIndexMinSlots)};  // 64 - log2 size
  mutable std::array<TechState, kTechnologyCount> tech_;
  // Bumped by the Simulator time observer whenever the clock advances; every
  // cached position / grid tagged with an older generation is stale.
  std::uint64_t position_gen_{1};
  // See horizon_epoch(); wraps after 2^32 bumps, far beyond any run.
  std::uint32_t horizon_epoch_{1};
  // Last scheduled delivery per directed (from, to, tech) — preserves frame
  // ordering within a direction. Aged via age_last_delivery() once it grows
  // past last_delivery_sweep_limit_.
  std::unordered_map<LinkKey, SimTime, LinkKeyHash> last_delivery_;
  std::size_t last_delivery_sweep_limit_{kLastDeliveryMinSweep};
  static constexpr std::size_t kLastDeliveryMinSweep = 64;
  TrafficStats stats_;
  // Null until fault_plane() is first called; the per-frame hot path pays
  // one pointer test when no faults were ever configured.
  std::unique_ptr<LinkFaultModel> faults_;

  // --- Link-quality plane ---------------------------------------------------
  std::vector<QualityObserver> observers_;
  std::vector<std::uint32_t> observer_free_;
  std::size_t live_observers_{0};
  // Earliest next_eval among the observers the last walk visited: no walk
  // before it can evaluate anything. Reset to zero (walk on the next
  // advance) by every subscribe, unsubscribe and endpoint (un)registration,
  // which change what the walk visits.
  SimTime next_walk_{};
  mutable QualityStats quality_stats_;
};

}  // namespace peerhood::sim
