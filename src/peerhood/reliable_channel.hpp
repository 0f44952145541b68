// ReliableChannel — the data buffering the thesis lists as necessary future
// work (Ch. 6): "So far there exists the possibility to lose data due to
// Write function not being aware of the connection loss ... an efficient
// Data Buffering is necessary to guarantee the data integrity."
//
// The reliability engine of a Channel. Channel::make_reliable creates a
// channel's one engine, and from then on the channel routes through it:
// write() buffers and sends through the engine, received frames reach the
// channel's data handler in order and exactly once, a handover resyncs the
// engine before the channel's handover handler runs, and close() stops the
// engine's timers. The application holds the channel alone; the engine it
// gets back is for journal_to() and the counters.
//
// Every application frame gets a sequence number and is buffered until
// acknowledged; the receiver delivers in order exactly once and acks
// cumulatively and selectively. After a handover (connection substitution)
// the unacknowledged tail is retransmitted, so no frame is lost to the
// in-flight window that died with the old link. Acks piggyback on a timer to
// amortise the cost the paper worried about ("the implementation of Data
// Transferring Acknowledge is too costly due to the small size of packet").
//
// Loss hardening (fault plane, sim/fault.hpp), selective acks after TCP
// SACK (RFC 2018, RFC 6675):
//  * Every ack carries a 64-bit SACK bitmap besides the cumulative ack: bit
//    i is set when the receiver holds frame cumulative + 1 + i. One ack
//    thus names every hole of a loss burst.
//  * The sender keeps a scoreboard: each unacked frame has its last send
//    time and a `sacked` mark, both taken from the *latest* accepted ack
//    alone, never accumulated. Marks only skip resends; a frame leaves the
//    outbox only through the cumulative ack. So a receiver that drops
//    frames it had SACKed (a restarted server's channel resumes from the
//    journal with an empty reorder buffer) un-marks them with its next ack
//    and they are resent; the worst a stale mark costs is a late resend,
//    never a lost frame, since the frame at the cumulative ack is never
//    marked and keeps the retransmit timer probing.
//  * Every ack resends each unsacked frame below the highest sacked one,
//    at most once per 50 ms hole-retry gap, so the acks of one burst
//    resend a hole once, not once each. The retransmit timer resends only
//    unsacked frames. resync() after a handover clears every mark and
//    resends the whole outbox: the old link may have taken the peer's
//    state with it.
//  * An out-of-order arrival (a gap, a duplicate or an old frame) acks at
//    once unless an ack went out in the last 10 ms burst gap; then the
//    rest of the burst shares one ack through the ack timer at the gap's
//    end. Both gaps came from a sweep over the mobility-chaos scenarios
//    (hole gap 25/50/100/200 ms against the ~125 ms bridged Bluetooth
//    round trip at 30 ms per hop, burst gap 5/10/20 ms): 50/10 matched the
//    best delivery ratio with fewer frames than a 25 ms hole gap, while
//    100 and 200 ms saved frames but lost delivery.
//  * These resends are the only fast recovery; duplicate cumulative acks
//    trigger nothing. A hole no ack can name (a lost tail, or one more
//    than 64 frames below the next held frame) waits for the retransmit
//    timer.
//  * Acks are out-of-order tolerant — a reordered (older) cumulative ack is
//    ignored instead of regressing the sender's view.
//  * The retransmit timer backs off exponentially (doubling up to
//    `retransmit_cap`) while no progress is made and resets to the base
//    interval on every new ack, so a dead link is probed gently and a
//    healed one recovers at full speed.
//
// Bounded-resource paths (crash hardening):
//  * Every ack advertises the receiver's free reorder capacity; the sender
//    sends no new frame beyond min(kReliableWindow, advertised window) and
//    returns a backpressure error without allocating — a never-draining
//    peer cannot grow sender memory. Retransmissions of already-buffered
//    frames are exempt, so the hole that stalls the receiver can always be
//    filled.
//  * The receiver's reorder buffer is capped; frames beyond the cap are
//    dropped (and counted) rather than buffered — the sender's window
//    bound makes such frames a protocol violation anyway.
//  * journal_to() keeps the resume frontier (next outgoing seq, next
//    expected incoming seq) in the daemon's SessionStore after every
//    change, and the engine of a channel a restarted server accepts for a
//    journalled session starts at that frontier, so the session continues
//    exactly-once.
//  * Both timers hold a DestructionSentinel token (handler_slot.hpp rule 4)
//    and the destructor cancels nothing, so a reliable channel may die at
//    any point, even while the simulator tears its event queue down with
//    the last ChannelPtr inside a queued callback.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <span>

#include "common/bytes.hpp"
#include "common/handler_slot.hpp"
#include "common/result.hpp"
#include "peerhood/session_store.hpp"
#include "sim/simulator.hpp"

namespace peerhood {

class Channel;

// Maximum buffered-but-unacked frames before a write is refused; also the
// receiver's reorder capacity, which every ack advertises.
inline constexpr std::size_t kReliableWindow = 256;

struct ReliableConfig {
  // Delay before a cumulative ack is flushed (batching small packets).
  SimDuration ack_delay{std::chrono::milliseconds{200}};
  // Base retransmit timeout; doubles on every timer-driven retransmission
  // round without progress, capped at retransmit_cap.
  SimDuration retransmit_interval{std::chrono::seconds{5}};
  SimDuration retransmit_cap{std::chrono::seconds{40}};
};

// The reliability layer's wire frames, exposed for the protocol fuzzer: the
// decoder must reject (not crash on) any mutation of these.
struct ReliableFrame {
  enum class Kind : std::uint8_t { kData, kAck };
  Kind kind{Kind::kData};
  std::uint64_t seq{0};         // kData
  Bytes payload;                // kData
  std::uint64_t cumulative{0};  // kAck
  std::uint32_t window{0};      // kAck: receiver's free reorder slots
  // kAck: bit i set when the receiver holds frame cumulative + 1 + i.
  std::uint64_t sack{0};
};

[[nodiscard]] Bytes encode_reliable_data(std::uint64_t seq,
                                         const Bytes& payload);
[[nodiscard]] Bytes encode_reliable_ack(std::uint64_t cumulative,
                                        std::uint32_t window,
                                        std::uint64_t sack);
[[nodiscard]] std::optional<ReliableFrame> decode_reliable_frame(
    std::span<const std::uint8_t> frame);

class ReliableChannel {
 public:
  ReliableChannel(const ReliableChannel&) = delete;
  ReliableChannel& operator=(const ReliableChannel&) = delete;

  // Journals the resume frontier of the channel's session in `store`, now
  // and whenever it moves. A record already there is the frontier a crashed
  // incarnation reached: the engine first resumes from it (the next sequence
  // it sends and the next it expects), so redelivered in-flight frames
  // dedupe and its own sequence stream does not restart at 1. Call before
  // any frame flows: outstanding state (outbox, reorder buffer) is assumed
  // empty. `store` must outlive the engine.
  void journal_to(SessionStore& store);

  [[nodiscard]] std::size_t unacked() const { return outbox_.size(); }
  [[nodiscard]] std::uint64_t delivered_count() const { return delivered_; }
  [[nodiscard]] std::uint64_t retransmissions() const {
    return retransmissions_;
  }
  [[nodiscard]] std::uint64_t peer_window() const { return peer_window_; }
  [[nodiscard]] std::uint64_t reorder_drops() const { return reorder_drops_; }
  [[nodiscard]] std::uint64_t malformed_frames() const {
    return malformed_frames_;
  }

  // Flushes any pending ack and retransmits the unacked tail immediately —
  // called automatically after a handover, exposed for tests.
  void resync();

 private:
  friend class Channel;

  // An unacked frame, its last send time and whether the peer's latest ack
  // reports holding it.
  struct Outgoing {
    Bytes payload;
    SimTime last_sent{};
    bool sacked{false};
  };

  ReliableChannel(sim::Simulator& sim, Channel& channel,
                  ReliableConfig config);

  // Channel::write on a reliable channel. Buffers and sends; the frame
  // stays queued until the peer acks it. When the send window (own or
  // peer-advertised) is full, refuses with kCapacityExceeded *before
  // allocating anything* — backpressure, not unbounded buffering. A frame
  // whose data frame would exceed net::kMaxConnPayload is refused with
  // kInvalidArgument, taking no window slot: the transport could never
  // carry it.
  Status send(Bytes frame);
  // A transport frame of the channel; in-order payloads go to the channel's
  // data handler.
  void on_frame(const Bytes& frame);
  // Channel::close: cancels both timers.
  void stop();

  void on_ack(std::uint64_t cumulative, std::uint32_t window,
              std::uint64_t sack);
  // Flushes the ack at `due`, or now if `due` has passed; a pending ack
  // that is due sooner already covers it.
  void schedule_ack(SimTime due);
  void flush_ack();
  // The reorder buffer's frames as an ack's SACK bitmap.
  [[nodiscard]] std::uint64_t sack_bitmap() const;
  void retransmit_outstanding();
  void transmit(std::uint64_t seq, Outgoing& frame);
  // (Re)arms the one-shot retransmit timer at the current rto_; disarms when
  // the outbox is empty.
  void arm_retransmit();
  // Free reorder slots, advertised in every outgoing ack.
  [[nodiscard]] std::uint32_t advertised_window() const;
  void journal();

  sim::Simulator& sim_;
  Channel& channel_;
  ReliableConfig config_;
  SessionStore* journal_{nullptr};
  // The timers' guard: the destructor cancels nothing.
  DestructionSentinel alive_;

  // Sender state.
  std::uint64_t next_seq_{1};
  std::map<std::uint64_t, Outgoing> outbox_;  // unacked frames by sequence
  std::uint64_t highest_ack_{1};  // largest cumulative ack seen from the peer
  // Peer's last advertised window; until the first ack arrives, assume a
  // symmetric configuration.
  std::uint64_t peer_window_{kReliableWindow};
  SimDuration rto_{};  // current (backed-off) retransmit timeout
  sim::EventId retransmit_event_{sim::kInvalidEvent};

  // Receiver state.
  std::uint64_t expected_{1};
  std::map<std::uint64_t, Bytes> reorder_;  // future frames
  std::uint64_t delivered_{0};
  SimTime ack_due_{};   // when the pending ack (ack_timer_) flushes
  SimTime last_ack_{};  // when the last ack went out
  sim::EventId ack_timer_{sim::kInvalidEvent};

  std::uint64_t retransmissions_{0};
  std::uint64_t reorder_drops_{0};
  std::uint64_t malformed_frames_{0};
};

}  // namespace peerhood
