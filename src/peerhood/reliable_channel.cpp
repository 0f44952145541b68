#include "peerhood/reliable_channel.hpp"

#include <algorithm>

#include "common/bytes.hpp"
#include "net/connection.hpp"
#include "net/frame_check.hpp"

namespace peerhood {
namespace {

// Frame tags on the wire (distinct from migration framing; a channel uses
// either plain frames or a ReliableChannel on both ends).
constexpr std::uint8_t kTagData = 0xD1;
constexpr std::uint8_t kTagAck = 0xD2;
// Maximum out-of-order frames the receiver buffers; also the basis of the
// window it advertises in every ack.
constexpr std::size_t kReorderCap = 256;
// Frames past the cumulative ack an ack's SACK bitmap can name.
constexpr std::uint64_t kSackSpan = 64;
// An ack resends a hole only if the hole was last sent at least this long
// ago, so the acks of one burst resend it once, not once each.
constexpr SimDuration kHoleRetryGap = milliseconds(50);
// An out-of-order arrival acks at once only if no ack went out this
// recently; otherwise one ack at the end of the gap covers the burst.
constexpr SimDuration kBurstGap = milliseconds(10);

// Tag, seq and payload length before a data frame's payload; tag,
// cumulative ack, window and SACK bitmap make up a whole ack.
constexpr std::size_t kDataHeaderSize = 1 + 8 + 4;
constexpr std::size_t kAckSize = 1 + 8 + 4 + 8;

// A writer over one exactly-sized buffer of `room` zero bytes followed by a
// frame of `frame_size` bytes.
ByteWriter frame_writer(std::size_t room, std::size_t frame_size) {
  static constexpr std::uint8_t kRoom[net::kConnFrameHeaderSize]{};
  ByteWriter writer;
  writer.reserve(room + frame_size);
  writer.raw(std::span<const std::uint8_t>{kRoom, room});
  return writer;
}

Bytes encode_data(std::size_t room, std::uint64_t seq, const Bytes& payload) {
  ByteWriter writer = frame_writer(room, kDataHeaderSize + payload.size());
  writer.u8(kTagData);
  writer.u64(seq);
  writer.blob(payload);
  return std::move(writer).take();
}

Bytes encode_ack(std::size_t room, std::uint64_t cumulative,
                 std::uint32_t window, std::uint64_t sack) {
  ByteWriter writer = frame_writer(room, kAckSize);
  writer.u8(kTagAck);
  writer.u64(cumulative);
  writer.u32(window);
  writer.u64(sack);
  return std::move(writer).take();
}

}  // namespace

Bytes encode_reliable_data(std::uint64_t seq, const Bytes& payload) {
  return encode_data(0, seq, payload);
}

Bytes encode_reliable_ack(std::uint64_t cumulative, std::uint32_t window,
                          std::uint64_t sack) {
  return encode_ack(0, cumulative, window, sack);
}

std::optional<ReliableFrame> decode_reliable_frame(
    std::span<const std::uint8_t> frame) {
  ByteReader reader{frame};
  ReliableFrame decoded;
  switch (reader.u8()) {
    case kTagData:
      decoded.kind = ReliableFrame::Kind::kData;
      decoded.seq = reader.u64();
      decoded.payload = reader.blob();
      break;
    case kTagAck:
      decoded.kind = ReliableFrame::Kind::kAck;
      decoded.cumulative = reader.u64();
      decoded.window = reader.u32();
      decoded.sack = reader.u64();
      break;
    default:
      return std::nullopt;
  }
  if (!reader.ok()) return std::nullopt;
  return decoded;
}

ReliableChannel::ReliableChannel(sim::Simulator& sim, ChannelPtr channel,
                                 ReliableConfig config)
    : sim_{sim},
      channel_{std::move(channel)},
      config_{config},
      peer_window_{config.window},
      rto_{config.retransmit_interval} {
  channel_->set_data_handler([this](const Bytes& frame) { on_frame(frame); });
  channel_->set_handover_handler([this](const net::ConnectionPtr&) {
    resync();
    handover_slot_.invoke();
  });
  data_handler_set_ = channel_->data_handler_sets();
  handover_handler_set_ = channel_->handover_handler_sets();
}

ReliableChannel::~ReliableChannel() { shutdown(); }

void ReliableChannel::shutdown() {
  sim_.cancel(retransmit_event_);
  retransmit_event_ = sim::kInvalidEvent;
  sim_.cancel(ack_timer_);
  ack_timer_ = sim::kInvalidEvent;
  // The channel outlives this layer whenever the application still holds a
  // ChannelPtr; its handlers capture a raw `this` and must be detached. A
  // slot given another handler since (a successor layer on the same
  // channel) no longer holds them and is left alone.
  if (channel_ != nullptr) {
    if (channel_->data_handler_sets() == data_handler_set_) {
      channel_->set_data_handler(nullptr);
    }
    if (channel_->handover_handler_sets() == handover_handler_set_) {
      channel_->set_handover_handler(nullptr);
    }
  }
  data_slot_.sever();
  handover_slot_.sever();
}

Status ReliableChannel::send(Bytes frame) {
  if (frame.size() > net::kMaxConnPayload - kDataHeaderSize) {
    return Status{ErrorCode::kInvalidArgument, "frame too large"};
  }
  // Backpressure check next — this path must not allocate when refusing,
  // so a never-draining peer bounds sender memory at the window size. The
  // message stays within the small-string buffer for the same reason.
  if (outbox_.size() >= std::min<std::uint64_t>(config_.window,
                                                std::max<std::uint64_t>(
                                                    peer_window_, 1))) {
    return Status{ErrorCode::kCapacityExceeded, "window full"};
  }
  const std::uint64_t seq = next_seq_++;
  const auto queued =
      outbox_.try_emplace(seq, Outgoing{std::move(frame)}).first;
  transmit(seq, queued->second);
  if (retransmit_event_ == sim::kInvalidEvent) arm_retransmit();
  journal();
  return Status::ok_status();
}

void ReliableChannel::transmit(std::uint64_t seq, Outgoing& frame) {
  frame.last_sent = sim_.now();
  // A failed write is fine: the frame stays in the outbox and the
  // retransmit timer (or post-handover resync) tries again.
  (void)channel_->write_with_room(
      encode_data(net::kConnFrameHeaderSize, seq, frame.payload));
}

void ReliableChannel::set_data_handler(DataHandler handler) {
  data_slot_.set(std::move(handler));
}

void ReliableChannel::set_handover_handler(HandoverHandler handler) {
  handover_slot_.set(std::move(handler));
}

void ReliableChannel::journal_to(SessionStore& store) {
  if (const SessionRecord* record = store.find(channel_->session_id())) {
    next_seq_ = record->next_seq;
    highest_ack_ = record->next_seq;  // a restart holds nothing outstanding
    expected_ = record->expected;
  }
  journal_ = &store;
  journal();
}

void ReliableChannel::journal() {
  if (journal_ == nullptr ||
      journal_->update_frontier(channel_->session_id(), next_seq_,
                                expected_)) {
    return;
  }
  journal_->put(SessionRecord{channel_->session_id(), channel_->peer(),
                              channel_->service(), next_seq_, expected_});
}

std::uint32_t ReliableChannel::advertised_window() const {
  const std::size_t used = reorder_.size();
  const std::size_t free =
      kReorderCap > used ? kReorderCap - used : 0;
  return static_cast<std::uint32_t>(
      std::min<std::size_t>(free, UINT32_MAX));
}

void ReliableChannel::on_frame(const Bytes& frame) {
  std::optional<ReliableFrame> decoded = decode_reliable_frame(frame);
  if (!decoded.has_value()) {
    ++malformed_frames_;
    return;
  }
  if (decoded->kind == ReliableFrame::Kind::kAck) {
    on_ack(decoded->cumulative, decoded->window, decoded->sack);
    return;
  }
  const std::uint64_t seq = decoded->seq;
  const bool in_order = seq == expected_;
  if (seq >= expected_) {
    // Bound the reorder buffer: a frame past the cap (only possible from a
    // peer ignoring our advertised window) is dropped, not buffered; the
    // gap ack below re-advertises the window.
    if (in_order || reorder_.count(seq) != 0 ||
        reorder_.size() < kReorderCap) {
      reorder_.emplace(seq, std::move(decoded->payload));
      // Deliver the contiguous prefix.
      while (!reorder_.empty() && reorder_.begin()->first == expected_) {
        Bytes next = std::move(reorder_.begin()->second);
        reorder_.erase(reorder_.begin());
        ++expected_;
        ++delivered_;
        data_slot_.invoke(next);
      }
      journal();
    } else {
      ++reorder_drops_;
    }
  }
  // A gap, a duplicate or an old frame acks at once so the sender learns
  // the holes; the rest of its burst shares one ack at the burst gap's end.
  schedule_ack(in_order ? sim_.now() + config_.ack_delay
                        : std::max(sim_.now(), last_ack_ + kBurstGap));
}

void ReliableChannel::schedule_ack(SimTime due) {
  if (due <= sim_.now()) {
    flush_ack();
    return;
  }
  if (ack_timer_ != sim::kInvalidEvent && ack_due_ <= due) return;
  sim_.cancel(ack_timer_);
  ack_due_ = due;
  ack_timer_ = sim_.schedule_at(due, [this] { flush_ack(); });
}

void ReliableChannel::on_ack(std::uint64_t cumulative, std::uint32_t window,
                             std::uint64_t sack) {
  if (cumulative < highest_ack_) return;  // reordered stale ack: ignore
  peer_window_ = window;
  if (cumulative > highest_ack_) {
    // Progress: everything below `cumulative` is delivered at the peer.
    highest_ack_ = cumulative;
    outbox_.erase(outbox_.begin(), outbox_.lower_bound(cumulative));
    rto_ = config_.retransmit_interval;
    arm_retransmit();
  }
  // The latest ack alone says what the peer holds: a frame it no longer
  // reports (say, its restarted successor lost the reorder buffer) loses
  // its mark. Marks only reach kSackSpan past the cumulative ack, and no
  // earlier ack could mark anything beyond that.
  std::uint64_t highest_sacked = 0;
  for (auto it = outbox_.begin();
       it != outbox_.end() && it->first <= cumulative + kSackSpan; ++it) {
    const std::uint64_t offset = it->first - cumulative;
    it->second.sacked = offset > 0 && ((sack >> (offset - 1)) & 1U) != 0;
    if (it->second.sacked) highest_sacked = it->first;
  }
  // Every unsacked frame below the highest sacked one is a hole.
  const SimTime now = sim_.now();
  for (auto it = outbox_.begin();
       it != outbox_.end() && it->first < highest_sacked; ++it) {
    if (it->second.sacked || now - it->second.last_sent < kHoleRetryGap) {
      continue;
    }
    ++retransmissions_;
    transmit(it->first, it->second);
  }
}

std::uint64_t ReliableChannel::sack_bitmap() const {
  std::uint64_t sack = 0;
  for (const auto& [seq, payload] : reorder_) {
    const std::uint64_t offset = seq - expected_;  // >= 1: a future frame
    if (offset > kSackSpan) break;
    sack |= std::uint64_t{1} << (offset - 1);
  }
  return sack;
}

void ReliableChannel::flush_ack() {
  sim_.cancel(ack_timer_);
  ack_timer_ = sim::kInvalidEvent;
  last_ack_ = sim_.now();
  (void)channel_->write_with_room(encode_ack(net::kConnFrameHeaderSize,
                                             expected_, advertised_window(),
                                             sack_bitmap()));
}

void ReliableChannel::arm_retransmit() {
  sim_.cancel(retransmit_event_);
  retransmit_event_ = sim::kInvalidEvent;
  if (outbox_.empty()) return;
  retransmit_event_ = sim_.schedule_after(rto_, [this] {
    retransmit_event_ = sim::kInvalidEvent;
    retransmit_outstanding();
  });
}

void ReliableChannel::retransmit_outstanding() {
  if (channel_->open()) {
    for (auto& [seq, frame] : outbox_) {
      if (frame.sacked) continue;
      ++retransmissions_;
      transmit(seq, frame);
    }
  }
  // No progress since the last arm: back off so a dead or partitioned link
  // is probed gently; the next genuine ack resets to the base interval.
  rto_ = std::min(rto_ + rto_, config_.retransmit_cap);
  arm_retransmit();
}

void ReliableChannel::resync() {
  if (ack_timer_ != sim::kInvalidEvent) flush_ack();
  // The substituted connection is fresh; restart probing at the base rate.
  rto_ = config_.retransmit_interval;
  // The peer may have lost what it held with the old link: resend all.
  for (auto& [seq, frame] : outbox_) {
    frame.sacked = false;
    ++retransmissions_;
    transmit(seq, frame);
  }
  arm_retransmit();
}

}  // namespace peerhood
