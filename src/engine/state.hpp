// Full network state (Def. 2.1 of the paper).
//
// Tracks, per step of an execution:
//   * pi_v  — each node's current path assignment,
//   * rho_v(c) — the payload of the last update successfully processed
//     from each channel (stored as the *announced* path; the receiving
//     node extends it by itself at selection time),
//   * channel contents,
//   * last value exported per channel (realizing the "announce only on
//     change" rule of Def. 2.3 step 4, including d's first announcement).
//
// Encoding. Every path a state can hold is epsilon or a permitted path,
// so the state stores the instance's dense path ids (spp::PathId) in one
// contiguous word array; with n nodes and C channels:
//
//   [ pi: n | rho: C | exported: C | bases: C / 64 | offsets: C + 1 |
//     queued ids ]
//
// `exported` holds spp::kNoPath until the sender first writes to the
// channel. Channel c's queue is the arena slice [offset(c), offset(c+1)),
// oldest message first. The C + 1 queue offsets come in blocks of 64:
// offset k is stored relative to the start of its block, and each block
// after the first has one absolute base (the offset of its first entry),
// so offset(k) = base(k / 64) + offsets[k] with base(0) = 0. A push or a
// pop then rewrites at most 63 relative offsets in its own block and one
// base per later block instead of every later offset: C / 64 + 63 words,
// not C. A state with fewer than 64 channels has no bases, so its words
// are plain absolute offsets. Message tags (engine-invisible bookkeeping
// that only the realization transforms set) live in a sparse side table
// keyed by (channel, position) and are part of equality. The words are
// canonical (equal states have equal words), so a copy is one allocation
// and == and hash() are one pass over the words.
//
// NetworkState is a value type: copyable, hashable, equality-comparable
// (between states of one instance), which is what the model checker
// enumerates.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "spp/instance.hpp"
#include "support/error.hpp"

namespace commroute::engine {

/// One update message: the announced path (epsilon = withdrawal) plus an
/// engine-invisible tag. Tags never influence protocol semantics; the
/// realization transforms use them for bookkeeping (e.g. the "flagged"
/// messages in the proof of Prop. 3.6).
struct Message {
  Path path;
  std::uint64_t tag = 0;
};

class NetworkState;

/// Read-only view of one channel's FIFO queue inside a state. Index 0 is
/// the oldest message (the paper's "first message"). The view reads the
/// state it came from, so it sees later mutations of that state.
class Channel {
 public:
  bool empty() const { return size() == 0; }
  std::size_t size() const;

  /// Path id of the i-th oldest message, 0-based. Requires i < size();
  /// violations throw PreconditionError naming the index and the size
  /// (scheduler/sim bugs fail loudly instead of reading past the queue).
  spp::PathId id(std::size_t i) const;

  /// The i-th oldest message's path. Same precondition as id().
  const Path& path(std::size_t i) const;

  /// The i-th oldest message's tag (0 unless set). Same precondition.
  std::uint64_t tag(std::size_t i) const;

 protected:
  friend class NetworkState;
  Channel(const NetworkState& state, ChannelIdx c) : state_(&state), c_(c) {}

  void require_index(std::size_t i) const {
    CR_REQUIRE(i < size(), index_error(i));
  }
  std::string index_error(std::size_t i) const;

  const NetworkState* state_;
  ChannelIdx c_;
};

/// Mutating handle on one channel of a state (NetworkState::
/// mutable_channel). Only the receiving end removes messages.
class MutableChannel : public Channel {
 public:
  /// Appends a message. Its path must be one the instance can hold
  /// (spp::Instance::path_id); otherwise PreconditionError naming it.
  void push(const Message& message);
  /// Appends the path with id `id` (must be < instance().path_count()).
  void push(spp::PathId id);

  /// Removes the oldest message. Requires a non-empty channel.
  void pop_front();

  /// Removes the `n` oldest messages. Requires n <= size(); violations
  /// throw PreconditionError naming both and leave the channel intact.
  void pop_front_n(std::size_t n);

  /// Sets the i-th oldest message's tag (0 clears it). Same precondition
  /// as id().
  void set_tag(std::size_t i, std::uint64_t tag);

 private:
  friend class NetworkState;
  MutableChannel(NetworkState& state, ChannelIdx c) : Channel(state, c) {}
  NetworkState& state() const { return const_cast<NetworkState&>(*state_); }
};

class NetworkState {
 public:
  /// Initial state: pi_d = (d), all other pi = epsilon, all rho = epsilon,
  /// all channels empty, nothing exported yet.
  explicit NetworkState(const spp::Instance& instance);

  /// Copies keep a little spare capacity, so the messages one step
  /// announces usually fit without a second allocation.
  NetworkState(const NetworkState& other);
  /// A copy with `spare_words` words of spare capacity: 0 for a state
  /// that is stored, not stepped (the checker's seen-set).
  NetworkState(const NetworkState& other, std::size_t spare_words);
  NetworkState& operator=(const NetworkState& other) = default;
  NetworkState(NetworkState&& other) noexcept = default;
  NetworkState& operator=(NetworkState&& other) noexcept = default;

  const spp::Instance& instance() const { return *instance_; }

  /// pi_v: v's current path assignment.
  const Path& assignment(NodeId v) const {
    return instance_->path(assignment_id(v));
  }
  spp::PathId assignment_id(NodeId v) const {
    CR_REQUIRE(v < nodes_, "node out of range");
    return words_[v];
  }

  /// The full assignment vector (a copy).
  std::vector<Path> assignments() const;

  /// rho_v(c): announced path last processed from channel c (epsilon if
  /// none yet, or if the last update was a withdrawal).
  const Path& known(ChannelIdx c) const {
    return instance_->path(known_id(c));
  }
  spp::PathId known_id(ChannelIdx c) const {
    CR_REQUIRE(c < channels_, "channel out of range");
    return words_[rho_at() + c];
  }

  Channel channel(ChannelIdx c) const {
    CR_REQUIRE(c < channels_, "channel out of range");
    return Channel(*this, c);
  }
  MutableChannel mutable_channel(ChannelIdx c) {
    CR_REQUIRE(c < channels_, "channel out of range");
    return MutableChannel(*this, c);
  }

  /// What the sender last wrote to channel c (nullptr = nothing yet).
  const Path* last_exported(ChannelIdx c) const;
  /// Id of the same; spp::kNoPath = nothing yet.
  spp::PathId exported_id(ChannelIdx c) const {
    CR_REQUIRE(c < channels_, "channel out of range");
    return words_[exported_at() + c];
  }

  /// All channels empty: no execution step can change any assignment, so
  /// the run has converged to assignments().
  bool quiescent() const { return words_.size() == arena_at(); }

  /// Total messages currently in flight.
  std::size_t messages_in_flight() const {
    return words_.size() - arena_at();
  }

  /// In-flight message bytes in the byte model of estimated_bytes(),
  /// in O(1): the engine samples it every step for peak_channel_bytes.
  std::size_t in_flight_bytes() const;

  /// Length of the longest channel.
  std::size_t max_channel_length() const;

  /// Channel occupancy (max_channel_length(), a pass over the channels)
  /// and in_flight_bytes() together.
  struct ChannelUsage {
    std::size_t max_length = 0;
    std::size_t bytes = 0;
  };
  ChannelUsage channel_usage() const;

  /// Deterministic full-footprint estimate of this state, in the byte
  /// model of the pointer-based layout this encoding replaced (a heap
  /// path per pi/rho/export entry, a queue per channel; see kLegacy* in
  /// state.cpp). Element counts only, so any two runs interning the same
  /// state account the same bytes. Feeds the checker's tracked-bytes
  /// account (ExploreResult::tracked_peak_bytes); it does not mirror
  /// this object's real layout.
  std::size_t estimated_bytes() const;

  /// Defined between states of one instance.
  bool operator==(const NetworkState& o) const {
    return words_ == o.words_ && tags_ == o.tags_;
  }
  std::size_t hash() const;

  /// Multi-line debug rendering of every component but the tags: two
  /// states of one instance with equal renderings and tags are equal.
  std::string to_string() const;

  // -- Mutators (used by the executor and faults; exposed for tests). The
  // path forms throw PreconditionError naming a path the instance's table
  // does not hold; the id forms take spp::Instance path ids.

  void set_assignment(NodeId v, const Path& p) {
    set_assignment_id(v, id_of(p));
  }
  void set_assignment_id(NodeId v, spp::PathId id) {
    CR_REQUIRE(v < nodes_, "node out of range");
    words_[v] = checked(id);
  }
  void set_known(ChannelIdx c, const Path& p) { set_known_id(c, id_of(p)); }
  void set_known_id(ChannelIdx c, spp::PathId id) {
    CR_REQUIRE(c < channels_, "channel out of range");
    words_[rho_at() + c] = checked(id);
  }
  void set_last_exported(ChannelIdx c, const Path& p) {
    set_exported_id(c, id_of(p));
  }
  void set_exported_id(ChannelIdx c, spp::PathId id) {
    CR_REQUIRE(c < channels_, "channel out of range");
    words_[exported_at() + c] = checked(id);
  }
  /// Forgets what was exported on c (back to "nothing sent yet") — a
  /// session reset: the sender will re-announce its current assignment
  /// on its next activation (scenario::apply_fault).
  void reset_last_exported(ChannelIdx c) {
    CR_REQUIRE(c < channels_, "channel out of range");
    words_[exported_at() + c] = spp::kNoPath;
  }

 private:
  friend class Channel;
  friend class MutableChannel;

  /// A non-zero message tag: the message at `index` of `channel`.
  struct Tag {
    ChannelIdx channel;
    std::uint32_t index;
    std::uint64_t value;
    bool operator==(const Tag&) const = default;
  };

  /// Queue offsets per block; a block after the first has a base word.
  static constexpr std::size_t kOffsetBlock = 64;

  std::size_t rho_at() const { return nodes_; }
  std::size_t exported_at() const {
    return static_cast<std::size_t>(nodes_) + channels_;
  }
  /// Word index of block 1's base; block b's base is at bases_at() + b - 1.
  std::size_t bases_at() const {
    return nodes_ + 2 * static_cast<std::size_t>(channels_);
  }
  std::size_t offsets_at() const {
    return bases_at() + channels_ / kOffsetBlock;
  }
  std::size_t arena_at() const { return offsets_at() + channels_ + 1; }
  /// Absolute queue offset k, 0 <= k <= C: where channel k's queue starts
  /// in the arena (offset C is the number of queued messages).
  std::size_t offset(std::size_t k) const {
    const std::uint32_t relative = words_[offsets_at() + k];
    return k < kOffsetBlock
               ? relative
               : relative + words_[bases_at() + k / kOffsetBlock - 1];
  }
  /// Word index of channel c's oldest message.
  std::size_t queue_begin(ChannelIdx c) const {
    return arena_at() + offset(c);
  }
  std::size_t queue_size(ChannelIdx c) const {
    const std::size_t end = c + std::size_t{1};
    if (end % kOffsetBlock == 0) {  // c is its block's last channel
      return offset(end) - offset(c);
    }
    return words_[offsets_at() + end] - words_[offsets_at() + c];
  }
  /// Adds `delta` (mod 2^32) to offset k for every k > c.
  void shift_offsets_after(ChannelIdx c, std::uint32_t delta);
  spp::PathId checked(spp::PathId id) const {
    CR_REQUIRE(id < instance_->path_count(),
               "path id " + std::to_string(id) + " out of range");
    return id;
  }
  spp::PathId id_of(const Path& p) const;

  void push(ChannelIdx c, spp::PathId id, std::uint64_t tag);
  void pop_front_n(ChannelIdx c, std::size_t n);
  std::uint64_t tag(ChannelIdx c, std::size_t i) const;
  void set_tag(ChannelIdx c, std::size_t i, std::uint64_t value);

  const spp::Instance* instance_;
  std::uint32_t nodes_;
  std::uint32_t channels_;
  std::vector<std::uint32_t> words_;
  std::vector<Tag> tags_;  ///< sorted by (channel, index); usually empty
  /// Summed path lengths of the queued messages (derived from the arena;
  /// kept so in_flight_bytes() needs no pass over it).
  std::uint64_t queued_nodes_ = 0;
};

// -- Channel views ---------------------------------------------------------

inline std::size_t Channel::size() const { return state_->queue_size(c_); }

inline spp::PathId Channel::id(std::size_t i) const {
  require_index(i);
  return state_->words_[state_->queue_begin(c_) + i];
}

inline const Path& Channel::path(std::size_t i) const {
  return state_->instance().path(id(i));
}

inline std::uint64_t Channel::tag(std::size_t i) const {
  require_index(i);
  return state_->tag(c_, i);
}

inline void MutableChannel::push(const Message& message) {
  state().push(c_, state().id_of(message.path), message.tag);
}

inline void MutableChannel::push(spp::PathId id) {
  state().push(c_, id, 0);
}

inline void MutableChannel::pop_front_n(std::size_t n) {
  state().pop_front_n(c_, n);
}

inline void MutableChannel::set_tag(std::size_t i, std::uint64_t tag) {
  require_index(i);
  state().set_tag(c_, i, tag);
}

}  // namespace commroute::engine

namespace std {
template <>
struct hash<commroute::engine::NetworkState> {
  std::size_t operator()(const commroute::engine::NetworkState& s) const {
    return s.hash();
  }
};
}  // namespace std
