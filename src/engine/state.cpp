#include "engine/state.hpp"

#include <algorithm>
#include <optional>
#include <sstream>
#include <tuple>

namespace commroute::engine {

namespace {

// The byte model of estimated_bytes() and channel_usage(): the element
// sizes of the pointer-based layout this encoding replaced (x86-64
// libstdc++: a heap path per pi/rho/export entry, a deque of messages per
// channel). Pinned, so tracked bytes, peak_channel_bytes and memory-limit
// truncation points are the same as before the encoding changed.
constexpr std::size_t kLegacyStateBytes = 104;   // instance ptr + 4 vectors
constexpr std::size_t kLegacyPathBytes = 24;     // a path's node vector
constexpr std::size_t kLegacyChannelBytes = 88;  // a deque + byte counter
constexpr std::size_t kLegacyExportBytes = 32;   // an optional path
constexpr std::size_t kLegacyMessageBytes = 32;  // a path + its tag
constexpr std::size_t kNodeBytes = sizeof(NodeId);

/// Spare words a copy reserves, so one step's announcements usually fit.
constexpr std::size_t kCopySlack = 8;

constexpr std::uint64_t kHashMul = 0x9e3779b97f4a7c15ULL;

static_assert(spp::kEpsilonPath == 0,
              "a zero-filled word array is all epsilon with empty queues");

/// Adds `delta` (mod 2^32) to words [first, last). Runs of 8 words go
/// through a fixed-length inner loop, which compilers vectorize even at
/// -O2; the tail goes one word at a time.
void add_to_words(std::uint32_t* words, std::size_t first, std::size_t last,
                  std::uint32_t delta) {
  std::size_t i = first;
  for (; i + 8 <= last; i += 8) {
    for (std::size_t j = 0; j < 8; ++j) {
      words[i + j] += delta;
    }
  }
  for (; i < last; ++i) {
    words[i] += delta;
  }
}

std::uint64_t mix(std::uint64_t h, std::uint64_t k) {
  h = (h ^ k) * kHashMul;
  return h ^ (h >> 32);
}

/// Names `p` for a diagnostic, symbolically when its nodes exist.
std::string describe(const spp::Instance& instance, const Path& p) {
  const bool named =
      std::all_of(p.nodes().begin(), p.nodes().end(),
                  [&](NodeId v) { return v < instance.node_count(); });
  return named ? instance.path_name(p) : p.to_string();
}

}  // namespace

NetworkState::NetworkState(const spp::Instance& instance)
    : instance_(&instance),
      nodes_(static_cast<std::uint32_t>(instance.node_count())),
      channels_(static_cast<std::uint32_t>(instance.graph().channel_count())) {
  words_.reserve(arena_at() + kCopySlack);
  words_.assign(arena_at(), spp::kEpsilonPath);
  std::fill_n(words_.begin() + static_cast<std::ptrdiff_t>(exported_at()),
              channels_, spp::kNoPath);
  const NodeId d = instance.destination();
  words_[d] = instance.permitted_id(d, 0);
}

NetworkState::NetworkState(const NetworkState& other)
    : NetworkState(other, kCopySlack) {}

NetworkState::NetworkState(const NetworkState& other,
                           std::size_t spare_words)
    : instance_(other.instance_),
      nodes_(other.nodes_),
      channels_(other.channels_),
      tags_(other.tags_),
      queued_nodes_(other.queued_nodes_) {
  words_.reserve(other.words_.size() + spare_words);
  words_.assign(other.words_.begin(), other.words_.end());
}

std::vector<Path> NetworkState::assignments() const {
  std::vector<Path> out;
  out.reserve(nodes_);
  for (NodeId v = 0; v < nodes_; ++v) {
    out.push_back(instance_->path(words_[v]));
  }
  return out;
}

const Path* NetworkState::last_exported(ChannelIdx c) const {
  const spp::PathId id = exported_id(c);
  return id == spp::kNoPath ? nullptr : &instance_->path(id);
}

std::size_t NetworkState::max_channel_length() const {
  const std::size_t channels = channels_;
  std::size_t longest = 0;
  std::size_t begin = 0;  // offset(0)
  for (std::size_t k = 1; k <= channels; ++k) {
    const std::size_t end = offset(k);
    longest = std::max(longest, end - begin);
    begin = end;
  }
  return longest;
}

std::size_t NetworkState::in_flight_bytes() const {
  return messages_in_flight() * kLegacyMessageBytes +
         queued_nodes_ * kNodeBytes;
}

NetworkState::ChannelUsage NetworkState::channel_usage() const {
  return ChannelUsage{max_channel_length(), in_flight_bytes()};
}

std::size_t NetworkState::estimated_bytes() const {
  // Path nodes held by `count` words from `first` (kNoPath holds none).
  const auto path_nodes = [&](std::size_t first, std::size_t count) {
    std::size_t nodes = 0;
    for (std::size_t i = first; i < first + count; ++i) {
      if (words_[i] != spp::kNoPath) {
        nodes += instance_->path(words_[i]).size();
      }
    }
    return nodes;
  };
  return kLegacyStateBytes +
         // pi and rho: one path each
         (nodes_ + channels_) * kLegacyPathBytes +
         (path_nodes(0, nodes_) + path_nodes(rho_at(), channels_)) *
             kNodeBytes +
         // queues and their messages
         channels_ * kLegacyChannelBytes + in_flight_bytes() +
         // last exports
         channels_ * kLegacyExportBytes +
         path_nodes(exported_at(), channels_) * kNodeBytes;
}

std::size_t NetworkState::hash() const {
  // Multiply-xorshift over word pairs: one pass, no per-path hashing.
  const std::uint32_t* w = words_.data();
  const std::size_t n = words_.size();
  std::uint64_t h = n;
  std::size_t i = 0;
  for (; i + 1 < n; i += 2) {
    h = mix(h, w[i] | static_cast<std::uint64_t>(w[i + 1]) << 32);
  }
  if (i < n) {
    h = mix(h, w[i]);
  }
  for (const Tag& t : tags_) {
    h = mix(mix(h, t.channel | static_cast<std::uint64_t>(t.index) << 32),
            t.value);
  }
  return static_cast<std::size_t>(h);
}

std::string NetworkState::to_string() const {
  const spp::Instance& inst = *instance_;
  const Graph& g = inst.graph();
  std::ostringstream os;
  os << "pi:";
  for (NodeId v = 0; v < nodes_; ++v) {
    os << " " << g.name(v) << "=" << inst.path_name(assignment(v));
  }
  os << "\nchannels:";
  bool any = false;
  for (ChannelIdx c = 0; c < channels_; ++c) {
    const Channel queue = channel(c);
    if (queue.empty()) {
      continue;
    }
    any = true;
    os << " " << g.channel_name(c) << "=[";
    for (std::size_t i = 0; i < queue.size(); ++i) {
      os << (i ? "," : "") << inst.path_name(queue.path(i));
    }
    os << "]";
  }
  if (!any) {
    os << " (all empty)";
  }
  os << "\nrho:";
  for (ChannelIdx c = 0; c < channels_; ++c) {
    if (known_id(c) != spp::kEpsilonPath) {
      os << " " << g.channel_name(c) << "=" << inst.path_name(known(c));
    }
  }
  os << "\nexported:";
  for (ChannelIdx c = 0; c < channels_; ++c) {
    if (const Path* last = last_exported(c)) {
      os << " " << g.channel_name(c) << "=" << inst.path_name(*last);
    }
  }
  os << "\n";
  return os.str();
}

spp::PathId NetworkState::id_of(const Path& p) const {
  const std::optional<spp::PathId> id = instance_->path_id(p);
  CR_REQUIRE(id.has_value(),
             "path " + describe(*instance_, p) +
                 " is neither epsilon nor a permitted path of the "
                 "instance, so no state can hold it");
  return *id;
}

void NetworkState::shift_offsets_after(ChannelIdx c, std::uint32_t delta) {
  // Bounds in locals: stores through the word pointer may alias the
  // members, which would otherwise be re-read on every iteration.
  const std::size_t channels = channels_;
  const std::size_t block_last = std::min(c | (kOffsetBlock - 1), channels);
  add_to_words(words_.data() + offsets_at(), c + std::size_t{1},
               block_last + 1, delta);
  // bases[i] is block i + 1's base; every block after c's moves whole.
  add_to_words(words_.data() + bases_at(), c / kOffsetBlock,
               channels / kOffsetBlock, delta);
}

void NetworkState::push(ChannelIdx c, spp::PathId id, std::uint64_t tag) {
  checked(id);
  const std::size_t size = queue_size(c);
  words_.insert(
      words_.begin() + static_cast<std::ptrdiff_t>(queue_begin(c) + size), id);
  // Every later queue moved up one word.
  shift_offsets_after(c, 1);
  queued_nodes_ += instance_->path(id).size();
  if (tag != 0) {
    set_tag(c, size, tag);
  }
}

void NetworkState::pop_front_n(ChannelIdx c, std::size_t n) {
  const std::size_t size = queue_size(c);
  CR_REQUIRE(n <= size, "channel " + instance_->graph().channel_name(c) +
                            ": pop_front_n(" + std::to_string(n) +
                            ") beyond channel size " + std::to_string(size));
  if (n == 0) {
    return;
  }
  const auto first =
      words_.begin() + static_cast<std::ptrdiff_t>(queue_begin(c));
  const auto last = first + static_cast<std::ptrdiff_t>(n);
  for (auto it = first; it != last; ++it) {
    queued_nodes_ -= instance_->path(*it).size();
  }
  words_.erase(first, last);
  const auto removed = static_cast<std::uint32_t>(n);
  shift_offsets_after(c, 0u - removed);
  if (!tags_.empty()) {
    std::erase_if(tags_, [&](const Tag& t) {
      return t.channel == c && t.index < removed;
    });
    for (Tag& t : tags_) {
      if (t.channel == c) {
        t.index -= removed;
      }
    }
  }
}

std::uint64_t NetworkState::tag(ChannelIdx c, std::size_t i) const {
  for (const Tag& t : tags_) {
    if (t.channel == c && t.index == i) {
      return t.value;
    }
  }
  return 0;
}

void NetworkState::set_tag(ChannelIdx c, std::size_t i, std::uint64_t value) {
  const Tag key{c, static_cast<std::uint32_t>(i), value};
  const auto at = std::lower_bound(
      tags_.begin(), tags_.end(), key, [](const Tag& a, const Tag& b) {
        return std::tie(a.channel, a.index) < std::tie(b.channel, b.index);
      });
  const bool present = at != tags_.end() && at->channel == c && at->index == i;
  if (value == 0) {
    if (present) {
      tags_.erase(at);
    }
  } else if (present) {
    at->value = value;
  } else {
    tags_.insert(at, key);
  }
}

std::string Channel::index_error(std::size_t i) const {
  return "channel " + state_->instance().graph().channel_name(c_) +
         " index " + std::to_string(i) + " out of range (size " +
         std::to_string(size()) + ")";
}

void MutableChannel::pop_front() {
  CR_REQUIRE(!empty(), "pop_front on empty channel " +
                           state_->instance().graph().channel_name(c_));
  pop_front_n(1);
}

}  // namespace commroute::engine
