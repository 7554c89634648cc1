// Durable recordings: versioned JSONL serialization of executions, load
// with structural validation, and deterministic replay.
//
// The paper's central objects are activation sequences and the
// path-assignment sequences {pi(t)} they induce (Defs. 2.2/2.3); a
// RecordingDoc is exactly one finite window of that pair, made durable:
//
//   {"type":"recording_header","schema_version":3,...,"instance":"...",
//    "initial":["d","",""]}
//   {"type":"recording_step","t":1,"step":"x | d->x f=inf",
//    "pi":["d","xd",""],"sent":[2],"reads":[[0,1,0]],"sel":[0]}
//   {"type":"recording_fault","before":2,"fault":"reboot x","t_us":900}
//   ...
//   {"type":"recording_footer","steps":N,"changes":K,"faults":F}
//
// The header embeds the full instance (spp/serialize.hpp text format) and
// the run metadata (model, scheduler, seed, outcome, argv, git), so a
// recording file is self-contained: it can be re-executed, diffed, and
// analyzed with no other artifact. Steps use the script_io one-line
// syntax; paths are space-separated node names ("" = epsilon). Every
// step line carries the full pi after it, but in memory a RecordingDoc
// keeps the pi-sequence as a trace::Trace: pi before the window plus each
// step's changes.
//
// A recording is *complete* when it starts at step 1 (first_step == 1);
// the flight recorder's ring mode produces *partial* recordings (the last
// N steps only), which support forensics but not replay.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

#include "model/activation.hpp"
#include "obs/obs.hpp"
#include "spp/instance.hpp"
#include "trace/recording.hpp"
#include "trace/trace.hpp"

namespace commroute::trace {

/// Layout version written into every recording header; readers reject
/// anything newer. v2 added the per-step causal fields ("sel" selection
/// provenance and, for timed runs, "t_us") — v1 files still load, with
/// those fields simply absent. v3 added typed fault entries
/// ("recording_fault" records, see RecordedFault) — v1/v2 files still
/// load, with no faults.
inline constexpr int kRecordingSchemaVersion = 3;

/// Per-step channel I/O summary, enough to reconstruct channel-occupancy
/// time series — and, since schema v2, the happens-before DAG — without
/// storing full channel contents.
struct StepIo {
  struct Read {
    ChannelIdx channel = kNoChannel;
    std::uint32_t processed = 0;  ///< messages removed from the channel
    std::uint32_t dropped = 0;    ///< of those, how many were dropped
    bool operator==(const Read& o) const {
      return channel == o.channel && processed == o.processed &&
             dropped == o.dropped;
    }
  };
  std::vector<ChannelIdx> sent;  ///< channels written during announce
  std::vector<Read> reads;
  /// Selection provenance, parallel to the step's U (schema v2;
  /// empty on v1 files): the in-channel whose rho furnished each
  /// updating node's new assignment, kNoChannel (serialized -1) when it
  /// selected epsilon or is the destination. This is what lets
  /// obs::build_causality recover adoption edges from ring windows.
  std::vector<ChannelIdx> selected;
  bool operator==(const StepIo& o) const {
    return sent == o.sent && reads == o.reads && selected == o.selected;
  }
};

/// The I/O summary of one executed step.
StepIo step_io(const engine::StepEffect& effect);

/// Run metadata stamped into the header record.
struct RecordingMeta {
  std::string kind = "recording";  ///< "recording" | "witness"
  std::string instance_name;       ///< label, e.g. "BAD-GADGET" ("" ok)
  std::string model;               ///< taxonomy model name ("" = none)
  std::string scheduler;           ///< free-form ("" = unknown)
  std::uint64_t seed = 0;
  std::string outcome;  ///< engine outcome string ("" = unknown)
  /// Global 1-based index of the first recorded step. 1 = complete
  /// recording (replayable); > 1 = ring-buffer window (forensics only).
  std::uint64_t first_step = 1;
  /// Witness structure (kind == "witness"): the serialized script is
  /// prefix + `witness_repetitions` copies of the cycle.
  std::uint64_t witness_prefix_len = 0;
  std::uint64_t witness_cycle_len = 0;
};

/// An injected fault, recorded in execution order (schema v3). The
/// fault text is scenario fault syntax (scenario/fault.hpp) rendered
/// with the instance's symbolic names; storing it as a string keeps
/// trace independent of the scenario types while staying parseable.
struct RecordedFault {
  /// Global 1-based index of the first step executed after the fault
  /// (the fault happened between steps `before - 1` and `before`).
  std::uint64_t before = 1;
  std::string text;         ///< e.g. "session-reset u v"
  std::uint64_t t_us = 0;   ///< virtual time the fault fired
  bool operator==(const RecordedFault& o) const {
    return before == o.before && text == o.text && t_us == o.t_us;
  }
};

/// One recorded execution window: the activation steps and the
/// pi-sequence they induced.
struct RecordingDoc {
  RecordingMeta meta;
  std::vector<model::ActivationStep> steps;
  /// pi(first_step - 1) .. pi(last): entry 0 is pi before the window and
  /// entry t + 1 is pi after steps[t], so trace.changes(t + 1) are the
  /// nodes steps[t] changed (a fault before it included).
  Trace trace;
  std::vector<StepIo> io;  ///< parallel to steps, or empty (no I/O info)
  /// Virtual timestamp of each step (schema v2, timed runs only —
  /// sim::run sources); parallel to steps, or empty (untimed).
  std::vector<std::uint64_t> step_time_us;
  /// Injected faults in execution order (schema v3; empty on older
  /// files and fault-free runs). `before` values are non-decreasing and
  /// inside the recorded window.
  std::vector<RecordedFault> faults;

  /// True when the window starts at the initial state (replayable).
  bool complete() const { return meta.first_step == 1; }
};

/// Converts an in-memory Recording (trace/recording.hpp) to a complete
/// document, keeping per-step I/O summaries from the recorded effects.
RecordingDoc doc_from_recording(const Recording& recording,
                                RecordingMeta meta = {});

/// Executes prefix + `repetitions` copies of cycle from the initial
/// state and packages the result as a witness recording (kind
/// "witness"); this is the durable form of a checker oscillation witness
/// (ExploreResult::witness_prefix / witness_cycle). Steps are validated
/// structurally.
RecordingDoc record_witness(const spp::Instance& instance,
                            const model::ActivationScript& prefix,
                            const model::ActivationScript& cycle,
                            std::size_t repetitions = 2);

/// Serializes header + steps + footer as JSONL.
void write_recording_jsonl(std::ostream& out, const spp::Instance& instance,
                           const RecordingDoc& doc);
std::string recording_to_jsonl(const spp::Instance& instance,
                               const RecordingDoc& doc);

/// Writes the JSONL to `path` (truncating); throws PreconditionError
/// when the file cannot be opened.
void save_recording(const std::string& path, const spp::Instance& instance,
                    const RecordingDoc& doc);

/// A loaded recording owns the instance parsed from its header.
struct LoadedRecording {
  spp::Instance instance;
  RecordingDoc doc;

  explicit LoadedRecording(spp::Instance inst)
      : instance(std::move(inst)) {}
};

/// Parses and structurally validates a serialized recording: header
/// first (schema_version understood, instance parses, initial assignment
/// well-formed), steps contiguous from first_step with parseable,
/// structurally valid activation steps and full assignments, footer step
/// count matching. Leading "meta" records are skipped. Throws ParseError
/// with a line number on any violation.
LoadedRecording load_recording_jsonl(std::istream& in);
LoadedRecording load_recording_file(const std::string& path);

/// First point where a replay deviated from the stored recording.
struct ReplayDivergence {
  std::uint64_t step = 0;  ///< global step index of the divergent step
  NodeId node = kNoNode;   ///< first node whose assignment differs
  Path expected;           ///< stored pi_node
  Path actual;             ///< re-executed pi_node
};

struct ReplayResult {
  bool identical = false;          ///< every per-step assignment matched
  std::uint64_t steps_replayed = 0;
  std::optional<ReplayDivergence> divergence;
  Trace trace;  ///< the re-executed {pi(t)} sequence
};

/// Deterministic replay: re-executes the recording's script against its
/// instance from the initial state and diffs per-step path assignments.
/// Recorded faults (schema v3) are re-applied at their recorded
/// positions via scenario::apply_fault, so faulted sim recordings also
/// replay divergence-free.
/// The engine's step semantics (Def. 2.3) are deterministic given the
/// quadruple, so a clean load must replay identically; a divergence
/// means the recording was tampered with or the reader/engine disagree.
/// Requires a complete recording (throws PreconditionError on a ring
/// window). With instrumentation attached, traces a replay.run span and
/// publishes replay.steps / replay.divergences counters.
ReplayResult replay_recording(const LoadedRecording& loaded,
                              const obs::Instrumentation& obs = {});

}  // namespace commroute::trace
