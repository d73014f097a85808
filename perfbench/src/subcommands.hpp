#pragma once

#include <cstdint>

#include "bench.hpp"
#include "replay/trace.hpp"

namespace perfbench {

/// The serve workloads' daemon configuration, shared with the offline
/// reference `gen` computes: arpwatch, 2 shards, arpsec-served's 2 s grace.
inline constexpr const char* kServeScheme = "arpwatch";
inline constexpr std::size_t kServeShards = 2;
inline constexpr int kServeGraceMs = 2000;

/// Frames per write_all, for the streaming client and the transport
/// ceiling alike, so the two send the same write sizes.
inline constexpr std::size_t kWriteBatchFrames = 256;

/// A client run fails when neither direction has moved for this long; the
/// daemon gives up when no client connects within kAcceptTimeoutS.
inline constexpr double kNoProgressDeadlineS = 20.0;
inline constexpr double kAcceptTimeoutS = 30.0;

/// A serve workload may stream the trace several times ("laps") on one
/// connection. Lap k is shifted by k times the trace span plus 1 ms, so
/// virtual time stays monotonic — the rule arpsec-loadgen --repeat uses.
[[nodiscard]] inline std::int64_t lap_shift_ns(const arpsec::replay::LabeledTrace& trace) {
    return trace.frames.empty() ? 0 : trace.last_at().nanos() + 1'000'000;
}

int cmd_gen(const Args& args);
int cmd_reference(const Args& args);
int cmd_replay(const Args& args);
int cmd_served(const Args& args);
int cmd_client(const Args& args);
int cmd_stages(const Args& args);

}  // namespace perfbench
