// The corpus-serving wire protocol: length-prefixed, CRC'd frames over a
// stream socket, carrying codec-encoded request/response payloads.
//
// Frame layout (all fixed32 little-endian, same codec as the trace
// format):
//
//   [magic "DRPC"][payload length][crc32(payload)][payload bytes]
//
// The 12-byte header is read first, validated (magic, a hard payload
// bound so a corrupt length can never drive a huge allocation), then the
// payload is read and CRC-checked before a byte of it is decoded — the
// same trust-nothing posture as the trace reader. One request frame gets
// exactly one response frame; the protocol is synchronous per connection
// (a client pipelines by opening more connections, which is also how the
// server's concurrency is exercised).
//
// Requests are a command byte plus optional entry name / model operands.
// Responses carry a status code + message (the server's Status, verbatim)
// and, on OK, a command-specific body:
//
//   info     -> ServeInfo            (bundle shape + writer-lock probe)
//   list     -> vector<ServeEntry>   (index skim, no entry decodes)
//   verify   -> entries verified     (varint; name "" = whole bundle)
//   replay   -> BatchCell            (every RowSignature field crosses
//                                     the wire bit-exactly: doubles ship
//                                     as fixed64 bit patterns)
//   stats    -> ServeStats           (server counters + cache counters)
//   refresh  -> ServeRefresh         (generation before/after; answered
//                                     inline by the connection's reader
//                                     thread, never queued behind
//                                     replays; Unavailable once draining)
//   shutdown -> empty ack, then the server drains (also answered inline)
//
// This header is shared by CorpusServer, CorpusClient, and the tests, so
// there is exactly one encoder and one decoder for every message shape.

#ifndef SRC_SERVER_PROTOCOL_H_
#define SRC_SERVER_PROTOCOL_H_

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "src/core/batch_runner.h"
#include "src/trace/chunk_cache.h"
#include "src/util/socket.h"
#include "src/util/status.h"

namespace ddr {

inline constexpr uint32_t kRpcFrameMagic = 0x43505244u;  // "DRPC"
inline constexpr size_t kRpcFrameHeaderBytes = 12;
// Hard bound on one payload. Responses are index skims, one scored row,
// or counters — far below this; a length field past it is corruption (or
// a stray client speaking another protocol), not a big message.
inline constexpr uint32_t kRpcMaxPayloadBytes = 64u << 20;

enum class RpcCommand : uint8_t {
  kInfo = 0,
  kList = 1,
  kVerify = 2,
  kReplay = 3,
  kStats = 4,
  kRefresh = 5,
  kShutdown = 6,
};
inline constexpr size_t kRpcCommandCount = 7;

std::string_view RpcCommandName(RpcCommand command);
Result<RpcCommand> ParseRpcCommand(const std::string& name);

struct RpcRequest {
  RpcCommand command = RpcCommand::kInfo;
  std::string name;   // verify/replay operand ("" = whole bundle verify)
  std::string model;  // replay model override ("" = entry's stamped model)
};

struct RpcResponse {
  StatusCode code = StatusCode::kOk;
  std::string message;            // the server Status message on error
  std::vector<uint8_t> payload;   // command-specific body when code == kOk

  bool ok() const { return code == StatusCode::kOk; }
  Status ToStatus() const {
    return ok() ? OkStatus() : Status(code, message);
  }
};

// ------------------------------------------------------------- framing

// Sends one frame (header + payload).
Status WriteFrame(const Socket& socket, std::span<const uint8_t> payload);

// Receives one frame. nullopt = the peer closed cleanly on a frame
// boundary; errors cover torn frames, bad magic, oversized lengths, and
// CRC mismatches — after any of which the byte stream is untrustworthy
// and the connection should be dropped.
Result<std::optional<std::vector<uint8_t>>> ReadFrame(const Socket& socket);

// ReadFrame with a total time budget. `timeout_ms <= 0` blocks forever
// (identical to ReadFrame). Otherwise the read polls WaitReadable between
// recv chunks and a stalled peer yields DeadlineExceeded — a distinct
// code from the Unavailable/InvalidArgument socket and framing errors, so
// callers can treat "slow" differently from "broken". The budget covers
// the whole frame (header + payload), measured from the call.
Result<std::optional<std::vector<uint8_t>>> ReadFrameWithDeadline(
    const Socket& socket, int timeout_ms);

// ------------------------------------------------------------ messages

std::vector<uint8_t> EncodeRequest(const RpcRequest& request);
Result<RpcRequest> DecodeRequest(std::span<const uint8_t> payload);

std::vector<uint8_t> EncodeResponse(const RpcResponse& response);
Result<RpcResponse> DecodeResponse(std::span<const uint8_t> payload);

// -------------------------------------------------------- typed bodies

// `info`: the bundle as the server currently sees it.
struct ServeInfo {
  std::string path;
  uint64_t file_size = 0;
  // Always true: every bundle is read as an index journal. Kept for wire
  // compatibility with clients that decode it.
  bool journaled = true;
  // Corpus header format version: 3, or 1 for a legacy file an older
  // build wrote (read-only until compacted). 2 is retired and never
  // served.
  uint32_t format_version = 3;
  uint32_t generation = 1;
  uint64_t dead_bytes = 0;
  uint64_t entry_count = 0;
  std::string io_backend;
  // Snapshot of the writer-lock probe: an in-place appender holds the
  // bundle's flock right now.
  bool writer_active = false;
};

// `list`: one index row per entry (offsets stay server-side).
struct ServeEntry {
  std::string name;
  std::string model;
  std::string scenario;
  uint64_t event_count = 0;
  uint64_t length = 0;
};

// `refresh`: what the incremental Reopen found.
struct ServeRefresh {
  uint32_t generation_before = 0;
  uint32_t generation_after = 0;
  uint64_t entries_before = 0;
  uint64_t entries_after = 0;
  // True when the reopen surfaced a new generation or entry set.
  bool picked_up = false;
};

// `stats`: server-wide counters. The cache counters come from the one
// shared ChunkCache — which survives refresh by design, so hits keep
// accumulating across generation swaps.
struct ServeStats {
  uint64_t requests_total = 0;
  uint64_t requests_by_command[kRpcCommandCount] = {};
  uint64_t bytes_served = 0;  // response frame bytes actually written
  uint64_t overload_rejections = 0;
  uint64_t refreshes = 0;
  uint64_t generations_picked_up = 0;
  uint64_t clients_total = 0;
  uint64_t clients_active = 0;
  uint32_t generation = 1;
  uint64_t entry_count = 0;
  // Cold bytes read through every reader handle the server has served
  // from, cumulative across refreshes (reads a retired snapshot makes
  // after its swap are not counted).
  uint64_t corpus_bytes_read = 0;
  ChunkCacheStats cache;
};

std::vector<uint8_t> EncodeServeInfo(const ServeInfo& info);
Result<ServeInfo> DecodeServeInfo(std::span<const uint8_t> payload);

std::vector<uint8_t> EncodeServeEntries(const std::vector<ServeEntry>& entries);
Result<std::vector<ServeEntry>> DecodeServeEntries(
    std::span<const uint8_t> payload);

std::vector<uint8_t> EncodeServeRefresh(const ServeRefresh& refresh);
Result<ServeRefresh> DecodeServeRefresh(std::span<const uint8_t> payload);

std::vector<uint8_t> EncodeServeStats(const ServeStats& stats);
Result<ServeStats> DecodeServeStats(std::span<const uint8_t> payload);

// `replay`'s body: the scored cell. Doubles are shipped as their exact
// bit patterns and the input assignment in full, so RowSignature of the
// decoded cell equals RowSignature computed server-side. The inference
// counters do not cross the wire (they are excluded from the signature
// for being wall-clock-bounded; see RowSignature).
std::vector<uint8_t> EncodeBatchCell(const BatchCell& cell);
Result<BatchCell> DecodeBatchCell(std::span<const uint8_t> payload);

}  // namespace ddr

#endif  // SRC_SERVER_PROTOCOL_H_
