#include "src/server/protocol.h"

#include <chrono>

#include "src/core/determinism_model.h"
#include "src/util/codec.h"
#include "src/util/crc32.h"
#include "src/util/string_util.h"

namespace ddr {

namespace {

// Payload bytes ride inside the codec's length-prefixed string field.
void PutBytes(Encoder& encoder, std::span<const uint8_t> bytes) {
  encoder.PutString(std::string_view(
      reinterpret_cast<const char*>(bytes.data()), bytes.size()));
}

Result<StatusCode> CheckedStatusCode(uint64_t raw) {
  if (raw > static_cast<uint64_t>(StatusCode::kResourceExhausted)) {
    return InvalidArgumentError(
        StrPrintf("rpc response carries unknown status code %llu",
                  static_cast<unsigned long long>(raw)));
  }
  return static_cast<StatusCode>(raw);
}

// A 32-bit field carried as a varint: a value past UINT32_MAX is
// corruption, never silently narrowed.
Result<uint32_t> GetVarint32Field(Decoder& decoder, const char* field) {
  ASSIGN_OR_RETURN(uint64_t value, decoder.GetVarint64());
  if (value > UINT32_MAX) {
    return InvalidArgumentError(
        StrPrintf("rpc payload field %s overflows 32 bits: %llu", field,
                  static_cast<unsigned long long>(value)));
  }
  return static_cast<uint32_t>(value);
}

Status CheckDone(const Decoder& decoder, const char* what) {
  if (!decoder.Done()) {
    return InvalidArgumentError(StrPrintf(
        "%s payload has %zu trailing bytes", what, decoder.remaining()));
  }
  return OkStatus();
}

void EncodeCacheStats(Encoder& encoder, const ChunkCacheStats& cache) {
  encoder.PutVarint64(cache.hits);
  encoder.PutVarint64(cache.misses);
  encoder.PutVarint64(cache.evictions);
  encoder.PutVarint64(cache.insertions);
  encoder.PutVarint64(cache.bytes_in_use);
  encoder.PutVarint64(cache.entries);
  encoder.PutVarint64(cache.capacity_bytes);
}

Result<ChunkCacheStats> DecodeCacheStats(Decoder& decoder) {
  ChunkCacheStats cache;
  ASSIGN_OR_RETURN(cache.hits, decoder.GetVarint64());
  ASSIGN_OR_RETURN(cache.misses, decoder.GetVarint64());
  ASSIGN_OR_RETURN(cache.evictions, decoder.GetVarint64());
  ASSIGN_OR_RETURN(cache.insertions, decoder.GetVarint64());
  ASSIGN_OR_RETURN(cache.bytes_in_use, decoder.GetVarint64());
  ASSIGN_OR_RETURN(cache.entries, decoder.GetVarint64());
  ASSIGN_OR_RETURN(cache.capacity_bytes, decoder.GetVarint64());
  return cache;
}

}  // namespace

std::string_view RpcCommandName(RpcCommand command) {
  switch (command) {
    case RpcCommand::kInfo:
      return "info";
    case RpcCommand::kList:
      return "list";
    case RpcCommand::kVerify:
      return "verify";
    case RpcCommand::kReplay:
      return "replay";
    case RpcCommand::kStats:
      return "stats";
    case RpcCommand::kRefresh:
      return "refresh";
    case RpcCommand::kShutdown:
      return "shutdown";
  }
  return "unknown";
}

Result<RpcCommand> ParseRpcCommand(const std::string& name) {
  for (size_t i = 0; i < kRpcCommandCount; ++i) {
    const RpcCommand command = static_cast<RpcCommand>(i);
    if (name == RpcCommandName(command)) {
      return command;
    }
  }
  return InvalidArgumentError(
      "unknown query command '" + name +
      "' (expected info|list|verify|replay|stats|refresh|shutdown)");
}

// ------------------------------------------------------------- framing

Status WriteFrame(const Socket& socket, std::span<const uint8_t> payload) {
  if (payload.size() > kRpcMaxPayloadBytes) {
    return InvalidArgumentError(
        StrPrintf("rpc payload of %zu bytes exceeds the %u-byte frame bound",
                  payload.size(), kRpcMaxPayloadBytes));
  }
  Encoder header;
  header.PutFixed32(kRpcFrameMagic);
  header.PutFixed32(static_cast<uint32_t>(payload.size()));
  header.PutFixed32(Crc32(payload.data(), payload.size()));
  RETURN_IF_ERROR(socket.SendAll(header.buffer().data(), header.size()));
  if (!payload.empty()) {
    RETURN_IF_ERROR(socket.SendAll(payload.data(), payload.size()));
  }
  return OkStatus();
}

namespace {

using RpcClock = std::chrono::steady_clock;

// RecvExact against a deadline: polls readability with the remaining
// budget before each recv chunk, so a peer that stalls mid-frame (or
// never sends at all) surfaces as DeadlineExceeded instead of parking
// the thread in a blocking recv. Mirrors RecvExact's EOF contract:
// false only on a clean close before the first byte.
Result<bool> RecvExactBy(const Socket& socket, uint8_t* data, size_t size,
                         RpcClock::time_point deadline) {
  size_t done = 0;
  while (done < size) {
    const auto now = RpcClock::now();
    if (now >= deadline) {
      return DeadlineExceededError(
          StrPrintf("deadline exceeded waiting for rpc frame bytes "
                    "(%zu of %zu received)",
                    done, size));
    }
    const auto left =
        std::chrono::duration_cast<std::chrono::milliseconds>(deadline - now)
            .count();
    ASSIGN_OR_RETURN(
        bool readable,
        WaitReadable(socket, static_cast<int>(left > 0 ? left : 1)));
    if (!readable) {
      continue;  // poll timeout or EINTR; the deadline check above decides
    }
    ASSIGN_OR_RETURN(size_t n, socket.RecvSome(data + done, size - done));
    if (n == 0) {
      if (done == 0) {
        return false;  // clean EOF on a message boundary
      }
      return UnavailableError(
          StrPrintf("connection closed mid-message (%zu of %zu bytes)", done,
                    size));
    }
    done += n;
  }
  return true;
}

// One frame read, parameterized over the byte-exact receive step so the
// blocking and deadline-bounded paths share the header/CRC validation.
template <typename RecvExactFn>
Result<std::optional<std::vector<uint8_t>>> ReadFrameImpl(
    RecvExactFn&& recv_exact) {
  uint8_t header[kRpcFrameHeaderBytes];
  ASSIGN_OR_RETURN(bool got, recv_exact(header, sizeof(header)));
  if (!got) {
    return std::optional<std::vector<uint8_t>>();  // clean EOF
  }
  Decoder decoder(header, sizeof(header));
  ASSIGN_OR_RETURN(uint32_t magic, decoder.GetFixed32());
  ASSIGN_OR_RETURN(uint32_t length, decoder.GetFixed32());
  ASSIGN_OR_RETURN(uint32_t crc, decoder.GetFixed32());
  if (magic != kRpcFrameMagic) {
    return InvalidArgumentError("bad rpc frame magic (not a ddr corpus rpc)");
  }
  if (length > kRpcMaxPayloadBytes) {
    return InvalidArgumentError(
        StrPrintf("rpc frame length %u exceeds the %u-byte bound", length,
                  kRpcMaxPayloadBytes));
  }
  std::vector<uint8_t> payload(length);
  if (length > 0) {
    ASSIGN_OR_RETURN(bool body, recv_exact(payload.data(), length));
    if (!body) {
      return UnavailableError("connection closed mid-frame");
    }
  }
  if (Crc32(payload.data(), payload.size()) != crc) {
    return InvalidArgumentError("rpc frame payload CRC mismatch");
  }
  return std::optional<std::vector<uint8_t>>(std::move(payload));
}

}  // namespace

Result<std::optional<std::vector<uint8_t>>> ReadFrame(const Socket& socket) {
  return ReadFrameImpl([&socket](uint8_t* data, size_t size) {
    return socket.RecvExact(data, size);
  });
}

Result<std::optional<std::vector<uint8_t>>> ReadFrameWithDeadline(
    const Socket& socket, int timeout_ms) {
  if (timeout_ms <= 0) {
    return ReadFrame(socket);
  }
  const RpcClock::time_point deadline =
      RpcClock::now() + std::chrono::milliseconds(timeout_ms);
  return ReadFrameImpl([&socket, deadline](uint8_t* data, size_t size) {
    return RecvExactBy(socket, data, size, deadline);
  });
}

// ------------------------------------------------------------ messages

std::vector<uint8_t> EncodeRequest(const RpcRequest& request) {
  Encoder encoder;
  encoder.PutFixed8(static_cast<uint8_t>(request.command));
  encoder.PutString(request.name);
  encoder.PutString(request.model);
  return encoder.TakeBuffer();
}

Result<RpcRequest> DecodeRequest(std::span<const uint8_t> payload) {
  Decoder decoder(payload.data(), payload.size());
  RpcRequest request;
  ASSIGN_OR_RETURN(uint8_t command, decoder.GetFixed8());
  if (command >= kRpcCommandCount) {
    return InvalidArgumentError(
        StrPrintf("unknown rpc command byte %u", command));
  }
  request.command = static_cast<RpcCommand>(command);
  ASSIGN_OR_RETURN(request.name, decoder.GetString());
  ASSIGN_OR_RETURN(request.model, decoder.GetString());
  RETURN_IF_ERROR(CheckDone(decoder, "request"));
  return request;
}

std::vector<uint8_t> EncodeResponse(const RpcResponse& response) {
  Encoder encoder;
  encoder.PutVarint64(static_cast<uint64_t>(response.code));
  encoder.PutString(response.message);
  PutBytes(encoder, response.payload);
  return encoder.TakeBuffer();
}

Result<RpcResponse> DecodeResponse(std::span<const uint8_t> payload) {
  Decoder decoder(payload.data(), payload.size());
  RpcResponse response;
  ASSIGN_OR_RETURN(uint64_t code, decoder.GetVarint64());
  ASSIGN_OR_RETURN(response.code, CheckedStatusCode(code));
  ASSIGN_OR_RETURN(response.message, decoder.GetString());
  ASSIGN_OR_RETURN(std::string body, decoder.GetString());
  response.payload.assign(body.begin(), body.end());
  RETURN_IF_ERROR(CheckDone(decoder, "response"));
  return response;
}

// -------------------------------------------------------- typed bodies

std::vector<uint8_t> EncodeServeInfo(const ServeInfo& info) {
  Encoder encoder;
  encoder.PutString(info.path);
  encoder.PutVarint64(info.file_size);
  encoder.PutBool(info.journaled);
  encoder.PutVarint64(info.format_version);
  encoder.PutVarint64(info.generation);
  encoder.PutVarint64(info.dead_bytes);
  encoder.PutVarint64(info.entry_count);
  encoder.PutString(info.io_backend);
  encoder.PutBool(info.writer_active);
  return encoder.TakeBuffer();
}

Result<ServeInfo> DecodeServeInfo(std::span<const uint8_t> payload) {
  Decoder decoder(payload.data(), payload.size());
  ServeInfo info;
  ASSIGN_OR_RETURN(info.path, decoder.GetString());
  ASSIGN_OR_RETURN(info.file_size, decoder.GetVarint64());
  ASSIGN_OR_RETURN(info.journaled, decoder.GetBool());
  ASSIGN_OR_RETURN(info.format_version,
                   GetVarint32Field(decoder, "format_version"));
  ASSIGN_OR_RETURN(info.generation, GetVarint32Field(decoder, "generation"));
  ASSIGN_OR_RETURN(info.dead_bytes, decoder.GetVarint64());
  ASSIGN_OR_RETURN(info.entry_count, decoder.GetVarint64());
  ASSIGN_OR_RETURN(info.io_backend, decoder.GetString());
  ASSIGN_OR_RETURN(info.writer_active, decoder.GetBool());
  RETURN_IF_ERROR(CheckDone(decoder, "info"));
  return info;
}

std::vector<uint8_t> EncodeServeEntries(
    const std::vector<ServeEntry>& entries) {
  Encoder encoder;
  encoder.PutVarint64(entries.size());
  for (const ServeEntry& entry : entries) {
    encoder.PutString(entry.name);
    encoder.PutString(entry.model);
    encoder.PutString(entry.scenario);
    encoder.PutVarint64(entry.event_count);
    encoder.PutVarint64(entry.length);
  }
  return encoder.TakeBuffer();
}

Result<std::vector<ServeEntry>> DecodeServeEntries(
    std::span<const uint8_t> payload) {
  Decoder decoder(payload.data(), payload.size());
  ASSIGN_OR_RETURN(uint64_t count, decoder.GetVarint64());
  // Same defense as the corpus index decoder: bound the reserve by what
  // the payload could physically hold (>= 5 bytes per entry: three
  // 1-byte string lengths + two varints).
  if (count > payload.size()) {
    return InvalidArgumentError("entry list count exceeds payload size");
  }
  std::vector<ServeEntry> entries;
  entries.reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    ServeEntry entry;
    ASSIGN_OR_RETURN(entry.name, decoder.GetString());
    ASSIGN_OR_RETURN(entry.model, decoder.GetString());
    ASSIGN_OR_RETURN(entry.scenario, decoder.GetString());
    ASSIGN_OR_RETURN(entry.event_count, decoder.GetVarint64());
    ASSIGN_OR_RETURN(entry.length, decoder.GetVarint64());
    entries.push_back(std::move(entry));
  }
  RETURN_IF_ERROR(CheckDone(decoder, "list"));
  return entries;
}

std::vector<uint8_t> EncodeServeRefresh(const ServeRefresh& refresh) {
  Encoder encoder;
  encoder.PutVarint64(refresh.generation_before);
  encoder.PutVarint64(refresh.generation_after);
  encoder.PutVarint64(refresh.entries_before);
  encoder.PutVarint64(refresh.entries_after);
  encoder.PutBool(refresh.picked_up);
  return encoder.TakeBuffer();
}

Result<ServeRefresh> DecodeServeRefresh(std::span<const uint8_t> payload) {
  Decoder decoder(payload.data(), payload.size());
  ServeRefresh refresh;
  ASSIGN_OR_RETURN(refresh.generation_before,
                   GetVarint32Field(decoder, "generation_before"));
  ASSIGN_OR_RETURN(refresh.generation_after,
                   GetVarint32Field(decoder, "generation_after"));
  ASSIGN_OR_RETURN(refresh.entries_before, decoder.GetVarint64());
  ASSIGN_OR_RETURN(refresh.entries_after, decoder.GetVarint64());
  ASSIGN_OR_RETURN(refresh.picked_up, decoder.GetBool());
  RETURN_IF_ERROR(CheckDone(decoder, "refresh"));
  return refresh;
}

std::vector<uint8_t> EncodeServeStats(const ServeStats& stats) {
  Encoder encoder;
  encoder.PutVarint64(stats.requests_total);
  encoder.PutVarint64(kRpcCommandCount);
  for (uint64_t count : stats.requests_by_command) {
    encoder.PutVarint64(count);
  }
  encoder.PutVarint64(stats.bytes_served);
  encoder.PutVarint64(stats.overload_rejections);
  encoder.PutVarint64(stats.refreshes);
  encoder.PutVarint64(stats.generations_picked_up);
  encoder.PutVarint64(stats.clients_total);
  encoder.PutVarint64(stats.clients_active);
  encoder.PutVarint64(stats.generation);
  encoder.PutVarint64(stats.entry_count);
  encoder.PutVarint64(stats.corpus_bytes_read);
  EncodeCacheStats(encoder, stats.cache);
  return encoder.TakeBuffer();
}

Result<ServeStats> DecodeServeStats(std::span<const uint8_t> payload) {
  Decoder decoder(payload.data(), payload.size());
  ServeStats stats;
  ASSIGN_OR_RETURN(stats.requests_total, decoder.GetVarint64());
  ASSIGN_OR_RETURN(uint64_t commands, decoder.GetVarint64());
  if (commands != kRpcCommandCount) {
    return InvalidArgumentError(
        StrPrintf("stats payload lists %llu commands, expected %zu",
                  static_cast<unsigned long long>(commands),
                  kRpcCommandCount));
  }
  for (size_t i = 0; i < kRpcCommandCount; ++i) {
    ASSIGN_OR_RETURN(stats.requests_by_command[i], decoder.GetVarint64());
  }
  ASSIGN_OR_RETURN(stats.bytes_served, decoder.GetVarint64());
  ASSIGN_OR_RETURN(stats.overload_rejections, decoder.GetVarint64());
  ASSIGN_OR_RETURN(stats.refreshes, decoder.GetVarint64());
  ASSIGN_OR_RETURN(stats.generations_picked_up, decoder.GetVarint64());
  ASSIGN_OR_RETURN(stats.clients_total, decoder.GetVarint64());
  ASSIGN_OR_RETURN(stats.clients_active, decoder.GetVarint64());
  ASSIGN_OR_RETURN(stats.generation, GetVarint32Field(decoder, "generation"));
  ASSIGN_OR_RETURN(stats.entry_count, decoder.GetVarint64());
  ASSIGN_OR_RETURN(stats.corpus_bytes_read, decoder.GetVarint64());
  ASSIGN_OR_RETURN(stats.cache, DecodeCacheStats(decoder));
  RETURN_IF_ERROR(CheckDone(decoder, "stats"));
  return stats;
}

std::vector<uint8_t> EncodeBatchCell(const BatchCell& cell) {
  const ExperimentRow& row = cell.row;
  Encoder encoder;
  encoder.PutString(cell.scenario);
  encoder.PutString(cell.recording_name);
  encoder.PutString(row.model_name);
  encoder.PutString(DeterminismModelName(row.model));
  encoder.PutDouble(row.overhead_multiplier);
  encoder.PutVarint64(row.log_bytes);
  encoder.PutVarint64(row.recorded_events);
  encoder.PutBool(row.failure_reproduced);
  encoder.PutBool(row.diagnosed_cause.has_value());
  encoder.PutString(row.diagnosed_cause.value_or(""));
  encoder.PutVarint64(row.divergences);
  encoder.PutDouble(row.fidelity);
  encoder.PutDouble(row.efficiency);
  encoder.PutDouble(row.utility);
  encoder.PutDouble(row.original_wall_seconds);
  encoder.PutDouble(row.replay_wall_seconds);
  encoder.PutVarint64(row.input_assignment.size());
  for (int64_t value : row.input_assignment) {
    encoder.PutZigzag64(value);
  }
  encoder.PutVarint64(row.inference.attempts);
  encoder.PutVarint64(row.inference.total_events_simulated);
  encoder.PutVarint64(row.inference.solver_nodes);
  return encoder.TakeBuffer();
}

Result<BatchCell> DecodeBatchCell(std::span<const uint8_t> payload) {
  Decoder decoder(payload.data(), payload.size());
  BatchCell cell;
  ExperimentRow& row = cell.row;
  ASSIGN_OR_RETURN(cell.scenario, decoder.GetString());
  ASSIGN_OR_RETURN(cell.recording_name, decoder.GetString());
  ASSIGN_OR_RETURN(row.model_name, decoder.GetString());
  ASSIGN_OR_RETURN(std::string model, decoder.GetString());
  ASSIGN_OR_RETURN(row.model, ParseDeterminismModel(model));
  ASSIGN_OR_RETURN(row.overhead_multiplier, decoder.GetDouble());
  ASSIGN_OR_RETURN(row.log_bytes, decoder.GetVarint64());
  ASSIGN_OR_RETURN(row.recorded_events, decoder.GetVarint64());
  ASSIGN_OR_RETURN(row.failure_reproduced, decoder.GetBool());
  ASSIGN_OR_RETURN(bool diagnosed, decoder.GetBool());
  ASSIGN_OR_RETURN(std::string cause, decoder.GetString());
  if (diagnosed) {
    row.diagnosed_cause = std::move(cause);
  }
  ASSIGN_OR_RETURN(row.divergences, decoder.GetVarint64());
  ASSIGN_OR_RETURN(row.fidelity, decoder.GetDouble());
  ASSIGN_OR_RETURN(row.efficiency, decoder.GetDouble());
  ASSIGN_OR_RETURN(row.utility, decoder.GetDouble());
  ASSIGN_OR_RETURN(row.original_wall_seconds, decoder.GetDouble());
  ASSIGN_OR_RETURN(row.replay_wall_seconds, decoder.GetDouble());
  ASSIGN_OR_RETURN(uint64_t inputs, decoder.GetVarint64());
  if (inputs > payload.size()) {
    return InvalidArgumentError("input assignment count exceeds payload size");
  }
  row.input_assignment.reserve(inputs);
  for (uint64_t i = 0; i < inputs; ++i) {
    ASSIGN_OR_RETURN(int64_t value, decoder.GetZigzag64());
    row.input_assignment.push_back(value);
  }
  ASSIGN_OR_RETURN(row.inference.attempts, decoder.GetVarint64());
  ASSIGN_OR_RETURN(row.inference.total_events_simulated, decoder.GetVarint64());
  ASSIGN_OR_RETURN(row.inference.solver_nodes, decoder.GetVarint64());
  RETURN_IF_ERROR(CheckDone(decoder, "replay"));
  return cell;
}

}  // namespace ddr
