// Self-contained block compressor for trace chunks ("ddrz").
//
// A dependency-free greedy LZ77 over a whole block: hash-chained matching of
// 4-byte sequences, emitted as (literal-run, match) token pairs. Varint-heavy
// event chunks compress well because consecutive events share type/obj/fiber
// bytes. The format is byte-oriented and platform independent:
//
//   token := literal_len  varint
//            match_len    varint   (0 = no match; otherwise >= kMinMatch)
//            literal bytes [literal_len]
//            distance     varint   (present iff match_len > 0; 1-based)
//
// Tokens repeat until the uncompressed size (framed by the caller) is
// reached. Decompression validates every length/distance and returns an
// error Status on malformed input instead of reading out of bounds.

#ifndef SRC_TRACE_BLOCK_COMPRESS_H_
#define SRC_TRACE_BLOCK_COMPRESS_H_

#include <cstdint>
#include <vector>

#include "src/util/status.h"

namespace ddr {

// Compresses `input`; output is appended to a fresh buffer. The result may
// be larger than the input for incompressible data — callers
// (EncodeTraceSection) fall back to storing raw when that happens.
std::vector<uint8_t> CompressBlock(const std::vector<uint8_t>& input);

// Decompresses a block produced by CompressBlock. `expected_size` is the
// framed uncompressed size; a mismatch is an error.
Result<std::vector<uint8_t>> DecompressBlock(const uint8_t* data, size_t size,
                                             size_t expected_size);

}  // namespace ddr

#endif  // SRC_TRACE_BLOCK_COMPRESS_H_
