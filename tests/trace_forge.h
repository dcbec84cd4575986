// Test helper: forges CRC-valid DDRT images whose footer-reachable
// sections say something the events do not, so a test can show that a
// reader's structural checks (not its CRCs) reject them.

#ifndef TESTS_TRACE_FORGE_H_
#define TESTS_TRACE_FORGE_H_

#include <gtest/gtest.h>

#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "src/trace/trace_reader.h"
#include "src/util/codec.h"

namespace ddr {

// Edits applied to a decoded image before it is re-sealed.
using TraceForgery = std::function<void(TraceMetadata*, TraceFooter*)>;

// Returns `image` with its trailer replaced by fresh metadata, snapshot
// and footer sections (as edited by `forge`) and a new trailer.
// The event chunks keep their offsets and every section carries a valid
// CRC. `scratch_path` is overwritten and removed.
inline std::vector<uint8_t> ForgeTrace(const std::vector<uint8_t>& image,
                                       const std::string& scratch_path,
                                       const TraceForgery& forge) {
  std::FILE* file = std::fopen(scratch_path.c_str(), "wb");
  EXPECT_NE(file, nullptr);
  if (file == nullptr) {
    return {};
  }
  EXPECT_EQ(std::fwrite(image.data(), 1, image.size(), file), image.size());
  EXPECT_EQ(std::fclose(file), 0);
  auto reader = TraceReader::Open(scratch_path);
  std::remove(scratch_path.c_str());
  EXPECT_TRUE(reader.ok()) << reader.status();
  if (!reader.ok()) {
    return {};
  }

  TraceMetadata metadata = reader->metadata();
  TraceFooter footer;
  footer.total_events = reader->total_events();
  footer.chunks = reader->chunks();
  forge(&metadata, &footer);

  std::vector<uint8_t> out(image.begin(), image.end() - kTraceTrailerBytes);
  footer.metadata_offset = AppendTraceSection(&out, TraceSection::kMetadata,
                                              metadata.Encode(), true);
  footer.snapshot_offset = AppendTraceSection(
      &out, TraceSection::kSnapshot, reader->snapshot().Encode(), true);
  const uint64_t footer_offset =
      AppendTraceSection(&out, TraceSection::kFooter, footer.Encode(), false);
  Encoder trailer;
  trailer.PutFixed64(footer_offset);
  trailer.PutFixed32(kTraceTrailerMagic);
  out.insert(out.end(), trailer.buffer().begin(), trailer.buffer().end());
  return out;
}

}  // namespace ddr

#endif  // TESTS_TRACE_FORGE_H_
