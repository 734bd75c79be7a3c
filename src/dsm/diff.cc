#include "src/dsm/diff.h"

#include <cstring>

#include "src/util/check.h"
#include "src/util/serde.h"

namespace hmdsm::dsm {

Bytes Diff::Encode(ByteSpan twin, ByteSpan current, std::size_t merge_gap) {
  HMDSM_CHECK_MSG(twin.size() == current.size(),
                  "twin/current size mismatch: " << twin.size() << " vs "
                                                 << current.size());
  const std::size_t n = current.size();

  struct Run {
    std::size_t begin;
    std::size_t end;  // exclusive
  };
  std::vector<Run> runs;

  std::size_t i = 0;
  while (i < n) {
    if (twin[i] == current[i]) {
      ++i;
      continue;
    }
    // Start of a dirty run; optionally extend through small clean gaps
    // (safe only for single-writer objects — see header).
    std::size_t begin = i;
    std::size_t last_dirty = i;
    ++i;
    while (i < n) {
      if (twin[i] != current[i]) {
        last_dirty = i;
        ++i;
      } else if (i - last_dirty <= merge_gap) {
        ++i;  // clean byte inside the merge window
      } else {
        break;
      }
    }
    runs.push_back(Run{begin, last_dirty + 1});
  }

  Writer w;
  w.u32(static_cast<std::uint32_t>(n));
  w.u32(static_cast<std::uint32_t>(runs.size()));
  for (const Run& run : runs) {
    w.u32(static_cast<std::uint32_t>(run.begin));
    w.u32(static_cast<std::uint32_t>(run.end - run.begin));
    w.raw(current.subspan(run.begin, run.end - run.begin));
  }
  return w.take();
}

void Diff::Apply(ByteSpan diff, MutByteSpan target) {
  Reader r(diff);
  const std::uint32_t size = r.u32();
  HMDSM_CHECK_MSG(size == target.size(),
                  "diff target size mismatch: diff encoded for "
                      << size << " bytes, target has " << target.size());
  const std::uint32_t run_count = r.u32();
  std::size_t prev_end = 0;
  for (std::uint32_t k = 0; k < run_count; ++k) {
    const std::uint32_t offset = r.u32();
    const std::uint32_t length = r.u32();
    HMDSM_CHECK_MSG(offset >= prev_end, "diff runs out of order");
    HMDSM_CHECK_MSG(static_cast<std::size_t>(offset) + length <= target.size(),
                    "diff run exceeds object bounds");
    ByteSpan payload = r.raw(length);
    std::memcpy(target.data() + offset, payload.data(), length);
    prev_end = offset + length;
  }
  HMDSM_CHECK_MSG(r.done(), "trailing bytes after diff runs");
}

bool Diff::IsEmpty(ByteSpan diff) {
  Reader r(diff);
  r.u32();  // size
  return r.u32() == 0;
}

std::size_t Diff::PayloadBytes(ByteSpan diff) {
  Reader r(diff);
  r.u32();  // size
  const std::uint32_t run_count = r.u32();
  std::size_t total = 0;
  for (std::uint32_t k = 0; k < run_count; ++k) {
    r.u32();  // offset
    const std::uint32_t length = r.u32();
    total += length;
    r.raw(length);
  }
  return total;
}

std::size_t Diff::TargetSize(ByteSpan diff) {
  Reader r(diff);
  return r.u32();
}

}  // namespace hmdsm::dsm
