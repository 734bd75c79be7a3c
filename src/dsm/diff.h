// Twin/diff codec for the multiple-writer protocol.
//
// On the first write to a cached copy within a synchronization interval, the
// DSM creates a *twin* (a snapshot of the object). At release time the
// *diff* — the byte ranges that changed relative to the twin — is encoded
// and shipped to the home, where it is applied to the home copy. This is the
// TreadMarks/HLRC mechanism the paper builds on (Section 3.1).
//
// Encoding: u32 object size | u32 run count | runs of {u32 offset, u32
// length, payload}.
//
// Diffs are EXACT by default (merge_gap = 0): a run contains only bytes
// that actually changed. This is a correctness requirement of the
// multiple-writer protocol, not a tuning choice — merging runs across
// clean gaps would ship unchanged (twin) bytes, and applying such a diff
// at the home can overwrite a concurrent writer's already-merged update
// with stale data under false sharing. A nonzero merge gap is only safe
// when the caller knows the object has a single writer per interval.
#pragma once

#include <cstddef>
#include <string>

#include "src/util/bytes.h"

namespace hmdsm::dsm {

class Diff {
 public:
  /// Encodes the changes that transform `twin` into `current`.
  /// Requires twin.size() == current.size(). `merge_gap` > 0 merges runs
  /// separated by at most that many clean bytes (see the header comment
  /// for why the default must stay 0).
  static Bytes Encode(ByteSpan twin, ByteSpan current,
                      std::size_t merge_gap = 0);

  /// Applies an encoded diff to `target` in place.
  /// Requires target.size() == the object size recorded in the diff.
  static void Apply(ByteSpan diff, MutByteSpan target);

  /// True if the diff carries no changed ranges.
  static bool IsEmpty(ByteSpan diff);

  /// Number of changed-run payload bytes (excludes headers) — the paper's
  /// "diff size d" used by the home access coefficient.
  static std::size_t PayloadBytes(ByteSpan diff);

  /// Object size recorded in the encoded diff.
  static std::size_t TargetSize(ByteSpan diff);
};

}  // namespace hmdsm::dsm
