// Console table formatting for the CLI report and the trace summary.
//
// This helper keeps printed rows aligned and diff-friendly.
#pragma once

#include <initializer_list>
#include <ostream>
#include <string>
#include <vector>

namespace hmdsm {

/// A simple right-aligned console table. Columns are sized to the widest
/// cell; numeric formatting is the caller's business (use Fmt* helpers).
class Table {
 public:
  explicit Table(std::vector<std::string> header);

  Table& AddRow(std::vector<std::string> cells);

  /// Renders with a header rule. Cells never wrap.
  void Print(std::ostream& os) const;

  std::size_t rows() const { return rows_.size(); }

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

/// Fixed-decimal formatting (no locale surprises).
std::string FmtF(double v, int decimals = 2);
/// Integer with thousands separators: 1234567 -> "1,234,567".
std::string FmtI(long long v);
/// Percentage with sign: 0.1234 -> "+12.3%".
std::string FmtPct(double fraction, int decimals = 1);
/// Human bytes: 1536 -> "1.5 KB".
std::string FmtBytes(double bytes);
/// Seconds with adaptive unit: 0.000070 -> "70.0 us".
std::string FmtSeconds(double seconds);

}  // namespace hmdsm
