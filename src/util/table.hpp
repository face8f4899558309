// Minimal table builder for bench harness output.
//
// Every experiment binary prints GitHub-flavoured markdown tables so that the
// rows can be pasted directly into EXPERIMENTS.md. Cells are strings; numeric
// helpers format with a fixed precision.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace dmis::util {

class Table {
 public:
  explicit Table(std::vector<std::string> headers);

  /// Begin a new row; subsequent cell() calls append to it.
  Table& row();
  Table& cell(std::string text);
  Table& cell(std::int64_t value);
  Table& cell(std::uint64_t value);
  Table& cell(double value, int precision = 3);
  /// "mean ± ci" cell used for statistical columns.
  Table& cell_pm(double mean, double halfwidth, int precision = 3);

  /// Render as a markdown table with aligned columns.
  void print(std::ostream& os) const;

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

/// Print a "## title" heading followed by the table and a blank line.
void print_section(std::ostream& os, const std::string& title, const Table& table);

/// Format helper shared by Table and ad-hoc output.
[[nodiscard]] std::string format_double(double value, int precision);

}  // namespace dmis::util
