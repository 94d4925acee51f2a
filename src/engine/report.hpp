// Structured result reporting: typed tables with text / CSV / JSON
// emitters.
//
// Grid results, bench artifacts, and example tables all land in a
// ResultTable — columns are created on first use and typed by the value
// set into them (string, integer, or real); rows print aligned for
// stdout, and the same table serializes to CSV (one header row) and JSON
// ({"table": ..., "meta": {...}, "columns": [...], "rows": [...]}), which
// is how the benches persist their BENCH_*.json / TABLE_*.csv perf
// trajectory across PRs.
//
//   ResultTable table("rates");
//   for (...) {
//     auto row = table.add_row();
//     row.set("loads", label).set("gcd", g);
//     add_stats_columns(row, stats);
//   }
//   std::fputs(table.to_text().c_str(), stdout);
//   table.write_csv("TABLE_rates.csv");
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <variant>
#include <vector>

#include "engine/experiment.hpp"
#include "engine/grid.hpp"

namespace rsb {

class ResultTable {
 public:
  /// monostate renders as an empty cell ("" / JSON null).
  using Cell = std::variant<std::monostate, std::int64_t, double, std::string>;

  explicit ResultTable(std::string name) : name_(std::move(name)) {}

  const std::string& name() const noexcept { return name_; }

  /// Cursor over one row; set() creates the column on first use.
  class Row {
   public:
    Row& set(const std::string& column, std::string value);
    Row& set(const std::string& column, const char* value);
    Row& set(const std::string& column, double value);
    Row& set(const std::string& column, std::int64_t value);
    Row& set(const std::string& column, std::uint64_t value);
    Row& set(const std::string& column, int value);

   private:
    friend class ResultTable;
    Row(ResultTable* table, std::size_t row) : table_(table), row_(row) {}
    ResultTable* table_;
    std::size_t row_;
  };

  Row add_row();
  std::size_t num_rows() const noexcept { return rows_.size(); }
  const std::vector<std::string>& columns() const noexcept { return columns_; }

  /// The cell at (row, column); monostate when the row never set it or
  /// the column does not exist.
  const Cell& at(std::size_t row, const std::string& column) const;

  /// Table-level metadata, emitted in the JSON header (e.g. bench name,
  /// hardware threads, shape-check failures).
  ResultTable& set_meta(const std::string& key, std::string value);
  ResultTable& set_meta(const std::string& key, std::int64_t value);
  ResultTable& set_meta(const std::string& key, double value);

  /// Aligned fixed-width text rendering (header + rows), for stdout.
  std::string to_text() const;
  /// RFC-4180-style CSV with a header row; cells containing separators or
  /// quotes are quoted and escaped.
  std::string to_csv() const;
  /// {"table": name, "meta": {...}, "columns": [...], "rows": [[...]]}.
  std::string to_json() const;

  /// Emitters to disk; return false (after printing a note) when the file
  /// cannot be opened.
  bool write_csv(const std::string& path) const;
  bool write_json(const std::string& path) const;

 private:
  std::size_t column_index(const std::string& column);

  std::string name_;
  std::vector<std::string> columns_;
  std::vector<std::vector<Cell>> rows_;
  std::vector<std::pair<std::string, Cell>> meta_;
};

/// Appends the standard RunStats columns to a row: runs, terminated,
/// termination_rate, mean_rounds, and — when the stats were task-checked —
/// successes and success_rate.
void add_stats_columns(ResultTable::Row& row, const RunStats& stats);

/// One row per grid point: the point's axis coordinates as columns (one
/// column per axis) followed by the standard stats columns. `results`
/// must be run_grid's output for the same grid, in expansion order.
ResultTable grid_table(std::string name, const Grid& grid,
                       const std::vector<RunStats>& results);

/// Appends the confidence-interval columns of a SuccessEstimate to a row:
/// ci_lo, ci_hi, and half_width (Wilson score interval at `z`).
void add_estimate_columns(ResultTable::Row& row,
                          const SuccessEstimate& estimate, double z = 1.96);

/// Adaptive counterpart: one row per grid point with the axis coordinate
/// columns, a runs_spent column (the runs spent at the point), the
/// standard stats columns, and the ci_lo/ci_hi/half_width columns of its
/// success_estimate at `z`. `result` must be run_grid_adaptive's output for the
/// same grid.
ResultTable grid_table(std::string name, const Grid& grid,
                       const AdaptiveGridResult& result,
                       double z = 1.96);

}  // namespace rsb
