#include "engine/report.hpp"

#include <cstdio>

#include "util/error.hpp"
#include "util/json_string.hpp"

namespace rsb {

namespace {

/// %.10g keeps doubles readable while round-tripping the rates and means
/// the tables carry (counters are int64 cells, never doubles).
std::string format_double(double value) {
  char buffer[48];
  std::snprintf(buffer, sizeof(buffer), "%.10g", value);
  return buffer;
}

std::string cell_to_display(const ResultTable::Cell& cell) {
  switch (cell.index()) {
    case 1:
      return std::to_string(std::get<std::int64_t>(cell));
    case 2:
      return format_double(std::get<double>(cell));
    case 3:
      return std::get<std::string>(cell);
    default:
      return "";
  }
}

std::string csv_escape(const std::string& field) {
  if (field.find_first_of(",\"\n") == std::string::npos) return field;
  std::string out = "\"";
  for (char c : field) {
    if (c == '"') out += '"';
    out += c;
  }
  return out + "\"";
}

std::string cell_to_json(const ResultTable::Cell& cell) {
  switch (cell.index()) {
    case 1:
      return std::to_string(std::get<std::int64_t>(cell));
    case 2:
      return format_double(std::get<double>(cell));
    case 3: {
      std::string out;
      append_json_string(out, std::get<std::string>(cell));
      return out;
    }
    default:
      return "null";
  }
}

}  // namespace

ResultTable::Row& ResultTable::Row::set(const std::string& column,
                                        std::string value) {
  table_->rows_[row_][table_->column_index(column)] = std::move(value);
  return *this;
}

ResultTable::Row& ResultTable::Row::set(const std::string& column,
                                        const char* value) {
  return set(column, std::string(value));
}

ResultTable::Row& ResultTable::Row::set(const std::string& column,
                                        double value) {
  table_->rows_[row_][table_->column_index(column)] = value;
  return *this;
}

ResultTable::Row& ResultTable::Row::set(const std::string& column,
                                        std::int64_t value) {
  table_->rows_[row_][table_->column_index(column)] = value;
  return *this;
}

ResultTable::Row& ResultTable::Row::set(const std::string& column,
                                        std::uint64_t value) {
  return set(column, static_cast<std::int64_t>(value));
}

ResultTable::Row& ResultTable::Row::set(const std::string& column, int value) {
  return set(column, static_cast<std::int64_t>(value));
}

ResultTable::Row ResultTable::add_row() {
  rows_.emplace_back(columns_.size());
  return Row(this, rows_.size() - 1);
}

const ResultTable::Cell& ResultTable::at(std::size_t row,
                                         const std::string& column) const {
  static const Cell empty{};
  if (row >= rows_.size()) {
    throw InvalidArgument("ResultTable::at: row " + std::to_string(row) +
                          " out of range");
  }
  for (std::size_t c = 0; c < columns_.size(); ++c) {
    if (columns_[c] == column) {
      return c < rows_[row].size() ? rows_[row][c] : empty;
    }
  }
  return empty;
}

ResultTable& ResultTable::set_meta(const std::string& key, std::string value) {
  meta_.emplace_back(key, Cell(std::move(value)));
  return *this;
}

ResultTable& ResultTable::set_meta(const std::string& key,
                                   std::int64_t value) {
  meta_.emplace_back(key, Cell(value));
  return *this;
}

ResultTable& ResultTable::set_meta(const std::string& key, double value) {
  meta_.emplace_back(key, Cell(value));
  return *this;
}

std::size_t ResultTable::column_index(const std::string& column) {
  for (std::size_t c = 0; c < columns_.size(); ++c) {
    if (columns_[c] == column) return c;
  }
  columns_.push_back(column);
  for (std::vector<Cell>& row : rows_) row.resize(columns_.size());
  return columns_.size() - 1;
}

std::string ResultTable::to_text() const {
  std::vector<std::size_t> widths(columns_.size());
  for (std::size_t c = 0; c < columns_.size(); ++c) {
    widths[c] = columns_[c].size();
    for (const std::vector<Cell>& row : rows_) {
      if (c < row.size()) {
        widths[c] = std::max(widths[c], cell_to_display(row[c]).size());
      }
    }
  }
  std::string out;
  auto emit_line = [&](auto field_of) {
    for (std::size_t c = 0; c < columns_.size(); ++c) {
      const std::string field = field_of(c);
      if (c != 0) out += "  ";
      out.append(widths[c] - field.size(), ' ');
      out += field;
    }
    out += "\n";
  };
  emit_line([&](std::size_t c) { return columns_[c]; });
  for (const std::vector<Cell>& row : rows_) {
    emit_line([&](std::size_t c) {
      return c < row.size() ? cell_to_display(row[c]) : std::string();
    });
  }
  return out;
}

std::string ResultTable::to_csv() const {
  std::string out;
  for (std::size_t c = 0; c < columns_.size(); ++c) {
    if (c != 0) out += ",";
    out += csv_escape(columns_[c]);
  }
  out += "\n";
  for (const std::vector<Cell>& row : rows_) {
    for (std::size_t c = 0; c < columns_.size(); ++c) {
      if (c != 0) out += ",";
      if (c < row.size()) out += csv_escape(cell_to_display(row[c]));
    }
    out += "\n";
  }
  return out;
}

std::string ResultTable::to_json() const {
  std::string out = "{\n  \"table\": ";
  append_json_string(out, name_);
  out += ",\n  \"meta\": {";
  for (std::size_t m = 0; m < meta_.size(); ++m) {
    if (m != 0) out += ", ";
    append_json_string(out, meta_[m].first);
    out += ": " + cell_to_json(meta_[m].second);
  }
  out += "},\n  \"columns\": [";
  for (std::size_t c = 0; c < columns_.size(); ++c) {
    if (c != 0) out += ", ";
    append_json_string(out, columns_[c]);
  }
  out += "],\n  \"rows\": [\n";
  for (std::size_t r = 0; r < rows_.size(); ++r) {
    out += "    [";
    for (std::size_t c = 0; c < columns_.size(); ++c) {
      if (c != 0) out += ", ";
      out += c < rows_[r].size() ? cell_to_json(rows_[r][c]) : "null";
    }
    out += r + 1 < rows_.size() ? "],\n" : "]\n";
  }
  out += "  ]\n}\n";
  return out;
}

namespace {

bool write_file(const std::string& path, const std::string& content) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    std::printf("  (could not open %s for writing)\n", path.c_str());
    return false;
  }
  std::fwrite(content.data(), 1, content.size(), out);
  std::fclose(out);
  return true;
}

}  // namespace

bool ResultTable::write_csv(const std::string& path) const {
  return write_file(path, to_csv());
}

bool ResultTable::write_json(const std::string& path) const {
  return write_file(path, to_json());
}

void add_stats_columns(ResultTable::Row& row, const RunStats& stats) {
  row.set("runs", stats.runs)
      .set("terminated", stats.terminated)
      .set("termination_rate", stats.termination_rate())
      .set("mean_rounds", stats.mean_rounds());
  if (stats.task_checked) {
    row.set("successes", stats.task_successes)
        .set("success_rate", stats.success_rate());
  }
}

ResultTable grid_table(std::string name, const Grid& grid,
                       const std::vector<RunStats>& results) {
  const std::vector<GridPoint> points = grid.expand();
  if (points.size() != results.size()) {
    throw InvalidArgument(
        "grid_table: results size does not match the grid expansion (" +
        std::to_string(results.size()) + " vs " +
        std::to_string(points.size()) + ")");
  }
  ResultTable table(std::move(name));
  for (std::size_t i = 0; i < points.size(); ++i) {
    auto row = table.add_row();
    for (const auto& [axis, value] : points[i].coords) {
      row.set(axis, value);
    }
    add_stats_columns(row, results[i]);
  }
  return table;
}

void add_estimate_columns(ResultTable::Row& row,
                          const SuccessEstimate& estimate, double z) {
  row.set("ci_lo", estimate.ci_lo(z))
      .set("ci_hi", estimate.ci_hi(z))
      .set("half_width", estimate.half_width(z));
}

ResultTable grid_table(std::string name, const Grid& grid,
                       const AdaptiveGridResult& result, double z) {
  const std::vector<GridPoint> points = grid.expand();
  if (points.size() != result.points.size()) {
    throw InvalidArgument(
        "grid_table: adaptive result size does not match the grid "
        "expansion (" +
        std::to_string(result.points.size()) + " vs " +
        std::to_string(points.size()) + ")");
  }
  ResultTable table(std::move(name));
  for (std::size_t i = 0; i < points.size(); ++i) {
    auto row = table.add_row();
    for (const auto& [axis, value] : points[i].coords) {
      row.set(axis, value);
    }
    row.set("runs_spent", result.points[i].runs);
    add_stats_columns(row, result.points[i]);
    add_estimate_columns(row, success_estimate(result.points[i]), z);
  }
  return table;
}

}  // namespace rsb
