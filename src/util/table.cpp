#include "util/table.hpp"

#include "util/json.hpp"

#include <cstdio>
#include <iostream>
#include <sstream>
#include <stdexcept>

namespace sfn::util {

Table::Table(std::vector<std::string> header) : header_(std::move(header)) {
  if (header_.empty()) {
    throw std::invalid_argument("Table header must not be empty");
  }
}

void Table::add_row(std::vector<std::string> row) {
  if (row.size() != header_.size()) {
    throw std::invalid_argument("Table row width does not match header");
  }
  rows_.push_back(std::move(row));
}

std::string Table::to_string() const {
  std::vector<std::size_t> widths(header_.size());
  for (std::size_t c = 0; c < header_.size(); ++c) {
    widths[c] = header_[c].size();
  }
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }

  std::ostringstream out;
  auto emit_row = [&](const std::vector<std::string>& row) {
    out << "|";
    for (std::size_t c = 0; c < row.size(); ++c) {
      out << ' ' << row[c];
      out << std::string(widths[c] - row[c].size(), ' ') << " |";
    }
    out << '\n';
  };
  auto emit_rule = [&] {
    out << "+";
    for (std::size_t w : widths) {
      out << std::string(w + 2, '-') << '+';
    }
    out << '\n';
  };

  emit_rule();
  emit_row(header_);
  emit_rule();
  for (const auto& row : rows_) {
    emit_row(row);
  }
  emit_rule();
  return out.str();
}

std::string Table::to_csv() const {
  std::ostringstream out;
  auto emit = [&](const std::vector<std::string>& row) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      if (c > 0) out << ',';
      const bool needs_quote = row[c].find(',') != std::string::npos;
      if (needs_quote) out << '"' << row[c] << '"';
      else out << row[c];
    }
    out << '\n';
  };
  emit(header_);
  for (const auto& row : rows_) {
    emit(row);
  }
  return out.str();
}

std::string Table::to_json() const {
  std::ostringstream out;
  auto emit_string = [&](const std::string& s) {
    std::string escaped;
    append_json_escaped(&escaped, s);
    out << '"' << escaped << '"';
  };
  auto emit_array = [&](const std::vector<std::string>& row) {
    out << '[';
    for (std::size_t c = 0; c < row.size(); ++c) {
      if (c > 0) out << ", ";
      emit_string(row[c]);
    }
    out << ']';
  };
  out << "{\"columns\": ";
  emit_array(header_);
  out << ", \"rows\": [";
  for (std::size_t r = 0; r < rows_.size(); ++r) {
    if (r > 0) out << ", ";
    emit_array(rows_[r]);
  }
  out << "]}";
  return out.str();
}

void Table::print(const std::string& caption) const {
  if (!caption.empty()) {
    std::cout << caption << '\n';
  }
  std::cout << to_string() << std::flush;
}

std::string fmt(double value, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, value);
  return buf;
}

std::string fmt_sci(double value, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*e", precision, value);
  return buf;
}

std::string fmt_pct(double fraction, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f%%", precision, fraction * 100.0);
  return buf;
}

}  // namespace sfn::util
