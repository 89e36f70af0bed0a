#include "common/table.hpp"

#include <algorithm>
#include <cstdio>
#include <iostream>
#include <sstream>

namespace bbal {

TextTable::TextTable(std::vector<std::string> header)
    : header_(std::move(header)) {}

void TextTable::add_row(std::vector<std::string> cells) {
  cells.resize(header_.size());
  rows_.push_back(std::move(cells));
}

std::string TextTable::num(double v, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
  return buf;
}

std::string TextTable::render() const {
  std::vector<std::size_t> widths(header_.size(), 0);
  for (std::size_t c = 0; c < header_.size(); ++c)
    widths[c] = header_[c].size();
  for (const auto& row : rows_)
    for (std::size_t c = 0; c < row.size(); ++c)
      widths[c] = std::max(widths[c], row[c].size());

  std::ostringstream out;
  auto emit_row = [&](const std::vector<std::string>& row) {
    out << "|";
    for (std::size_t c = 0; c < header_.size(); ++c) {
      const std::string& cell = c < row.size() ? row[c] : std::string{};
      out << ' ' << cell << std::string(widths[c] - cell.size(), ' ') << " |";
    }
    out << '\n';
  };
  emit_row(header_);
  out << "|";
  for (std::size_t c = 0; c < header_.size(); ++c)
    out << std::string(widths[c] + 2, '-') << "|";
  out << '\n';
  for (const auto& row : rows_) emit_row(row);
  return out.str();
}

void TextTable::print() const { std::cout << render(); }

void print_banner(const std::string& title) {
  std::cout << '\n'
            << "==== " << title << " " << std::string(std::max<std::size_t>(
                   4, 72 - title.size()), '=')
            << '\n';
}

}  // namespace bbal
