#include "dataset/dataset_io.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace fastbns {
namespace {

std::vector<std::string> split_csv_line(const std::string& line) {
  std::vector<std::string> cells;
  std::stringstream stream(line);
  std::string cell;
  while (std::getline(stream, cell, ',')) {
    // Trim surrounding whitespace/CR.
    const auto first = cell.find_first_not_of(" \t\r");
    const auto last = cell.find_last_not_of(" \t\r");
    cells.push_back(first == std::string::npos
                        ? std::string{}
                        : cell.substr(first, last - first + 1));
  }
  return cells;
}

/// Writes the header row shared by both save_csv overloads.
void write_header(std::ofstream& out, VarId num_vars,
                  const std::vector<std::string>& names) {
  for (VarId v = 0; v < num_vars; ++v) {
    if (v != 0) out << ',';
    if (static_cast<std::size_t>(v) < names.size() && !names[v].empty()) {
      out << names[v];
    } else {
      out << 'V' << v;
    }
  }
  out << '\n';
}

/// Integer in [0, 255] — the discrete-cell grammar. `value` receives the
/// parse on success.
bool parse_byte_cell(const std::string& cell, int& value) {
  if (cell.empty()) return false;
  std::size_t consumed = 0;
  try {
    value = std::stoi(cell, &consumed);
  } catch (const std::exception&) {
    return false;
  }
  return consumed == cell.size() && value >= 0 && value <= 255;
}

/// Any finite floating-point number; "nan" and "inf" parse but are
/// rejected, since one of them poisons every statistic of its column.
/// `value` receives the parse.
bool parse_double_cell(const std::string& cell, double& value) {
  if (cell.empty()) return false;
  std::size_t consumed = 0;
  try {
    value = std::stod(cell, &consumed);
  } catch (const std::exception&) {
    return false;
  }
  return consumed == cell.size() && std::isfinite(value);
}

/// The parse error both loaders throw, naming the cell, its data row
/// (1-based, blank lines skipped), its column and the file.
std::runtime_error cell_error(const char* loader, const std::string& cell,
                              Count row, VarId v,
                              const std::vector<std::string>& names,
                              const std::string& path, const char* expected) {
  const std::string column = static_cast<std::size_t>(v) < names.size()
                                 ? names[static_cast<std::size_t>(v)]
                                 : std::to_string(v);
  return std::runtime_error(std::string(loader) + ": cell \"" + cell +
                            "\" (row " + std::to_string(row) + ", column " +
                            column + ") in " + path + " " + expected);
}

}  // namespace

bool save_csv(const DiscreteDataset& data, const std::vector<std::string>& names,
              const std::string& path) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  write_header(out, data.num_vars(), names);
  for (Count s = 0; s < data.num_samples(); ++s) {
    for (VarId v = 0; v < data.num_vars(); ++v) {
      if (v != 0) out << ',';
      out << static_cast<int>(data.value(s, v));
    }
    out << '\n';
  }
  return static_cast<bool>(out);
}

bool save_csv(const ContinuousDataset& data,
              const std::vector<std::string>& names, const std::string& path) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  write_header(out, data.num_vars(), names);
  char cell[64];
  for (Count s = 0; s < data.num_samples(); ++s) {
    for (VarId v = 0; v < data.num_vars(); ++v) {
      if (v != 0) out << ',';
      // 17 significant digits round-trip every double exactly.
      std::snprintf(cell, sizeof(cell), "%.17g", data.value(s, v));
      out << cell;
    }
    out << '\n';
  }
  return static_cast<bool>(out);
}

NamedDataset load_csv(const std::string& path, DataLayout layout,
                      const std::vector<std::int32_t>& cardinalities) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("load_csv: cannot open " + path);

  std::string line;
  if (!std::getline(in, line)) {
    throw std::runtime_error("load_csv: empty file " + path);
  }
  const std::vector<std::string> names = split_csv_line(line);
  const auto num_vars = static_cast<VarId>(names.size());
  if (num_vars == 0) throw std::runtime_error("load_csv: no columns in " + path);

  std::vector<std::vector<DataValue>> samples;
  Count row_index = 0;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    ++row_index;
    const std::vector<std::string> cells = split_csv_line(line);
    if (static_cast<VarId>(cells.size()) != num_vars) {
      throw std::runtime_error("load_csv: ragged row in " + path);
    }
    std::vector<DataValue> row(static_cast<std::size_t>(num_vars));
    for (VarId v = 0; v < num_vars; ++v) {
      int parsed = 0;
      if (!parse_byte_cell(cells[v], parsed)) {
        throw cell_error("load_csv", cells[v], row_index, v, names, path,
                         "is not an integer in [0, 255]");
      }
      row[v] = static_cast<DataValue>(parsed);
    }
    samples.push_back(std::move(row));
  }

  std::vector<std::int32_t> cards = cardinalities;
  if (cards.empty()) {
    cards.assign(static_cast<std::size_t>(num_vars), 1);
    for (const auto& row : samples) {
      for (VarId v = 0; v < num_vars; ++v) {
        cards[v] = std::max(cards[v], static_cast<std::int32_t>(row[v]) + 1);
      }
    }
  }

  DiscreteDataset data(num_vars, static_cast<Count>(samples.size()),
                       std::move(cards), layout);
  for (Count s = 0; s < data.num_samples(); ++s) {
    for (VarId v = 0; v < num_vars; ++v) {
      data.set(s, v, samples[static_cast<std::size_t>(s)][v]);
    }
  }
  if (!data.values_in_range()) {
    throw std::runtime_error("load_csv: value exceeds declared cardinality");
  }
  return {std::move(data), names};
}

NamedData load_csv_auto(const std::string& path, DataLayout layout) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("load_csv_auto: cannot open " + path);

  std::string line;
  if (!std::getline(in, line)) {
    throw std::runtime_error("load_csv_auto: empty file " + path);
  }
  const std::vector<std::string> names = split_csv_line(line);
  const auto num_vars = static_cast<VarId>(names.size());
  if (num_vars == 0) {
    throw std::runtime_error("load_csv_auto: no columns in " + path);
  }

  // One parsing pass: cells are kept as doubles (a byte-range integer is
  // exactly representable), and the first fractional / exponent /
  // out-of-byte-range cell switches the whole file to continuous.
  bool discrete = true;
  std::vector<std::vector<double>> samples;
  Count row_index = 0;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    ++row_index;
    const std::vector<std::string> cells = split_csv_line(line);
    if (static_cast<VarId>(cells.size()) != num_vars) {
      throw std::runtime_error("load_csv_auto: ragged row in " + path);
    }
    std::vector<double> row(static_cast<std::size_t>(num_vars));
    for (VarId v = 0; v < num_vars; ++v) {
      int byte_value = 0;
      double numeric = 0.0;
      if (discrete && parse_byte_cell(cells[v], byte_value)) {
        row[static_cast<std::size_t>(v)] = static_cast<double>(byte_value);
        continue;
      }
      if (!parse_double_cell(cells[v], numeric)) {
        throw cell_error("load_csv_auto", cells[v], row_index, v, names, path,
                         "is not a finite number");
      }
      discrete = false;
      row[static_cast<std::size_t>(v)] = numeric;
    }
    samples.push_back(std::move(row));
  }

  const auto num_samples = static_cast<Count>(samples.size());
  if (discrete) {
    std::vector<std::int32_t> cards(static_cast<std::size_t>(num_vars), 1);
    for (const auto& row : samples) {
      for (VarId v = 0; v < num_vars; ++v) {
        cards[static_cast<std::size_t>(v)] =
            std::max(cards[static_cast<std::size_t>(v)],
                     static_cast<std::int32_t>(row[v]) + 1);
      }
    }
    DiscreteDataset data(num_vars, num_samples, std::move(cards), layout);
    for (Count s = 0; s < num_samples; ++s) {
      for (VarId v = 0; v < num_vars; ++v) {
        data.set(s, v,
                 static_cast<DataValue>(samples[static_cast<std::size_t>(s)][v]));
      }
    }
    return {Dataset(std::move(data)), names};
  }
  ContinuousDataset data(num_vars, num_samples);
  for (Count s = 0; s < num_samples; ++s) {
    for (VarId v = 0; v < num_vars; ++v) {
      data.set(s, v, samples[static_cast<std::size_t>(s)][v]);
    }
  }
  return {Dataset(std::move(data)), names};
}

}  // namespace fastbns
