#include "bench_util/reporting.hpp"

#include <sched.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "common/csv_writer.hpp"
#include "common/omp_utils.hpp"
#include "stats/simd_dispatch.hpp"

namespace fastbns {
namespace {

/// RFC 8259 string escaping: the two mandatory characters, the five
/// short-form control escapes, and \u00XX for every remaining control
/// character — a title or header containing any byte below 0x20 must
/// still produce a BENCH_*.json that json.tool accepts.
void append_json_string(std::string& out, const std::string& value) {
  out += '"';
  for (const char c : value) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\b':
        out += "\\b";
        break;
      case '\f':
        out += "\\f";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buffer[8];
          std::snprintf(buffer, sizeof(buffer), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buffer;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

/// Emits the cell as a bare JSON number when the whole cell parses as
/// one (that keeps "4.5e+09" and "12" machine-readable without schema
/// knowledge), quoted otherwise. strtod alone is too permissive — it
/// accepts "inf", "nan" and hex floats, none of which are JSON tokens —
/// so the cell must also consist of plain decimal-float characters and
/// parse to a finite value (a zero-denominator speedup formatted as
/// "inf" must not render the whole file unparseable).
void append_json_cell(std::string& out, const std::string& cell) {
  if (!cell.empty() &&
      cell.find_first_not_of("0123456789+-.eE") == std::string::npos) {
    char* end = nullptr;
    const double value = std::strtod(cell.c_str(), &end);
    if (end != nullptr && *end == '\0' && end != cell.c_str() &&
        std::isfinite(value)) {
      out += cell;
      return;
    }
  }
  append_json_string(out, cell);
}

/// set_bench_rank_context state; single-process until a bench declares
/// a rank sweep.
int& bench_rank_count() {
  static int ranks = 0;
  return ranks;
}

}  // namespace

void set_bench_rank_context(int rank_count) {
  bench_rank_count() = rank_count;
}

std::string bench_context_json() {
  cpu_set_t mask;
  CPU_ZERO(&mask);
  const int cpus =
      sched_getaffinity(0, sizeof(mask), &mask) == 0 ? CPU_COUNT(&mask) : 0;
  std::string out = "{\"cpus\": ";
  out += std::to_string(cpus);
  out += ", \"omp_max_threads\": ";
  out += std::to_string(hardware_threads());
  out += ", \"omp_binding_env\": ";
  out += omp_binding_env_active() ? "true" : "false";
  out += ", \"simd_tier\": ";
  append_json_string(out, std::string(to_string(active_simd_tier())));
  out += ", \"rank_count\": ";
  out += std::to_string(bench_rank_count());
  out += '}';
  return out;
}

std::string bench_json(const std::string& title, const std::string& stem,
                       const TablePrinter& table) {
  std::string out = "{\n  \"bench\": ";
  append_json_string(out, stem);
  out += ",\n  \"title\": ";
  append_json_string(out, title);
  out += ",\n  \"context\": ";
  out += bench_context_json();
  out += ",\n  \"headers\": [";
  const std::vector<std::string>& headers = table.headers();
  for (std::size_t i = 0; i < headers.size(); ++i) {
    if (i > 0) out += ", ";
    append_json_string(out, headers[i]);
  }
  out += "],\n  \"rows\": [";
  const auto& rows = table.rows();
  for (std::size_t r = 0; r < rows.size(); ++r) {
    out += r > 0 ? ",\n    {" : "\n    {";
    const std::size_t cells = std::min(rows[r].size(), headers.size());
    for (std::size_t c = 0; c < cells; ++c) {
      if (c > 0) out += ", ";
      append_json_string(out, headers[c]);
      out += ": ";
      append_json_cell(out, rows[r][c]);
    }
    out += '}';
  }
  out += "\n  ]\n}\n";
  return out;
}

void emit_table(const std::string& title, const std::string& stem,
                const TablePrinter& table) {
  std::printf("\n== %s ==\n", title.c_str());
  table.print();
  const std::string path = bench_result_dir() + "/" + stem + ".csv";
  if (write_text_file(path, table.to_csv())) {
    std::printf("[csv] %s\n", path.c_str());
  }
  const std::string json_path =
      bench_result_dir() + "/BENCH_" + stem + ".json";
  if (write_text_file(json_path, bench_json(title, stem, table))) {
    std::printf("[json] %s\n", json_path.c_str());
  }
  std::fflush(stdout);
}

}  // namespace fastbns
