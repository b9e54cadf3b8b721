#include "data/io.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <sstream>
#include <vector>

#include "linalg/blas.h"

namespace mips {
namespace {

constexpr char kMagic[8] = {'M', 'I', 'P', 'S', 'M', 'A', 'T', '1'};

std::string Cell(int64_t row, int64_t col) {
  return "row " + std::to_string(row) + ", column " + std::to_string(col);
}

/// Parses one CSV cell: a finite number, optionally surrounded by
/// whitespace, and nothing else.
Status ParseCell(const std::string& cell, int64_t row, int64_t col,
                 const std::string& path, Real* value) {
  const char* begin = cell.c_str();
  char* end = nullptr;
  *value = std::strtod(begin, &end);
  while (end != begin && std::isspace(static_cast<unsigned char>(*end))) {
    ++end;
  }
  if (end == begin || *end != '\0') {
    return Status::InvalidArgument("bad number '" + cell + "' at " +
                                   Cell(row, col) + " in " + path);
  }
  if (!std::isfinite(*value)) {
    return Status::InvalidArgument("non-finite value '" + cell + "' at " +
                                   Cell(row, col) + " in " + path);
  }
  return Status::OK();
}

/// Reads the rows x cols payload of a stream that cannot be sized (a pipe)
/// in pieces of at most 1 MiB, so what is held grows with what arrives,
/// not with what the header claims.
Status ReadPayloadInPieces(std::istream& in, int64_t rows, int64_t cols,
                           const std::string& path, Matrix* out) {
  constexpr std::size_t kPiece = (std::size_t{1} << 20) / sizeof(Real);
  const auto total =
      static_cast<std::size_t>(rows) * static_cast<std::size_t>(cols);
  std::vector<Real> payload;
  while (payload.size() < total) {
    const std::size_t have = payload.size();
    const std::size_t piece = std::min(kPiece, total - have);
    payload.resize(have + piece);
    in.read(reinterpret_cast<char*>(payload.data() + have),
            static_cast<std::streamsize>(piece * sizeof(Real)));
    if (!in) return Status::IOError("short read: " + path);
  }
  out->Resize(static_cast<Index>(rows), static_cast<Index>(cols));
  std::copy(payload.begin(), payload.end(), out->data());
  return Status::OK();
}

}  // namespace

Status SaveMatrixBinary(const Matrix& m, const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  if (!out) return Status::IOError("cannot open for write: " + path);
  out.write(kMagic, sizeof(kMagic));
  const int64_t rows = m.rows();
  const int64_t cols = m.cols();
  out.write(reinterpret_cast<const char*>(&rows), sizeof(rows));
  out.write(reinterpret_cast<const char*>(&cols), sizeof(cols));
  out.write(reinterpret_cast<const char*>(m.data()),
            static_cast<std::streamsize>(m.size() * sizeof(Real)));
  if (!out) return Status::IOError("short write: " + path);
  return Status::OK();
}

StatusOr<Matrix> LoadMatrixBinary(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IOError("cannot open for read: " + path);
  char magic[8];
  in.read(magic, sizeof(magic));
  if (!in || std::memcmp(magic, kMagic, sizeof(kMagic)) != 0) {
    return Status::InvalidArgument("bad magic in " + path);
  }
  int64_t rows = 0;
  int64_t cols = 0;
  in.read(reinterpret_cast<char*>(&rows), sizeof(rows));
  in.read(reinterpret_cast<char*>(&cols), sizeof(cols));
  constexpr int64_t kMaxExtent = std::numeric_limits<Index>::max();
  if (!in || rows < 0 || cols < 0 || rows > kMaxExtent || cols > kMaxExtent) {
    return Status::InvalidArgument("bad dimensions in " + path);
  }
  // The payload must be in the file before rows x cols is allocated: a
  // file is sized against the header first, and a stream that cannot be
  // sized is read in pieces.
  Matrix m;
  const std::streamoff header_end = in.tellg();
  if (header_end < 0) {
    MIPS_RETURN_IF_ERROR(ReadPayloadInPieces(in, rows, cols, path, &m));
  } else {
    in.seekg(0, std::ios::end);
    const std::streamoff file_end = in.tellg();
    in.seekg(header_end);
    if (!in || file_end < header_end) {
      return Status::IOError("cannot size " + path);
    }
    const auto doubles_present =
        static_cast<uint64_t>(file_end - header_end) / sizeof(Real);
    if (cols > 0 && static_cast<uint64_t>(rows) >
                        doubles_present / static_cast<uint64_t>(cols)) {
      return Status::InvalidArgument(
          "header of " + path + " claims " + std::to_string(rows) + " x " +
          std::to_string(cols) + " doubles, but the file holds " +
          std::to_string(doubles_present));
    }
    m.Resize(static_cast<Index>(rows), static_cast<Index>(cols));
    in.read(reinterpret_cast<char*>(m.data()),
            static_cast<std::streamsize>(m.size() * sizeof(Real)));
    if (!in) return Status::IOError("short read: " + path);
  }
  const int64_t bad = FirstNonFinite(m.data(), m.size());
  if (bad >= 0) {
    return Status::InvalidArgument("non-finite value at " +
                                   Cell(bad / cols, bad % cols) + " in " +
                                   path);
  }
  return m;
}

Status SaveMatrixCsv(const Matrix& m, const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return Status::IOError("cannot open for write: " + path);
  for (Index r = 0; r < m.rows(); ++r) {
    const Real* row = m.Row(r);
    for (Index c = 0; c < m.cols(); ++c) {
      std::fprintf(f, c == 0 ? "%.17g" : ",%.17g", row[c]);
    }
    std::fputc('\n', f);
  }
  const bool ok = std::fclose(f) == 0;
  return ok ? Status::OK() : Status::IOError("close failed: " + path);
}

StatusOr<Matrix> LoadMatrixCsv(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::IOError("cannot open for read: " + path);
  std::vector<std::vector<Real>> rows;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    std::vector<Real> row;
    std::stringstream ss(line);
    std::string cell;
    while (std::getline(ss, cell, ',')) {
      Real value = 0;
      MIPS_RETURN_IF_ERROR(ParseCell(cell, static_cast<int64_t>(rows.size()),
                                     static_cast<int64_t>(row.size()), path,
                                     &value));
      row.push_back(value);
    }
    if (!rows.empty() && row.size() != rows.front().size()) {
      return Status::InvalidArgument("ragged rows in " + path);
    }
    rows.push_back(std::move(row));
  }
  if (rows.empty()) return Matrix();
  Matrix m(static_cast<Index>(rows.size()),
           static_cast<Index>(rows.front().size()));
  for (Index r = 0; r < m.rows(); ++r) {
    const auto& src = rows[static_cast<std::size_t>(r)];
    std::memcpy(m.Row(r), src.data(), src.size() * sizeof(Real));
  }
  return m;
}

}  // namespace mips
