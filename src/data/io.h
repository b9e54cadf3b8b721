// Matrix persistence: a simple binary format plus CSV import/export.
//
// Binary layout: 8-byte magic "MIPSMAT1", int64 rows, int64 cols, then
// rows*cols little-endian doubles in row-major order.  Used by the examples
// to save trained models and by users who want to feed their own factor
// matrices to the solvers.

#ifndef MIPS_DATA_IO_H_
#define MIPS_DATA_IO_H_

#include <string>

#include "common/status.h"
#include "linalg/matrix.h"

namespace mips {

/// Writes `m` to `path` in the MIPSMAT1 binary format.
Status SaveMatrixBinary(const Matrix& m, const std::string& path);

/// Reads a MIPSMAT1 file.  IOError on open/short-read; InvalidArgument on
/// bad magic, nonsensical dimensions, a header that claims more doubles
/// than the file holds (checked before anything is allocated), or a NaN
/// or +-Inf value (the error names its row and column).  A stream that
/// cannot be sized (a pipe, /dev/stdin) is read in pieces of at most
/// 1 MiB instead, and one that ends before the header's rows x cols
/// doubles is a short read.
StatusOr<Matrix> LoadMatrixBinary(const std::string& path);

/// Writes `m` as comma-separated values, one row per line, %.17g precision
/// (round-trips doubles exactly).
Status SaveMatrixCsv(const Matrix& m, const std::string& path);

/// Reads a CSV of numbers into a Matrix.  All rows must have the same
/// column count.  Empty lines are skipped.  Each cell must be one finite
/// number, optionally surrounded by whitespace: a cell with trailing
/// characters ("1.5abc") or a non-finite value ("nan", "inf", "1e999") is
/// InvalidArgument, naming its row and column (from 0, empty lines not
/// counted).
StatusOr<Matrix> LoadMatrixCsv(const std::string& path);

}  // namespace mips

#endif  // MIPS_DATA_IO_H_
