// Self-registering solver registry with typed parameter schemas.
//
// Each solver family registers itself from its own translation unit via a
// static SolverRegistrar: a schema (name, typed parameters with defaults
// and docs) plus a factory that builds the solver from a fully-resolved
// ParamMap.  Callers create solvers from textual specs (spec.h):
//
//   auto solver = CreateSolverFromSpec("maximus:clusters=64");
//
// Validation is registry-driven: unknown solver names return NotFound
// (listing what is registered), unknown keys and ill-typed values return
// InvalidArgument naming the offending parameter.  DescribeSolvers()
// exposes every visible schema so CLIs can generate --help output that
// can never drift from the registered reality.

#ifndef MIPS_SOLVERS_REGISTRY_H_
#define MIPS_SOLVERS_REGISTRY_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "solvers/solver.h"
#include "solvers/spec.h"

namespace mips {

/// Type of one schema parameter.
enum class ParamType { kInt, kReal, kBool, kString };

/// "int", "real", "bool", or "string".
const char* ParamTypeName(ParamType type);

/// A typed parameter value (defaults and resolved overrides).
struct ParamValue {
  ParamType type = ParamType::kInt;
  int64_t int_value = 0;
  double real_value = 0;
  bool bool_value = false;
  std::string string_value;

  static ParamValue Int(int64_t v);
  static ParamValue Real(double v);
  static ParamValue Bool(bool v);
  static ParamValue String(std::string v);

  /// Spec-compatible rendering ("64", "0.01", "true", ...).
  std::string ToString() const;
};

/// Parses `text` as a value of `type`.  InvalidArgument on mismatch; the
/// caller wraps the message with parameter context.
StatusOr<ParamValue> ParseParamValue(ParamType type, const std::string& text);

/// Declaration of one schema parameter.
struct ParamSpec {
  std::string name;
  ParamType type = ParamType::kInt;
  ParamValue default_value;
  std::string doc;
};

/// A solver's registered interface: its name, a one-line summary, and
/// the typed parameters specs may override.
class SolverSchema {
 public:
  SolverSchema(std::string name, std::string summary)
      : name_(std::move(name)), summary_(std::move(summary)) {}

  /// Fluent parameter declaration (registration-time only).
  SolverSchema& Int(std::string name, int64_t def, std::string doc);
  SolverSchema& Real(std::string name, double def, std::string doc);
  SolverSchema& Bool(std::string name, bool def, std::string doc);
  SolverSchema& String(std::string name, std::string def, std::string doc);

  const std::string& name() const { return name_; }
  const std::string& summary() const { return summary_; }
  const std::vector<ParamSpec>& params() const { return params_; }
  /// Spec for `key`, or nullptr if the schema does not declare it.
  const ParamSpec* Find(const std::string& key) const;

 private:
  std::string name_;
  std::string summary_;
  std::vector<ParamSpec> params_;
};

/// Fully-resolved parameters handed to a factory: every schema parameter
/// is present, either at its default or at the spec's override.  Getters
/// assert on missing names / type mismatches — the registry guarantees
/// both before invoking a factory.
class ParamMap {
 public:
  int64_t GetInt(const std::string& name) const;
  double GetReal(const std::string& name) const;
  bool GetBool(const std::string& name) const;
  const std::string& GetString(const std::string& name) const;
  /// GetInt narrowed to the 32-bit Index used by matrix dimensions:
  /// InvalidArgument (naming the parameter) when the value does not fit,
  /// so oversized spec values are rejected instead of silently truncated.
  StatusOr<Index> GetIndexChecked(const std::string& name) const;

  void Set(const std::string& name, ParamValue value);

 private:
  const ParamValue& At(const std::string& name, ParamType type) const;

  std::map<std::string, ParamValue> values_;
};

/// Builds a solver from resolved parameters.  Factories may still reject
/// semantically invalid combinations with a Status.
using SolverFactory =
    std::function<StatusOr<std::unique_ptr<MipsSolver>>(const ParamMap&)>;

/// The process-wide solver registry.
class SolverRegistry {
 public:
  /// The singleton used by the static registrars.
  static SolverRegistry& Global();

  /// Registers a schema + factory.  `hidden` entries are creatable but
  /// excluded from Names()/Describe() (used for aliases like "fexipro").
  /// Duplicate names abort: they are a build-time wiring error.
  void Register(SolverSchema schema, SolverFactory factory,
                bool hidden = false) EXCLUDES(mu_);

  /// Creates a solver from a parsed spec: resolves the schema, validates
  /// every override (unknown key / ill-typed value -> InvalidArgument
  /// naming the parameter), and invokes the factory.
  StatusOr<std::unique_ptr<MipsSolver>> Create(const SolverSpec& spec) const
      EXCLUDES(mu_);
  /// Convenience: parse + Create.
  StatusOr<std::unique_ptr<MipsSolver>> Create(
      const std::string& spec_text) const;

  /// Visible solver names, sorted.
  std::vector<std::string> Names() const EXCLUDES(mu_);
  /// Visible schemas, sorted by name.
  std::vector<SolverSchema> Describe() const EXCLUDES(mu_);

 private:
  struct Entry {
    SolverSchema schema;
    SolverFactory factory;
    bool hidden = false;
  };

  const Entry* FindEntry(const std::string& name) const REQUIRES(mu_);

  mutable Mutex mu_;
  std::vector<Entry> entries_ GUARDED_BY(mu_);
};

/// Put one of these at namespace scope in the solver's .cc file:
///
///   namespace {
///   const SolverRegistrar kBmm(
///       SolverSchema("bmm", "blocked matrix multiply brute force")
///           .Int("batch_rows", 0, "users per GEMM batch (0 = auto)"),
///       [](const ParamMap& params) { ... });
///   }  // namespace
struct SolverRegistrar {
  SolverRegistrar(SolverSchema schema, SolverFactory factory,
                  bool hidden = false) {
    SolverRegistry::Global().Register(std::move(schema), std::move(factory),
                                      hidden);
  }
};

/// Free-function surface used by applications and the core facade.
StatusOr<std::unique_ptr<MipsSolver>> CreateSolverFromSpec(
    const std::string& spec_text);
std::vector<std::string> RegisteredSolverNames();
std::vector<SolverSchema> DescribeSolvers();
/// Human-readable multi-line rendering of every visible schema (for
/// --help output).
std::string SolverHelpText();

}  // namespace mips

#endif  // MIPS_SOLVERS_REGISTRY_H_
