#include "solvers/registry.h"

#include <algorithm>
#include <cassert>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <limits>

namespace mips {

const char* ParamTypeName(ParamType type) {
  switch (type) {
    case ParamType::kInt:
      return "int";
    case ParamType::kReal:
      return "real";
    case ParamType::kBool:
      return "bool";
    case ParamType::kString:
      return "string";
  }
  return "unknown";
}

ParamValue ParamValue::Int(int64_t v) {
  ParamValue value;
  value.type = ParamType::kInt;
  value.int_value = v;
  return value;
}

ParamValue ParamValue::Real(double v) {
  ParamValue value;
  value.type = ParamType::kReal;
  value.real_value = v;
  return value;
}

ParamValue ParamValue::Bool(bool v) {
  ParamValue value;
  value.type = ParamType::kBool;
  value.bool_value = v;
  return value;
}

ParamValue ParamValue::String(std::string v) {
  ParamValue value;
  value.type = ParamType::kString;
  value.string_value = std::move(v);
  return value;
}

std::string ParamValue::ToString() const {
  char buf[64];
  switch (type) {
    case ParamType::kInt:
      std::snprintf(buf, sizeof(buf), "%lld",
                    static_cast<long long>(int_value));
      return buf;
    case ParamType::kReal:
      std::snprintf(buf, sizeof(buf), "%g", real_value);
      return buf;
    case ParamType::kBool:
      return bool_value ? "true" : "false";
    case ParamType::kString:
      return string_value;
  }
  return std::string();
}

StatusOr<ParamValue> ParseParamValue(ParamType type, const std::string& text) {
  switch (type) {
    case ParamType::kInt: {
      if (text.empty()) return Status::InvalidArgument("empty int value");
      char* end = nullptr;
      errno = 0;
      const long long v = std::strtoll(text.c_str(), &end, 10);
      if (end != text.c_str() + text.size()) {
        return Status::InvalidArgument("\"" + text + "\" is not an int");
      }
      if (errno == ERANGE) {
        return Status::InvalidArgument("\"" + text +
                                       "\" overflows the int range");
      }
      return ParamValue::Int(v);
    }
    case ParamType::kReal: {
      if (text.empty()) return Status::InvalidArgument("empty real value");
      char* end = nullptr;
      const double v = std::strtod(text.c_str(), &end);
      if (end != text.c_str() + text.size()) {
        return Status::InvalidArgument("\"" + text + "\" is not a real");
      }
      return ParamValue::Real(v);
    }
    case ParamType::kBool: {
      if (text == "true" || text == "1" || text == "yes" || text == "on") {
        return ParamValue::Bool(true);
      }
      if (text == "false" || text == "0" || text == "no" || text == "off") {
        return ParamValue::Bool(false);
      }
      return Status::InvalidArgument("\"" + text + "\" is not a bool");
    }
    case ParamType::kString:
      return ParamValue::String(text);
  }
  return Status::Internal("unhandled ParamType");
}

SolverSchema& SolverSchema::Int(std::string name, int64_t def,
                                std::string doc) {
  params_.push_back(
      {std::move(name), ParamType::kInt, ParamValue::Int(def), std::move(doc)});
  return *this;
}

SolverSchema& SolverSchema::Real(std::string name, double def,
                                 std::string doc) {
  params_.push_back({std::move(name), ParamType::kReal, ParamValue::Real(def),
                     std::move(doc)});
  return *this;
}

SolverSchema& SolverSchema::Bool(std::string name, bool def, std::string doc) {
  params_.push_back({std::move(name), ParamType::kBool, ParamValue::Bool(def),
                     std::move(doc)});
  return *this;
}

SolverSchema& SolverSchema::String(std::string name, std::string def,
                                   std::string doc) {
  params_.push_back({std::move(name), ParamType::kString,
                     ParamValue::String(std::move(def)), std::move(doc)});
  return *this;
}

const ParamSpec* SolverSchema::Find(const std::string& key) const {
  for (const ParamSpec& param : params_) {
    if (param.name == key) return &param;
  }
  return nullptr;
}

const ParamValue& ParamMap::At(const std::string& name, ParamType type) const {
  auto it = values_.find(name);
  assert(it != values_.end() && "parameter missing from ParamMap");
  assert(it->second.type == type && "parameter type mismatch");
  (void)type;
  return it->second;
}

int64_t ParamMap::GetInt(const std::string& name) const {
  return At(name, ParamType::kInt).int_value;
}

double ParamMap::GetReal(const std::string& name) const {
  return At(name, ParamType::kReal).real_value;
}

bool ParamMap::GetBool(const std::string& name) const {
  return At(name, ParamType::kBool).bool_value;
}

const std::string& ParamMap::GetString(const std::string& name) const {
  return At(name, ParamType::kString).string_value;
}

StatusOr<Index> ParamMap::GetIndexChecked(const std::string& name) const {
  const int64_t v = GetInt(name);
  if (v < std::numeric_limits<Index>::min() ||
      v > std::numeric_limits<Index>::max()) {
    return Status::InvalidArgument("parameter \"" + name +
                                   "\" is out of 32-bit range");
  }
  return static_cast<Index>(v);
}

void ParamMap::Set(const std::string& name, ParamValue value) {
  values_[name] = std::move(value);
}

SolverRegistry& SolverRegistry::Global() {
  static SolverRegistry* registry = new SolverRegistry();
  return *registry;
}

void SolverRegistry::Register(SolverSchema schema, SolverFactory factory,
                              bool hidden) {
  MutexLock lock(mu_);
  for (const Entry& entry : entries_) {
    if (entry.schema.name() == schema.name()) {
      std::fprintf(stderr, "duplicate solver registration: %s\n",
                   schema.name().c_str());
      std::abort();
    }
  }
  entries_.push_back({std::move(schema), std::move(factory), hidden});
}

const SolverRegistry::Entry* SolverRegistry::FindEntry(
    const std::string& name) const {
  mu_.AssertHeld();
  for (const Entry& entry : entries_) {
    if (entry.schema.name() == name) return &entry;
  }
  return nullptr;
}

StatusOr<std::unique_ptr<MipsSolver>> SolverRegistry::Create(
    const SolverSpec& spec) const {
  MutexLock lock(mu_);
  const Entry* entry = FindEntry(spec.name);
  if (entry == nullptr) {
    std::vector<std::string> names;
    for (const Entry& e : entries_) {
      if (!e.hidden) names.push_back(e.schema.name());
    }
    std::sort(names.begin(), names.end());
    std::string known;
    for (const std::string& name : names) {
      if (!known.empty()) known += ", ";
      known += name;
    }
    return Status::NotFound("unknown solver: " + spec.name +
                            " (registered: " + known + ")");
  }

  const SolverSchema& schema = entry->schema;
  ParamMap params;
  for (const ParamSpec& param : schema.params()) {
    params.Set(param.name, param.default_value);
  }
  for (const auto& [key, text] : spec.params) {
    const ParamSpec* param = schema.Find(key);
    if (param == nullptr) {
      std::string known;
      for (const ParamSpec& p : schema.params()) {
        if (!known.empty()) known += ", ";
        known += p.name;
      }
      return Status::InvalidArgument(
          "unknown parameter \"" + key + "\" for solver \"" + spec.name +
          "\" (parameters: " + (known.empty() ? "none" : known) + ")");
    }
    auto value = ParseParamValue(param->type, text);
    if (!value.ok()) {
      return Status::InvalidArgument(
          "bad value for parameter \"" + key + "\" of solver \"" + spec.name +
          "\" (expected " + ParamTypeName(param->type) +
          "): " + value.status().message());
    }
    params.Set(key, std::move(*value));
  }
  return entry->factory(params);
}

StatusOr<std::unique_ptr<MipsSolver>> SolverRegistry::Create(
    const std::string& spec_text) const {
  auto spec = ParseSolverSpec(spec_text);
  MIPS_RETURN_IF_ERROR(spec.status());
  return Create(*spec);
}

std::vector<std::string> SolverRegistry::Names() const {
  MutexLock lock(mu_);
  std::vector<std::string> names;
  for (const Entry& entry : entries_) {
    if (!entry.hidden) names.push_back(entry.schema.name());
  }
  std::sort(names.begin(), names.end());
  return names;
}

std::vector<SolverSchema> SolverRegistry::Describe() const {
  MutexLock lock(mu_);
  std::vector<SolverSchema> schemas;
  for (const Entry& entry : entries_) {
    if (!entry.hidden) schemas.push_back(entry.schema);
  }
  std::sort(schemas.begin(), schemas.end(),
            [](const SolverSchema& a, const SolverSchema& b) {
              return a.name() < b.name();
            });
  return schemas;
}

StatusOr<std::unique_ptr<MipsSolver>> CreateSolverFromSpec(
    const std::string& spec_text) {
  return SolverRegistry::Global().Create(spec_text);
}

std::vector<std::string> RegisteredSolverNames() {
  return SolverRegistry::Global().Names();
}

std::vector<SolverSchema> DescribeSolvers() {
  return SolverRegistry::Global().Describe();
}

std::string SolverHelpText() {
  std::string out;
  for (const SolverSchema& schema : DescribeSolvers()) {
    out += schema.name();
    out += " — ";
    out += schema.summary();
    out += '\n';
    for (const ParamSpec& param : schema.params()) {
      out += "    ";
      out += param.name;
      out += " (";
      out += ParamTypeName(param.type);
      out += ", default ";
      out += param.default_value.ToString();
      out += "): ";
      out += param.doc;
      out += '\n';
    }
  }
  return out;
}

}  // namespace mips
