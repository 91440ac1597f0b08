#include "util/flags.h"

#include <cerrno>
#include <cstdio>
#include <cstdlib>

namespace gorder {

namespace {

[[noreturn]] void BadValue(const std::string& key, const std::string& value,
                           const char* kind) {
  std::fprintf(stderr, "flag --%s: '%s' is not a valid %s\n", key.c_str(),
               value.c_str(), kind);
  std::exit(2);
}

std::int64_t ParseIntStrict(const std::string& key,
                            const std::string& value) {
  std::int64_t v = 0;
  if (!ParseInt64(value, &v)) BadValue(key, value, "integer");
  return v;
}

}  // namespace

bool ParseInt64(const std::string& text, std::int64_t* out) {
  const char* s = text.c_str();
  char* end = nullptr;
  errno = 0;
  long long v = std::strtoll(s, &end, 10);
  if (end == s || *end != '\0' || errno == ERANGE) return false;
  *out = v;
  return true;
}

Flags::Flags(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      std::fprintf(stderr, "unexpected positional argument: %s\n",
                   arg.c_str());
      std::exit(2);
    }
    arg = arg.substr(2);
    auto eq = arg.find('=');
    if (eq == std::string::npos) {
      values_[arg] = "true";
    } else {
      values_[arg.substr(0, eq)] = arg.substr(eq + 1);
    }
  }
}

const std::string* Flags::Find(const std::string& key) const {
  auto it = values_.find(key);
  if (it == values_.end()) return nullptr;
  read_.insert(key);
  return &it->second;
}

void Flags::RejectUnread() const {
  bool any = false;
  for (const auto& [key, value] : values_) {
    if (read_.count(key) != 0) continue;
    std::fprintf(stderr, "error: unknown or unused flag --%s\n", key.c_str());
    any = true;
  }
  if (any) std::exit(2);
}

bool Flags::Has(const std::string& key) const { return Find(key) != nullptr; }

std::string Flags::GetString(const std::string& key,
                             const std::string& def) const {
  const std::string* value = Find(key);
  return value == nullptr ? def : *value;
}

std::int64_t Flags::GetInt(const std::string& key, std::int64_t def) const {
  const std::string* value = Find(key);
  if (value == nullptr) return def;
  return ParseIntStrict(key, *value);
}

double Flags::GetDouble(const std::string& key, double def) const {
  const std::string* value = Find(key);
  if (value == nullptr) return def;
  const char* s = value->c_str();
  char* end = nullptr;
  errno = 0;
  double v = std::strtod(s, &end);
  if (end == s || *end != '\0' || errno == ERANGE) {
    BadValue(key, *value, "number");
  }
  return v;
}

std::vector<int> Flags::GetIntList(const std::string& key,
                                   const std::vector<int>& def) const {
  const std::string* found = Find(key);
  if (found == nullptr) return def;
  std::vector<int> result;
  const std::string& value = *found;
  std::size_t pos = 0;
  while (true) {
    std::size_t comma = value.find(',', pos);
    std::string elem = value.substr(
        pos, comma == std::string::npos ? comma : comma - pos);
    result.push_back(static_cast<int>(ParseIntStrict(key, elem)));
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  return result;
}

bool Flags::GetBool(const std::string& key, bool def) const {
  const std::string* value = Find(key);
  if (value == nullptr) return def;
  return *value != "false" && *value != "0";
}

}  // namespace gorder
