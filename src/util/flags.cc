#include "util/flags.h"

#include <cmath>
#include <iostream>

#include "util/logging.h"
#include "util/strings.h"

namespace granulock {

void FlagParser::Register(const std::string& name, FlagInfo info) {
  // Registering one name twice is a programming error in the binary (two
  // flags would silently share one spelling, and the later registration
  // used to win); fail loudly instead of accepting it.
  GRANULOCK_CHECK(flags_.find(name) == flags_.end())
      << "duplicate flag registration: --" << name;
  flags_[name] = std::move(info);
}

void FlagParser::AddInt64(const std::string& name, int64_t* value,
                          int64_t def, const std::string& help) {
  *value = def;
  Register(name, {Type::kInt64, value, StrFormat("%lld", (long long)def),
                  help});
}

void FlagParser::AddDouble(const std::string& name, double* value, double def,
                           const std::string& help) {
  *value = def;
  Register(name, {Type::kDouble, value, StrFormat("%g", def), help});
}

void FlagParser::AddBool(const std::string& name, bool* value, bool def,
                         const std::string& help) {
  *value = def;
  Register(name, {Type::kBool, value, def ? "true" : "false", help});
}

void FlagParser::AddString(const std::string& name, std::string* value,
                           const std::string& def, const std::string& help) {
  *value = def;
  Register(name, {Type::kString, value, def, help});
}

Status FlagParser::SetFlag(const std::string& name, const std::string& value) {
  auto it = flags_.find(name);
  if (it == flags_.end()) {
    return Status::InvalidArgument("unknown flag --" + name);
  }
  FlagInfo& info = it->second;
  switch (info.type) {
    case Type::kInt64: {
      int64_t v;
      if (!ParseInt64(value, &v)) {
        return Status::InvalidArgument("flag --" + name +
                                       " expects an integer, got '" + value +
                                       "'");
      }
      *static_cast<int64_t*>(info.value) = v;
      return Status::OK();
    }
    case Type::kDouble: {
      // strtod also accepts nan and inf, which no flag can mean.
      double v;
      if (!ParseDouble(value, &v) || !std::isfinite(v)) {
        return Status::InvalidArgument("flag --" + name +
                                       " expects a finite number, got '" +
                                       value + "'");
      }
      *static_cast<double*>(info.value) = v;
      return Status::OK();
    }
    case Type::kBool: {
      bool* out = static_cast<bool*>(info.value);
      if (value == "true" || value == "1" || value.empty()) {
        *out = true;
      } else if (value == "false" || value == "0") {
        *out = false;
      } else {
        return Status::InvalidArgument("flag --" + name +
                                       " expects true/false, got '" + value +
                                       "'");
      }
      return Status::OK();
    }
    case Type::kString:
      *static_cast<std::string*>(info.value) = value;
      return Status::OK();
  }
  return Status::Internal("unreachable flag type");
}

Status FlagParser::Parse(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    std::string_view arg = argv[i];
    if (!StartsWith(arg, "--")) {
      positional_.emplace_back(arg);
      continue;
    }
    arg.remove_prefix(2);
    if (arg == "help") {
      std::cout << UsageString(argv[0]);
      return Status::FailedPrecondition("help requested");
    }
    std::string name, value;
    size_t eq = arg.find('=');
    if (eq != std::string_view::npos) {
      name = std::string(arg.substr(0, eq));
      value = std::string(arg.substr(eq + 1));
    } else {
      name = std::string(arg);
      auto it = flags_.find(name);
      const bool is_bool = it != flags_.end() && it->second.type == Type::kBool;
      if (!is_bool && it != flags_.end()) {
        if (i + 1 < argc && !StartsWith(argv[i + 1], "--")) {
          value = argv[++i];
        } else {
          return Status::InvalidArgument(
              "flag --" + name +
              " expects a value (--" + name + "=VALUE or --" + name +
              " VALUE)");
        }
      }
    }
    GRANULOCK_RETURN_NOT_OK(SetFlag(name, value));
  }
  return Status::OK();
}

std::string FlagParser::UsageString(const std::string& program) const {
  std::string out = "usage: " + program + " [flags]\n\nflags:\n";
  for (const auto& [name, info] : flags_) {
    out += StrFormat("  --%-22s %s (default: %s)\n", name.c_str(),
                     info.help.c_str(), info.default_repr.c_str());
  }
  return out;
}

}  // namespace granulock
