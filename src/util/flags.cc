#include "src/util/flags.h"

#include <cstdlib>

namespace lapis {

void FlagParser::AddString(const std::string& name,
                           std::string default_value, std::string help) {
  Flag flag;
  flag.type = Type::kString;
  flag.help = std::move(help);
  flag.string_value = std::move(default_value);
  flags_.emplace(name, std::move(flag));
  order_.push_back(name);
}

void FlagParser::AddInt(const std::string& name, int64_t default_value,
                        std::string help) {
  Flag flag;
  flag.type = Type::kInt;
  flag.help = std::move(help);
  flag.int_value = default_value;
  flags_.emplace(name, std::move(flag));
  order_.push_back(name);
}

void FlagParser::AddBool(const std::string& name, bool default_value,
                         std::string help) {
  Flag flag;
  flag.type = Type::kBool;
  flag.help = std::move(help);
  flag.bool_value = default_value;
  flags_.emplace(name, std::move(flag));
  order_.push_back(name);
}

void FlagParser::AddDouble(const std::string& name, double default_value,
                           std::string help) {
  Flag flag;
  flag.type = Type::kDouble;
  flag.help = std::move(help);
  flag.double_value = default_value;
  flags_.emplace(name, std::move(flag));
  order_.push_back(name);
}

Status FlagParser::SetValue(Flag& flag, const std::string& name,
                            const std::string& value) {
  char* end = nullptr;
  switch (flag.type) {
    case Type::kString:
      flag.string_value = value;
      return Status::Ok();
    case Type::kInt:
      flag.int_value = std::strtoll(value.c_str(), &end, 10);
      if (end == value.c_str() || *end != '\0') {
        return InvalidArgumentError("--" + name + " expects an integer, got '" +
                                    value + "'");
      }
      return Status::Ok();
    case Type::kBool:
      if (value == "true" || value == "1") {
        flag.bool_value = true;
      } else if (value == "false" || value == "0") {
        flag.bool_value = false;
      } else {
        return InvalidArgumentError("--" + name + " expects true/false");
      }
      return Status::Ok();
    case Type::kDouble:
      flag.double_value = std::strtod(value.c_str(), &end);
      if (end == value.c_str() || *end != '\0') {
        return InvalidArgumentError("--" + name + " expects a number");
      }
      return Status::Ok();
  }
  return InternalError("bad flag type");
}

Status FlagParser::Parse(int argc, const char* const* argv) {
  bool positional_only = false;
  for (int i = 0; i < argc; ++i) {
    std::string arg = argv[i];
    if (positional_only || arg.rfind("--", 0) != 0) {
      positional_.push_back(arg);
      continue;
    }
    if (arg == "--") {
      positional_only = true;
      continue;
    }
    std::string body = arg.substr(2);
    if (body == "help") {
      help_requested_ = true;
      return Status::Ok();
    }
    std::string name = body;
    std::string value;
    bool have_value = false;
    size_t eq = body.find('=');
    if (eq != std::string::npos) {
      name = body.substr(0, eq);
      value = body.substr(eq + 1);
      have_value = true;
    }
    auto it = flags_.find(name);
    if (it == flags_.end()) {
      return InvalidArgumentError("unknown flag --" + name);
    }
    if (!have_value) {
      if (it->second.type == Type::kBool) {
        it->second.bool_value = true;  // bare --flag
        continue;
      }
      if (i + 1 >= argc) {
        return InvalidArgumentError("--" + name + " needs a value");
      }
      value = argv[++i];
    }
    LAPIS_RETURN_IF_ERROR(SetValue(it->second, name, value));
  }
  return Status::Ok();
}

const std::string& FlagParser::GetString(const std::string& name) const {
  return flags_.at(name).string_value;
}
int64_t FlagParser::GetInt(const std::string& name) const {
  return flags_.at(name).int_value;
}
bool FlagParser::GetBool(const std::string& name) const {
  return flags_.at(name).bool_value;
}
double FlagParser::GetDouble(const std::string& name) const {
  return flags_.at(name).double_value;
}

Status FlagParser::CheckIntRange(std::initializer_list<const char*> names,
                                 int64_t min, int64_t max) const {
  for (const char* name : names) {
    const int64_t value = GetInt(name);
    if (value >= min && value <= max) {
      continue;
    }
    std::string bound = max == std::numeric_limits<int64_t>::max()
                            ? ">= " + std::to_string(min)
                            : "in [" + std::to_string(min) + ", " +
                                  std::to_string(max) + "]";
    return InvalidArgumentError("--" + std::string(name) + " must be " +
                                bound + " (got " + std::to_string(value) +
                                ")");
  }
  return Status::Ok();
}

std::string FlagParser::Usage() const {
  std::string out = description_ + "\n\nflags:\n";
  for (const auto& name : order_) {
    const Flag& flag = flags_.at(name);
    out += "  --" + name;
    switch (flag.type) {
      case Type::kString:
        out += "=<string> (default \"" + flag.string_value + "\")";
        break;
      case Type::kInt:
        out += "=<int> (default " + std::to_string(flag.int_value) + ")";
        break;
      case Type::kBool:
        out += std::string(" (default ") +
               (flag.bool_value ? "true" : "false") + ")";
        break;
      case Type::kDouble:
        out += "=<number>";
        break;
    }
    out += "\n      " + flag.help + "\n";
  }
  return out;
}

}  // namespace lapis
