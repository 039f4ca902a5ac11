// Minimal command-line flag parsing for the lapis tools.
//
// Supports --name=value, --name value, bare boolean --name, and --help.
// Unknown flags are errors; everything after "--" (or not starting with
// "--") is collected as positional arguments.

#ifndef LAPIS_SRC_UTIL_FLAGS_H_
#define LAPIS_SRC_UTIL_FLAGS_H_

#include <cstdint>
#include <initializer_list>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "src/util/status.h"

namespace lapis {

class FlagParser {
 public:
  explicit FlagParser(std::string program_description)
      : description_(std::move(program_description)) {}

  void AddString(const std::string& name, std::string default_value,
                 std::string help);
  void AddInt(const std::string& name, int64_t default_value,
              std::string help);
  void AddBool(const std::string& name, bool default_value,
               std::string help);
  void AddDouble(const std::string& name, double default_value,
                 std::string help);

  // Parses argv (excluding argv[0]). On "--help", returns ok with
  // help_requested() set.
  Status Parse(int argc, const char* const* argv);

  const std::string& GetString(const std::string& name) const;
  int64_t GetInt(const std::string& name) const;
  bool GetBool(const std::string& name) const;
  double GetDouble(const std::string& name) const;
  // Fails unless every named int flag lies in [min, max]. Tools check this
  // before casting a value to an unsigned or narrower type.
  Status CheckIntRange(std::initializer_list<const char*> names, int64_t min,
                       int64_t max = std::numeric_limits<int64_t>::max()) const;
  const std::vector<std::string>& positional() const { return positional_; }
  bool help_requested() const { return help_requested_; }

  std::string Usage() const;

 private:
  enum class Type { kString, kInt, kBool, kDouble };
  struct Flag {
    Type type;
    std::string help;
    std::string string_value;
    int64_t int_value = 0;
    bool bool_value = false;
    double double_value = 0.0;
  };

  Status SetValue(Flag& flag, const std::string& name,
                  const std::string& value);

  std::string description_;
  std::map<std::string, Flag> flags_;
  std::vector<std::string> order_;
  std::vector<std::string> positional_;
  bool help_requested_ = false;
};

}  // namespace lapis

#endif  // LAPIS_SRC_UTIL_FLAGS_H_
