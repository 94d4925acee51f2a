#include "util/registry.hpp"

#include <charconv>

#include "util/error.hpp"

namespace rsb {

namespace {

/// Reads `spec` as name or name(int,...) and fills `args`, accepting every
/// spelling from_chars reads plus a '+' sign and empty parentheses, so the
/// caller can name the canonical form of a near miss. False when the text
/// is neither form.
bool parse_args(std::string_view spec, std::vector<int>& args) {
  const std::size_t open = spec.find('(');
  if (open == std::string_view::npos) return true;
  if (spec.back() != ')') return false;
  std::string_view list = spec.substr(open + 1, spec.size() - open - 2);
  while (!list.empty()) {
    const std::size_t comma = list.find(',');
    std::string_view token = list.substr(0, comma);
    if (token.size() > 1 && token.front() == '+' && token[1] != '-') {
      token.remove_prefix(1);
    }
    int value = 0;
    const auto [ptr, ec] =
        std::from_chars(token.data(), token.data() + token.size(), value);
    if (ec != std::errc() || ptr != token.data() + token.size()) return false;
    args.push_back(value);
    if (comma == std::string_view::npos) break;
    list.remove_prefix(comma + 1);
    if (list.empty()) return false;  // trailing comma
  }
  return true;
}

}  // namespace

std::string registry_spec(std::string_view name, const std::vector<int>& args) {
  std::string out(name);
  for (std::size_t i = 0; i < args.size(); ++i) {
    out += i == 0 ? '(' : ',';
    out += std::to_string(args[i]);
  }
  if (!args.empty()) out += ')';
  return out;
}

RegistryIndex::RegistryIndex(std::string what, std::vector<Info> entries)
    : what_(std::move(what)), entries_(std::move(entries)) {}

std::vector<RegistryIndex::Info>::const_iterator RegistryIndex::find(
    std::string_view spec) const {
  const std::string_view name = spec.substr(0, spec.find('('));
  return std::find_if(entries_.begin(), entries_.end(),
                      [name](const Info& entry) { return entry.name == name; });
}

bool RegistryIndex::contains(std::string_view spec) const {
  return find(spec) != entries_.end();
}

std::vector<std::string> RegistryIndex::names() const {
  std::vector<std::string> out;
  out.reserve(entries_.size());
  for (const Info& entry : entries_) out.push_back(entry.name);
  return out;
}

std::vector<std::string> RegistryIndex::describe() const {
  std::vector<std::string> out;
  out.reserve(entries_.size());
  for (const Info& entry : entries_) {
    std::string line = entry.name;
    for (int i = 0; i < entry.arity; ++i) line += i == 0 ? "(_" : ",_";
    if (entry.arity > 0) line += ")";
    if (!entry.help.empty()) line += " — " + entry.help;
    out.push_back(std::move(line));
  }
  return out;
}

RegistryIndex::Resolved RegistryIndex::resolve(std::string_view spec) const {
  const auto it = find(spec);
  if (it == entries_.end()) {
    std::string known;
    for (const Info& entry : entries_) {
      if (!known.empty()) known += ", ";
      known += entry.name;
    }
    throw UnknownName(what_ + " registry: unknown name '" +
                      std::string(spec.substr(0, spec.find('('))) +
                      "' (known: " + known + ")");
  }
  Resolved out;
  out.entry = static_cast<std::size_t>(it - entries_.begin());
  if (!parse_args(spec, out.args)) {
    throw InvalidArgument("malformed-spec: " + what_ + " '" +
                          std::string(spec) + "' is not " + it->name +
                          " or " + it->name + "(int,...)");
  }
  if (static_cast<int>(out.args.size()) != it->arity) {
    throw InvalidArgument(what_ + " '" + it->name + "' expects " +
                          std::to_string(it->arity) + " argument(s), got " +
                          std::to_string(out.args.size()));
  }
  const std::string canonical = registry_spec(it->name, out.args);
  if (canonical != spec) {
    throw InvalidArgument("non-canonical-spec: " + what_ + " '" +
                          std::string(spec) + "' is spelled '" + canonical +
                          "'");
  }
  return out;
}

}  // namespace rsb
