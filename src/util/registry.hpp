// Name-keyed factories: the one registry behind every spec vocabulary.
//
// Sweeps, benches, config files and rsbd specs name a protocol, a
// task, a topology or an agent by string ("wait-for-singleton-LE",
// "m-leader-election(2)", "d-regular(3)") instead of hard-wiring
// constructors — the option-registry idiom of modern SAT engines. Every
// vocabulary shares one grammar:
//
//   name            a zero-argument entry
//   name(3)         one argument
//   name(2,5)       two arguments
//
// Arguments are decimal ints whose text re-emits byte-identically, so each
// entry has exactly one spelling per argument list, and the service layer
// one canonical hash per ensemble. Errors, in the order they are checked:
//  * a name no entry has: UnknownName, listing the known names;
//  * text that is neither form: InvalidArgument "malformed-spec: ...";
//  * the wrong argument count: InvalidArgument "... expects N argument(s)";
//  * any other spelling of a valid spec — `f()`, `f(02)`, `f(+2)`,
//    `f(-0)`: InvalidArgument "non-canonical-spec: ...", quoting the
//    canonical form (`f`, `f(2)`, `f(2)`, `f(0)`).
//
// Registry<Product(Context...)> is built once from its layer's entry table:
// each layer declares its instance's global() specialization beside the
// alias that names it and defines it over the table. make(spec, context...)
// parses the spec and calls the entry's factory with the arguments and the
// caller's context (a party count, a topology seed, ...).
#pragma once

#include <algorithm>
#include <functional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace rsb {

/// The canonical spelling of `name` applied to `args`: the bare name, or
/// name(a,b,...) with each argument in decimal.
std::string registry_spec(std::string_view name, const std::vector<int>& args);

/// Everything of a registry that does not depend on what its entries
/// build: the entries' names, arities and help, the spec grammar, the
/// lookup and its errors, and the listings.
class RegistryIndex {
 public:
  /// True iff `spec` names an entry here: its name (the whole spec, or the
  /// text before its '(') is registered. make() checks the arguments.
  bool contains(std::string_view spec) const;

  /// Registered names, sorted.
  std::vector<std::string> names() const;

  /// One "name(_,_) — help" line per entry, sorted by name; what CLIs and
  /// examples print when listing a vocabulary.
  std::vector<std::string> describe() const;

 protected:
  struct Info {
    std::string name;
    int arity = 0;
    std::string help;
  };
  struct Resolved {
    std::size_t entry = 0;  // position in the name-sorted table
    std::vector<int> args;
  };

  /// `what` names the vocabulary in errors ("protocol", "topology", ...);
  /// `entries` must be sorted by name.
  RegistryIndex(std::string what, std::vector<Info> entries);

  /// Parses `spec` and finds its entry; throws as the file comment says.
  Resolved resolve(std::string_view spec) const;

 private:
  /// The entry `spec`'s name (the text before any '(') selects, or end.
  std::vector<Info>::const_iterator find(std::string_view spec) const;

  std::string what_;
  std::vector<Info> entries_;
};

template <typename Signature>
class Registry;

template <typename Product, typename... Context>
class Registry<Product(Context...)> : public RegistryIndex {
 public:
  /// Builds the product from the parsed arguments and the caller's context.
  using Factory =
      std::function<Product(const std::vector<int>& args, Context... context)>;

  struct Entry {
    std::string name;
    int arity = 0;
    std::string help;
    Factory factory;
  };

  /// The process-wide instance, defined by the layer that owns the table.
  static const Registry& global();

  Registry(std::string what, std::vector<Entry> entries)
      : RegistryIndex(std::move(what), sort_by_name(entries)) {
    for (Entry& entry : entries) factories_.push_back(std::move(entry.factory));
  }

  /// Instantiates from a spec string, e.g. "d-regular(3)".
  Product make(std::string_view spec, Context... context) const {
    const Resolved resolved = resolve(spec);
    return factories_[resolved.entry](resolved.args, std::move(context)...);
  }

 private:
  /// Sorts the table by name; returns its entries' infos in that order.
  static std::vector<Info> sort_by_name(std::vector<Entry>& entries) {
    std::sort(entries.begin(), entries.end(),
              [](const Entry& a, const Entry& b) { return a.name < b.name; });
    std::vector<Info> out;
    for (const Entry& entry : entries) {
      out.push_back(Info{entry.name, entry.arity, entry.help});
    }
    return out;
  }

  std::vector<Factory> factories_;  // RegistryIndex's entry order
};

}  // namespace rsb
