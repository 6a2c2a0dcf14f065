// Strict CLI parsing shared by every bench driver.  Each driver hands
// parse_flags() the exact list of flags it reads, each bound to the
// variable its value lands in.  An unknown flag, a missing value, or a
// value that is malformed or does not fit its variable exits 2 with a
// message naming the flag, so a mistyped flag can never quietly run a
// different experiment.  No relayer dependency: the trie-only drivers
// use it too.
#pragma once

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <initializer_list>
#include <limits>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

namespace bmg::bench {

[[noreturn]] inline void reject(const char* prog, const char* flag, const char* expects,
                                const char* text) {
  std::fprintf(stderr, "%s: %s expects %s, got '%s'\n", prog, flag, expects, text);
  std::exit(2);
}

/// Decimal integer in [min, max of T].  Counts parse straight into the
/// type they are used as, so a value that would wrap is rejected.
template <class T>
T parse_integer(const char* prog, const char* flag, const char* text,
                std::type_identity_t<T> min = 1) {
  constexpr auto max = static_cast<unsigned long long>(std::numeric_limits<T>::max());
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(text, &end, 10);
  // strtoull would skip blanks and negate a '-'; only digits are valid.
  if (text[0] < '0' || text[0] > '9' || *end != '\0' || errno == ERANGE ||
      v < static_cast<unsigned long long>(min) || v > max) {
    const std::string expects = "an integer in [" + std::to_string(min) + ", " +
                                std::to_string(max) + "]";
    reject(prog, flag, expects.c_str(), text);
  }
  return static_cast<T>(v);
}

/// Strictly positive, finite decimal.
inline double parse_positive_double(const char* prog, const char* flag,
                                    const char* text) {
  char* end = nullptr;
  errno = 0;
  const double v = std::strtod(text, &end);
  if (end == text || *end != '\0' || errno == ERANGE || !(v > 0) || !std::isfinite(v))
    reject(prog, flag, "a positive number", text);
  return v;
}

/// One flag a driver reads: its name and what to do with its value.
struct Flag {
  const char* name;
  std::function<void(const char* prog, const char* value)> set;
};

template <class T>
Flag integer(const char* name, T& out, std::type_identity_t<T> min = 1) {
  return {name, [name, &out, min](const char* prog, const char* value) {
            out = parse_integer<T>(prog, name, value, min);
          }};
}

inline Flag positive(const char* name, double& out) {
  return {name, [name, &out](const char* prog, const char* value) {
            out = parse_positive_double(prog, name, value);
          }};
}

inline Flag text(const char* name, const char*& out) {
  return {name, [&out](const char*, const char* value) { out = value; }};
}

/// A value from a fixed set of spellings, e.g. `mem|file`.
template <class T>
Flag choice(const char* name, T& out,
            std::initializer_list<std::pair<const char*, std::type_identity_t<T>>> options) {
  return {name, [name, &out, opts = std::vector<std::pair<const char*, T>>(options)](
                    const char* prog, const char* value) {
            std::string expects;
            for (const auto& [spelling, v] : opts) {
              if (std::strcmp(value, spelling) == 0) {
                out = v;
                return;
              }
              if (!expects.empty()) expects += '|';
              expects += spelling;
            }
            reject(prog, name, expects.c_str(), value);
          }};
}

/// Parses `--flag value` pairs against exactly `flags`.
inline void parse_flags(int argc, char** argv, std::initializer_list<Flag> flags) {
  const char* prog = argc > 0 ? argv[0] : "bench";
  for (int i = 1; i < argc; ++i) {
    const Flag* flag = nullptr;
    for (const Flag& f : flags)
      if (std::strcmp(argv[i], f.name) == 0) flag = &f;
    if (flag == nullptr) {
      std::fprintf(stderr, "%s: unknown flag '%s' (accepted:", prog, argv[i]);
      for (const Flag& f : flags) std::fprintf(stderr, " %s", f.name);
      std::fprintf(stderr, ")\n");
      std::exit(2);
    }
    if (i + 1 >= argc) {
      std::fprintf(stderr, "%s: %s needs a value\n", prog, argv[i]);
      std::exit(2);
    }
    flag->set(prog, argv[++i]);
  }
}

}  // namespace bmg::bench
