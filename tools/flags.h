// Shared command-line parsing for the sop tools.
//
// Every tool declares its flags once, as a table of (name, placeholder,
// help, binding) entries on a FlagSet; parsing, `--flag value` /
// `--flag=value` handling, strict numeric validation, unknown-flag
// diagnostics and the generated `--help` text all come from the table.
// Tool mains keep only what is genuinely tool-specific: required-flag
// checks and cross-flag constraints, reported via flags.UsageError().
//
// Also home to the small parsing helpers several tools share
// (SplitCommas, the fault-injection site=rate spec) and to the
// --kernel flag (AddKernelFlag), which selects the process-global batch
// distance backend (common/dist_kernel.h) and must behave identically in
// every tool that computes distances.
//
// Conventions (matching the pre-existing tools): value flags take their
// argument as the next argv entry or after '='; usage errors print a
// one-line message plus the usage summary and exit the Parse caller with
// status 2; --help/-h prints the full generated help and exits 0.

#ifndef SOP_TOOLS_FLAGS_H_
#define SOP_TOOLS_FLAGS_H_

#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "sop/common/dist_kernel.h"
#include "sop/common/fault.h"

namespace sop {
namespace cli {

/// Splits on every comma; "a,,b" yields {"a", "", "b"} and "" yields {""}.
inline std::vector<std::string> SplitCommas(const std::string& s) {
  std::vector<std::string> parts;
  size_t start = 0;
  while (start <= s.size()) {
    const size_t comma = s.find(',', start);
    if (comma == std::string::npos) {
      parts.push_back(s.substr(start));
      break;
    }
    parts.push_back(s.substr(start, comma - start));
    start = comma + 1;
  }
  return parts;
}

/// Parses one "site=rate" fault spec ("checkpoint-write=0.5") against
/// FaultSiteName() and applies it to `injector`.
inline bool ParseFaultRate(const std::string& spec, FaultInjector* injector) {
  const size_t eq = spec.find('=');
  if (eq == std::string::npos) return false;
  const std::string site_name = spec.substr(0, eq);
  char* end = nullptr;
  const double rate = std::strtod(spec.c_str() + eq + 1, &end);
  if (end == nullptr || *end != '\0' || rate < 0.0 || rate > 1.0) {
    return false;
  }
  for (int i = 0; i < kNumFaultSites; ++i) {
    const auto site = static_cast<FaultSite>(i);
    if (site_name == FaultSiteName(site)) {
      injector->SetRate(site, rate);
      return true;
    }
  }
  return false;
}

/// A declarative flag table. Register flags, then Parse(argc, argv).
///
///   sop::cli::FlagSet flags("one-line tool description");
///   flags.Str("--workload", &workload_path, "PATH", "workload spec file");
///   flags.I64("--synthetic", &n, "N", "generate N points", 0);
///   int exit_code = 0;
///   if (!flags.Parse(argc, argv, &exit_code)) return exit_code;
///
/// Not thread-safe; build and parse on one thread (tool mains).
class FlagSet {
 public:
  /// `value` is the flag's argument ("" for switches). Return false and
  /// set `*error` to reject it.
  using Handler = std::function<bool(const std::string& value,
                                     std::string* error)>;

  explicit FlagSet(std::string overview) : overview_(std::move(overview)) {}

  /// A flag taking one value, fully custom-parsed.
  void Flag(const char* name, const char* placeholder, const char* help,
            Handler handler) {
    flags_.push_back(Entry{name, placeholder, help, std::move(handler),
                           /*takes_value=*/true});
  }

  /// A valueless switch.
  void Switch(const char* name, const char* help, std::function<void()> fn) {
    flags_.push_back(Entry{
        name, "", help,
        [fn = std::move(fn)](const std::string&, std::string*) {
          fn();
          return true;
        },
        /*takes_value=*/false});
  }

  void Bool(const char* name, bool* out, const char* help) {
    Switch(name, help, [out] { *out = true; });
  }

  void Str(const char* name, std::string* out, const char* placeholder,
           const char* help) {
    Flag(name, placeholder, help,
         [out](const std::string& v, std::string*) {
           *out = v;
           return true;
         });
  }

  /// Appends each occurrence (repeatable flag).
  void StrEach(const char* name, std::vector<std::string>* out,
               const char* placeholder, const char* help) {
    Flag(name, placeholder, help,
         [out](const std::string& v, std::string*) {
           out->push_back(v);
           return true;
         });
  }

  /// Appends the comma-split parts of each occurrence.
  void StrList(const char* name, std::vector<std::string>* out,
               const char* placeholder, const char* help) {
    Flag(name, placeholder, help,
         [out](const std::string& v, std::string*) {
           for (std::string& part : SplitCommas(v)) {
             out->push_back(std::move(part));
           }
           return true;
         });
  }

  void I64(const char* name, int64_t* out, const char* placeholder,
           const char* help,
           int64_t min = std::numeric_limits<int64_t>::min()) {
    Flag(name, placeholder, help,
         [out, min](const std::string& v, std::string* error) {
           int64_t parsed = 0;
           if (!ParseI64(v, &parsed) || parsed < min) {
             *error = min > std::numeric_limits<int64_t>::min()
                          ? "expect an integer >= " + std::to_string(min)
                          : "expect an integer";
             return false;
           }
           *out = parsed;
           return true;
         });
  }

  void Int(const char* name, int* out, const char* placeholder,
           const char* help, int min = std::numeric_limits<int>::min()) {
    Flag(name, placeholder, help,
         [out, min](const std::string& v, std::string* error) {
           int64_t parsed = 0;
           if (!ParseI64(v, &parsed) || parsed < min ||
               parsed > std::numeric_limits<int>::max()) {
             *error = "expect an integer >= " + std::to_string(min);
             return false;
           }
           *out = static_cast<int>(parsed);
           return true;
         });
  }

  void U64(const char* name, uint64_t* out, const char* placeholder,
           const char* help) {
    Flag(name, placeholder, help,
         [out](const std::string& v, std::string* error) {
           int64_t parsed = 0;
           if (!ParseI64(v, &parsed) || parsed < 0) {
             *error = "expect an integer >= 0";
             return false;
           }
           *out = static_cast<uint64_t>(parsed);
           return true;
         });
  }

  void Size(const char* name, size_t* out, const char* placeholder,
            const char* help, int64_t min = 0) {
    Flag(name, placeholder, help,
         [out, min](const std::string& v, std::string* error) {
           int64_t parsed = 0;
           if (!ParseI64(v, &parsed) || parsed < min) {
             *error = "expect an integer >= " + std::to_string(min);
             return false;
           }
           *out = static_cast<size_t>(parsed);
           return true;
         });
  }

  void F64(const char* name, double* out, const char* placeholder,
           const char* help,
           double min = -std::numeric_limits<double>::infinity()) {
    Flag(name, placeholder, help,
         [out, min](const std::string& v, std::string* error) {
           char* end = nullptr;
           errno = 0;
           const double parsed = std::strtod(v.c_str(), &end);
           if (v.empty() || end == nullptr || *end != '\0' || errno != 0 ||
               parsed < min) {
             *error = "expect a number >= " + std::to_string(min);
             return false;
           }
           *out = parsed;
           return true;
         });
  }

  /// Parses argv. Returns true when the program should proceed; false when
  /// it should exit with `*exit_code` (0 after --help, 2 on usage errors —
  /// the diagnostic and usage text have been printed to stderr).
  bool Parse(int argc, char** argv, int* exit_code) {
    argv0_ = argv[0];
    for (int i = 1; i < argc; ++i) {
      std::string arg = argv[i];
      if (arg == "--help" || arg == "-h") {
        PrintHelp(stdout);
        *exit_code = 0;
        return false;
      }
      // --flag=value form.
      std::string inline_value;
      bool has_inline_value = false;
      const size_t eq = arg.find('=');
      if (arg.size() > 2 && arg[0] == '-' && arg[1] == '-' &&
          eq != std::string::npos) {
        inline_value = arg.substr(eq + 1);
        has_inline_value = true;
        arg.resize(eq);
      }
      const Entry* entry = Find(arg);
      if (entry == nullptr) {
        std::fprintf(stderr, "unknown flag: %s\n", argv[i]);
        PrintUsage(stderr);
        *exit_code = 2;
        return false;
      }
      std::string value;
      if (entry->takes_value) {
        if (has_inline_value) {
          value = std::move(inline_value);
        } else if (i + 1 < argc) {
          value = argv[++i];
        } else {
          std::fprintf(stderr, "%s requires a value\n", arg.c_str());
          PrintUsage(stderr);
          *exit_code = 2;
          return false;
        }
      } else if (has_inline_value) {
        std::fprintf(stderr, "%s does not take a value\n", arg.c_str());
        PrintUsage(stderr);
        *exit_code = 2;
        return false;
      }
      std::string error;
      if (!entry->handler(value, &error)) {
        if (error.empty()) error = "invalid value";
        std::fprintf(stderr, "%s: %s (got '%s')\n", arg.c_str(),
                     error.c_str(), value.c_str());
        PrintUsage(stderr);
        *exit_code = 2;
        return false;
      }
    }
    return true;
  }

  /// Reports a post-parse usage error (missing required flag, conflicting
  /// flags) the same way Parse() reports its own; the caller returns 2.
  void UsageError(const std::string& message) const {
    std::fprintf(stderr, "%s\n", message.c_str());
    PrintUsage(stderr);
  }

  /// The one-line usage summary plus a pointer at --help.
  void PrintUsage(FILE* f) const {
    std::fprintf(f, "usage: %s [flags]   (see %s --help)\n", argv0_.c_str(),
                 argv0_.c_str());
  }

  /// The full generated help: usage, overview, aligned flag table.
  void PrintHelp(FILE* f) const {
    std::fprintf(f, "usage: %s [flags]\n\n%s\n\nflags:\n", argv0_.c_str(),
                 overview_.c_str());
    size_t width = 0;
    for (const Entry& e : flags_) width = std::max(width, HeadOf(e).size());
    for (const Entry& e : flags_) {
      std::fprintf(f, "  %-*s  %s\n", static_cast<int>(width),
                   HeadOf(e).c_str(), e.help.c_str());
    }
    std::fprintf(f, "  %-*s  %s\n", static_cast<int>(width), "--help, -h",
                 "print this help and exit");
  }

 private:
  struct Entry {
    std::string name;         // "--workload"
    std::string placeholder;  // "PATH" ("" for switches)
    std::string help;
    Handler handler;
    bool takes_value;
  };

  // Strict full-string base-10 integer parse.
  static bool ParseI64(const std::string& s, int64_t* out) {
    if (s.empty()) return false;
    char* end = nullptr;
    errno = 0;
    const long long parsed = std::strtoll(s.c_str(), &end, 10);
    if (end == nullptr || *end != '\0' || errno != 0) return false;
    *out = parsed;
    return true;
  }

  static std::string HeadOf(const Entry& e) {
    return e.placeholder.empty() ? e.name : e.name + " " + e.placeholder;
  }

  const Entry* Find(const std::string& name) const {
    for (const Entry& e : flags_) {
      if (e.name == name) return &e;
    }
    return nullptr;
  }

  std::string overview_;
  std::string argv0_ = "sop";
  std::vector<Entry> flags_;
};

/// Registers --kernel on `flags`: selects the process-global batch
/// distance backend for every detector in this process. "auto" (the
/// default) picks the best backend the CPU supports; explicit "avx2" fails
/// fast on machines without it.
inline void AddKernelFlag(FlagSet* flags) {
  flags->Flag(
      "--kernel", "scalar|avx2|auto",
      "batch distance kernel backend (default auto = best supported; "
      "emissions are identical across backends)",
      [](const std::string& v, std::string* error) {
        KernelBackend backend = KernelBackend::kScalar;
        if (!ParseKernelBackend(v, &backend)) {
          *error = "unknown or unsupported backend";
          return false;
        }
        SetKernelBackend(backend);
        return true;
      });
}

}  // namespace cli
}  // namespace sop

#endif  // SOP_TOOLS_FLAGS_H_
