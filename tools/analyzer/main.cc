// qoco-analyze: the repo's static analyzer. Scans C++ sources for
// violations of the determinism and thread-safety contracts (see
// DESIGN.md "Static analysis" for the rule catalog and suppression
// policy). Exit 0 iff clean; 1 on findings; 2 on usage or I/O errors.

#include <iostream>
#include <string>
#include <vector>

#include "tools/analyzer/analyzer.h"

namespace {

constexpr const char* kUsage =
    "usage: qoco-analyze [options] [path...]\n"
    "\n"
    "Scans *.cc/*.cpp/*.h under the given paths (default: src tests bench\n"
    "tools examples, skipping testdata/ and build*/ trees) and reports rule\n"
    "violations as\n"
    "  file:line: [rule] message\n"
    "\n"
    "options:\n"
    "  --root DIR               resolve paths relative to DIR (default: .)\n"
    "  --order-insensitive FN   treat function FN as order-insensitive for\n"
    "                           the unordered-iteration rule (repeatable)\n"
    "  --list-rules             print the rule catalog and exit\n"
    "  --self-test              run the built-in rule calibration and exit\n"
    "  --verbose                list scanned files\n";

}  // namespace

int main(int argc, char** argv) {
  std::string root = ".";
  qoco::analyze::AnalyzerConfig config;
  std::vector<std::string> paths;
  bool list_rules = false;
  bool self_test = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--root" && i + 1 < argc) {
      root = argv[++i];
    } else if (arg == "--order-insensitive" && i + 1 < argc) {
      config.order_insensitive_functions.insert(argv[++i]);
    } else if (arg == "--list-rules") {
      list_rules = true;
    } else if (arg == "--self-test") {
      self_test = true;
    } else if (arg == "--verbose") {
      config.verbose = true;
    } else if (arg == "--help" || arg == "-h") {
      std::cout << kUsage;
      return 0;
    } else if (!arg.empty() && arg[0] == '-') {
      std::cerr << "qoco-analyze: unknown option '" << arg << "'\n"
                << kUsage;
      return 2;
    } else {
      paths.push_back(arg);
    }
  }

  if (list_rules) {
    for (const qoco::analyze::RuleInfo& r : qoco::analyze::Rules()) {
      std::cout << r.name << "\n  flags: " << r.summary
                << "\n  fix:   " << r.fix << "\n";
    }
    return 0;
  }
  if (self_test) {
    if (!qoco::analyze::SelfTest(std::cerr)) return 1;
    std::cout << "qoco-analyze self-test: ok\n";
    return 0;
  }

  if (paths.empty()) paths = {"src", "tests", "bench", "tools", "examples"};

  std::vector<std::string> scanned;
  std::string error;
  const std::vector<qoco::analyze::Finding> findings =
      qoco::analyze::AnalyzeTree(root, paths, config, &scanned, &error);
  if (!error.empty()) {
    std::cerr << "qoco-analyze: " << error << "\n";
    return 2;
  }
  if (config.verbose) {
    for (const std::string& p : scanned) {
      std::cout << "qoco-analyze: scanned " << p << "\n";
    }
  }
  qoco::analyze::PrintFindings(findings, std::cout);
  if (!findings.empty()) {
    std::cerr << "qoco-analyze: " << findings.size() << " finding(s) in "
              << scanned.size() << " file(s)\n";
    return 1;
  }
  std::cout << "qoco-analyze: clean (" << scanned.size() << " files)\n";
  return 0;
}
