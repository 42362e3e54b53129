#include "fuzz/corpus_io.hpp"

#include <cstdio>
#include <fstream>
#include <ostream>
#include <sstream>
#include <utility>

namespace amac::fuzz {

CorpusLoadResult load_corpus_stream(std::istream& in, const std::string& name,
                                    bool strict, std::ostream* warnings) {
  CorpusLoadResult res;
  std::string line;
  std::size_t lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    if (line.empty() || line[0] == '#') continue;
    auto scenario = parse_spec(line);
    if (!scenario) {
      if (strict) {
        std::ostringstream os;
        os << name << ":" << lineno << ": malformed corpus spec: " << line;
        res.error = os.str();
        return res;  // ok == false
      }
      ++res.skipped;
      if (warnings != nullptr) {
        *warnings << "warning: " << name << ":" << lineno
                  << ": skipping malformed corpus spec: " << line << "\n";
      }
      continue;
    }
    res.scenarios.push_back(std::move(*scenario));
  }
  res.loaded = res.scenarios.size();
  // A file that parses to NOTHING despite having spec lines is a failed
  // load even in tolerant mode: resuming "from" it would silently restart
  // the frontier, which is the failure mode strictness exists to catch.
  if (res.loaded == 0 && res.skipped > 0) {
    std::ostringstream os;
    os << name << ": every corpus spec line is malformed (" << res.skipped
       << " skipped)";
    res.error = os.str();
    return res;  // ok == false
  }
  res.ok = true;
  return res;
}

CorpusLoadResult load_corpus_file(const std::string& path, bool strict,
                                  std::ostream* warnings) {
  std::ifstream in(path);
  if (!in) {
    CorpusLoadResult res;
    res.error = "cannot read corpus file: " + path;
    return res;  // ok == false
  }
  return load_corpus_stream(in, path, strict, warnings);
}

bool write_corpus_file(const std::string& path,
                       const std::vector<Scenario>& corpus,
                       std::string* error) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::trunc);
    if (!out) {
      if (error != nullptr) *error = "cannot write corpus file: " + tmp;
      return false;
    }
    out << "# bench_fuzz_soak coverage corpus: one replayable spec per line\n";
    for (const auto& s : corpus) out << format_spec(s) << "\n";
    out.flush();
    if (!out) {
      if (error != nullptr) *error = "write failed: " + tmp;
      std::remove(tmp.c_str());
      return false;
    }
  }
  // POSIX rename is atomic: the destination is either the old corpus or
  // the complete new one, never a truncated mix.
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    if (error != nullptr) *error = "cannot rename " + tmp + " to " + path;
    std::remove(tmp.c_str());
    return false;
  }
  return true;
}

}  // namespace amac::fuzz
