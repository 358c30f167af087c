// legacy_artifact.hpp — v1–v4 structure artifacts for the read-only
// legacy readers.
//
// The library writes structure artifacts as v5 text (or v6 binary) only,
// but io::read_structure still loads every earlier version. To keep those
// readers covered, legacy_from_v5 re-frames a v5 artifact in the older
// line grammar (docs/file_formats.md): a v4 body is exactly the meta,
// edges and pair-tables payloads of the v5 sections, with "pair-tables 0"
// when the artifact has no tables; v3 drops the pair tables; v2 also drops
// the sources line; v1 also drops the fault-model line. The optional
// site-dist section has no legacy form and is dropped.
#pragma once

#include <map>
#include <sstream>
#include <string>

#include "src/util/check.hpp"

namespace ftb::test {

inline std::string legacy_from_v5(const std::string& v5, int version) {
  FTB_CHECK_MSG(version >= 1 && version <= 4,
                "legacy versions are 1-4, got " << version);
  std::istringstream is(v5);
  std::string line;
  std::getline(is, line);
  FTB_CHECK_MSG(line == "ftbfs-structure 5", "not a v5 artifact");
  std::map<std::string, std::string> payload;
  while (std::getline(is, line)) {
    std::istringstream hs(line);
    std::string word, name, crc;
    std::size_t bytes = 0;
    hs >> word >> name >> bytes >> crc;
    FTB_CHECK_MSG(word == "section", "bad v5 frame '" << line << "'");
    std::string body(bytes, '\0');
    is.read(body.data(), static_cast<std::streamsize>(bytes));
    FTB_CHECK_MSG(static_cast<std::size_t>(is.gcount()) == bytes,
                  "truncated v5 section '" << name << "'");
    payload[name] = std::move(body);
  }
  std::string meta = payload["meta"];
  FTB_CHECK_MSG(version >= 4 || meta.find("fault-model dual") ==
                                    std::string::npos,
                "dual artifacts need version 4 (v2/v3 'dual' means either)");
  FTB_CHECK_MSG(version >= 2 || meta.rfind("fault-model edge\n", 0) == 0,
                "v1 artifacts are edge-model by definition");
  if (version < 3) meta.erase(meta.find("sources "));  // the last meta line
  if (version < 2) meta.clear();
  std::string out = "ftbfs-structure " + std::to_string(version) + "\n" +
                    meta + payload["edges"];
  if (version == 4) {
    const std::string& tables = payload["pair-tables"];
    out += tables.empty() ? std::string("pair-tables 0\n") : tables;
  }
  return out;
}

}  // namespace ftb::test
