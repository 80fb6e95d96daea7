#include "core/stats.h"

#include <sstream>

namespace mz {

std::string EvalStats::Snapshot::ToString() const {
  std::ostringstream os;
  const char* sep = "";
  ForEach([&](const char* name, std::int64_t value, Kind) {
    os << sep << name << '=' << value;
    sep = " ";
  });
  return os.str();
}

}  // namespace mz
