#include "sop/io/file_util.h"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

#include "sop/common/fault.h"

namespace sop {
namespace io {

namespace {

// Shifts existing generations one slot older ahead of a publish at `path`,
// so the previous `keep - 1` complete files survive it. keep <= 1 is a
// no-op.
void RotateGenerations(const std::string& path, int keep) {
  // Oldest first: rename over the tail slot, then walk down to the live
  // file. A missing generation (fresh deployment, or a crash that already
  // consumed it) simply makes that rename fail, which is fine — rotation
  // is best-effort by design; only the publish itself must be atomic.
  for (int g = keep - 1; g >= 1; --g) {
    std::rename(GenerationPath(path, g - 1).c_str(),
                GenerationPath(path, g).c_str());
  }
}

}  // namespace

bool ReadFileToString(const std::string& path, std::string* out,
                      std::string* error) {
  std::ifstream file(path, std::ios::binary);
  if (!file) {
    *error = "cannot open " + path;
    return false;
  }
  std::ostringstream buffer;
  buffer << file.rdbuf();
  if (!file && !file.eof()) {
    *error = "read from " + path + " failed";
    return false;
  }
  *out = buffer.str();
  return true;
}

bool WriteFileAtomic(const std::string& path, const std::string& bytes,
                     std::string* error) {
  const std::string temp = path + ".tmp";
  {
    std::ofstream file(temp, std::ios::binary | std::ios::trunc);
    if (!file) {
      *error = "cannot open " + temp + " for writing";
      return false;
    }
    file.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    if (!file.flush()) {
      *error = "write to " + temp + " failed";
      std::remove(temp.c_str());
      return false;
    }
  }
  if (std::rename(temp.c_str(), path.c_str()) != 0) {
    *error = "rename " + temp + " -> " + path + " failed: " +
             std::strerror(errno);
    std::remove(temp.c_str());
    return false;
  }
  return true;
}

std::string GenerationPath(const std::string& path, int generation) {
  if (generation <= 0) return path;
  return path + "." + std::to_string(generation);
}

bool PublishGeneration(const std::string& path, std::string bytes,
                       int generations, std::string* error) {
  FaultInjector* injector = FaultInjector::Armed();
  if (injector != nullptr &&
      injector->ShouldFail(FaultSite::kCheckpointWrite)) {
    *error = "injected write failure";
    return false;
  }
  if (injector != nullptr &&
      injector->ShouldFail(FaultSite::kCheckpointBytes)) {
    injector->CorruptBytes(&bytes);
  }
  RotateGenerations(path, generations);
  return WriteFileAtomic(path, bytes, error);
}

int ReadNewestGeneration(
    const std::string& path, int generations,
    const std::function<bool(const std::string& bytes, std::string* error)>&
        decode,
    std::string* error) {
  FaultInjector* injector = FaultInjector::Armed();
  std::string failures;
  for (int g = 0; g < std::max(generations, 1); ++g) {
    const std::string gen_path = GenerationPath(path, g);
    std::string gen_error;
    std::string bytes;
    if (injector != nullptr &&
        injector->ShouldFail(FaultSite::kCheckpointRead)) {
      gen_error = "injected read failure";
    } else if (ReadFileToString(gen_path, &bytes, &gen_error) &&
               decode(bytes, &gen_error)) {
      return g;
    }
    if (!failures.empty()) failures += "; ";
    failures += gen_path + ": " + gen_error;
  }
  *error = failures;
  return -1;
}

}  // namespace io
}  // namespace sop
