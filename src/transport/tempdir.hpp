#pragma once
/// \file tempdir.hpp
/// Fresh private directory for rendezvous/listener sockets, honoring
/// TMPDIR (fallback /tmp) like mkstemp-based tooling does. Callers on
/// exotic TMPDIRs should keep it short: Unix-domain socket paths are
/// capped at sizeof(sockaddr_un::sun_path) (~108 bytes), and the bind
/// will fail with a named error if DIR/rank<N>.sock exceeds it.

#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <system_error>
#include <utility>
#include <vector>

#include "transport/communicator.hpp"

namespace slipflow::transport {

/// mkdtemp($TMPDIR/slipflow.XXXXXX); throws comm_error on failure.
inline std::string make_socket_temp_dir() {
  const char* base = std::getenv("TMPDIR");
  std::string tmpl = (base != nullptr && base[0] != '\0') ? base : "/tmp";
  while (tmpl.size() > 1 && tmpl.back() == '/') tmpl.pop_back();
  tmpl += "/slipflow.XXXXXX";
  std::vector<char> buf(tmpl.begin(), tmpl.end());
  buf.push_back('\0');
  if (::mkdtemp(buf.data()) == nullptr)
    throw comm_error("mkdtemp(" + tmpl + "): " + std::strerror(errno));
  return std::string(buf.data());
}

/// A rank harness's rendezvous directory: `dir` when given, else (for
/// more than one rank) a fresh make_socket_temp_dir(), removed when the
/// harness returns or throws.
class HarnessDir {
 public:
  HarnessDir(std::string dir, int nranks) : path_(std::move(dir)) {
    if (path_.empty() && nranks > 1) {
      path_ = make_socket_temp_dir();
      own_ = true;
    }
  }
  ~HarnessDir() {
    std::error_code ec;
    if (own_) std::filesystem::remove_all(path_, ec);
  }
  HarnessDir(const HarnessDir&) = delete;
  HarnessDir& operator=(const HarnessDir&) = delete;

  const std::string& path() const { return path_; }

 private:
  std::string path_;
  bool own_ = false;
};

}  // namespace slipflow::transport
