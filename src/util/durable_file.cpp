#include "util/durable_file.h"

#include <cerrno>
#include <cstring>
#include <filesystem>
#include <stdexcept>

#include <fcntl.h>
#include <unistd.h>

#include "util/fault_injection.h"

namespace ides {

namespace {

[[noreturn]] void fail(std::string_view what, const std::string& step,
                       int err) {
  std::string message(what);
  message += ": ";
  message += step;
  message += ": ";
  message += std::strerror(err);
  throw std::runtime_error(message);
}

/// write(2) may stop short of the buffer or be interrupted; loop until all
/// of `text` is out. False (errno set) on a real error.
bool writeAll(int fd, std::string_view text) {
  while (!text.empty()) {
    const ssize_t n = ::write(fd, text.data(), text.size());
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    text.remove_prefix(static_cast<std::size_t>(n));
  }
  return true;
}

}  // namespace

bool publishFileDurably(const std::string& tmpPath,
                        const std::string& finalPath, std::string_view text,
                        std::string_view what,
                        const std::function<bool()>& stillWanted) {
  const int fd =
      ::open(tmpPath.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0) fail(what, "cannot write " + tmpPath, errno);
  bool written = writeAll(fd, text) && ::fsync(fd) == 0;
  int err = errno;
  if (::close(fd) != 0 && written) {
    written = false;
    err = errno;
  }
  if (!written) {
    ::unlink(tmpPath.c_str());
    fail(what, "short write to " + tmpPath, err);
  }
  if (stillWanted && !stillWanted()) {
    ::unlink(tmpPath.c_str());
    return false;
  }

  faultPoint("pre-rename");
  if (::rename(tmpPath.c_str(), finalPath.c_str()) != 0) {
    err = errno;
    ::unlink(tmpPath.c_str());
    fail(what, "cannot publish " + finalPath, err);
  }
  // The new name is an entry of the directory: sync it too, or a power
  // loss can take the rename back. Filesystems that cannot sync a
  // directory say EINVAL; there is nothing more to do on those.
  const std::string dir =
      std::filesystem::path(finalPath).parent_path().string();
  const int dirFd = ::open(dir.empty() ? "." : dir.c_str(),
                           O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  const bool synced = dirFd >= 0 && (::fsync(dirFd) == 0 || errno == EINVAL);
  err = errno;
  if (dirFd >= 0) ::close(dirFd);
  if (!synced) fail(what, "cannot sync the directory of " + finalPath, err);
  return true;
}

}  // namespace ides
