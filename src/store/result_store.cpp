#include "store/result_store.h"

#include <fcntl.h>
#include <sys/file.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <stdexcept>
#include <utility>

namespace tb::store {
namespace {

std::string hex16(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

std::string errno_text() { return std::strerror(errno); }

/// Strict frame-header parse: "@ <key_len> <value_len> <16 hex>". Returns
/// false on any deviation (the caller reports the offset).
bool parse_frame_header(const std::string& line, std::size_t& key_len,
                        std::size_t& value_len, std::uint64_t& checksum) {
  std::size_t pos = 0;
  const auto take_uint = [&](std::uint64_t& out) {
    if (pos >= line.size() || line[pos] < '0' || line[pos] > '9') return false;
    out = 0;
    while (pos < line.size() && line[pos] >= '0' && line[pos] <= '9') {
      out = out * 10 + static_cast<std::uint64_t>(line[pos] - '0');
      ++pos;
    }
    return true;
  };
  if (line.size() < 2 || line[0] != '@' || line[1] != ' ') return false;
  pos = 2;
  std::uint64_t k = 0;
  std::uint64_t v = 0;
  if (!take_uint(k)) return false;
  if (pos >= line.size() || line[pos] != ' ') return false;
  ++pos;
  if (!take_uint(v)) return false;
  if (pos >= line.size() || line[pos] != ' ') return false;
  ++pos;
  if (line.size() - pos != 16) return false;
  checksum = 0;
  for (; pos < line.size(); ++pos) {
    const char c = line[pos];
    checksum <<= 4;
    if (c >= '0' && c <= '9') {
      checksum |= static_cast<std::uint64_t>(c - '0');
    } else if (c >= 'a' && c <= 'f') {
      checksum |= static_cast<std::uint64_t>(c - 'a' + 10);
    } else {
      return false;
    }
  }
  key_len = static_cast<std::size_t>(k);
  value_len = static_cast<std::size_t>(v);
  return true;
}

}  // namespace

std::uint64_t fnv1a64(const std::string& bytes) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;  // FNV-1a 64-bit offset basis
  for (const char c : bytes) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 1099511628211ULL;  // FNV prime
  }
  return hash;
}

std::uint64_t store_schema_fingerprint() {
  return fnv1a64(exp::csv_header());
}

std::string store_magic_line() {
  return "#! topobench-store v1 schema=" + hex16(store_schema_fingerprint());
}

ResultStore::ResultStore(std::string path, Mode mode)
    : path_(std::move(path)), mode_(mode) {
  const int flags = mode_ == Mode::ReadWrite
                        ? O_RDWR | O_CREAT | O_APPEND | O_CLOEXEC
                        : O_RDONLY | O_CLOEXEC;
  fd_ = ::open(path_.c_str(), flags, 0644);
  if (fd_ < 0) {
    throw std::runtime_error("result store " + path_ +
                             ": open failed: " + errno_text());
  }
  if (mode_ == Mode::ReadWrite) {
    if (::flock(fd_, LOCK_EX | LOCK_NB) != 0) {
      const std::string why = errno == EWOULDBLOCK
                                  ? "another writer holds the lock"
                                  : errno_text();
      ::close(fd_);
      fd_ = -1;
      throw std::runtime_error("result store " + path_ +
                               ": cannot acquire writer lock: " + why);
    }
  }
  try {
    struct ::stat st {};
    if (::fstat(fd_, &st) != 0) {
      throw std::runtime_error("result store " + path_ +
                               ": fstat failed: " + errno_text());
    }
    if (st.st_size == 0 && mode_ == Mode::ReadWrite) {
      // Fresh store: stamp the magic line (single write, like records).
      const std::string magic = store_magic_line() + '\n';
      if (::write(fd_, magic.data(), magic.size()) !=
          static_cast<ssize_t>(magic.size())) {
        throw std::runtime_error("result store " + path_ +
                                 ": magic write failed: " + errno_text());
      }
      scan_offset_ = magic.size();
    } else {
      scan();
    }
  } catch (...) {
    ::close(fd_);
    fd_ = -1;
    throw;
  }
}

ResultStore::~ResultStore() {
  if (fd_ >= 0) ::close(fd_);  // releases the flock
}

void ResultStore::corrupt(std::uint64_t offset, const std::string& what) const {
  throw std::runtime_error("result store " + path_ + ": " + what +
                           " at byte " + std::to_string(offset));
}

std::size_t ResultStore::scan() {
  struct ::stat st {};
  if (::fstat(fd_, &st) != 0) {
    throw std::runtime_error("result store " + path_ +
                             ": fstat failed: " + errno_text());
  }
  const std::uint64_t size = static_cast<std::uint64_t>(st.st_size);
  if (size <= scan_offset_) return 0;
  std::string buf(size - scan_offset_, '\0');
  std::size_t got = 0;
  while (got < buf.size()) {
    const ssize_t n =
        ::pread(fd_, buf.data() + got, buf.size() - got,
                static_cast<off_t>(scan_offset_ + got));
    if (n < 0) {
      if (errno == EINTR) continue;
      throw std::runtime_error("result store " + path_ +
                               ": read failed: " + errno_text());
    }
    if (n == 0) break;  // file shrank underneath us — treat what we have
    got += static_cast<std::size_t>(n);
  }
  buf.resize(got);

  // A truncated tail is a concurrent writer's in-flight append: readers
  // stop before it (and retry on the next refresh); the writer owns the
  // file exclusively, so for it the same bytes are corruption.
  const bool tolerate_tail = mode_ == Mode::ReadOnly;
  std::size_t pos = 0;
  std::size_t new_records = 0;
  const auto abs = [&](std::size_t p) {
    return scan_offset_ + static_cast<std::uint64_t>(p);
  };

  if (scan_offset_ == 0) {
    const std::size_t nl = buf.find('\n');
    if (nl == std::string::npos) {
      if (tolerate_tail) return 0;
      corrupt(0, "missing magic line");
    }
    const std::string magic = buf.substr(0, nl);
    if (magic != store_magic_line()) {
      corrupt(0, "magic/schema mismatch (got \"" + magic + "\", want \"" +
                     store_magic_line() + "\")");
    }
    pos = nl + 1;
  }

  while (pos < buf.size()) {
    const std::size_t frame_start = pos;
    const std::size_t nl = buf.find('\n', pos);
    if (nl == std::string::npos) {
      if (tolerate_tail) break;
      corrupt(abs(frame_start), "truncated record header");
    }
    std::size_t key_len = 0;
    std::size_t value_len = 0;
    std::uint64_t checksum = 0;
    if (!parse_frame_header(buf.substr(pos, nl - pos), key_len, value_len,
                            checksum)) {
      corrupt(abs(frame_start), "malformed record header");
    }
    pos = nl + 1;
    // key '\n' value '\n'
    const std::size_t need = key_len + 1 + value_len + 1;
    if (buf.size() - pos < need) {
      if (tolerate_tail) {
        pos = frame_start;
        break;
      }
      corrupt(abs(frame_start), "truncated record body");
    }
    std::string key = buf.substr(pos, key_len);
    if (buf[pos + key_len] != '\n') {
      corrupt(abs(pos + key_len), "bad key delimiter");
    }
    std::string value = buf.substr(pos + key_len + 1, value_len);
    if (buf[pos + key_len + 1 + value_len] != '\n') {
      corrupt(abs(pos + key_len + 1 + value_len), "bad value delimiter");
    }
    pos += need;
    if (fnv1a64(key + '\x1f' + value) != checksum) {
      corrupt(abs(frame_start), "record checksum mismatch");
    }
    const auto it = index_.find(key);
    if (it != index_.end()) {
      if (it->second != value) {
        corrupt(abs(frame_start), "duplicate key with conflicting value");
      }
    } else {
      index_.emplace(std::move(key), std::move(value));
      ++new_records;
    }
  }
  scan_offset_ = abs(pos);
  return new_records;
}

std::optional<exp::CellResult> ResultStore::get(const std::string& key) const {
  const auto it = index_.find(key);
  if (it == index_.end()) return std::nullopt;
  try {
    return exp::cell_from_csv_row(it->second);
  } catch (const std::invalid_argument& e) {
    throw std::runtime_error("result store " + path_ +
                             ": stored value failed to decode: " + e.what());
  }
}

void ResultStore::put(const std::string& key, const exp::CellResult& r) {
  if (mode_ != Mode::ReadWrite) {
    throw std::logic_error("result store " + path_ +
                           ": put on a read-only store");
  }
  const std::string value = exp::csv_row(r);
  const auto it = index_.find(key);
  if (it != index_.end()) {
    if (it->second == value) return;  // idempotent re-put
    throw std::runtime_error(
        "result store " + path_ +
        ": conflicting value for existing key (determinism violation): " +
        key);
  }
  std::string record = "@ " + std::to_string(key.size()) + ' ' +
                       std::to_string(value.size()) + ' ' +
                       hex16(fnv1a64(key + '\x1f' + value)) + '\n';
  record += key;
  record += '\n';
  record += value;
  record += '\n';
  // One write(2) on an O_APPEND descriptor: readers either see the whole
  // record or a detectable truncation, never interleaving.
  if (::write(fd_, record.data(), record.size()) !=
      static_cast<ssize_t>(record.size())) {
    throw std::runtime_error("result store " + path_ +
                             ": append failed: " + errno_text());
  }
  scan_offset_ += record.size();
  index_.emplace(key, value);
}

std::size_t ResultStore::refresh() { return scan(); }

}  // namespace tb::store
