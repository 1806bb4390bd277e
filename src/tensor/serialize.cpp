#include "tensor/serialize.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <optional>
#include <span>
#include <stdexcept>
#include <thread>
#include <unordered_map>
#include <unordered_set>

#include "core/crc32.hpp"
#include "core/fault.hpp"

namespace netllm::tensor {

namespace {

constexpr char kMagic[4] = {'N', 'L', 'L', 'M'};
constexpr std::uint32_t kVersion = 4;   // written by every save; 1–3 are read only
constexpr std::uint32_t kMaxRank = 16;  // sanity bound while parsing

template <typename T>
void append_pod(std::string& buf, const T& v) {
  buf.append(reinterpret_cast<const char*>(&v), sizeof(T));
}

void append_name(std::string& buf, const std::string& name) {
  append_pod(buf, static_cast<std::uint32_t>(name.size()));
  buf.append(name);
}

/// Bounds-checked cursor over an in-memory container image. Running past the
/// end anywhere means the file was truncated or a length field was corrupted.
class Reader {
 public:
  Reader(const std::string& image, const std::string& path) : image_(image), path_(path) {}

  /// Advances past `len` bytes and returns where they start in the image.
  const char* take(std::size_t len) {
    if (len > remaining()) {
      throw std::runtime_error("load_params: truncated or corrupt container " + path_);
    }
    const char* p = image_.data() + pos_;
    pos_ += len;
    return p;
  }

  template <typename T>
  T pod() {
    T v{};
    std::memcpy(&v, take(sizeof(T)), sizeof(T));
    return v;
  }

  std::string str(std::size_t len) { return std::string(take(len), len); }

  std::size_t remaining() const { return image_.size() - pos_; }

 private:
  const std::string& image_;
  std::size_t pos_ = 0;
  const std::string& path_;
};

/// Copies `len` payload bytes; an empty tensor may have no storage at all,
/// and memcpy must not see its null pointer.
void copy_payload(void* dst, const char* src, std::size_t len) {
  if (len > 0) std::memcpy(dst, src, len);
}

/// Product of non-negative counts read from a file, or nullopt once it
/// exceeds `limit` — the number of items the remaining bytes could hold.
/// Each factor is checked before it is multiplied in, so a crafted count
/// can neither overflow nor size an allocation.
std::optional<std::size_t> bounded_product(std::span<const std::int64_t> factors,
                                           std::size_t limit) {
  if (std::ranges::find(factors, 0) != factors.end()) return 0;
  std::size_t n = 1;
  for (const auto f : factors) {
    if (static_cast<std::uint64_t>(f) > limit / n) return std::nullopt;
    n *= static_cast<std::size_t>(f);
  }
  return n;
}

void reject_duplicates(const NamedParams& params, const NamedQuants& quants, const char* who) {
  std::unordered_set<std::string> seen;
  auto check = [&](const std::string& name) {
    if (!seen.insert(name).second) {
      throw std::runtime_error(std::string(who) + ": duplicate parameter name '" + name + "'");
    }
  };
  for (const auto& [name, t] : params) check(name);
  for (const auto& [name, q] : quants) check(name);
}

std::string join_names(const std::vector<std::string>& names, std::size_t cap = 8) {
  std::string out;
  for (std::size_t i = 0; i < names.size() && i < cap; ++i) {
    if (i) out += ", ";
    out += names[i];
  }
  if (names.size() > cap) out += ", ... (" + std::to_string(names.size() - cap) + " more)";
  return out;
}

/// POSIX fd with RAII close, so error paths cannot leak descriptors.
struct Fd {
  int fd = -1;
  ~Fd() {
    if (fd >= 0) ::close(fd);
  }
};

/// Serialise the whole container in memory first: the CRC footer needs the
/// final image, and a single write keeps the atomic-rename story simple.
std::string build_image(const NamedParams& params, const NamedQuants& quants,
                        const SessionSections& sections) {
  std::string buf;
  buf.append(kMagic, sizeof(kMagic));
  append_pod(buf, kVersion);
  append_pod(buf, static_cast<std::uint32_t>(params.size() + quants.size()));
  for (const auto& [name, t] : params) {
    append_name(buf, name);
    append_pod(buf, static_cast<std::uint32_t>(quant::Dtype::kF32));
    append_pod(buf, static_cast<std::uint32_t>(t.rank()));
    for (auto d : t.shape()) append_pod(buf, d);
    const auto payload_bytes = static_cast<std::size_t>(t.numel()) * sizeof(float);
    append_pod(buf, core::crc32(t.data().data(), payload_bytes));
    buf.append(reinterpret_cast<const char*>(t.data().data()), payload_bytes);
  }
  for (const auto& [name, q] : quants) {
    append_name(buf, name);
    append_pod(buf, static_cast<std::uint32_t>(q.dtype));
    append_pod(buf, q.rows);
    append_pod(buf, q.cols);
    append_pod(buf, static_cast<std::uint32_t>(quant::kBlock));
    append_pod(buf, static_cast<std::uint64_t>(q.scales.size()));
    append_pod(buf, static_cast<std::uint64_t>(q.codes.size()));
    const auto scale_bytes = q.scales.size() * sizeof(float);
    append_pod(buf, core::crc32(q.codes.data(), q.codes.size(),
                                core::crc32(q.scales.data(), scale_bytes)));
    buf.append(reinterpret_cast<const char*>(q.scales.data()), scale_bytes);
    buf.append(reinterpret_cast<const char*>(q.codes.data()), q.codes.size());
  }
  append_pod(buf, static_cast<std::uint32_t>(sections.size()));
  for (const auto& [name, blob] : sections) {
    append_name(buf, name);
    append_pod(buf, core::crc32(blob.data(), blob.size()));
    append_pod(buf, static_cast<std::uint64_t>(blob.size()));
    buf.append(blob);
  }
  append_pod(buf, core::crc32(buf.data(), buf.size()));
  return buf;
}

void write_image_atomic(const std::string& path, const std::string& buf) {
  // Atomic write: tmp file, fsync, rename. A crash (or injected fault) at
  // any point leaves the previous snapshot at `path` untouched; the torn
  // tmp file is unlinked so failed saves do not accumulate.
  const std::string tmp = path + ".tmp";
  try {
    const std::size_t to_write = core::fault::io_bytes("serialize.write", buf.size());
    {
      Fd f;
      f.fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
      if (f.fd < 0) throw std::runtime_error("save_params: cannot open " + tmp);
      std::size_t written = 0;
      while (written < to_write) {
        const auto n = ::write(f.fd, buf.data() + written, to_write - written);
        if (n < 0) {
          if (errno == EINTR) continue;
          throw std::runtime_error("save_params: write failed for " + tmp);
        }
        written += static_cast<std::size_t>(n);
      }
      if (to_write < buf.size()) {
        // An armed TruncateIo fault cut the request short: the tmp file now
        // holds a torn image, exactly like a crash mid-write.
        throw core::fault::FaultInjected("save_params: interrupted write for " + tmp);
      }
      FAULT_POINT("serialize.fsync");
      if (::fsync(f.fd) != 0) throw std::runtime_error("save_params: fsync failed for " + tmp);
    }
    FAULT_POINT("serialize.rename");
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
      throw std::runtime_error("save_params: rename failed for " + path);
    }
  } catch (...) {
    ::unlink(tmp.c_str());
    throw;
  }
}

}  // namespace

std::string LoadReport::summary() const {
  std::string s = "v";
  s += std::to_string(version) + ", loaded " + std::to_string(loaded);
  if (!missing.empty()) s += "; missing: " + join_names(missing);
  if (!mismatched.empty()) s += "; mismatched: " + join_names(mismatched);
  if (!extra.empty()) s += "; extra (ignored): " + join_names(extra);
  if (!sections.empty()) s += "; session sections: " + join_names(sections);
  return s;
}

void save_params(const std::string& path, const NamedParams& params, const NamedQuants& quants,
                 const SessionSections& sections) {
  reject_duplicates(params, quants, "save_params");
  write_image_atomic(path, build_image(params, quants, sections));
}

void save_params_retry(const std::string& path, const NamedParams& params,
                       const SaveRetryOptions& opts) {
  int backoff_ms = opts.initial_backoff_ms;
  for (int attempt = 1;; ++attempt) {
    try {
      save_params(path, params);
      return;
    } catch (const std::exception&) {
      if (attempt >= opts.attempts) throw;
      std::this_thread::sleep_for(std::chrono::milliseconds(backoff_ms));
      backoff_ms = std::min(backoff_ms * 2, opts.max_backoff_ms);
    }
  }
}

LoadReport load_params_report(const std::string& path, const NamedParams& params,
                              NamedQuants* quants_out, SessionSections* sections_out) {
  reject_duplicates(params, {}, "load_params");
  auto error = [&](const std::string& what) {
    return std::runtime_error("load_params: " + what + " in " + path);
  };

  std::ifstream is(path, std::ios::binary);
  if (!is) throw std::runtime_error("load_params: cannot open " + path);
  const std::string image((std::istreambuf_iterator<char>(is)),
                          std::istreambuf_iterator<char>());
  Reader r(image, path);

  if (std::memcmp(r.take(sizeof(kMagic)), kMagic, sizeof(kMagic)) != 0) {
    throw error("bad magic");
  }
  // The version decides only what the records omit: v1 has no CRCs, v1–v2
  // no section block, v1–v3 no per-record dtype (every record is f32).
  const auto version = r.pod<std::uint32_t>();
  if (version < 1 || version > kVersion) {
    throw error("unsupported version " + std::to_string(version));
  }
  if (quants_out) quants_out->clear();
  if (sections_out) sections_out->clear();
  const bool has_crc = version >= 2;
  if (has_crc) {
    // Whole-file integrity first: catches corruption in headers and names,
    // where per-record CRCs cannot reach. The magic and version already
    // read guarantee the image holds a footer's worth of bytes.
    const std::size_t body = image.size() - sizeof(std::uint32_t);
    std::uint32_t stored = 0;
    std::memcpy(&stored, image.data() + body, sizeof(stored));
    if (core::crc32(image.data(), body) != stored) {
      throw error("file checksum mismatch (corrupt or torn snapshot)");
    }
  }

  std::unordered_map<std::string, Tensor> by_name;
  for (const auto& [name, t] : params) by_name.emplace(name, t);

  LoadReport report;
  report.version = version;
  std::unordered_set<std::string> matched, mismatched, seen_in_file;
  const auto count = r.pod<std::uint32_t>();
  for (std::uint32_t i = 0; i < count; ++i) {
    std::string name = r.str(r.pod<std::uint32_t>());
    if (!seen_in_file.insert(name).second) throw error("duplicate tensor '" + name + "'");
    const auto dtype = version >= 4 ? r.pod<std::uint32_t>()
                                    : static_cast<std::uint32_t>(quant::Dtype::kF32);
    const auto it = by_name.find(name);
    auto mismatch = [&](const std::string& file_desc) {
      report.mismatched.push_back(name + " (file " + file_desc + ", param " +
                                  shape_str(it->second.shape()) + ")");
      mismatched.insert(name);
    };

    if (dtype == static_cast<std::uint32_t>(quant::Dtype::kF32)) {
      const auto rank = r.pod<std::uint32_t>();
      if (rank > kMaxRank) throw error("corrupt rank for '" + name + "'");
      Shape shape(rank);
      for (auto& d : shape) {
        d = r.pod<std::int64_t>();
        if (d < 0) throw error("corrupt shape for '" + name + "'");
      }
      const auto stored_crc = has_crc ? r.pod<std::uint32_t>() : 0;
      const auto numel = bounded_product(shape, r.remaining() / sizeof(float));
      if (!numel) throw error("truncated tensor data for '" + name + "'");
      const auto payload_bytes = *numel * sizeof(float);
      const char* payload = r.take(payload_bytes);
      if (has_crc && core::crc32(payload, payload_bytes) != stored_crc) {
        throw error("checksum mismatch for tensor '" + name + "'");
      }
      if (it == by_name.end()) {
        report.extra.push_back(name);
      } else if (it->second.shape() != shape) {
        mismatch(shape_str(shape));
      } else {
        copy_payload(it->second.mutable_data().data(), payload, payload_bytes);
        matched.insert(name);
        ++report.loaded;
      }
      continue;
    }

    if (dtype != static_cast<std::uint32_t>(quant::Dtype::kQ8_0) &&
        dtype != static_cast<std::uint32_t>(quant::Dtype::kQ4_0)) {
      throw error("bad dtype " + std::to_string(dtype) + " for '" + name + "'");
    }
    quant::QTensor q;
    q.dtype = static_cast<quant::Dtype>(dtype);
    q.rows = r.pod<std::int64_t>();
    q.cols = r.pod<std::int64_t>();
    const auto block_size = r.pod<std::uint32_t>();
    const auto nscales = r.pod<std::uint64_t>();
    const auto ncodes = r.pod<std::uint64_t>();
    const auto stored_crc = r.pod<std::uint32_t>();
    if (q.rows < 0 || q.cols <= 0) throw error("corrupt shape for '" + name + "'");
    if (block_size != static_cast<std::uint32_t>(quant::kBlock)) {
      throw error("bad block size " + std::to_string(block_size) + " for '" + name + "'");
    }
    const auto code_bytes = static_cast<std::size_t>(quant::block_code_bytes(q.dtype));
    const auto want_scales =
        bounded_product(std::array{q.rows, quant::blocks_per_row(q.cols)},
                        r.remaining() / (sizeof(float) + code_bytes));
    if (!want_scales) throw error("truncated tensor data for '" + name + "'");
    if (nscales != *want_scales) {
      throw error("bad block count for '" + name + "' (have " + std::to_string(nscales) +
                  ", want " + std::to_string(*want_scales) + ")");
    }
    if (ncodes != *want_scales * code_bytes) {
      throw error("bad code bytes for '" + name + "' (have " + std::to_string(ncodes) +
                  ", want " + std::to_string(*want_scales * code_bytes) + ")");
    }
    const auto scale_bytes = static_cast<std::size_t>(nscales) * sizeof(float);
    const char* scales = r.take(scale_bytes);
    const char* codes = r.take(static_cast<std::size_t>(ncodes));
    if (core::crc32(codes, ncodes, core::crc32(scales, scale_bytes)) != stored_crc) {
      throw error("checksum mismatch for tensor '" + name + "'");
    }
    if (quants_out) {
      q.scales.resize(static_cast<std::size_t>(nscales));
      q.codes.resize(static_cast<std::size_t>(ncodes));
      copy_payload(q.scales.data(), scales, scale_bytes);
      copy_payload(q.codes.data(), codes, static_cast<std::size_t>(ncodes));
      quants_out->emplace_back(std::move(name), std::move(q));
    } else if (it != by_name.end()) {
      // Never read quantized blocks as fp32 bytes: name the dtype instead.
      mismatch(std::string(quant::dtype_name(q.dtype)) + " " + shape_str({q.rows, q.cols}));
    } else {
      report.extra.push_back(name);
    }
  }

  if (version >= 3) {
    // Sections: named opaque blobs, each with its own CRC so a damaged
    // section is attributed by name like a damaged tensor.
    std::unordered_set<std::string> seen_sections;
    const auto section_count = r.pod<std::uint32_t>();
    for (std::uint32_t i = 0; i < section_count; ++i) {
      std::string name = r.str(r.pod<std::uint32_t>());
      if (!seen_sections.insert(name).second) {
        throw error("duplicate session section '" + name + "'");
      }
      const auto stored_crc = r.pod<std::uint32_t>();
      const auto blob_len = r.pod<std::uint64_t>();
      if (blob_len > r.remaining()) throw error("truncated session section '" + name + "'");
      std::string blob = r.str(static_cast<std::size_t>(blob_len));
      if (core::crc32(blob.data(), blob.size()) != stored_crc) {
        throw error("checksum mismatch for session section '" + name + "'");
      }
      report.sections.push_back(name);
      if (sections_out) sections_out->emplace_back(std::move(name), std::move(blob));
    }
  }
  for (const auto& [name, t] : params) {
    if (!matched.contains(name) && !mismatched.contains(name)) report.missing.push_back(name);
  }
  return report;
}

void load_params(const std::string& path, const NamedParams& params) {
  const auto report = load_params_report(path, params);
  if (!report.missing.empty()) {
    throw std::runtime_error("load_params: missing parameters in " + path + ": " +
                             join_names(report.missing));
  }
  if (!report.mismatched.empty()) {
    throw std::runtime_error("load_params: mismatched parameters in " + path + ": " +
                             join_names(report.mismatched));
  }
}

}  // namespace netllm::tensor
