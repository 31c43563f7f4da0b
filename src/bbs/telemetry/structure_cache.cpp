#include "bbs/telemetry/structure_cache.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <utility>

#include "bbs/common/hash.hpp"

namespace bbs::telemetry {
namespace {

constexpr const char* kMagic = "BBSCACHE";
constexpr const char* kVersion = "v2";

std::string hex64(std::uint64_t value) {
  char buffer[17];
  std::snprintf(buffer, sizeof(buffer), "%016" PRIx64, value);
  return std::string(buffer);
}

bool parse_hex64(const std::string& text, std::uint64_t* value) {
  if (text.empty() || text.size() > 16) return false;
  std::uint64_t result = 0;
  for (const char c : text) {
    result <<= 4;
    if (c >= '0' && c <= '9') {
      result |= static_cast<std::uint64_t>(c - '0');
    } else if (c >= 'a' && c <= 'f') {
      result |= static_cast<std::uint64_t>(c - 'a' + 10);
    } else {
      return false;
    }
  }
  *value = result;
  return true;
}

io::JsonValue index_array_to_json(const std::vector<linalg::Index>& values) {
  io::JsonArray array;
  array.reserve(values.size());
  for (const linalg::Index v : values) {
    array.emplace_back(static_cast<long long>(v));
  }
  return io::JsonValue(std::move(array));
}

bool index_array_from_json(const io::JsonValue& value,
                           std::vector<linalg::Index>* out) {
  if (!value.is_array()) return false;
  out->clear();
  out->reserve(value.as_array().size());
  for (const io::JsonValue& element : value.as_array()) {
    if (!element.is_number()) return false;
    out->push_back(static_cast<linalg::Index>(element.as_number()));
  }
  return true;
}

std::string entry_to_payload(const CacheEntry& entry) {
  io::JsonObject symbolic;
  symbolic["dim"] = static_cast<long long>(entry.symbolic.dim);
  // 64-bit hashes exceed the exact range of JSON doubles: hex string.
  symbolic["pattern_hash"] = hex64(entry.symbolic.pattern_hash);
  symbolic["permutation"] = index_array_to_json(entry.symbolic.permutation);
  symbolic["etree_parent"] =
      index_array_to_json(entry.symbolic.etree_parent);
  symbolic["factor_col_ptr"] =
      index_array_to_json(entry.symbolic.factor_col_ptr);

  io::JsonObject payload;
  payload["key"] = entry.key;
  payload["symbolic"] = io::JsonValue(std::move(symbolic));
  payload["session"] = entry.session;
  return io::write_json_compact(io::JsonValue(std::move(payload)));
}

bool entry_from_payload(const std::string& payload, CacheEntry* entry,
                        std::string* error) {
  io::JsonValue value;
  try {
    value = io::parse_json(payload);
  } catch (const std::exception& e) {
    *error = std::string("payload parse: ") + e.what();
    return false;
  }
  if (!value.is_object()) {
    *error = "payload is not an object";
    return false;
  }
  const io::JsonObject& object = value.as_object();
  if (!object.contains("key") || !object.at("key").is_string() ||
      !object.contains("symbolic") || !object.at("symbolic").is_object() ||
      !object.contains("session")) {
    *error = "payload missing key/symbolic/session";
    return false;
  }
  entry->key = object.at("key").as_string();
  entry->session = object.at("session");

  const io::JsonObject& symbolic = object.at("symbolic").as_object();
  if (!symbolic.contains("dim") || !symbolic.at("dim").is_number() ||
      !symbolic.contains("pattern_hash") ||
      !symbolic.at("pattern_hash").is_string()) {
    *error = "symbolic block malformed";
    return false;
  }
  entry->symbolic.dim =
      static_cast<linalg::Index>(symbolic.at("dim").as_number());
  if (!parse_hex64(symbolic.at("pattern_hash").as_string(),
                   &entry->symbolic.pattern_hash)) {
    *error = "pattern_hash malformed";
    return false;
  }
  if (!symbolic.contains("permutation") ||
      !index_array_from_json(symbolic.at("permutation"),
                             &entry->symbolic.permutation) ||
      !symbolic.contains("etree_parent") ||
      !index_array_from_json(symbolic.at("etree_parent"),
                             &entry->symbolic.etree_parent) ||
      !symbolic.contains("factor_col_ptr") ||
      !index_array_from_json(symbolic.at("factor_col_ptr"),
                             &entry->symbolic.factor_col_ptr)) {
    *error = "symbolic arrays malformed";
    return false;
  }
  return true;
}

}  // namespace

std::string StructureCache::file_name_for_key(const std::string& key) {
  return hex64(common::fnv1a_64(key)) + ".bbsc";
}

StructureCache::StructureCache(std::string directory, std::size_t max_entries,
                               std::uint64_t max_bytes)
    : directory_(std::move(directory)),
      max_entries_(std::max<std::size_t>(1, max_entries)),
      max_bytes_(max_bytes) {
  writer_ = std::thread([this] { writer_loop(); });
}

StructureCache::~StructureCache() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  wake_writer_.notify_all();
  if (writer_.joinable()) writer_.join();
}

bool StructureCache::load_file(const std::string& path, std::string* error) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    *error = "unreadable";
    return false;
  }
  std::string header;
  if (!std::getline(in, header)) {
    *error = "missing header";
    return false;
  }
  std::istringstream header_stream(header);
  std::string magic, version, checksum_hex;
  long long length = -1;
  if (!(header_stream >> magic >> version >> checksum_hex >> length) ||
      magic != kMagic) {
    *error = "malformed header";
    return false;
  }
  if (version != kVersion) {
    *error = "version mismatch (" + version + ")";
    return false;
  }
  if (length < 0 || length > (1LL << 30)) {
    *error = "implausible payload length";
    return false;
  }
  std::string payload(static_cast<std::size_t>(length), '\0');
  in.read(payload.data(), length);
  if (in.gcount() != length) {
    *error = "truncated payload";
    return false;
  }
  std::uint64_t expected = 0;
  if (!parse_hex64(checksum_hex, &expected) ||
      common::fnv1a_64(payload) != expected) {
    *error = "checksum mismatch";
    return false;
  }
  CacheEntry entry;
  if (!entry_from_payload(payload, &entry, error)) return false;
  if (std::filesystem::path(path).filename().string() !=
      file_name_for_key(entry.key)) {
    *error = "key hash does not match file name";
    return false;
  }

  std::lock_guard<std::mutex> lock(mutex_);
  if (entries_.size() >= max_entries_ && !entries_.contains(entry.key)) {
    *error = "cache full";
    return false;
  }
  entries_[entry.key] = std::move(entry);
  return true;
}

std::size_t StructureCache::gc_disk() {
  namespace fs = std::filesystem;
  struct File {
    fs::path path;
    fs::file_time_type mtime;
    std::uintmax_t size = 0;
  };
  std::error_code ec;
  std::vector<File> files;
  std::uintmax_t total_bytes = 0;
  for (const auto& dirent : fs::directory_iterator(directory_, ec)) {
    if (!dirent.is_regular_file()) continue;
    if (dirent.path().extension() != ".bbsc") continue;
    std::error_code file_ec;
    File file;
    file.path = dirent.path();
    file.mtime = dirent.last_write_time(file_ec);
    if (file_ec) continue;
    file.size = dirent.file_size(file_ec);
    if (file_ec) continue;
    total_bytes += file.size;
    files.push_back(std::move(file));
  }
  const auto over_budget = [&](std::size_t remaining) {
    return remaining > max_entries_ ||
           (max_bytes_ > 0 && total_bytes > max_bytes_);
  };
  if (!over_budget(files.size())) return 0;
  std::sort(files.begin(), files.end(),
            [](const File& a, const File& b) { return a.mtime < b.mtime; });
  std::size_t evicted = 0;
  std::size_t index = 0;
  while (index < files.size() && over_budget(files.size() - index)) {
    std::error_code remove_ec;
    if (fs::remove(files[index].path, remove_ec)) ++evicted;
    total_bytes -= files[index].size;
    ++index;
  }
  if (evicted > 0) {
    std::lock_guard<std::mutex> lock(mutex_);
    stats_.evictions += evicted;
  }
  return evicted;
}

std::size_t StructureCache::load() {
  std::error_code ec;
  std::filesystem::create_directories(directory_, ec);
  // Enforce the disk budget before loading, so a directory that outgrew
  // its limits while this daemon was down sheds its coldest entries first
  // and the scan below only sees survivors.
  gc_disk();
  std::size_t loaded = 0;
  std::uint64_t errors = 0;
  for (const auto& dirent :
       std::filesystem::directory_iterator(directory_, ec)) {
    if (!dirent.is_regular_file()) continue;
    if (dirent.path().extension() != ".bbsc") continue;
    std::string error;
    if (load_file(dirent.path().string(), &error)) {
      ++loaded;
    } else {
      ++errors;
      std::fprintf(stderr, "structure_cache: skipping %s: %s\n",
                   dirent.path().string().c_str(), error.c_str());
    }
  }
  std::lock_guard<std::mutex> lock(mutex_);
  stats_.entries_loaded += loaded;
  stats_.load_errors += errors;
  return loaded;
}

bool StructureCache::contains(const std::string& key) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return entries_.contains(key);
}

std::optional<CacheEntry> StructureCache::lookup(
    const std::string& key) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = entries_.find(key);
  if (it == entries_.end()) {
    ++stats_.lookup_misses;
    return std::nullopt;
  }
  ++stats_.lookup_hits;
  return it->second;
}

void StructureCache::store(CacheEntry entry) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (entries_.size() >= max_entries_ && !entries_.contains(entry.key)) {
      ++stats_.save_errors;
      return;
    }
    entries_[entry.key] = entry;
    write_queue_.push_back(std::move(entry));
  }
  wake_writer_.notify_one();
}

void StructureCache::flush() {
  std::unique_lock<std::mutex> lock(mutex_);
  write_done_.wait(lock,
                   [this] { return write_queue_.empty() && !writing_; });
}

std::vector<CacheEntry> StructureCache::entries() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<CacheEntry> copy;
  copy.reserve(entries_.size());
  for (const auto& [key, entry] : entries_) copy.push_back(entry);
  return copy;
}

void StructureCache::note_prewarm_error() {
  std::lock_guard<std::mutex> lock(mutex_);
  ++stats_.prewarm_errors;
}

StructureCacheStats StructureCache::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

std::size_t StructureCache::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return entries_.size();
}

void StructureCache::writer_loop() {
  for (;;) {
    CacheEntry entry;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      wake_writer_.wait(lock, [this] {
        return stopping_ || !write_queue_.empty();
      });
      if (write_queue_.empty()) {
        if (stopping_) return;
        continue;
      }
      entry = std::move(write_queue_.front());
      write_queue_.pop_front();
      writing_ = true;
    }

    const std::string payload = entry_to_payload(entry);
    const std::string name = file_name_for_key(entry.key);
    const std::filesystem::path target =
        std::filesystem::path(directory_) / name;
    const std::filesystem::path temp =
        std::filesystem::path(directory_) / (name + ".tmp");
    bool ok = false;
    {
      std::error_code ec;
      std::filesystem::create_directories(directory_, ec);
      std::ofstream out(temp, std::ios::binary | std::ios::trunc);
      if (out) {
        out << kMagic << ' ' << kVersion << ' '
            << hex64(common::fnv1a_64(payload)) << ' ' << payload.size()
            << '\n'
            << payload;
        out.flush();
        ok = out.good();
      }
      if (ok) {
        std::filesystem::rename(temp, target, ec);
        ok = !ec;
      }
      if (!ok) std::filesystem::remove(temp, ec);
    }

    // Re-enforce the disk budget after every successful write: the file
    // just renamed in carries the newest mtime, so LRU-by-mtime always
    // evicts colder entries before it.
    if (ok) gc_disk();

    {
      std::lock_guard<std::mutex> lock(mutex_);
      writing_ = false;
      if (ok) {
        ++stats_.saves;
      } else {
        ++stats_.save_errors;
      }
    }
    write_done_.notify_all();
  }
}

}  // namespace bbs::telemetry
