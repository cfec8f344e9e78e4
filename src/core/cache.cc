#include "src/core/cache.h"

namespace afs {

void PageCache::Put(uint64_t file_id, BlockNo version_head, const PagePath& path,
                    std::vector<uint8_t> data) {
  std::lock_guard<std::mutex> lock(mu_);
  Entry& entry = entries_[file_id];
  entry.version_head = version_head;
  entry.pages[path] = std::move(data);
}

std::optional<std::vector<uint8_t>> PageCache::Get(uint64_t file_id,
                                                   const PagePath& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(file_id);
  if (it == entries_.end()) {
    misses_->Inc();
    return std::nullopt;
  }
  auto page = it->second.pages.find(path);
  if (page == it->second.pages.end()) {
    misses_->Inc();
    return std::nullopt;
  }
  hits_->Inc();
  return page->second;
}

BlockNo PageCache::VersionOf(uint64_t file_id) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(file_id);
  return it == entries_.end() ? kNilRef : it->second.version_head;
}

std::vector<PagePath> PageCache::PathsOf(uint64_t file_id) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<PagePath> out;
  auto it = entries_.find(file_id);
  if (it != entries_.end()) {
    for (const auto& [path, data] : it->second.pages) {
      (void)data;
      out.push_back(path);
    }
  }
  return out;
}

void PageCache::ApplyValidation(uint64_t file_id, BlockNo new_head,
                                const std::vector<PagePath>& invalid) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(file_id);
  if (it == entries_.end()) {
    return;
  }
  for (const PagePath& path : invalid) {
    it->second.pages.erase(path);
  }
  it->second.version_head = new_head;
}

void PageCache::Drop(uint64_t file_id) {
  std::lock_guard<std::mutex> lock(mu_);
  entries_.erase(file_id);
}

void PageCache::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  entries_.clear();
}

}  // namespace afs
