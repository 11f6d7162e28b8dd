#include "serve/index_manager.h"

#include <utility>

#include "common/thread_pool.h"

namespace sweetknn::serve {

SweetKnn::Config ShardIndexConfig(const core::TiOptions& options,
                                  const gpusim::DeviceSpec& device,
                                  bool enable_ann,
                                  const ann::GraphBuildParams& ann_params) {
  SweetKnn::Config config;
  config.device = device;
  config.options = options;
  config.options.sim_threads = 1;
  config.compact_delta_fraction = 0.0;
  config.enable_ann = enable_ann;
  config.ann_params = ann_params;
  if (config.ann_params.workers <= 0) {
    config.ann_params.workers = options.sim_threads > 0
                                    ? options.sim_threads
                                    : common::SimThreadsFromEnv();
  }
  return config;
}

bool IndexManager::ValidName(const std::string& name) {
  if (name.empty() || name.size() > 64) return false;
  if (name.front() == '.') return false;
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == '.' ||
                    c == '-';
    if (!ok) return false;
  }
  return true;
}

Status IndexManager::Install(std::shared_ptr<TenantIndex> tenant) {
  if (!ValidName(tenant->name)) {
    return Status::InvalidArgument(
        "'" + tenant->name +
        "' is not a valid index name (1-64 chars of [A-Za-z0-9_.-], "
        "not starting with a dot)");
  }
  std::lock_guard<std::mutex> lock(mutex_);
  const std::string name = tenant->name;
  if (!tenants_.emplace(name, std::move(tenant)).second) {
    return Status::InvalidArgument("an index named '" + name +
                                   "' already exists");
  }
  return Status::Ok();
}

std::shared_ptr<TenantIndex> IndexManager::Get(
    const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = tenants_.find(name);
  return it == tenants_.end() ? nullptr : it->second;
}

Result<std::shared_ptr<TenantIndex>> IndexManager::Drop(
    const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = tenants_.find(name);
  if (it == tenants_.end()) {
    return Status::NotFound("no index named '" + name + "'");
  }
  std::shared_ptr<TenantIndex> tenant = std::move(it->second);
  tenants_.erase(it);
  return tenant;
}

std::vector<std::string> IndexManager::List() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::string> names;
  names.reserve(tenants_.size());
  for (const auto& [name, tenant] : tenants_) names.push_back(name);
  return names;
}

std::vector<std::shared_ptr<TenantIndex>> IndexManager::All() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::shared_ptr<TenantIndex>> all;
  all.reserve(tenants_.size());
  for (const auto& [name, tenant] : tenants_) all.push_back(tenant);
  return all;
}

size_t IndexManager::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return tenants_.size();
}

}  // namespace sweetknn::serve
