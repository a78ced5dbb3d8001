#include "service/admission.hpp"

#include <algorithm>
#include <cmath>

#include "util/error.hpp"

namespace nmdt::service {

TokenBucket::TokenBucket(double rate_per_s, double burst, Clock::time_point now)
    : rate_(rate_per_s), burst_(burst), tokens_(burst), last_(now) {
  NMDT_CHECK_CONFIG(rate_per_s > 0.0, "token bucket rate must be > 0");
  NMDT_CHECK_CONFIG(burst >= 1.0, "token bucket burst must be >= 1");
}

double TokenBucket::tokens_at(Clock::time_point now) const {
  const double elapsed_s =
      std::chrono::duration<double>(now - last_).count();
  if (elapsed_s > 0.0) {
    tokens_ = std::min(burst_, tokens_ + elapsed_s * rate_);
    last_ = now;
  }
  return tokens_;
}

bool TokenBucket::try_take(Clock::time_point now, i64* retry_after_ms) {
  if (tokens_at(now) >= 1.0) {
    tokens_ -= 1.0;
    return true;
  }
  if (retry_after_ms != nullptr) {
    const double deficit = 1.0 - tokens_;
    *retry_after_ms =
        std::max<i64>(1, static_cast<i64>(std::ceil(deficit / rate_ * 1000.0)));
  }
  return false;
}

TenantQuotas::TenantQuotas(double rate_per_s, double burst)
    : rate_(rate_per_s), burst_(burst) {}

bool TenantQuotas::try_admit(const std::string& tenant,
                             TokenBucket::Clock::time_point now,
                             i64* retry_after_ms) {
  if (!enabled()) return true;
  std::lock_guard<std::mutex> lock(mu_);
  auto it = buckets_.find(tenant);
  if (it == buckets_.end()) {
    it = buckets_.emplace(tenant, TokenBucket(rate_, burst_, now)).first;
  }
  return it->second.try_take(now, retry_after_ms);
}

AdmissionQueue::AdmissionQueue(usize capacity, double service_hint_ms)
    : capacity_(capacity), ewma_service_ms_(service_hint_ms) {
  NMDT_CHECK_CONFIG(capacity > 0, "admission queue capacity must be > 0");
  NMDT_CHECK_CONFIG(service_hint_ms > 0.0,
                    "admission queue service hint must be > 0 ms");
}

bool AdmissionQueue::try_push(Ticket&& t, i64* retry_after_ms) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!closed_ && q_.size() < capacity_) {
      q_.push_back(std::move(t));
      cv_.notify_one();
      return true;
    }
    if (retry_after_ms != nullptr) {
      *retry_after_ms = std::max<i64>(
          1, static_cast<i64>(std::ceil(static_cast<double>(q_.size() + 1) *
                                        ewma_service_ms_)));
    }
  }
  return false;
}

std::optional<Ticket> AdmissionQueue::pop() {
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait(lock, [&] { return closed_ || !q_.empty(); });
  if (q_.empty()) return std::nullopt;  // closed and drained
  Ticket t = std::move(q_.front());
  q_.pop_front();
  return t;
}

std::vector<Ticket> AdmissionQueue::pop_matching(
    const std::function<bool(const Ticket&)>& match, usize max) {
  std::vector<Ticket> out;
  std::lock_guard<std::mutex> lock(mu_);
  for (auto it = q_.begin(); it != q_.end() && out.size() < max;) {
    if (match(*it)) {
      out.push_back(std::move(*it));
      it = q_.erase(it);
    } else {
      ++it;
    }
  }
  return out;
}

void AdmissionQueue::close() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    closed_ = true;
  }
  cv_.notify_all();
}

usize AdmissionQueue::depth() const {
  std::lock_guard<std::mutex> lock(mu_);
  return q_.size();
}

void AdmissionQueue::note_service_ms(double ms) {
  std::lock_guard<std::mutex> lock(mu_);
  ewma_service_ms_ = 0.8 * ewma_service_ms_ + 0.2 * std::max(0.0, ms);
}

double AdmissionQueue::ewma_service_ms() const {
  std::lock_guard<std::mutex> lock(mu_);
  return ewma_service_ms_;
}

}  // namespace nmdt::service
