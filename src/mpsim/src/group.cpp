#include "colop/mpsim/group.h"

#include "colop/support/error.h"

namespace colop::mpsim {

Group::Group(int size)
    : size_(size),
      fleet_(size, rt::config()),
      stats_(fleet_),
      split_slots_(static_cast<std::size_t>(size), {-1, 0}) {
  COLOP_REQUIRE(size >= 1, "mpsim: group size must be >= 1");
  mailboxes_.reserve(static_cast<std::size_t>(size));
  for (int i = 0; i < size; ++i) {
    mailboxes_.push_back(std::make_unique<Mailbox>());
    mailboxes_.back()->set_abort_flag(&aborted_);
    if (fleet_.enabled()) mailboxes_.back()->set_telemetry(fleet_.stats(i));
  }
}

Mailbox& Group::mailbox(int rank) {
  COLOP_ASSERT(rank >= 0 && rank < size_, "mailbox rank out of range");
  return *mailboxes_[static_cast<std::size_t>(rank)];
}

void Group::barrier() {
  std::unique_lock lk(barrier_mutex_);
  const std::uint64_t gen = barrier_generation_;
  if (++barrier_count_ == size_) {
    barrier_count_ = 0;
    ++barrier_generation_;
    barrier_cv_.notify_all();
  } else {
    barrier_cv_.wait(lk, [&] { return barrier_generation_ != gen || aborted(); });
  }
  if (aborted()) throw Error("mpsim: group aborted while waiting in barrier");
}

void Group::abort() {
  aborted_.store(true, std::memory_order_release);
  for (auto& mb : mailboxes_) mb->notify_abort();
  barrier_cv_.notify_all();
}

void Group::split_publish(int rank, int color, int key) {
  {
    std::lock_guard lk(split_mutex_);
    split_slots_[static_cast<std::size_t>(rank)] = {color, key};
  }
  barrier();
}

std::vector<std::pair<int, int>> Group::split_slots() const {
  // Safe to read without the lock: split_publish ended with a barrier, and
  // no rank mutates the slots until split_finish's barrier.
  return split_slots_;
}

std::shared_ptr<Group> Group::split_retrieve(int color, int members) {
  std::lock_guard lk(split_mutex_);
  auto it = split_groups_.find(color);
  if (it == split_groups_.end())
    it = split_groups_.emplace(color, std::make_shared<Group>(members)).first;
  COLOP_REQUIRE(it->second->size() == members,
                "mpsim: inconsistent split membership");
  return it->second;
}

void Group::split_finish(int rank) {
  barrier();
  if (rank == 0) {
    std::lock_guard lk(split_mutex_);
    split_groups_.clear();
    for (auto& slot : split_slots_) slot = {-1, 0};
  }
  barrier();
}

}  // namespace colop::mpsim
