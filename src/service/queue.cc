#include "service/queue.hh"

#include <algorithm>

#include "service/server.hh"

namespace quest::service {

uint32_t
JobQueue::weightOf(const std::string &tenant) const
{
    auto it = lim.tenantWeights.find(tenant);
    if (it == lim.tenantWeights.end() || it->second == 0)
        return 1;
    return it->second;
}

PushOutcome
JobQueue::tryPush(std::shared_ptr<Job> job)
{
    std::lock_guard<std::mutex> lock(m);
    if (closed || totalQueued >= lim.capacity)
        return PushOutcome::Full;
    const std::string &tenant = job->request.tenant;
    if (lim.tenantMaxQueued > 0) {
        auto it = queuedCount.find(tenant);
        if (it != queuedCount.end() &&
            it->second >= lim.tenantMaxQueued)
            return PushOutcome::TenantQuota;
    }

    Band &band = bands[job->request.priority];
    auto lane = band.lanes.find(tenant);
    if (lane == band.lanes.end()) {
        band.order.push_back(tenant);
        lane = band.lanes.emplace(tenant, std::deque<
                                              std::shared_ptr<Job>>())
                   .first;
    }
    lane->second.push_back(std::move(job));
    ++queuedCount[tenant];
    ++totalQueued;
    cv.notify_one();
    return PushOutcome::Ok;
}

bool
JobQueue::eligibleUnlocked() const
{
    if (lim.tenantMaxRunning == 0)
        return totalQueued > 0;
    for (const auto &[priority, band] : bands) {
        for (const auto &[tenant, lane] : band.lanes) {
            auto it = runningCount.find(tenant);
            const size_t running =
                it == runningCount.end() ? 0 : it->second;
            if (!lane.empty() && running < lim.tenantMaxRunning)
                return true;
        }
    }
    return false;
}

void
JobQueue::eraseLane(Band &band, const std::string &tenant)
{
    band.lanes.erase(tenant);
    auto pos = std::find(band.order.begin(), band.order.end(), tenant);
    const size_t idx =
        static_cast<size_t>(pos - band.order.begin());
    band.order.erase(pos);
    if (idx < band.cursor)
        --band.cursor;
    else if (idx == band.cursor)
        band.credit = 0; // the cursor now names the next tenant
    if (band.cursor >= band.order.size())
        band.cursor = 0;
}

std::shared_ptr<Job>
JobQueue::pop()
{
    std::unique_lock<std::mutex> lock(m);
    cv.wait(lock, [&] { return closed || eligibleUnlocked(); });
    if (totalQueued == 0)
        return nullptr; // closed and drained
    if (!eligibleUnlocked()) {
        // Closed while every queued lane is running-capped: wait for
        // a jobFinished() to free a slot (drain still completes).
        cv.wait(lock, [&] {
            return totalQueued == 0 || eligibleUnlocked();
        });
        if (totalQueued == 0)
            return nullptr;
    }

    for (auto &[priority, band] : bands) {
        for (size_t step = 0; step < band.order.size(); ++step) {
            const size_t idx =
                (band.cursor + step) % band.order.size();
            const std::string tenant = band.order[idx];
            if (lim.tenantMaxRunning > 0) {
                auto rit = runningCount.find(tenant);
                if (rit != runningCount.end() &&
                    rit->second >= lim.tenantMaxRunning)
                    continue; // lane blocked: tenant holds its share
            }
            auto &lane = band.lanes.at(tenant);
            std::shared_ptr<Job> job = std::move(lane.front());
            lane.pop_front();

            // Rotation bookkeeping: a skip lands the turn on the
            // tenant we actually served.
            if (idx != band.cursor) {
                band.cursor = idx;
                band.credit = 0;
            }
            ++band.credit;
            if (lane.empty()) {
                eraseLane(band, tenant);
            } else if (band.credit >= weightOf(tenant)) {
                band.cursor = (band.cursor + 1) % band.order.size();
                band.credit = 0;
            }
            if (band.lanes.empty())
                bands.erase(priority);

            if (--queuedCount[tenant] == 0)
                queuedCount.erase(tenant);
            --totalQueued;
            ++runningCount[tenant];
            return job;
        }
    }
    return nullptr; // unreachable: eligibleUnlocked() held the lock
}

void
JobQueue::jobFinished(const std::string &tenant)
{
    std::lock_guard<std::mutex> lock(m);
    auto it = runningCount.find(tenant);
    if (it == runningCount.end())
        return;
    if (--it->second == 0)
        runningCount.erase(it);
    cv.notify_all(); // a lane may have just become eligible
}

std::shared_ptr<Job>
JobQueue::remove(uint64_t jobId)
{
    std::lock_guard<std::mutex> lock(m);
    for (auto &[priority, band] : bands) {
        for (auto &[tenant, lane] : band.lanes) {
            for (auto it = lane.begin(); it != lane.end(); ++it) {
                if ((*it)->id != jobId)
                    continue;
                std::shared_ptr<Job> job = std::move(*it);
                lane.erase(it);
                if (--queuedCount[tenant] == 0)
                    queuedCount.erase(tenant);
                --totalQueued;
                if (lane.empty()) {
                    const std::string t = tenant;
                    eraseLane(band, t);
                    if (band.lanes.empty())
                        bands.erase(priority);
                }
                return job;
            }
        }
    }
    return nullptr;
}

void
JobQueue::close()
{
    std::lock_guard<std::mutex> lock(m);
    closed = true;
    cv.notify_all();
}

size_t
JobQueue::depth() const
{
    std::lock_guard<std::mutex> lock(m);
    return totalQueued;
}

size_t
JobQueue::queuedOf(const std::string &tenant) const
{
    std::lock_guard<std::mutex> lock(m);
    auto it = queuedCount.find(tenant);
    return it == queuedCount.end() ? 0 : it->second;
}

size_t
JobQueue::runningOf(const std::string &tenant) const
{
    std::lock_guard<std::mutex> lock(m);
    auto it = runningCount.find(tenant);
    return it == runningCount.end() ? 0 : it->second;
}

int
JobQueue::positionOf(uint64_t jobId) const
{
    std::lock_guard<std::mutex> lock(m);
    int pos = 0;
    for (const auto &[priority, band] : bands) {
        // Simulate this band's WRR rotation on copies of the
        // rotation state (running caps ignored; see the header).
        std::vector<std::string> order = band.order;
        size_t cursor = band.cursor;
        uint32_t credit = band.credit;
        std::map<std::string, size_t> taken;
        size_t left = 0;
        for (const auto &[tenant, lane] : band.lanes)
            left += lane.size();
        while (left > 0) {
            const std::string tenant = order[cursor];
            const auto &lane = band.lanes.at(tenant);
            const size_t at = taken[tenant]++;
            if (lane[at]->id == jobId)
                return pos;
            ++pos;
            --left;
            ++credit;
            if (taken[tenant] == lane.size()) {
                const size_t idx = cursor;
                order.erase(order.begin() +
                            static_cast<long>(idx));
                credit = 0;
                if (cursor >= order.size())
                    cursor = 0;
            } else if (credit >= weightOf(tenant)) {
                cursor = (cursor + 1) % order.size();
                credit = 0;
            }
        }
    }
    return -1;
}

} // namespace quest::service
