#include "mem/mem_system.hh"

#include <algorithm>
#include <bit>
#include <utility>

#include "sim/logging.hh"

namespace wisync::mem {

namespace {

/** Align an address down to its 64-bit word. */
sim::Addr
wordOf(sim::Addr addr)
{
    return addr & ~sim::Addr{7};
}

} // namespace

MemSystem::MemSystem(sim::Engine &engine, noc::Mesh &mesh, Memory &memory,
                     std::uint32_t num_nodes, const MemConfig &cfg)
    : engine_(engine), mesh_(mesh), memory_(memory), numNodes_(num_nodes),
      cfg_(cfg),
      lineShift_(static_cast<std::uint32_t>(std::countr_zero(cfg.lineBytes))),
      nodes_(num_nodes), memCtrls_(cfg.numMemCtrls),
      armed_(std::make_unique<coro::WatchList[]>(num_nodes))
{
    WISYNC_ASSERT(cfg_.l1RtCycles > 0, "the L1 round trip needs a cycle");
    l1s_.reserve(numNodes_);
    banks_.reserve(numNodes_);
    const std::uint32_t sharer_words = (numNodes_ + 63) / 64;
    for (std::uint32_t n = 0; n < numNodes_; ++n) {
        l1s_.emplace_back(cfg_.l1SizeBytes, cfg_.l1Assoc, cfg_.lineBytes);
        banks_.emplace_back(engine_, cfg_, numNodes_, n, sharer_words);
    }
    for (std::uint32_t c = 0; c < cfg_.numMemCtrls; ++c)
        dramCtrls_.push_back(
            std::make_unique<coro::Resource>(engine_, cfg_.dramOutstanding));
}

void
MemSystem::reset(const MemConfig &cfg)
{
    WISYNC_FATAL_IF(cfg.lineBytes != cfg_.lineBytes ||
                        cfg.l1SizeBytes != cfg_.l1SizeBytes ||
                        cfg.l1Assoc != cfg_.l1Assoc ||
                        cfg.l2BankSizeBytes != cfg_.l2BankSizeBytes ||
                        cfg.l2Assoc != cfg_.l2Assoc ||
                        cfg.numMemCtrls != cfg_.numMemCtrls ||
                        cfg.dramOutstanding != cfg_.dramOutstanding,
                    "MemSystem::reset cannot change the geometry");
    WISYNC_ASSERT(cfg.l1RtCycles > 0, "the L1 round trip needs a cycle");
    cfg_ = cfg;
    for (auto &l1 : l1s_)
        l1.reset();
    for (auto &bank : banks_) {
        bank.tags.reset();
        bank.dir.reset(); // recycles entries instead of freeing them
    }
    for (auto &ctrl : dramCtrls_)
        ctrl->reset();
    for (std::uint32_t n = 0; n < numNodes_; ++n)
        WISYNC_ASSERT(armed_[n].empty(), "a watch outlived its frame");
    stats_.reset();
}

DirEntry &
MemSystem::dirEntry(sim::Addr line)
{
    return banks_[homeOf(line)].dir[line];
}

DirTable::Stats
MemSystem::dirPoolStats() const
{
    DirTable::Stats total;
    for (const auto &bank : banks_) {
        total.allocated += bank.dir.stats().allocated;
        total.recycled += bank.dir.stats().recycled;
        total.rehashes += bank.dir.stats().rehashes;
    }
    return total;
}

void
MemSystem::sharerSet(DirEntry &e, sim::NodeId n, bool v)
{
    if (v)
        e.sharers[n / 64] |= std::uint64_t{1} << (n % 64);
    else
        e.sharers[n / 64] &= ~(std::uint64_t{1} << (n % 64));
}

namespace {

/** Word @p w of a sharer bitmap, less the bit of @p exclude. */
std::uint64_t
sharerWord(std::span<const std::uint64_t> sharers, std::size_t w,
           sim::NodeId exclude)
{
    const std::uint64_t drop =
        exclude / 64 == w ? std::uint64_t{1} << (exclude % 64) : 0;
    return sharers[w] & ~drop;
}

} // namespace

noc::Mesh::NodeVec
sharerList(std::span<const std::uint64_t> sharers, sim::NodeId exclude)
{
    noc::Mesh::NodeVec out;
    for (std::size_t w = 0; w < sharers.size(); ++w) {
        for (std::uint64_t bits = sharerWord(sharers, w, exclude); bits != 0;
             bits &= bits - 1)
            out.push_back(static_cast<sim::NodeId>(w * 64 +
                                                   std::countr_zero(bits)));
    }
    return out;
}

bool
hasSharers(std::span<const std::uint64_t> sharers, sim::NodeId exclude)
{
    std::uint64_t any = 0;
    for (std::size_t w = 0; w < sharers.size(); ++w)
        any |= sharerWord(sharers, w, exclude);
    return any != 0;
}

void
MemSystem::invalidateL1(sim::NodeId node, sim::Addr line)
{
    if (CacheLine *cl = l1s_[node].peek(line); cl && cl->valid())
        cl->state = CohState::Invalid;
    armed_[node].fire(engine_, line);
}

void
MemSystem::installL1(sim::NodeId node, sim::Addr line, CohState state)
{
    // Reuse the existing slot on upgrades.
    if (CacheLine *cl = l1s_[node].peek(line)) {
        l1s_[node].install(cl, line, state);
        return;
    }
    CacheLine *victim = l1s_[node].victimFor(line);
    if (victim->valid()) {
        const sim::Addr vline = victim->lineAddr;
        const bool dirty = victim->state == CohState::Modified ||
                           victim->state == CohState::Owned;
        invalidateL1(node, vline);
        if (dirty) {
            stats_.writebacks.inc();
            coro::spawnDetached(engine_, writebackTask(node, vline));
        }
        // Clean evictions are silent (the directory's sharer bit goes
        // stale; a future invalidation to this node is just wasted).
    }
    l1s_[node].install(victim, line, state);
}

coro::Task<void>
MemSystem::writebackTask(sim::NodeId node, sim::Addr line)
{
    co_await mesh_.send(node, homeOf(line), cfg_.dataBits);
    DirEntry &e = dirEntry(line);
    co_await e.busy.lock();
    co_await coro::delay(engine_, cfg_.l2RtCycles);
    if (e.owner == node)
        e.owner = sim::kNoNode;
    sharerSet(e, node, false);
    e.inL2 = true;
    touchL2(line);
    e.busy.unlock();
}

void
MemSystem::touchL2(sim::Addr line)
{
    Bank &bank = banks_[homeOf(line)];
    if (CacheLine *hit = bank.tags.lookup(line))
        return (void)hit;
    CacheLine *victim = bank.tags.victimFor(line);
    if (victim->valid()) {
        const sim::Addr vline = victim->lineAddr;
        stats_.l2Recalls.inc();
        coro::spawnDetached(engine_, recallTask(homeOf(vline), vline));
    }
    bank.tags.install(victim, line, CohState::Shared);
}

coro::Task<void>
MemSystem::recallTask(sim::NodeId home, sim::Addr line)
{
    // L2 dropped the line: inclusive hierarchy must purge L1 copies.
    // The recall acks converge back on the home bank, so this is the
    // invLeg flow with requestor == home.
    DirEntry &e = dirEntry(line);
    co_await e.busy.lock();
    sim::InlineVec<coro::Task<void>, 4> legs;
    if (e.owner != sim::kNoNode)
        legs.push_back(invLeg(home, e.owner, home, line));
    for (const auto s : sharerList(e.sharers, sim::kNoNode))
        if (s != e.owner)
            legs.push_back(invLeg(home, s, home, line));
    co_await coro::whenAll(engine_, std::move(legs));
    e.owner = sim::kNoNode;
    std::fill(e.sharers.begin(), e.sharers.end(), 0);
    e.inL2 = false;
    e.busy.unlock();
}

coro::Task<void>
MemSystem::dramFill(DirEntry &entry, sim::Addr line)
{
    stats_.dramFetches.inc();
    coro::Resource &ctrl = *dramCtrls_[memCtrls_.mod(line >> lineShift_)];
    co_await ctrl.acquire();
    co_await coro::delay(engine_, cfg_.dramRtCycles);
    ctrl.release();
    entry.inL2 = true;
    touchL2(line);
}

coro::Task<void>
MemSystem::homeDataLeg(sim::NodeId home, sim::NodeId requestor,
                       DirEntry &entry, sim::Addr line)
{
    if (!entry.inL2)
        co_await dramFill(entry, line);
    co_await mesh_.send(home, requestor, cfg_.dataBits);
}

coro::Task<void>
MemSystem::invLeg(sim::NodeId home, sim::NodeId sharer,
                  sim::NodeId requestor, sim::Addr line)
{
    co_await mesh_.send(home, sharer, cfg_.ctrlBits);
    co_await coro::delay(engine_, cfg_.l1RtCycles);
    invalidateL1(sharer, line);
    co_await mesh_.send(sharer, requestor, cfg_.ctrlBits); // ack
}

coro::Task<void>
MemSystem::probeLeg(sim::NodeId home, sim::NodeId owner,
                    sim::NodeId requestor, sim::Addr line, bool with_data)
{
    co_await mesh_.send(home, owner, cfg_.ctrlBits);
    co_await coro::delay(engine_, cfg_.l1RtCycles);
    invalidateL1(owner, line);
    co_await mesh_.send(owner, requestor,
                        with_data ? cfg_.dataBits : cfg_.ctrlBits);
}

coro::Task<void>
MemSystem::ackLeg(sim::NodeId sharer, sim::NodeId requestor)
{
    co_await mesh_.send(sharer, requestor, cfg_.ctrlBits);
}

coro::Task<void>
MemSystem::treeInvLeg(sim::NodeId home, const NodeVec &targets,
                      sim::NodeId requestor, sim::Addr line)
{
    co_await mesh_.multicast(
        home, std::span<const sim::NodeId>(targets.data(), targets.size()),
        cfg_.ctrlBits);
    co_await coro::delay(engine_, cfg_.l1RtCycles);
    sim::InlineVec<coro::Task<void>, 8> acks;
    acks.reserve(targets.size());
    for (const auto s : targets) {
        invalidateL1(s, line);
        acks.push_back(ackLeg(s, requestor));
    }
    co_await coro::whenAll(engine_, std::move(acks));
}

coro::Task<void>
MemSystem::fetchLine(sim::NodeId node, sim::Addr line, bool exclusive,
                     AccessBase &op)
{
    const sim::NodeId home = homeOf(line);
    co_await mesh_.send(node, home, cfg_.ctrlBits);
    DirEntry &e = dirEntry(line);
    co_await e.busy.lock();
    co_await coro::delay(engine_, cfg_.l2RtCycles);

    CacheLine *own = l1s_[node].peek(line);
    const bool own_readable = own && canRead(own->state);

    // Repair a stale owner pointer (silent E eviction, or ourselves).
    if (e.owner != sim::kNoNode) {
        CacheLine *oc = l1s_[e.owner].peek(line);
        if (!(oc && isOwner(oc->state)))
            e.owner = sim::kNoNode;
    }

    if (!exclusive) {
        // ---- GetS ----
        if (own_readable) {
            // Raced with a transaction that already served us.
            commit(op);
            e.busy.unlock();
            co_return;
        }

        // Pipelined read paths: when serving the read requires no
        // directory state transition (the owner is already Owned, or
        // the L2 supplies and a Shared copy cannot be promoted to an
        // Exclusive grant), the home updates the sharer list and
        // releases the MSHR before the data leg, so a herd of readers
        // is serviced at lookup rate instead of round-trip rate — as
        // a non-blocking directory does. A racing invalidation kills
        // the pending fill: the late-arriving data is then not
        // installed (the copy was already invalidated in flight).
        coro::Watch fill;
        if (e.owner != sim::kNoNode && e.owner != node) {
            const sim::NodeId owner = e.owner;
            CacheLine *oc = l1s_[owner].peek(line);
            if (oc && oc->state == CohState::Owned) {
                sharerSet(e, node, true);
                fill.arm(armed_[node], line);
                e.busy.unlock();
                co_await mesh_.send(home, owner, cfg_.ctrlBits);
                co_await coro::delay(engine_, cfg_.l1RtCycles);
                co_await mesh_.send(owner, node, cfg_.dataBits);
                if (!fill.fired())
                    installL1(node, line, CohState::Shared);
                commit(op);
                co_return;
            }
        }
        if (e.owner == sim::kNoNode && e.inL2 &&
            hasSharers(e.sharers, node)) {
            sharerSet(e, node, true);
            fill.arm(armed_[node], line);
            e.busy.unlock();
            co_await mesh_.send(home, node, cfg_.dataBits);
            if (!fill.fired())
                installL1(node, line, CohState::Shared);
            commit(op);
            co_return;
        }

        bool data_done = false;
        if (e.owner != sim::kNoNode && e.owner != node) {
            const sim::NodeId owner = e.owner;
            co_await mesh_.send(home, owner, cfg_.ctrlBits);
            co_await coro::delay(engine_, cfg_.l1RtCycles);
            // Re-probe after the awaits: the owner may have evicted the
            // line for capacity while the probe was in flight.
            CacheLine *oc = l1s_[owner].peek(line);
            if (oc && isOwner(oc->state)) {
                switch (oc->state) {
                  case CohState::Modified:
                    oc->state = CohState::Owned; // keeps supplying data
                    break;
                  case CohState::Exclusive:
                    oc->state = CohState::Shared;
                    e.owner = sim::kNoNode;
                    sharerSet(e, owner, true);
                    break;
                  default:
                    break; // Owned stays Owned
                }
                co_await mesh_.send(owner, node, cfg_.dataBits);
                data_done = true;
            } else {
                e.owner = sim::kNoNode;
            }
        }
        if (!data_done) {
            // homeDataLeg's flow, inline: no frame of its own.
            if (!e.inL2)
                co_await dramFill(e, line);
            co_await mesh_.send(home, node, cfg_.dataBits);
        }

        const bool sole =
            e.owner == sim::kNoNode && !hasSharers(e.sharers, node);
        if (sole) {
            e.owner = node;
            sharerSet(e, node, false);
            installL1(node, line, CohState::Exclusive);
        } else {
            sharerSet(e, node, true);
            installL1(node, line, CohState::Shared);
        }
        commit(op);
        e.busy.unlock();
        co_return;
    }

    // ---- GetX / upgrade ----
    sim::InlineVec<coro::Task<void>, 4> legs;
    bool need_data = !own_readable;

    const sim::NodeId owner = e.owner;
    if (owner != sim::kNoNode && owner != node) {
        // Probe-invalidate the owner; it forwards data if we need it.
        legs.push_back(probeLeg(home, owner, node, line, need_data));
        stats_.invalidations.inc();
        need_data = false;
    }

    const auto sharers = sharerList(e.sharers, node);
    if (!sharers.empty() && mesh_.config().treeMulticast) {
        // Baseline+: one tree multicast delivers all invalidations,
        // then acks converge on the requestor in parallel.
        legs.push_back(treeInvLeg(home, sharers, node, line));
        stats_.invalidations.inc(sharers.size());
    } else {
        for (const auto s : sharers) {
            if (s == owner)
                continue;
            legs.push_back(invLeg(home, s, node, line));
            stats_.invalidations.inc();
        }
    }

    if (need_data)
        legs.push_back(homeDataLeg(home, node, e, line));

    co_await coro::whenAll(engine_, std::move(legs));

    std::fill(e.sharers.begin(), e.sharers.end(), 0);
    e.owner = node;
    installL1(node, line, CohState::Modified);
    commit(op);
    e.busy.unlock();
}

// ---- Word accesses -----------------------------------------------------
//
// The factories below charge the access counter and hand out the
// frameless Access. finishAccess runs at the L1 round-trip instant: a
// hit commits and resumes the caller with no coroutine involved; a
// miss starts the access's own fetchLine transaction inline, in that
// same event, and fetchLine commits. Either way commit() is the one
// place an access kind acts on the word.

MemSystem::Access<std::uint64_t>
MemSystem::load(sim::NodeId node, sim::Addr addr)
{
    stats_.loads.inc();
    return Access<std::uint64_t>(*this, OpKind::Load, node, addr, 0, 0);
}

MemSystem::Access<void>
MemSystem::store(sim::NodeId node, sim::Addr addr, std::uint64_t value)
{
    stats_.stores.inc();
    return Access<void>(*this, OpKind::Store, node, addr, value, 0);
}

MemSystem::Access<std::uint64_t>
MemSystem::fetchAdd(sim::NodeId node, sim::Addr addr, std::uint64_t delta)
{
    stats_.rmws.inc();
    return Access<std::uint64_t>(*this, OpKind::FetchAdd, node, addr,
                                 delta, 0);
}

MemSystem::Access<std::uint64_t>
MemSystem::swap(sim::NodeId node, sim::Addr addr, std::uint64_t value)
{
    stats_.rmws.inc();
    return Access<std::uint64_t>(*this, OpKind::Swap, node, addr, value,
                                 0);
}

MemSystem::Access<std::uint64_t>
MemSystem::testAndSet(sim::NodeId node, sim::Addr addr)
{
    return swap(node, addr, 1);
}

MemSystem::Access<CasResult>
MemSystem::cas(sim::NodeId node, sim::Addr addr, std::uint64_t expected,
               std::uint64_t desired)
{
    stats_.rmws.inc();
    return Access<CasResult>(*this, OpKind::Cas, node, addr, expected,
                             desired);
}

void
MemSystem::commit(AccessBase &op)
{
    const sim::Addr w = wordOf(op.addr_);
    if (op.kind_ != OpKind::Store)
        op.out_ = memory_.read64(w);
    switch (op.kind_) {
      case OpKind::Load:
        break;
      case OpKind::Store:
      case OpKind::Swap:
        memory_.write64(w, op.arg0_);
        break;
      case OpKind::FetchAdd:
        memory_.write64(w, op.out_ + op.arg0_);
        break;
      case OpKind::Cas:
        op.flag_ = op.out_ == op.arg0_;
        if (op.flag_)
            memory_.write64(w, op.arg1_);
        break;
    }
}

void
MemSystem::finishAccess(AccessBase &op)
{
    // A load needs a readable copy; every other kind writes the word
    // and needs write permission.
    const bool write = op.kind_ != OpKind::Load;
    const sim::Addr line = l1s_[op.node_].lineOf(op.addr_);
    CacheLine *cl = l1s_[op.node_].lookup(line);
    if (cl != nullptr && (!write || canWrite(cl->state))) {
        stats_.l1Hits.inc();
        stats_.fastpathHits.inc();
        if (write)
            cl->state = CohState::Modified;
        commit(op);
        op.caller_.resume();
        return;
    }
    // A write to a readable copy is an upgrade; no copy is a miss.
    if (cl != nullptr)
        stats_.upgrades.inc();
    else
        stats_.l1Misses.inc();
    // Run the transaction, started inline so its first message goes
    // out in this very event; it completes straight into the suspended
    // caller (Access::await_resume -> endMiss).
    stats_.fastpathFallbacks.inc();
    op.t0_ = engine_.now();
    op.miss_ = fetchLine(op.node_, line, write, op);
    op.miss_.continueInto(op.caller_).resume();
}

void
MemSystem::endMiss(AccessBase &op)
{
    stats_.missLatency.sample(static_cast<double>(engine_.now() - op.t0_));
    op.miss_.result();
}

coro::Task<std::uint64_t>
MemSystem::spin(sim::NodeId node, sim::Addr addr, std::uint64_t value,
                bool until_equal)
{
    const sim::Addr line = l1s_[node].lineOf(addr);
    for (;;) {
        // Armed before the load, so an invalidation during it is not
        // lost: the await below then falls through.
        coro::Watch changed;
        changed.arm(armed_[node], line);
        const std::uint64_t v = co_await load(node, addr);
        if ((v == value) == until_equal)
            co_return v;
        // Sleep until our cached copy is invalidated (someone wrote
        // the line).
        co_await changed;
    }
}

CohState
MemSystem::l1State(sim::NodeId node, sim::Addr addr)
{
    const sim::Addr line = l1s_[node].lineOf(addr);
    CacheLine *cl = l1s_[node].peek(line);
    return cl ? cl->state : CohState::Invalid;
}

} // namespace wisync::mem
