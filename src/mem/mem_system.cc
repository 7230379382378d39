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
    // Records of abandoned transactions are free again, and their
    // fills stop watching.
    misses_.reset([](Miss &m) { m.recycle(); });
    legs_.reset();
    evictions_.reset([](Eviction &r) { r.legs = coro::Join{}; });
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

void
sharerList(std::span<const std::uint64_t> sharers, sim::NodeId exclude,
           noc::Mesh::NodeVec &out)
{
    out.clear();
    for (std::size_t w = 0; w < sharers.size(); ++w) {
        for (std::uint64_t bits = sharerWord(sharers, w, exclude); bits != 0;
             bits &= bits - 1)
            out.push_back(static_cast<sim::NodeId>(w * 64 +
                                                   std::countr_zero(bits)));
    }
}

noc::Mesh::NodeVec
sharerList(std::span<const std::uint64_t> sharers, sim::NodeId exclude)
{
    noc::Mesh::NodeVec out;
    sharerList(sharers, exclude, out);
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
            Eviction &w = evictions_.alloc(this);
            w.node = node;
            w.line = vline;
            engine_.scheduleIn(0, sim::Step<&Eviction::startWriteback>{&w});
        }
        // Clean evictions are silent (the directory's sharer bit goes
        // stale; a future invalidation to this node is just wasted).
    }
    l1s_[node].install(victim, line, state);
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
        Eviction &r = evictions_.alloc(this);
        r.node = homeOf(vline);
        r.line = vline;
        engine_.scheduleIn(0, sim::Step<&Eviction::startRecall>{&r});
    }
    bank.tags.install(victim, line, CohState::Shared);
}

// ---- Writebacks and recalls ---------------------------------------------
//
// Each starts in the delta-0 event its eviction filed and looks the
// line's directory entry up there (the lookup can grow the bank's
// table). A held MSHR queues the record as a callback waiter; a delay
// of 0 cycles and a recall with no copy to invalidate go on inline.

void
MemSystem::Eviction::startWriteback()
{
    ms->mesh_.post(msg, node, ms->homeOf(line), ms->cfg_.dataBits,
                   &sim::Step<&Eviction::writebackAtHome>::call, this);
}

void
MemSystem::Eviction::writebackAtHome()
{
    e = &ms->dirEntry(line);
    if (e->busy.tryLock())
        return writebackLocked();
    e->busy.wait(&sim::Step<&Eviction::writebackLocked>::call, this);
}

void
MemSystem::Eviction::writebackLocked()
{
    if (ms->cfg_.l2RtCycles == 0)
        return writebackDone();
    ms->engine_.scheduleIn(ms->cfg_.l2RtCycles,
                           sim::Step<&Eviction::writebackDone>{this});
}

void
MemSystem::Eviction::writebackDone()
{
    if (e->owner == node)
        e->owner = sim::kNoNode;
    ms->sharerSet(*e, node, false);
    e->inL2 = true;
    ms->touchL2(line);
    e->busy.unlock();
    ms->evictions_.free(*this);
}

void
MemSystem::Eviction::startRecall()
{
    e = &ms->dirEntry(line);
    if (e->busy.tryLock())
        return recallLocked();
    e->busy.wait(&sim::Step<&Eviction::recallLocked>::call, this);
}

void
MemSystem::Eviction::recallLocked()
{
    // L2 dropped the line: the inclusive hierarchy purges the L1
    // copies. The acks converge back on the home, so these are the
    // GetX invalidation legs with the home as requestor.
    if (e->owner != sim::kNoNode)
        ms->forkInvLeg(legs, node, e->owner, node, line, ms->cfg_.ctrlBits);
    sharerList(e->sharers, sim::kNoNode, sharers);
    for (const auto s : sharers)
        if (s != e->owner)
            ms->forkInvLeg(legs, node, s, node, line, ms->cfg_.ctrlBits);
    if (legs.pending() == 0)
        return recallDone();
    legs.wait(&sim::Step<&Eviction::recallDone>::call, this);
}

void
MemSystem::Eviction::recallDone()
{
    e->owner = sim::kNoNode;
    std::fill(e->sharers.begin(), e->sharers.end(), 0);
    e->inL2 = false;
    e->busy.unlock();
    ms->evictions_.free(*this);
}

// ---- Coherence legs ------------------------------------------------------
//
// A leg is a Leg record (probe, invalidation, ack) or a step chain of
// the Miss record (home data, tree invalidation). Whoever forks legs
// counts each into a Join and files its start as a delta-0 event, in
// list order; each calls Join::done as it completes.

void
MemSystem::forkInvLeg(coro::Join &join, sim::NodeId home, sim::NodeId target,
                      sim::NodeId requestor, sim::Addr line,
                      std::uint32_t reply_bits)
{
    Leg &l = legs_.alloc(this);
    l.join = &join;
    l.line = line;
    l.home = home;
    l.target = target;
    l.requestor = requestor;
    l.replyBits = reply_bits;
    join.add();
    engine_.scheduleIn(0, sim::Step<&Leg::startInv>{&l});
}

void
MemSystem::Leg::startInv()
{
    ms->mesh_.post(msg, home, target, ms->cfg_.ctrlBits,
                   &sim::Step<&Leg::atTarget>::call, this);
}

void
MemSystem::Leg::atTarget()
{
    // The target's L1 round trip.
    ms->engine_.scheduleIn(ms->cfg_.l1RtCycles,
                           sim::Step<&Leg::invalidate>{this});
}

void
MemSystem::Leg::invalidate()
{
    ms->invalidateL1(target, line);
    ms->mesh_.post(msg, target, requestor, replyBits,
                   &sim::Step<&Leg::finished>::call, this);
}

void
MemSystem::Leg::startAck()
{
    ms->mesh_.post(msg, target, requestor, ms->cfg_.ctrlBits,
                   &sim::Step<&Leg::finished>::call, this);
}

void
MemSystem::Leg::finished()
{
    coro::Join &j = *join;
    MemSystem &m = *ms;
    m.legs_.free(*this);
    j.done(m.engine_);
}

// ---- The miss transaction --------------------------------------------------
//
// The directory transaction, step by step: the request to the home,
// the line's MSHR, the directory lookup, then the GetS or the GetX
// protocol. Where a coroutine would await a message, the MSHR, the
// DRAM queue, a delay or the legs' join, a step starts that operation
// with the next step as its completion; a delay of 0 cycles runs the
// next step inline, as an awaited zero delay does.

void
MemSystem::Miss::start()
{
    home = ms->homeOf(line);
    send<&Miss::atHome>(node, home, ms->cfg_.ctrlBits);
}

void
MemSystem::Miss::atHome()
{
    e = &ms->dirEntry(line);
    if (e->busy.tryLock())
        return locked();
    e->busy.wait(&sim::Step<&Miss::locked>::call, this);
}

void
MemSystem::Miss::locked()
{
    after<&Miss::lookedUp>(ms->cfg_.l2RtCycles);
}

void
MemSystem::Miss::lookedUp()
{
    CacheLine *own = ms->l1s_[node].peek(line);
    const bool own_readable = own && canRead(own->state);

    // Repair a stale owner pointer (silent E eviction, or ourselves).
    if (e->owner != sim::kNoNode) {
        CacheLine *oc = ms->l1s_[e->owner].peek(line);
        if (!(oc && isOwner(oc->state)))
            e->owner = sim::kNoNode;
    }
    if (exclusive)
        lookedUpExclusive(own_readable);
    else
        lookedUpShared(own_readable);
}

void
MemSystem::Miss::lookedUpShared(bool own_readable)
{
    if (own_readable) {
        // Raced with a transaction that already served us.
        ms->commit(*op);
        e->busy.unlock();
        return complete();
    }

    // Pipelined read paths: when serving the read requires no
    // directory state transition (the owner is already Owned, or the
    // L2 supplies and a Shared copy cannot be promoted to an Exclusive
    // grant), the home updates the sharer list and releases the MSHR
    // before the data leg, so a herd of readers is serviced at lookup
    // rate instead of round-trip rate — as a non-blocking directory
    // does. A racing invalidation kills the pending fill: the
    // late-arriving data is then not installed (the copy was already
    // invalidated in flight).
    if (e->owner != sim::kNoNode && e->owner != node) {
        owner = e->owner;
        CacheLine *oc = ms->l1s_[owner].peek(line);
        if (oc && oc->state == CohState::Owned) {
            ms->sharerSet(*e, node, true);
            fill.arm(ms->armed_[node], line);
            e->busy.unlock();
            return send<&Miss::pipelinedProbed>(home, owner,
                                                ms->cfg_.ctrlBits);
        }
    }
    if (e->owner == sim::kNoNode && e->inL2 &&
        hasSharers(e->sharers, node)) {
        ms->sharerSet(*e, node, true);
        fill.arm(ms->armed_[node], line);
        e->busy.unlock();
        return send<&Miss::pipelinedFilled>(home, node, ms->cfg_.dataBits);
    }

    if (e->owner != sim::kNoNode && e->owner != node) {
        owner = e->owner;
        return send<&Miss::probed>(home, owner, ms->cfg_.ctrlBits);
    }
    homeData();
}

void
MemSystem::Miss::pipelinedProbed()
{
    after<&Miss::pipelinedForward>(ms->cfg_.l1RtCycles);
}

void
MemSystem::Miss::pipelinedForward()
{
    send<&Miss::pipelinedFilled>(owner, node, ms->cfg_.dataBits);
}

void
MemSystem::Miss::pipelinedFilled()
{
    if (!fill.fired())
        ms->installL1(node, line, CohState::Shared);
    ms->commit(*op);
    complete();
}

void
MemSystem::Miss::probed()
{
    after<&Miss::reprobed>(ms->cfg_.l1RtCycles);
}

void
MemSystem::Miss::reprobed()
{
    // Re-probe after the round trip: the owner may have evicted the
    // line for capacity while the probe was in flight.
    CacheLine *oc = ms->l1s_[owner].peek(line);
    if (!(oc && isOwner(oc->state))) {
        e->owner = sim::kNoNode;
        return homeData();
    }
    switch (oc->state) {
      case CohState::Modified:
        oc->state = CohState::Owned; // keeps supplying data
        break;
      case CohState::Exclusive:
        oc->state = CohState::Shared;
        e->owner = sim::kNoNode;
        ms->sharerSet(*e, owner, true);
        break;
      default:
        break; // Owned stays Owned
    }
    send<&Miss::sharedFilled>(owner, node, ms->cfg_.dataBits);
}

void
MemSystem::Miss::homeData()
{
    // The home supplies the data, after a DRAM fill if the L2 lacks
    // the line: a fixed-latency access through the line's controller,
    // then the L2 install. A GetX runs this as its data leg.
    if (e->inL2)
        return sendHomeData();
    ms->stats_.dramFetches.inc();
    coro::Resource &ctrl =
        *ms->dramCtrls_[ms->memCtrls_.mod(line >> ms->lineShift_)];
    if (ctrl.tryAcquire())
        return dramGranted();
    ctrl.wait(&sim::Step<&Miss::dramGranted>::call, this);
}

void
MemSystem::Miss::dramGranted()
{
    after<&Miss::dramFilled>(ms->cfg_.dramRtCycles);
}

void
MemSystem::Miss::dramFilled()
{
    ms->dramCtrls_[ms->memCtrls_.mod(line >> ms->lineShift_)]->release();
    e->inL2 = true;
    ms->touchL2(line);
    sendHomeData();
}

void
MemSystem::Miss::sendHomeData()
{
    if (exclusive)
        send<&Miss::dataLegDone>(home, node, ms->cfg_.dataBits);
    else
        send<&Miss::sharedFilled>(home, node, ms->cfg_.dataBits);
}

void
MemSystem::Miss::sharedFilled()
{
    const bool sole =
        e->owner == sim::kNoNode && !hasSharers(e->sharers, node);
    if (sole) {
        e->owner = node;
        ms->sharerSet(*e, node, false);
        ms->installL1(node, line, CohState::Exclusive);
    } else {
        ms->sharerSet(*e, node, true);
        ms->installL1(node, line, CohState::Shared);
    }
    ms->commit(*op);
    e->busy.unlock();
    complete();
}

void
MemSystem::Miss::lookedUpExclusive(bool own_readable)
{
    // The legs start in this order: the owner's probe, the tree or the
    // unicast invalidations in sharer order, the home's data.
    bool need_data = !own_readable;
    const sim::NodeId prior = e->owner;
    if (prior != sim::kNoNode && prior != node) {
        // Probe-invalidate the owner; it forwards data if we need it.
        ms->forkInvLeg(legs, home, prior, node, line,
                       need_data ? ms->cfg_.dataBits : ms->cfg_.ctrlBits);
        ms->stats_.invalidations.inc();
        need_data = false;
    }

    sharerList(e->sharers, node, sharers);
    if (!sharers.empty() && ms->mesh_.config().treeMulticast) {
        // Baseline+: one tree multicast delivers all invalidations,
        // then acks converge on the requestor in parallel.
        legs.add();
        ms->engine_.scheduleIn(0, sim::Step<&Miss::treeStart>{this});
        ms->stats_.invalidations.inc(sharers.size());
    } else {
        for (const auto s : sharers) {
            if (s == prior)
                continue;
            ms->forkInvLeg(legs, home, s, node, line, ms->cfg_.ctrlBits);
            ms->stats_.invalidations.inc();
        }
    }

    if (need_data) {
        legs.add();
        ms->engine_.scheduleIn(0, sim::Step<&Miss::homeData>{this});
    }

    if (legs.pending() == 0)
        return exclusiveGranted();
    legs.wait(&sim::Step<&Miss::exclusiveGranted>::call, this);
}

void
MemSystem::Miss::dataLegDone()
{
    legs.done(ms->engine_);
}

void
MemSystem::Miss::treeStart()
{
    if (!ms->mesh_.post(tree, home,
                        std::span<const sim::NodeId>(sharers.data(),
                                                     sharers.size()),
                        ms->cfg_.ctrlBits,
                        &sim::Step<&Miss::treeDelivered>::call, this))
        treeDelivered();
}

void
MemSystem::Miss::treeDelivered()
{
    after<&Miss::treeInvalidate>(ms->cfg_.l1RtCycles);
}

void
MemSystem::Miss::treeInvalidate()
{
    // Every target drops its copy; then each ack starts in a delta-0
    // event of its own, in target order.
    for (const auto s : sharers)
        ms->invalidateL1(s, line);
    for (const auto s : sharers) {
        Leg &l = ms->legs_.alloc(ms);
        l.join = &acks;
        l.target = s;
        l.requestor = node;
        acks.add();
        ms->engine_.scheduleIn(0, sim::Step<&Leg::startAck>{&l});
    }
    acks.wait(&sim::Step<&Miss::treeAcked>::call, this);
}

void
MemSystem::Miss::treeAcked()
{
    legs.done(ms->engine_);
}

void
MemSystem::Miss::exclusiveGranted()
{
    std::fill(e->sharers.begin(), e->sharers.end(), 0);
    e->owner = node;
    ms->installL1(node, line, CohState::Modified);
    ms->commit(*op);
    e->busy.unlock();
    complete();
}

void
MemSystem::Miss::complete()
{
    // Straight into the waiting thread, inside this event; its
    // Access::await_resume recycles the record (endMiss).
    op->caller_.resume();
}

void
MemSystem::Miss::recycle()
{
    fill.disarm();
    legs = coro::Join{};
    acks = coro::Join{};
}

// ---- Word accesses -----------------------------------------------------
//
// The factories below charge the access counter and hand out the
// frameless Access. finishAccess runs at the L1 round-trip instant: a
// hit commits and resumes the caller with no coroutine involved; a
// miss starts the access's own Miss transaction inline, in that same
// event, and the transaction commits. Either way commit() is the one
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
    Miss &m = misses_.alloc(this);
    m.op = &op;
    m.node = op.node_;
    m.line = line;
    m.exclusive = write;
    op.miss_ = &m;
    m.start();
}

void
MemSystem::endMiss(AccessBase &op)
{
    stats_.missLatency.sample(static_cast<double>(engine_.now() - op.t0_));
    op.miss_->recycle();
    misses_.free(*op.miss_);
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
