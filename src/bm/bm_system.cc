#include "bm/bm_system.hh"

#include <utility>

#include "sim/logging.hh"

namespace wisync::bm {

BmSystem::BmSystem(sim::Engine &engine, std::uint32_t num_nodes,
                   const BmConfig &cfg, const wireless::WirelessConfig &wcfg,
                   sim::Rng rng, bool with_tone, std::uint32_t num_chips,
                   const noc::BridgeConfig &bridge_cfg)
    : engine_(engine), numNodes_(num_nodes), cfg_(cfg),
      store_(engine, num_nodes, cfg.words())
{
    rebuildChipTopology(wcfg, bridge_cfg, num_chips);
    bindMacs(rng);
    toneEnabled_ = with_tone;
    clearPendingRmws();
    configureLoss(wcfg);
}

void
BmSystem::rebuildChipTopology(const wireless::WirelessConfig &wcfg,
                              const noc::BridgeConfig &bridge_cfg,
                              std::uint32_t num_chips)
{
    numChips_ = num_chips == 0 ? 1 : num_chips;
    WISYNC_FATAL_IF(numNodes_ % numChips_ != 0,
                    "cores must divide evenly among chips");
    coresPerChip_ = numNodes_ / numChips_;
    store_.regroup(numChips_);
    plan_ = wireless::FrequencyPlan(numChips_, wcfg.spectrumSlots,
                                    wcfg.channelLossBaseDb,
                                    wcfg.channelLossStepDb);
    macs_.clear();
    channels_.clear();
    macProtocols_.clear();
    for (std::uint32_t ch = 0; ch < plan_.channels(); ++ch) {
        channels_.push_back(
            std::make_unique<wireless::DataChannel>(engine_, wcfg));
        macProtocols_.push_back(wireless::makeMacProtocol(
            wcfg, engine_, *channels_[ch],
            plan_.chipsOnChannel(ch) * coresPerChip_));
    }
    // The Tone channel hardware is always built; whether the config
    // exposes it (WiSync vs WiSyncNoT) is a flag, so reset() can move
    // one machine between kinds without reallocating anything.
    tones_.clear();
    toneReleases_.clear();
    for (std::uint32_t chip = 0; chip < numChips_; ++chip)
        toneReleases_.push_back(ToneRelease{this, chip});
    for (std::uint32_t chip = 0; chip < numChips_; ++chip) {
        tones_.push_back(std::make_unique<wireless::ToneChannel>(
            engine_, coresPerChip_, cfg_.allocSlots));
        tones_[chip]->setReleaseHandler(&ToneRelease::toggle,
                                        &toneReleases_[chip]);
    }
    bridgeCfg_ = bridge_cfg;
    if (numChips_ > 1) {
        bridge_ = std::make_unique<noc::ChipBridge>(engine_, bridge_cfg);
        globalVersion_.assign(store_.words(), 0);
        appliedVersion_.assign(
            static_cast<std::size_t>(numChips_) * store_.words(), 0);
    } else {
        bridge_.reset();
        globalVersion_.clear();
        appliedVersion_.clear();
    }
}

void
BmSystem::bindMacs(sim::Rng &rng)
{
    const bool build = macs_.empty();
    if (build)
        macs_.reserve(numNodes_);
    for (std::uint32_t n = 0; n < numNodes_; ++n) {
        wireless::MacProtocol &protocol = *macProtocols_[channelIdxOf(n)];
        if (build)
            macs_.push_back(std::make_unique<wireless::Mac>(
                engine_, *channels_[channelIdxOf(n)], protocol,
                channelLocalNode(n), rng.fork()));
        else
            macs_[n]->reset(protocol, rng.fork());
    }
    // The bridge's loss stream forks AFTER every Mac: single-chip
    // machines have no bridge, so the per-node streams stay identical
    // across chip counts.
    if (bridge_)
        bridge_->setRng(rng.fork());
}

void
BmSystem::reset(const BmConfig &cfg, const wireless::WirelessConfig &wcfg,
                sim::Rng rng, bool with_tone, std::uint32_t num_chips,
                const noc::BridgeConfig &bridge_cfg)
{
    WISYNC_FATAL_IF(cfg.words() != cfg_.words() ||
                        cfg.allocSlots != cfg_.allocSlots,
                    "BmSystem::reset cannot change BM capacity");
    cfg_ = cfg;
    store_.reset();
    const std::uint32_t chips = num_chips == 0 ? 1 : num_chips;
    const wireless::FrequencyPlan plan(chips, wcfg.spectrumSlots,
                                       wcfg.channelLossBaseDb,
                                       wcfg.channelLossStepDb);
    if (chips != numChips_ || !(plan == plan_)) {
        // Re-tiling the machine rebuilds the chip-topology objects —
        // the same license the macKind flip below already takes. MACs
        // must rebind to the new channels, so they are rebuilt too.
        rebuildChipTopology(wcfg, bridge_cfg, chips);
    } else {
        for (auto &channel : channels_)
            channel->reset(wcfg);
        // Retiming may select a different MAC protocol; rebuild only
        // then (the common same-kind reset stays allocation-free).
        // Protocols never consume machine randomness.
        for (std::uint32_t ch = 0; ch < channels_.size(); ++ch) {
            if (macProtocols_[ch]->kind() != wcfg.macKind)
                macProtocols_[ch] = wireless::makeMacProtocol(
                    wcfg, engine_, *channels_[ch],
                    plan_.chipsOnChannel(ch) * coresPerChip_);
            else
                macProtocols_[ch]->reset();
        }
        for (auto &tone : tones_)
            tone->reset();
        if (bridge_)
            bridge_->reset(bridge_cfg);
        bridgeCfg_ = bridge_cfg;
        std::fill(globalVersion_.begin(), globalVersion_.end(), 0);
        std::fill(appliedVersion_.begin(), appliedVersion_.end(), 0);
    }
    // In-flight frames died with the engine reset; recycle them.
    frames_.reset();
    bindMacs(rng);
    toneEnabled_ = with_tone;
    clearPendingRmws();
    stats_.reset();
    configureLoss(wcfg);
}

void
BmSystem::configureLoss(const wireless::WirelessConfig &wcfg)
{
    if (!wcfg.berFromSnr) {
        // The channel construction/reset left the drop table empty;
        // any positive lossPct applies uniformly without a model.
        rfModels_.clear();
        return;
    }
    wireless::RfChannelConfig rc;
    rc.txPowerDbm = wcfg.txPowerDbm;
    // One attenuation matrix per chip: all dies share the geometry
    // (coresPerChip transceivers each) but each folds in its spectrum
    // slot's loss profile — chips sharing a slot share its physics —
    // and overrides stay per chip.
    rfModels_.clear();
    for (std::uint32_t chip = 0; chip < numChips_; ++chip) {
        rc.extraLossDb = plan_.channelLossDb(plan_.channelOf(chip));
        rfModels_.push_back(
            std::make_unique<wireless::RfChannelModel>(coresPerChip_, rc));
    }
    refreshDropTable();
}

void
BmSystem::refreshDropTable()
{
    for (std::uint32_t ch = 0; ch < channels_.size(); ++ch) {
        const std::uint32_t population =
            plan_.chipsOnChannel(ch) * coresPerChip_;
        std::vector<double> data(population);
        std::vector<double> bulk(population);
        for (std::uint32_t i = 0; i < population; ++i) {
            // Channel-local id i -> (chip, on-die transmitter).
            const std::uint32_t chip = plan_.chipAt(ch, i / coresPerChip_);
            const std::uint32_t local = i % coresPerChip_;
            data[i] = rfModels_[chip]->broadcastErrorRate(
                local, wireless::kDataFrameBits);
            bulk[i] = rfModels_[chip]->broadcastErrorRate(
                local, wireless::kBulkFrameBits);
        }
        channels_[ch]->setDropTable(std::move(data), std::move(bulk));
    }
}

void
BmSystem::overrideLinkPathLoss(sim::NodeId tx, sim::NodeId rx, double db)
{
    WISYNC_ASSERT(!rfModels_.empty(),
                  "overrideLinkPathLoss requires berFromSnr");
    const std::uint32_t chip = chipOf(tx);
    WISYNC_ASSERT(chip == chipOf(rx),
                  "cross-chip paths are not wireless links");
    rfModels_[chip]->overridePathLoss(tx % coresPerChip_,
                                      rx % coresPerChip_, db);
    refreshDropTable();
}

void
BmSystem::checkPid(sim::BmAddr addr, sim::Pid pid, std::uint32_t count)
{
    for (std::uint32_t i = 0; i < count; ++i) {
        if (store_.tag(addr + i) != pid) {
            stats_.protectionFaults.inc();
            throw ProtectionFault(addr + i, pid);
        }
    }
}

void
BmSystem::deliverStore(sim::NodeId src, sim::BmAddr addr,
                       const std::uint64_t *values, std::uint32_t count)
{
    // Commit on the transmitting chip now (a single-chip machine is
    // chip 0). Global-scope words on a multi-chip machine additionally
    // bump the version clocks and cross the bridge. Bulk windows may not
    // mix scopes — the frame is one unit.
    const std::uint32_t chip = chipOf(src);
    const sim::NodeId first = chip * coresPerChip_;
    const BmScope scope = store_.scope(addr);
    BridgeFrame *frame =
        numChips_ > 1 && scope == BmScope::Global ? &frames_.alloc(this)
                                                  : nullptr;
    for (std::uint32_t i = 0; i < count; ++i) {
        WISYNC_ASSERT(store_.scope(addr + i) == scope,
                      "bulk store window mixes BM scopes");
        store_.writeChip(chip, addr + i, values[i]);
        if (frame != nullptr) {
            const std::uint64_t v = ++globalVersion_[addr + i];
            appliedVersion_[static_cast<std::size_t>(chip) *
                                store_.words() +
                            addr + i] = v;
            frame->values[i] = values[i];
            frame->versions[i] = v;
        }
    }
    // AFB: an incoming store that hits the address window of another
    // node's pending RMW breaks that RMW's atomicity (§4.2.1).
    for (std::uint32_t i = 0; i < armedCount_[chip]; ++i) {
        const sim::NodeId n = armed_[first + i];
        PendingRmw &p = pendingRmw_[n];
        if (n != src && p.addr >= addr && p.addr < addr + count)
            p.afb = true;
    }
    if (frame != nullptr) {
        frame->addr = addr;
        frame->count = count;
        frame->srcChip = chip;
        bridge_->post(count * 64, &sim::Step<&BridgeFrame::land>::call,
                      frame);
    }
}

void
BmSystem::applyBridged(BridgeFrame *frame)
{
    for (std::uint32_t chip = 0; chip < numChips_; ++chip) {
        if (chip == frame->srcChip)
            continue;
        const sim::NodeId first = chip * coresPerChip_;
        for (std::uint32_t i = 0; i < frame->count; ++i) {
            const sim::BmAddr a = frame->addr + i;
            std::uint64_t &applied =
                appliedVersion_[static_cast<std::size_t>(chip) *
                                    store_.words() +
                                a];
            // Last-writer-wins: a later write already landed here
            // (this chip committed it locally while our frame was in
            // flight) — applying the older value would roll it back.
            if (frame->versions[i] <= applied)
                continue;
            applied = frame->versions[i];
            store_.writeChip(chip, a, frame->values[i]);
            // The bridged commit breaks pending RMWs on this chip
            // exactly like a same-chip delivery would (§4.2.1,
            // extended machine-wide).
            for (std::uint32_t k = 0; k < armedCount_[chip]; ++k) {
                PendingRmw &p = pendingRmw_[armed_[first + k]];
                if (p.addr == a)
                    p.afb = true;
            }
        }
    }
    frames_.free(*frame);
}

void
BmSystem::deliverRmw(sim::NodeId node, sim::BmAddr addr,
                     std::uint64_t value)
{
    if (numChips_ > 1 && store_.scope(addr) == BmScope::Global) {
        PendingRmw &p = pendingRmw_[node];
        // Unlike same-chip commits (serialized on our channel, so they
        // cannot land mid-transmission), a bridged frame can arrive
        // between winning the slot and this delivery instant — honor
        // the AFB it raised. And if the local replica was stale when we
        // read it (our chip has not applied the latest global version),
        // the value we computed is based on a lost update: abort.
        if (p.afb ||
            appliedVersion_[static_cast<std::size_t>(chipOf(node)) *
                                store_.words() +
                            addr] != globalVersion_[addr]) {
            if (!p.afb)
                stats_.staleRmwAborts.inc();
            p.afb = true;
            return;
        }
    }
    deliverStore(node, addr, &value, 1);
}

BmSystem::Load
BmSystem::load(sim::NodeId node, sim::Pid pid, sim::BmAddr addr)
{
    checkPid(addr, pid);
    stats_.loads.inc();
    return Load(*this, node, addr);
}

bool
BmSystem::ToneWatch::redundant(void *w)
{
    const auto &watch = *static_cast<const ToneWatch *>(w);
    return watch.tone->isActive(watch.addr) ||
           watch.tone->epochOf(watch.addr) != watch.epoch;
}

void
BmSystem::ToneRelease::toggle(void *r, sim::BmAddr addr)
{
    const auto &release = *static_cast<const ToneRelease *>(r);
    release.bm->store_.toggleChip(release.chip, addr);
}

template <typename Deliver>
coro::Task<void>
BmSystem::broadcast(sim::NodeId node, bool bulk, Deliver deliver,
                    sim::Cycle after, ToneWatch watch)
{
    // The send borrows deliver and watch, which live in this frame.
    // No replica changed when the reliability layer gives up, so the
    // controller re-issues the whole send (fresh retry budget) and the
    // chip-wide write order is unaffected: the operation just completes
    // later. The outcome is awaited into a local, not in a while
    // condition: GCC 12 can lay out the frame of a co_await in a
    // condition wrongly (this one never started its body).
    for (;;) {
        const auto sent = co_await macs_[node]->send(
            bulk, deliver, watch.tone ? &ToneWatch::redundant : nullptr,
            &watch);
        if (sent != wireless::SendOutcome::GaveUp)
            break;
        stats_.sendReissues.inc();
    }
    co_await coro::delay(engine_, after);
}

coro::Task<void>
BmSystem::store(sim::NodeId node, sim::Pid pid, sim::BmAddr addr,
                std::uint64_t value)
{
    checkPid(addr, pid);
    stats_.stores.inc();
    // Local BM write + WCB after the broadcast succeeds (§4.2.1).
    return broadcast(
        node, false,
        [this, node, addr, value] { deliverStore(node, addr, &value, 1); },
        cfg_.bmRtCycles);
}

BmSystem::BulkLoad
BmSystem::bulkLoad(sim::NodeId node, sim::Pid pid, sim::BmAddr addr)
{
    checkPid(addr, pid, 4);
    stats_.loads.inc();
    return BulkLoad(*this, node, addr);
}

coro::Task<void>
BmSystem::bulkStore(sim::NodeId node, sim::Pid pid, sim::BmAddr addr,
                    std::array<std::uint64_t, 4> values)
{
    checkPid(addr, pid, 4);
    stats_.stores.inc();
    stats_.bulkStores.inc();
    return broadcast(
        node, true,
        [this, node, addr, values] {
            deliverStore(node, addr, values.data(), 4);
        },
        cfg_.bmRtCycles);
}

void
BmSystem::clearPendingRmws()
{
    pendingRmw_.assign(numNodes_, PendingRmw{});
    armed_.assign(numNodes_, 0);
    armedCount_.assign(numChips_, 0);
}

void
BmSystem::armRmw(sim::NodeId node, sim::BmAddr addr)
{
    PendingRmw &p = pendingRmw_[node];
    WISYNC_ASSERT(!p.active, "one outstanding RMW per node");
    const std::uint32_t chip = chipOf(node);
    const std::uint32_t slot = chip * coresPerChip_ + armedCount_[chip]++;
    armed_[slot] = node;
    p = PendingRmw{true, addr, false, slot};
}

void
BmSystem::disarmRmw(sim::NodeId node)
{
    PendingRmw &p = pendingRmw_[node];
    p.active = false;
    // Fill the hole with the chip's last armed node.
    const std::uint32_t chip = chipOf(node);
    const std::uint32_t last = chip * coresPerChip_ + --armedCount_[chip];
    armed_[p.slot] = armed_[last];
    pendingRmw_[armed_[last]].slot = p.slot;
}

coro::Task<RmwResult>
BmSystem::rmw(sim::NodeId node, sim::Pid pid, sim::BmAddr addr, RmwOp op,
              std::uint64_t operand, std::uint64_t desired)
{
    checkPid(addr, pid);
    stats_.rmws.inc();
    co_await coro::delay(engine_, cfg_.bmRtCycles); // local BM read
    PendingRmw &p = pendingRmw_[node];
    armRmw(node, addr);
    RmwResult r;
    r.oldValue = store_.read(node, addr);
    co_await coro::delay(engine_, cfg_.rmwModifyCycles); // pipeline modify
    switch (op) {
      case RmwOp::FetchAdd:
        desired = r.oldValue + operand;
        break;
      case RmwOp::TestAndSet:
        desired = 1;
        break;
      case RmwOp::Cas:
        r.compared = r.oldValue == operand;
        break;
    }
    if (!r.compared) {
        // Comparison failed: no write is attempted (Fig. 4(b) retries
        // straight away without consulting AFB).
        disarmRmw(node);
        co_return r;
    }
    auto commit = [this, node, addr, desired] {
        deliverRmw(node, addr, desired);
    };
    const auto sent = co_await macs_[node]->send(
        false, commit, &PendingRmw::afbRaised, &p);
    // A reliability-layer give-up rides the AFB contract: the write
    // never occurred, the instruction completes, software retries
    // (Fig. 4(a)) — identical observable semantics, no new hang path.
    r.atomicityFailed = p.afb || sent == wireless::SendOutcome::GaveUp;
    disarmRmw(node);
    if (r.atomicityFailed)
        stats_.afbFailures.inc();
    else
        co_await coro::delay(engine_, cfg_.bmRtCycles); // local write
    co_return r;
}

coro::Task<std::uint64_t>
BmSystem::rmwRetry(sim::NodeId node, sim::Pid pid, sim::BmAddr addr,
                   RmwOp op, std::uint64_t operand)
{
    for (;;) {
        const RmwResult r = co_await rmw(node, pid, addr, op, operand);
        if (!r.atomicityFailed)
            co_return r.oldValue;
    }
}

coro::Task<void>
BmSystem::toneStore(sim::NodeId node, sim::Pid pid, sim::BmAddr addr)
{
    checkPid(addr, pid);
    WISYNC_ASSERT(toneEnabled_,
                  "tone_st requires the Tone channel (WiSync config)");
    stats_.toneStores.inc();
    co_await coro::delay(engine_, 1); // tone-controller access
    wireless::ToneChannel &tone = *tones_[chipOf(node)];
    const sim::NodeId local = node % coresPerChip_;
    WISYNC_ASSERT(tone.isArmed(addr, local),
                  "tone_st from a node not armed for this barrier");
    if (tone.needsAnnouncement(addr)) {
        // First arrival (from this node's view): the tone controller
        // announces the barrier on the Data channel with the Tone bit
        // set. tone_st itself retires immediately — the MAC transmits
        // asynchronously. If another node's announcement wins the race
        // (or the whole barrier completes) while ours waits in the
        // MAC, the controller cancels the now-redundant message at
        // its transmit slot.
        // The announcement is re-issued until it is either delivered
        // or genuinely redundant (another node's announcement activated
        // the barrier, or the epoch moved on): never a lost wakeup.
        stats_.toneAnnouncements.inc();
        tone.arrive(addr, local); // pending until activation
        coro::spawnDetached(
            engine_,
            broadcast(node, false,
                      [tone = &tone, addr] { tone->activate(addr); }, 0,
                      ToneWatch{&tone, addr, tone.epochOf(addr)}));
    } else {
        tone.arrive(addr, local); // drop our tone
    }
}

coro::Task<std::uint64_t>
BmSystem::spin(sim::NodeId node, sim::Pid pid, sim::BmAddr addr,
               std::uint64_t value, bool until_equal)
{
    for (;;) {
        // Armed before the load: a write during it fires the record,
        // and the await below then falls through.
        coro::Watch changed;
        store_.arm(changed, node, addr);
        const std::uint64_t v = co_await load(node, pid, addr);
        if ((v == value) == until_equal)
            co_return v;
        co_await changed;
    }
}

coro::Task<void>
BmSystem::allocEntries(sim::NodeId node, sim::Pid pid, sim::BmAddr addr,
                       std::uint32_t count)
{
    WISYNC_ASSERT(addr + count <= cfg_.words(), "BM allocation OOB");
    // One broadcast allocation message carries base + PID (§4.4); on
    // delivery every node allocates and tags the same entries. On a
    // multi-chip machine the tags apply machine-wide at the delivery
    // instant: allocation is setup-plane metadata, not data — modeling
    // its bridge crossing would only delay tag visibility, never
    // reorder data commits.
    return broadcast(
        node, false,
        [this, pid, addr, count] {
            for (std::uint32_t i = 0; i < count; ++i)
                store_.setTag(addr + i, pid);
        },
        cfg_.bmRtCycles);
}

coro::Task<void>
BmSystem::deallocEntries(sim::NodeId node, sim::BmAddr addr,
                         std::uint32_t count)
{
    return broadcast(
        node, false,
        [this, addr, count] {
            for (std::uint32_t i = 0; i < count; ++i)
                store_.setTag(addr + i, kNoPid);
        },
        0);
}

bool
BmSystem::allocToneBarrier(sim::BmAddr addr, std::vector<bool> armed)
{
    if (!toneEnabled_)
        return false;
    // Tone barriers are per-die hardware: the armed set must sit on
    // one chip. A spanning set is not an error — the caller falls back
    // to a Data-channel barrier (and, above that, the multi-chip
    // composite barrier).
    WISYNC_ASSERT(armed.size() == numNodes_,
                  "armed vector must cover every node");
    std::uint32_t chip = numChips_;
    for (std::uint32_t n = 0; n < numNodes_; ++n) {
        if (!armed[n])
            continue;
        if (chip == numChips_)
            chip = chipOf(n);
        else if (chipOf(n) != chip)
            return false;
    }
    if (chip == numChips_)
        return false; // nobody armed
    std::vector<bool> local(coresPerChip_, false);
    for (std::uint32_t l = 0; l < coresPerChip_; ++l)
        local[l] = armed[chip * coresPerChip_ + l];
    if (!tones_[chip]->alloc(addr, std::move(local)))
        return false;
    // The barrier word toggles on this chip only; mark it chip-local
    // so the release neither crosses the bridge nor trips the global
    // consistency invariant. The scope sticks until the next reset —
    // the BM allocator never reuses words within a run.
    store_.setScope(addr, BmScope::ChipLocal);
    return true;
}

void
BmSystem::deallocToneBarrier(sim::BmAddr addr)
{
    if (!toneEnabled_)
        return;
    for (auto &tone : tones_)
        if (tone->isAllocated(addr))
            tone->dealloc(addr);
}

bool
BmSystem::anyToneArmedOn(sim::NodeId node) const
{
    if (!toneEnabled_)
        return false;
    return tones_[chipOf(node)]->anyArmedOn(node % coresPerChip_);
}

} // namespace wisync::bm
