#include "layers.hh"

#include "core/machine.hh"

namespace perfbench {

using namespace wisync;

PreRun
snapshot(core::Machine &machine)
{
    return {coro::framePool().stats(),
            machine.mem().dirPoolStats().rehashes};
}

void
capture(core::Machine &machine, const PreRun &pre, LayerCounts &counts,
        HostCounts &host)
{
    auto &c = counts.v;
    c = {};

    const sim::Engine &engine = machine.engine();
    c[kEvents] = engine.eventsExecuted();
    c[kTierReady] = engine.tierStats().ready;
    c[kTierCalendar] = engine.tierStats().calendar;
    c[kTierHeap] = engine.tierStats().heap;
    c[kCascades] = engine.tierStats().cascades;
    c[kSimCycles] = engine.now();

    const coro::FramePool::Stats &frames = coro::framePool().stats();
    c[kFramesPooled] = frames.pooledAllocs - pre.frames.pooledAllocs;
    c[kFramesFallback] = frames.fallbackAllocs - pre.frames.fallbackAllocs;

    const noc::MeshStats &mesh = machine.mesh().stats();
    c[kMeshMessages] = mesh.messages.value();
    c[kMeshFlits] = mesh.flits.value();
    c[kMeshFastHits] = mesh.fastpathHits.value();
    c[kMeshFastFallbacks] = mesh.fastpathFallbacks.value();

    const mem::MemStats &mem = machine.mem().stats();
    c[kMemLoads] = mem.loads.value();
    c[kMemStores] = mem.stores.value();
    c[kMemRmws] = mem.rmws.value();
    c[kL1Hits] = mem.l1Hits.value();
    c[kL1Misses] = mem.l1Misses.value();
    c[kInvalidations] = mem.invalidations.value();
    c[kDramFetches] = mem.dramFetches.value();
    c[kMemFastHits] = mem.fastpathHits.value();
    c[kMemFastFallbacks] = mem.fastpathFallbacks.value();

    if (bm::BmSystem *bm = machine.bm()) {
        const bm::BmStats &bs = bm->stats();
        c[kBmStores] = bs.stores.value();
        c[kBmRmws] = bs.rmws.value();
        c[kBmAfbFailures] = bs.afbFailures.value();
        c[kBmToneStores] = bs.toneStores.value();
        c[kBmSendReissues] = bs.sendReissues.value();
        for (std::uint32_t chip = 0; chip < bm->numChips(); ++chip) {
            if (const wireless::ToneChannel *tone = bm->toneChannel(chip)) {
                c[kToneSlotCycles] += tone->stats().slotCycles.value();
                c[kToneReleases] += tone->stats().releases.value();
            }
        }
        for (std::uint32_t ch = 0; ch < bm->channelCount(); ++ch) {
            const wireless::DataChannelStats &ds =
                bm->dataChannel(ch).stats();
            c[kDataMessages] += ds.messages.value();
            c[kDataCollisions] += ds.collisions.value();
            c[kDataDrops] += ds.drops.value();
            c[kDataBusyCycles] += ds.busyCycles.value();
            const wireless::MacStats &mac = bm->macProtocol(ch).stats();
            c[kMacBackoffCycles] += mac.backoffCycles.value();
            c[kMacRetransmits] += mac.retransmits.value();
            c[kMacGiveups] += mac.giveUps.value();
        }
        if (const noc::ChipBridge *bridge = bm->bridge()) {
            c[kBridgeFrames] = bridge->stats().frames.value();
            c[kBridgeBusyCycles] = bridge->stats().busyCycles.value();
        }
    }

    host.freelistReuses =
        frames.freelistReuses - pre.frames.freelistReuses;
    host.dirRehashes =
        machine.mem().dirPoolStats().rehashes - pre.dirRehashes;
}

} // namespace perfbench
