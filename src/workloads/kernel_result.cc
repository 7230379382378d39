#include "workloads/kernel_result.hh"

#include "core/machine.hh"
#include "sim/fnv1a.hh"

namespace wisync::workloads {

void
captureChannelStats(KernelResult &result, core::Machine &machine)
{
    const auto &mesh = machine.mesh().stats();
    const auto &mem = machine.mem().stats();
    result.fastpathHits =
        mesh.fastpathHits.value() + mem.fastpathHits.value();
    result.fastpathFallbacks =
        mesh.fastpathFallbacks.value() + mem.fastpathFallbacks.value();
    if (bm::BmSystem *bm = machine.bm()) {
        // Single-channel machines read channel 0 directly (the exact
        // pre-multichip expressions); multi-channel machines sum over
        // every frequency-plan channel and report the mean busy
        // fraction.
        const std::uint32_t channels = bm->channelCount();
        double utilisation = 0.0;
        for (std::uint32_t ch = 0; ch < channels; ++ch) {
            wireless::DataChannel &channel = bm->dataChannel(ch);
            utilisation += channel.utilisation();
            result.collisions += channel.stats().collisions.value();
            result.wirelessDrops += channel.stats().drops.value();
            const wireless::MacStats &mac = bm->macProtocol(ch).stats();
            result.macBackoffCycles += mac.backoffCycles.value();
            result.macTokenWaits += mac.tokenWaits.value();
            result.macTokenRotations += mac.tokenRotations.value();
            result.macModeSwitches += mac.modeSwitches.value();
            result.macAckTimeouts += mac.ackTimeouts.value();
            result.macRetransmits += mac.retransmits.value();
            result.macGiveups += mac.giveUps.value();
        }
        result.dataChannelUtilisation =
            channels == 1 ? utilisation
                          : utilisation / static_cast<double>(channels);
        if (const noc::ChipBridge *bridge = bm->bridge()) {
            result.bridgeFrames = bridge->stats().frames.value();
            result.bridgeBusyCycles = bridge->stats().busyCycles.value();
            result.bridgeDrops = bridge->stats().drops.value();
            result.bridgeAckTimeouts = bridge->stats().ackTimeouts.value();
            result.bridgeRetransmits =
                bridge->stats().retransmits.value();
            result.bridgeGiveups = bridge->stats().giveUps.value();
        }
        result.staleRmwAborts = bm->stats().staleRmwAborts.value();
    }
}

CounterWords
toCounterWords(const KernelResult &r)
{
    CounterWords words{};
    std::size_t i = 0;
    forEachCounter(r, [&](const char *, const auto &m, CounterKind) {
        words[i++] = sim::toWord(m);
    });
    return words;
}

KernelResult
fromCounterWords(const CounterWords &words)
{
    KernelResult r;
    std::size_t i = 0;
    forEachCounter(r, [&]<typename T>(const char *, T &m, CounterKind) {
        m = sim::fromWord<T>(words[i++]);
    });
    return r;
}

bool
bitIdentical(const KernelResult &a, const KernelResult &b)
{
    const CounterWords wa = toCounterWords(a);
    const CounterWords wb = toCounterWords(b);
    bool same = true;
    std::size_t i = 0;
    forEachCounter(a, [&](const char *, const auto &, CounterKind kind) {
        same = same && (kind == CounterKind::Host || wa[i] == wb[i]);
        ++i;
    });
    return same;
}

} // namespace wisync::workloads
