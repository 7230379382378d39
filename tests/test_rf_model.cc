/**
 * @file
 * Tests for the RF area/power scaling model against the paper's §2,
 * §7.1 and Table 4 numbers, and for the deterministic per-link
 * channel model (grid geometry -> path loss -> SNR -> BER ->
 * broadcast packet-error rate).
 */

#include <gtest/gtest.h>

#include "wireless/data_channel.hh"
#include "wireless/rf_model.hh"

namespace {

using wisync::wireless::RfChannelConfig;
using wisync::wireless::RfChannelModel;
using wisync::wireless::RfScalingModel;
using wisync::wireless::RfSpec;

TEST(RfModel, Yu65ReferenceMatchesPaper)
{
    const RfSpec ref = RfScalingModel::yu65Reference();
    EXPECT_DOUBLE_EQ(ref.areaMm2, 0.23);
    EXPECT_DOUBLE_EQ(ref.powerMw, 31.2);
    EXPECT_DOUBLE_EQ(ref.bandwidthGbps, 16.0);
    EXPECT_EQ(ref.techNm, 65);
}

TEST(RfModel, ScaledTo22nmMatchesPaperEndpoints)
{
    // §2: "an antenna and transceiver at 22-nm ... 0.1 mm2 at 16 mW".
    const RfSpec scaled =
        RfScalingModel::scale(RfScalingModel::yu65Reference(), 22);
    EXPECT_NEAR(scaled.areaMm2, 0.10, 0.005);
    EXPECT_NEAR(scaled.powerMw, 16.0, 0.5);
    EXPECT_EQ(scaled.techNm, 22);
    EXPECT_DOUBLE_EQ(scaled.bandwidthGbps, 16.0); // held constant
}

TEST(RfModel, AreaScalingIsSublinear)
{
    // Sublinear: shrink saves less area than the linear tech ratio.
    const RfSpec ref = RfScalingModel::yu65Reference();
    const RfSpec scaled = RfScalingModel::scale(ref, 22);
    const double linear = ref.areaMm2 * 22.0 / 65.0;
    EXPECT_GT(scaled.areaMm2, linear);
    EXPECT_LT(scaled.areaMm2, ref.areaMm2);
}

TEST(RfModel, IdentityScaleIsNoop)
{
    const RfSpec ref = RfScalingModel::yu65Reference();
    const RfSpec same = RfScalingModel::scale(ref, 65);
    EXPECT_DOUBLE_EQ(same.areaMm2, ref.areaMm2);
    EXPECT_DOUBLE_EQ(same.powerMw, ref.powerMw);
}

TEST(RfModel, WisyncTransceiverTotals)
{
    // §7.1: transceiver + two antennas = 0.14 mm2 and 18 mW.
    const RfSpec t2a = RfScalingModel::wisyncTransceiver22();
    EXPECT_NEAR(t2a.areaMm2, 0.14, 0.006);
    EXPECT_NEAR(t2a.powerMw, 18.0, 0.5);
}

TEST(RfModel, Table4Percentages)
{
    const auto rows = RfScalingModel::table4();
    ASSERT_EQ(rows.size(), 2u);
    // Xeon Haswell: 0.7% area, 0.4% power.
    EXPECT_EQ(rows[0].name, "Xeon Haswell");
    EXPECT_NEAR(rows[0].areaPct, 0.7, 0.05);
    EXPECT_NEAR(rows[0].powerPct, 0.4, 0.05);
    // Atom Silvermont: 5.6% area, 1.8% power.
    EXPECT_EQ(rows[1].name, "Atom Silvermont");
    EXPECT_NEAR(rows[1].areaPct, 5.6, 0.2);
    EXPECT_NEAR(rows[1].powerPct, 1.8, 0.1);
}

// ---- Control-frame pricing ----------------------------------------

TEST(RfChannel, FrameCyclesPricesFramesAtTransceiverBandwidth)
{
    const RfSpec t = RfScalingModel::wisyncTransceiver22();
    // 16 Gb/s in 1 ns slots = 16 bits per slot: a 16-bit token frame
    // costs exactly the legacy 1-cycle hop, and the 77-bit data frame
    // prices to the Table 1 5-cycle transfer.
    EXPECT_EQ(RfScalingModel::frameCycles(16, t), 1u);
    EXPECT_EQ(RfScalingModel::frameCycles(77, t), 5u);
    EXPECT_EQ(RfScalingModel::frameCycles(48, t), 3u);
    // Ceil with a floor of one slot.
    EXPECT_EQ(RfScalingModel::frameCycles(1, t), 1u);
    EXPECT_EQ(RfScalingModel::frameCycles(17, t), 2u);
}

TEST(RfChannelDeathTest, FrameCyclesRejectsNonPositiveBandwidth)
{
    // A zero-bandwidth spec used to divide by zero inside the slot
    // computation; it must die loudly instead of returning garbage.
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    RfSpec broken = RfScalingModel::wisyncTransceiver22();
    broken.bandwidthGbps = 0.0;
    EXPECT_EXIT(RfScalingModel::frameCycles(77, broken),
                ::testing::ExitedWithCode(1), "positive bandwidth");
}

// ---- Per-link channel model ---------------------------------------

TEST(RfChannel, GridGeometryAndReferenceLoss)
{
    // 16 nodes on the 20 mm die: a 4x4 grid, 5 mm pitch.
    const RfChannelModel m(16);
    EXPECT_DOUBLE_EQ(m.distanceMm(3, 3), 0.0);
    EXPECT_DOUBLE_EQ(m.distanceMm(0, 1), 5.0);
    EXPECT_DOUBLE_EQ(m.distanceMm(0, 4), 5.0); // one row down
    EXPECT_DOUBLE_EQ(m.distanceMm(2, 9), m.distanceMm(9, 2));
    // Zero distance costs exactly the insertion/reference loss; every
    // mm adds the measured slope on top.
    EXPECT_DOUBLE_EQ(m.pathLossDb(3, 3), m.config().plRefDb);
    EXPECT_DOUBLE_EQ(m.pathLossDb(0, 1),
                     m.config().plRefDb + 5.0 * m.config().plSlopeDbPerMm);
}

TEST(RfChannel, BerGrowsWithDistance)
{
    const RfChannelModel m(16);
    // Node 15 sits at the far corner from node 0; node 1 is adjacent.
    EXPECT_GT(m.snrDb(0, 1), m.snrDb(0, 15));
    EXPECT_LT(m.bitErrorRate(0, 1), m.bitErrorRate(0, 15));
    EXPECT_GT(m.bitErrorRate(0, 15), 0.0);
    EXPECT_LE(m.bitErrorRate(0, 15), 0.5);
}

TEST(RfChannel, DefaultChannelIsEffectivelyIdeal)
{
    // At the default transmit power the in-package link budget leaves
    // tens of dB of margin (the Timoneda picture): the derived
    // broadcast packet-error rate is negligible even for the worst
    // transmitter on a 64-node die.
    const RfChannelModel m(64);
    for (const std::uint32_t tx : {0u, 27u, 63u})
        EXPECT_LT(m.broadcastErrorRate(
                      tx, wisync::wireless::kDataFrameBits),
                  1e-6);
}

TEST(RfChannel, LowTransmitPowerEntersTheLossyRegime)
{
    RfChannelConfig cfg;
    cfg.txPowerDbm = -20.0;
    const RfChannelModel m(16, cfg);
    EXPECT_GT(m.broadcastErrorRate(0, wisync::wireless::kDataFrameBits),
              0.5);
}

TEST(RfChannel, WiderFramesCarryMoreRisk)
{
    RfChannelConfig cfg;
    cfg.txPowerDbm = 5.0;
    const RfChannelModel m(16, cfg);
    const double data =
        m.broadcastErrorRate(0, wisync::wireless::kDataFrameBits);
    const double bulk =
        m.broadcastErrorRate(0, wisync::wireless::kBulkFrameBits);
    EXPECT_GT(data, 0.0);
    EXPECT_GT(bulk, data);
    EXPECT_LE(bulk, 1.0);
}

TEST(RfChannel, LinkOverrideIsDirectional)
{
    RfChannelModel m(16);
    const double reverse = m.bitErrorRate(1, 0);
    m.overridePathLoss(0, 1, 150.0);
    // The blocked path kills the (0 -> 1) link — and with it every
    // broadcast from node 0 (all-or-nothing) — while the reverse
    // direction and other transmitters are untouched.
    EXPECT_NEAR(m.bitErrorRate(0, 1), 0.5, 1e-6);
    EXPECT_DOUBLE_EQ(m.bitErrorRate(1, 0), reverse);
    EXPECT_GT(m.broadcastErrorRate(0, wisync::wireless::kDataFrameBits),
              0.99);
    EXPECT_LT(m.broadcastErrorRate(1, wisync::wireless::kDataFrameBits),
              1e-6);
}

TEST(RfChannelDeathTest, LinkOverrideRejectsOutOfRangeEndpoints)
{
    // An out-of-range endpoint used to index past the attenuation
    // matrix (silent corruption, or a crash far from the cause); it
    // must die loudly at the configuration site instead.
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    RfChannelModel m(16);
    EXPECT_EXIT(m.overridePathLoss(16, 0, 150.0),
                ::testing::ExitedWithCode(1), "out of range");
    EXPECT_EXIT(m.overridePathLoss(0, 99, 150.0),
                ::testing::ExitedWithCode(1), "out of range");
}

TEST(RfChannel, NonSquareNodeCountsGetTheEnclosingGrid)
{
    // 6 nodes -> a 3x3 grid with the last cells empty; distances stay
    // finite and the matrix covers every real pair.
    const RfChannelModel m(6);
    for (std::uint32_t tx = 0; tx < 6; ++tx)
        for (std::uint32_t rx = 0; rx < 6; ++rx) {
            EXPECT_GE(m.pathLossDb(tx, rx), m.config().plRefDb);
            if (tx != rx) {
                EXPECT_GT(m.distanceMm(tx, rx), 0.0);
            }
        }
}

} // namespace
