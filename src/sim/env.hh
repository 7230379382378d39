/**
 * @file
 * Process-environment switches read by the simulation substrate.
 *
 * Kept deliberately tiny: flags are re-read every time a config object
 * is built (not cached in process-wide statics), so tests can toggle
 * them between machine builds/resets within one process.
 */

#ifndef WISYNC_SIM_ENV_HH
#define WISYNC_SIM_ENV_HH

#include <cstdlib>

namespace wisync::sim {

/**
 * Default for the uncontended fast paths through the mesh and memory
 * hot loops: enabled unless WISYNC_NO_FASTPATH=1 (the kill switch; the
 * fast paths are cycle-exact by contract, so the switch exists for A/B
 * verification and as an escape hatch, not for correctness). Evaluated
 * when a MeshConfig / MemConfig is constructed; the value then travels
 * with the config through Machine::reset.
 */
inline bool
fastpathDefault()
{
    const char *v = std::getenv("WISYNC_NO_FASTPATH");
    return !(v && v[0] == '1');
}

} // namespace wisync::sim

#endif // WISYNC_SIM_ENV_HH
