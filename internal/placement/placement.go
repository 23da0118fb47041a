// Package placement is the fleet-level placement and migration engine
// that sits above the per-node governor and the fleet coordinator.
// Sturgeon decides each node's resource split; this package decides
// *which* BE application lands next to which LS service on which node,
// and when a running BE should move.
//
// It has three parts:
//
//   - A pair Scorer that predicts, from a per-pair core.Predictor (the
//     trained models in internal/models or the node's own steady-state
//     physics, sim.Oracle), the best achievable BE throughput on a node
//     at QoS-feasible allocations under that node's granted power cap.
//   - A deterministic assignment Solver (greedy seed + bounded
//     local-search swaps and relocations, seeded stable tie-breaking)
//     that turns a job×node score matrix into an initial fleet
//     placement beating random pairing.
//   - A migration Planner invoked at epoch boundaries that evicts BE
//     work off power-starved or unhealthy nodes and consolidates BEs
//     onto fewer nodes during demand troughs, kept stable by an
//     explicit per-move cost model (warm-up intervals during which the
//     migrated BE earns nothing) plus hysteresis and cooldown
//     thresholds so it never flaps.
//
// Everything here is deterministic: the only randomness is a seeded
// tie-break jitter far below any real score difference, so repeated
// runs — and runs at any stepping parallelism — produce byte-identical
// plans. See DESIGN.md §15.
package placement
